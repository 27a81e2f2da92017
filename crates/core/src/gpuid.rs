//! GPUID: the first-class virtual identity of a shared GPU.
//!
//! KubeShare's central idea (paper §4.1–§4.2): every vGPU carries a unique
//! identifier that users and the scheduler can name explicitly. The GPUID
//! is *virtual* — DevMgr maintains the mapping to the physical driver UUID
//! (paper §4.4) — so a vGPU can be requested before a physical GPU is even
//! acquired from Kubernetes.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

/// A vGPU identifier, unique within the vGPU pool.
///
/// Shared (`Arc<str>`): every decision, index entry and pool clone holds
/// a copy, so cloning costs a refcount, not an allocation. Ordering is
/// byte order of the string, exactly as `str`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuId(Arc<str>);

impl GpuId {
    /// Wraps a user-specified id (users may name a vGPU explicitly to
    /// control binding, paper §4.2).
    pub fn named(id: impl Into<String>) -> Self {
        GpuId(id.into().into())
    }

    /// Generates a fresh hashed id, as the paper's `new_dev()` does
    /// ("generates a device variable with a new hashed id").
    pub fn generate(counter: u64) -> Self {
        // FNV-1a of the counter; the point is opacity, not security.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in counter.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        GpuId::named(format!("vgpu-{h:016x}"))
    }

    /// String form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Serializes as the plain id string.
impl Serialize for GpuId {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

impl Deserialize for GpuId {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(GpuId::named)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn generated_ids_are_unique_and_opaque() {
        let a = GpuId::generate(1);
        let b = GpuId::generate(2);
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("vgpu-"));
        assert_eq!(GpuId::generate(1), a, "deterministic");
    }

    #[test]
    fn named_ids_round_trip() {
        let g = GpuId::named("my-shared-gpu");
        assert_eq!(g.to_string(), "my-shared-gpu");
    }

    /// An id over a three-letter alphabet, so equal ids and prefix pairs
    /// such as `"a" < "ab"` come up often.
    fn short_id() -> impl Strategy<Value = GpuId> {
        proptest::collection::vec(0u8..3, 0..4)
            .prop_map(|b| GpuId::named(b.iter().map(|&c| char::from(b'a' + c)).collect::<String>()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn orders_exactly_as_str(a in short_id(), b in short_id(), n in 0u64..64, m in 0u64..64) {
            let (g, h) = (GpuId::generate(n), GpuId::generate(m));
            for (x, y) in [(&a, &b), (&g, &h), (&a, &g), (&g, &b)] {
                prop_assert_eq!(x.cmp(y), x.as_str().cmp(y.as_str()));
                prop_assert_eq!(x == y, x.as_str() == y.as_str());
            }
        }
    }

    #[test]
    fn prefix_sorts_first() {
        assert!(GpuId::named("a") < GpuId::named("ab"));
        assert!(GpuId::named("vgpu-") < GpuId::generate(0));
    }

    #[test]
    fn serde_json_round_trips_as_plain_string() {
        for id in [GpuId::generate(7), GpuId::named("my-shared-gpu")] {
            let json = serde_json::to_string(&id).unwrap();
            assert_eq!(json, format!("\"{id}\""));
            let back: GpuId = serde_json::from_str(&json).unwrap();
            assert_eq!(back, id);
        }
        assert!(serde_json::from_str::<GpuId>("7").is_err());
    }
}
