//! Resource quantities and arithmetic.
//!
//! Kubernetes natively understands CPU and memory; any other resource is an
//! *extended resource* registered by a device plugin and constrained to
//! **integer** quantities that can be neither fractionally requested nor
//! over-committed (paper §3.1). That integer constraint is the root of the
//! problem KubeShare solves, so it is enforced here by construction: custom
//! resource quantities are `u64` counts.

use std::collections::BTreeMap;
use std::ops::{AddAssign, SubAssign};

use serde::{Deserialize, Serialize};

/// The resource name Kubernetes' NVIDIA device plugin registers.
pub const NVIDIA_GPU: &str = "nvidia.com/gpu";

/// A bag of named resource quantities (node capacity, pod request, …).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceList {
    /// CPU in millicores.
    pub cpu_millis: u64,
    /// Memory in bytes.
    pub memory_bytes: u64,
    /// Extended resources: name → integer count.
    pub extended: BTreeMap<String, u64>,
}

impl ResourceList {
    /// The empty quantity.
    pub fn zero() -> Self {
        Self::default()
    }

    /// CPU + memory convenience constructor.
    pub fn cpu_mem(cpu_millis: u64, memory_bytes: u64) -> Self {
        ResourceList {
            cpu_millis,
            memory_bytes,
            extended: BTreeMap::new(),
        }
    }

    /// Adds an extended resource count (builder style).
    pub fn with_extended(mut self, name: impl Into<String>, count: u64) -> Self {
        self.extended.insert(name.into(), count);
        self
    }

    /// Count of one extended resource.
    pub fn extended_count(&self, name: &str) -> u64 {
        self.extended.get(name).copied().unwrap_or(0)
    }

    /// True if `self` fits within `avail` on every axis.
    pub fn fits_in(&self, avail: &ResourceList) -> bool {
        if self.cpu_millis > avail.cpu_millis || self.memory_bytes > avail.memory_bytes {
            return false;
        }
        self.extended
            .iter()
            .all(|(k, &v)| v <= avail.extended_count(k))
    }

    /// True if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.cpu_millis == 0 && self.memory_bytes == 0 && self.extended.values().all(|&v| v == 0)
    }

    /// True if both hold the same count on every axis; an absent extended
    /// resource counts as zero.
    pub(crate) fn same_counts(&self, other: &ResourceList) -> bool {
        self.cpu_millis == other.cpu_millis
            && self.memory_bytes == other.memory_bytes
            && (self.extended.keys().chain(other.extended.keys()))
                .all(|k| self.extended_count(k) == other.extended_count(k))
    }
}

/// Component-wise addition in place.
impl AddAssign<&ResourceList> for ResourceList {
    fn add_assign(&mut self, other: &ResourceList) {
        self.cpu_millis += other.cpu_millis;
        self.memory_bytes += other.memory_bytes;
        for (k, &v) in &other.extended {
            match self.extended.get_mut(k) {
                Some(e) => *e += v,
                None => {
                    self.extended.insert(k.clone(), v);
                }
            }
        }
    }
}

/// Component-wise subtraction in place.
///
/// # Panics
/// Panics if any component would go negative (accounting bug).
impl SubAssign<&ResourceList> for ResourceList {
    fn sub_assign(&mut self, other: &ResourceList) {
        let sub = |a: u64, b: u64, axis: &str| {
            a.checked_sub(b)
                .unwrap_or_else(|| panic!("{axis} underflow"))
        };
        self.cpu_millis = sub(self.cpu_millis, other.cpu_millis, "cpu");
        self.memory_bytes = sub(self.memory_bytes, other.memory_bytes, "memory");
        for (k, &v) in &other.extended {
            let e = self
                .extended
                .get_mut(k)
                .unwrap_or_else(|| panic!("missing extended resource {k}"));
            *e = sub(*e, v, "extended resource");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_all_axes() {
        let avail = ResourceList::cpu_mem(4000, 8 << 30).with_extended(NVIDIA_GPU, 4);
        assert!(ResourceList::cpu_mem(1000, 1 << 30)
            .with_extended(NVIDIA_GPU, 2)
            .fits_in(&avail));
        assert!(!ResourceList::cpu_mem(5000, 1 << 30).fits_in(&avail));
        assert!(!ResourceList::cpu_mem(100, 16 << 30).fits_in(&avail));
        assert!(!ResourceList::cpu_mem(100, 100)
            .with_extended(NVIDIA_GPU, 5)
            .fits_in(&avail));
    }

    #[test]
    fn unknown_extended_resource_never_fits() {
        let avail = ResourceList::cpu_mem(4000, 8 << 30);
        assert!(!ResourceList::zero()
            .with_extended("example.com/fpga", 1)
            .fits_in(&avail));
    }

    #[test]
    fn zero_fits_everywhere() {
        assert!(ResourceList::zero().fits_in(&ResourceList::zero()));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = ResourceList::cpu_mem(1000, 100).with_extended(NVIDIA_GPU, 2);
        let b = ResourceList::cpu_mem(500, 50).with_extended(NVIDIA_GPU, 1);
        let mut r = a.clone();
        r += &b;
        assert_eq!(r.cpu_millis, 1500);
        assert_eq!(r.extended_count(NVIDIA_GPU), 3);
        r -= &b;
        assert_eq!(r, a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let mut a = ResourceList::cpu_mem(100, 0);
        a -= &ResourceList::cpu_mem(200, 0);
    }

    #[test]
    fn is_zero() {
        assert!(ResourceList::zero().is_zero());
        let r = ResourceList::zero().with_extended(NVIDIA_GPU, 0);
        assert!(r.is_zero());
        assert!(!ResourceList::cpu_mem(1, 0).is_zero());
    }
}
