//! A fast, non-cryptographic hasher for the program's own integer ids.
//!
//! The standard library's SipHash resists hash flooding by untrusted keys,
//! which costs about as much as the rest of a map lookup on a small integer
//! key. Keys such as client, context, pointer and event ids are minted by
//! the simulation itself and never come from outside the program, so they
//! need no such defence. This is the multiply-rotate hash used by the Rust
//! compiler ("Fx"): one rotate, xor and multiply per word, plus a final
//! rotate that brings the well-mixed high bits of the product down to the
//! low bits the table indexes by (otherwise keys with many trailing zero
//! bits, such as aligned device pointers, would share buckets). It is
//! deterministic, so iteration order over an [`FxHashMap`] is the same on
//! every run (callers whose output depends on order still sort).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state. Use it through [`FxHashMap`] / [`FxHashSet`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; the `S` parameter of the map and set aliases.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed by internal ids, hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` of internal ids, hashed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash_is_deterministic_and_spreads_sequential_ids() {
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one(7u64), FxBuildHasher::default().hash_one(7u64));
        let hashes: FxHashSet<u64> = (0u64..10_000).map(|i| b.hash_one(i)).collect();
        assert_eq!(hashes.len(), 10_000, "sequential ids never collide");
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        let b = FxBuildHasher::default();
        let low: FxHashSet<u64> = (0u64..1024)
            .map(|i| b.hash_one(0x7f00_0000_0000 + (i << 20)) & 1023)
            .collect();
        assert!(
            low.len() > 600,
            "only {} of 1024 low-bit buckets used",
            low.len()
        );
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let b = FxBuildHasher::default();
        assert_ne!(b.hash_one("abc"), b.hash_one("abd"));
        assert_ne!(b.hash_one([1u8; 9]), b.hash_one([1u8; 8]));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.remove(&2), Some("b"));
        assert_eq!(m.len(), 1);
    }
}
