//! An O(1) table for the program's own dense ids.
//!
//! Client and context ids are counters that each device mints from 1
//! upward and never reuses, so the ids alive at one time lie in a short
//! run of integers. [`DenseMap`] indexes that run directly: a window of
//! `u32` slot numbers covering the smallest to the largest live id, in
//! front of a dense slab of entries. A lookup is one subtraction, one
//! window read and one slab read, with no hashing.
//!
//! Memory follows the live ids, not how many were ever issued. A removed
//! entry leaves the slab at once (the last entry moves into its place).
//! Vacant slots at the back of the window are dropped at once, and those
//! at the front once they make up half of it. A retired id between live
//! ones costs its 4-byte slot until the ids before it are gone too. The
//! window spans at most twice the spread of the live ids, so any single
//! id, up to `u64::MAX`, costs one slot; ids far apart from each other
//! are the one use this table is not for.

/// An id type usable as a [`DenseMap`] key: its raw integer value.
pub trait DenseKey: Copy {
    /// The id's integer value.
    fn raw(self) -> u64;
}

impl DenseKey for u64 {
    #[inline]
    fn raw(self) -> u64 {
        self
    }
}

/// Slot value of an id with no entry.
const VACANT: u32 = u32::MAX;

/// A map from dense ids to values. See the module docs.
///
/// Indexing with `map[key]` panics if `key` has no entry.
#[derive(Debug, Clone)]
pub struct DenseMap<K, V> {
    /// `slots[i]` is the slab index of the entry for id `base + i`, or
    /// [`VACANT`]. Empty exactly when the map is; otherwise the last slot
    /// and `slots[lead]` are occupied.
    slots: Vec<u32>,
    base: u64,
    /// Vacant slots at the front, dropped once they are half the window,
    /// so the shift that drops them is paid for by the removals that
    /// vacated them.
    lead: usize,
    entries: Vec<(K, V)>,
}

impl<K, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        DenseMap {
            slots: Vec::new(),
            base: 0,
            lead: 0,
            entries: Vec::new(),
        }
    }
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids from the smallest to the largest live one, 0 when empty. Each
    /// costs a 4-byte slot (plus at most as many vacant slots before
    /// them, not yet dropped).
    pub fn span(&self) -> usize {
        self.slots.len() - self.lead
    }

    /// Window offset of `key`, if the window covers it.
    #[inline]
    fn offset(&self, key: K) -> Option<usize> {
        let off = usize::try_from(key.raw().wrapping_sub(self.base)).ok()?;
        (off < self.slots.len()).then_some(off)
    }

    /// Slab index of `key`'s entry, or past the slab's end if it has none
    /// (a [`VACANT`] slot is), so the slab's bounds check is the one test
    /// for a miss.
    #[inline]
    fn slot(&self, key: K) -> usize {
        self.offset(key).map_or(VACANT, |off| self.slots[off]) as usize
    }

    /// Slab index of `key`'s entry.
    #[inline]
    fn index(&self, key: K) -> Option<usize> {
        let i = self.slot(key);
        (i < self.entries.len()).then_some(i)
    }

    /// True if `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.index(key).is_some()
    }

    /// The value for `key`.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.entries.get(self.slot(key)).map(|(_, value)| value)
    }

    /// The value for `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let i = self.slot(key);
        self.entries.get_mut(i).map(|(_, value)| value)
    }

    /// Inserts `value` for `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index(key) {
            Some(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            None => {
                self.push(key, value);
                None
            }
        }
    }

    /// The value for `key`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.index(key) {
            Some(i) => i,
            None => self.push(key, make()),
        };
        &mut self.entries[i].1
    }

    /// Appends an entry for `key`, which has none, widening the window to
    /// cover it. Returns its slab index.
    fn push(&mut self, key: K, value: V) -> usize {
        let i = self.entries.len();
        assert!(
            i < VACANT as usize,
            "DenseMap holds at most u32::MAX - 1 entries"
        );
        let raw = key.raw();
        if self.slots.is_empty() {
            self.base = raw;
            self.slots.push(VACANT);
        } else if raw < self.base {
            let gap = (self.base - raw) as usize;
            self.slots.splice(0..0, std::iter::repeat_n(VACANT, gap));
            self.base = raw;
            self.lead += gap;
        } else {
            let off = (raw - self.base) as usize;
            if off >= self.slots.len() {
                self.slots.resize(off + 1, VACANT);
            }
        }
        let off = (raw - self.base) as usize;
        self.slots[off] = i as u32;
        self.lead = self.lead.min(off);
        self.entries.push((key, value));
        i
    }

    /// Removes `key`'s entry and returns its value.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let off = self.offset(key)?;
        let i = self.slots[off];
        if i == VACANT {
            return None;
        }
        self.slots[off] = VACANT;
        let (_, value) = self.entries.swap_remove(i as usize);
        if let Some(&(moved, _)) = self.entries.get(i as usize) {
            let off = moved.raw().wrapping_sub(self.base) as usize;
            self.slots[off] = i;
        }
        if self.entries.is_empty() {
            self.clear();
            return Some(value);
        }
        while self.slots.last() == Some(&VACANT) {
            self.slots.pop();
        }
        while self.slots[self.lead] == VACANT {
            self.lead += 1;
        }
        if 2 * self.lead >= self.slots.len() {
            self.slots.drain(..self.lead);
            self.base += self.lead as u64;
            self.lead = 0;
        }
        Some(value)
    }

    /// Keeps only the entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        let mut i = 0;
        while i < self.entries.len() {
            let (key, value) = &mut self.entries[i];
            if keep(*key, value) {
                i += 1;
            } else {
                let key = *key;
                self.remove(key);
            }
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.lead = 0;
        self.entries.clear();
    }

    /// Entries in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().filter(|&&i| i != VACANT).map(|&i| {
            let (key, value) = &self.entries[i as usize];
            (*key, value)
        })
    }

    /// Ids in increasing order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(key, _)| key)
    }
}

impl<K: DenseKey, V> std::ops::Index<K> for DenseMap<K, V> {
    type Output = V;

    #[inline]
    fn index(&self, key: K) -> &V {
        self.get(key).expect("no entry for this id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A seeded stream of inserts and removes against a `BTreeMap` model;
    /// the window must always span exactly the smallest to largest key.
    #[test]
    fn matches_btree_model_and_keeps_window_tight() {
        let mut rng = crate::rng::SimRng::seed_from_u64(7);
        let mut map: DenseMap<u64, u64> = DenseMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut next = 1u64;
        for step in 0..20_000u64 {
            if rng.index(3) == 0 || model.is_empty() {
                // Mostly fresh ids, sometimes a re-insert of a live one.
                let key = if rng.index(4) == 0 && !model.is_empty() {
                    *model.keys().nth(rng.index(model.len())).unwrap()
                } else {
                    next += 1;
                    next
                };
                assert_eq!(map.insert(key, step), model.insert(key, step));
            } else {
                let key = if rng.index(8) == 0 {
                    next + 5 // absent
                } else {
                    *model.keys().nth(rng.index(model.len())).unwrap()
                };
                assert_eq!(map.remove(key), model.remove(&key));
            }
            assert_eq!(map.len(), model.len());
            let span = match (model.keys().next(), model.keys().next_back()) {
                (Some(lo), Some(hi)) => (hi - lo + 1) as usize,
                _ => 0,
            };
            assert_eq!(map.span(), span);
        }
        let got: Vec<(u64, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
        for k in 0..next + 2 {
            assert_eq!(map.get(k), model.get(&k));
        }
    }

    #[test]
    fn extreme_ids_cost_one_slot_each() {
        let mut map: DenseMap<u64, &str> = DenseMap::new();
        map.insert(u64::MAX, "max");
        assert_eq!(map.span(), 1);
        assert_eq!(map.get(u64::MAX), Some(&"max"));
        assert_eq!(map.get(0), None);
        map.insert(u64::MAX - 2, "below");
        assert_eq!(map.span(), 3);
        assert_eq!(map.keys().collect::<Vec<_>>(), [u64::MAX - 2, u64::MAX]);
        assert_eq!(map.remove(u64::MAX - 2), Some("below"));
        assert_eq!(map.span(), 1);
        assert_eq!(map.remove(u64::MAX), Some("max"));
        assert_eq!(map.span(), 0);
        map.insert(0, "zero");
        assert_eq!(map.span(), 1);
        assert_eq!(map.get(0), Some(&"zero"));
    }

    #[test]
    fn get_or_insert_with_and_retain() {
        let mut map: DenseMap<u64, u32> = DenseMap::new();
        for k in 10..20 {
            *map.get_or_insert_with(k, || 0) += 1;
        }
        *map.get_or_insert_with(12, || 100) += 1;
        assert_eq!(map.get(12), Some(&2));
        map.retain(|k, v| {
            *v += 1;
            k % 2 == 1
        });
        assert_eq!(map.keys().collect::<Vec<_>>(), [11, 13, 15, 17, 19]);
        assert_eq!(map.span(), 9);
        assert!(map.iter().all(|(_, &v)| v == 2));
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.span(), 0);
    }
}
