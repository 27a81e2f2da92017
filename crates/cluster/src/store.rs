//! The etcd-backed object store.
//!
//! kube-apiserver persists every object in etcd, and every write bumps a
//! cluster-wide, monotone revision (paper §2.1). [`Store`] keeps the
//! current value of each object and that revision. It keeps no history:
//! controllers learn of changes from the notices the cluster emits
//! (`ClusterNotice`), not by replaying a change log.

use std::cell::OnceCell;
use std::collections::HashMap;

use ks_telemetry::{Gauge, Telemetry};

use crate::api::meta::Uid;

/// The current objects of one kind, under a global revision.
#[derive(Debug)]
pub struct Store<T> {
    objects: HashMap<Uid, T>,
    revision: u64,
    telemetry: Telemetry,
    /// `store` label on exported metrics (e.g. "pods", "sharepods").
    label: &'static str,
    /// The revision gauge, resolved on first use.
    revision_gauge: OnceCell<Gauge>,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Store<T> {
    /// Creates an empty store at revision 0.
    pub fn new() -> Self {
        Store {
            objects: HashMap::new(),
            revision: 0,
            telemetry: Telemetry::disabled(),
            label: "",
            revision_gauge: OnceCell::new(),
        }
    }

    /// Attaches a telemetry handle; `label` becomes the `store` dimension
    /// on the exported revision gauge.
    pub fn instrument(&mut self, telemetry: Telemetry, label: &'static str) {
        self.telemetry = telemetry;
        self.label = label;
        self.revision_gauge = OnceCell::new();
    }

    /// Bumps the revision after a write and exports it.
    fn bump(&mut self) -> u64 {
        self.revision += 1;
        if self.telemetry.is_enabled() {
            self.revision_gauge
                .get_or_init(|| {
                    self.telemetry
                        .gauge("ks_cluster_store_revision", &[("store", self.label)])
                })
                .set(self.revision as f64);
        }
        self.revision
    }

    /// Current global revision.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Creates an object. Returns the revision of the write.
    ///
    /// # Panics
    /// Panics if the uid already exists (the API server would reject it).
    pub fn create(&mut self, uid: Uid, value: T) -> u64 {
        let prev = self.objects.insert(uid, value);
        assert!(prev.is_none(), "create of existing object {uid}");
        self.bump()
    }

    /// Reads an object.
    pub fn get(&self, uid: Uid) -> Option<&T> {
        self.objects.get(&uid)
    }

    /// Replaces an object. Returns the revision of the write, or `None` if
    /// the object does not exist.
    pub fn update(&mut self, uid: Uid, value: T) -> Option<u64> {
        *self.objects.get_mut(&uid)? = value;
        Some(self.bump())
    }

    /// Read-modify-write convenience; no-op returning `None` if absent.
    pub fn mutate<R>(&mut self, uid: Uid, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let r = f(self.objects.get_mut(&uid)?);
        self.bump();
        Some(r)
    }

    /// Deletes an object, returning it.
    pub fn delete(&mut self, uid: Uid) -> Option<T> {
        let value = self.objects.remove(&uid)?;
        self.bump();
        Some(value)
    }

    /// Iterates over live objects (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (Uid, &T)> {
        self.objects.iter().map(|(&u, v)| (u, v))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects exist.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn crud_and_versions() {
        let mut s: Store<String> = Store::new();
        assert_eq!(s.revision(), 0);
        let v1 = s.create(Uid(1), "a".into());
        assert_eq!(v1, s.revision());
        assert_eq!(s.get(Uid(1)), Some(&"a".to_string()));
        let v2 = s.update(Uid(1), "b".into()).unwrap();
        assert!(v2 > v1);
        assert_eq!(s.revision(), v2);
        assert_eq!(s.delete(Uid(1)), Some("b".to_string()));
        assert!(s.revision() > v2);
        assert!(s.get(Uid(1)).is_none());
        let before = s.revision();
        assert!(s.update(Uid(1), "c".into()).is_none());
        assert!(s.delete(Uid(1)).is_none());
        assert_eq!(s.revision(), before, "a missed write does not bump");
    }

    #[test]
    #[should_panic(expected = "create of existing object")]
    fn double_create_panics() {
        let mut s: Store<u32> = Store::new();
        s.create(Uid(1), 1);
        s.create(Uid(1), 2);
    }

    #[test]
    fn mutate_bumps_revision() {
        let mut s: Store<u32> = Store::new();
        s.create(Uid(1), 1);
        let before = s.revision();
        let got = s.mutate(Uid(1), |v| {
            *v += 41;
            *v
        });
        assert_eq!(got, Some(42));
        assert_eq!(s.get(Uid(1)), Some(&42));
        assert_eq!(s.revision(), before + 1);
        assert_eq!(s.mutate(Uid(9), |_| ()), None);
        assert_eq!(s.revision(), before + 1);
    }

    thread_local! {
        static CLONES: Cell<usize> = const { Cell::new(0) };
    }

    /// A value that counts its clones on the current thread.
    #[derive(Debug, PartialEq)]
    struct Counted(u32);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    #[test]
    fn writes_clone_nothing() {
        let mut s: Store<Counted> = Store::new();
        s.create(Uid(1), Counted(1));
        s.create(Uid(2), Counted(2));
        s.update(Uid(1), Counted(10));
        s.mutate(Uid(2), |v| v.0 += 1);
        assert_eq!(s.delete(Uid(1)), Some(Counted(10)));
        assert_eq!(s.get(Uid(2)), Some(&Counted(3)));
        assert_eq!(s.revision(), 5);
        assert_eq!(CLONES.with(Cell::get), 0, "store writes cloned a value");
    }
}
