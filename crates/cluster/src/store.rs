//! The etcd-backed object store with watch semantics.
//!
//! kube-apiserver persists every object in etcd with a monotone
//! `resourceVersion`, and controllers observe changes through *watch*
//! streams (paper §2.1). [`Store`] reproduces both: CRUD bumps a global
//! revision, and any number of [`Watcher`]s replay the ordered change log
//! from their own cursor — exactly the list-then-watch pattern Kubernetes
//! controllers (and KubeShare's custom controllers) rely on.

use std::cell::OnceCell;
use std::collections::HashMap;

use ks_telemetry::{Gauge, Telemetry};

use crate::api::meta::Uid;

/// Objects that live in a namespace (pods, sharePods, …). Implementing
/// this unlocks the per-namespace views on [`Store`] — the isolation
/// primitive the multi-tenant gateway builds on (one namespace per
/// tenant).
pub trait Namespaced {
    /// The namespace the object belongs to.
    fn namespace(&self) -> &str;
}

impl Namespaced for crate::api::Pod {
    fn namespace(&self) -> &str {
        &self.meta.namespace
    }
}

/// A change observed through a watch stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent<T> {
    /// Object created.
    Added(Uid, T),
    /// Object updated (new value).
    Modified(Uid, T),
    /// Object deleted (last value).
    Deleted(Uid, T),
}

impl<T> WatchEvent<T> {
    /// The uid the event refers to.
    pub fn uid(&self) -> Uid {
        match self {
            WatchEvent::Added(u, _) | WatchEvent::Modified(u, _) | WatchEvent::Deleted(u, _) => *u,
        }
    }
}

/// A versioned object store with an append-only change log.
#[derive(Debug)]
pub struct Store<T> {
    objects: HashMap<Uid, (T, u64)>,
    log: Vec<WatchEvent<T>>,
    revision: u64,
    telemetry: Telemetry,
    /// `store` label on exported metrics (e.g. "pods", "sharepods").
    label: &'static str,
    /// The revision gauge, resolved on first use.
    revision_gauge: OnceCell<Gauge>,
}

impl<T: Clone> Default for Store<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Store<T> {
    /// Creates an empty store at revision 0.
    pub fn new() -> Self {
        Store {
            objects: HashMap::new(),
            log: Vec::new(),
            revision: 0,
            telemetry: Telemetry::disabled(),
            label: "",
            revision_gauge: OnceCell::new(),
        }
    }

    /// Attaches a telemetry handle; `label` becomes the `store` dimension
    /// on watch fan-out and revision metrics.
    pub fn instrument(&mut self, telemetry: Telemetry, label: &'static str) {
        self.telemetry = telemetry;
        self.label = label;
        self.revision_gauge = OnceCell::new();
    }

    fn record_revision(&self) {
        if self.telemetry.is_enabled() {
            self.revision_gauge
                .get_or_init(|| {
                    self.telemetry
                        .gauge("ks_cluster_store_revision", &[("store", self.label)])
                })
                .set(self.revision as f64);
        }
    }

    /// Current global revision.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Creates an object. Returns its resource version.
    ///
    /// # Panics
    /// Panics if the uid already exists (the API server would reject it).
    pub fn create(&mut self, uid: Uid, value: T) -> u64 {
        self.revision += 1;
        let prev = self.objects.insert(uid, (value.clone(), self.revision));
        assert!(prev.is_none(), "create of existing object {uid}");
        self.log.push(WatchEvent::Added(uid, value));
        self.record_revision();
        self.revision
    }

    /// Reads an object.
    pub fn get(&self, uid: Uid) -> Option<&T> {
        self.objects.get(&uid).map(|(v, _)| v)
    }

    /// Resource version of an object.
    pub fn version_of(&self, uid: Uid) -> Option<u64> {
        self.objects.get(&uid).map(|&(_, v)| v)
    }

    /// Replaces an object. Returns the new resource version, or `None` if
    /// the object does not exist.
    pub fn update(&mut self, uid: Uid, value: T) -> Option<u64> {
        let slot = self.objects.get_mut(&uid)?;
        self.revision += 1;
        *slot = (value.clone(), self.revision);
        self.log.push(WatchEvent::Modified(uid, value));
        self.record_revision();
        Some(self.revision)
    }

    /// Read-modify-write convenience; no-op returning `None` if absent.
    pub fn mutate<R>(&mut self, uid: Uid, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let (v, _) = self.objects.get_mut(&uid)?;
        let r = f(v);
        let updated = v.clone();
        self.revision += 1;
        self.objects.get_mut(&uid).unwrap().1 = self.revision;
        self.log.push(WatchEvent::Modified(uid, updated));
        self.record_revision();
        Some(r)
    }

    /// Deletes an object, returning it.
    pub fn delete(&mut self, uid: Uid) -> Option<T> {
        let (value, _) = self.objects.remove(&uid)?;
        self.revision += 1;
        self.log.push(WatchEvent::Deleted(uid, value.clone()));
        self.record_revision();
        Some(value)
    }

    /// Iterates over live objects (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (Uid, &T)> {
        self.objects.iter().map(|(&u, (v, _))| (u, v))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects exist.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Opens a watch starting *after* everything that already happened.
    pub fn watch(&self) -> Watcher {
        Watcher {
            cursor: self.log.len(),
        }
    }

    /// Opens a watch that replays history from the beginning (list+watch).
    pub fn watch_from_start(&self) -> Watcher {
        Watcher { cursor: 0 }
    }

    /// Iterates over live objects in one namespace (unordered).
    pub fn iter_namespace<'a>(&'a self, namespace: &'a str) -> impl Iterator<Item = (Uid, &'a T)>
    where
        T: Namespaced,
    {
        self.iter().filter(move |(_, v)| v.namespace() == namespace)
    }

    /// Number of live objects in one namespace.
    pub fn count_namespace(&self, namespace: &str) -> usize
    where
        T: Namespaced,
    {
        self.iter_namespace(namespace).count()
    }

    /// All namespaces with at least one live object, sorted and deduped.
    pub fn namespaces(&self) -> Vec<String>
    where
        T: Namespaced,
    {
        let mut ns: Vec<String> = self
            .objects
            .values()
            .map(|(v, _)| v.namespace().to_string())
            .collect();
        ns.sort();
        ns.dedup();
        ns
    }

    /// Drains new events for a watcher.
    pub fn poll(&self, watcher: &mut Watcher) -> Vec<WatchEvent<T>> {
        let events = self.log[watcher.cursor..].to_vec();
        watcher.cursor = self.log.len();
        if !events.is_empty() && self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_cluster_watch_events_total", &[("store", self.label)])
                .add(events.len() as u64);
        }
        events
    }
}

/// A cursor into a store's change log.
#[derive(Debug, Clone)]
pub struct Watcher {
    cursor: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crud_and_versions() {
        let mut s: Store<String> = Store::new();
        let v1 = s.create(Uid(1), "a".into());
        assert_eq!(s.get(Uid(1)), Some(&"a".to_string()));
        let v2 = s.update(Uid(1), "b".into()).unwrap();
        assert!(v2 > v1);
        assert_eq!(s.version_of(Uid(1)), Some(v2));
        assert_eq!(s.delete(Uid(1)), Some("b".to_string()));
        assert!(s.get(Uid(1)).is_none());
        assert!(s.update(Uid(1), "c".into()).is_none());
    }

    #[test]
    #[should_panic(expected = "create of existing object")]
    fn double_create_panics() {
        let mut s: Store<u32> = Store::new();
        s.create(Uid(1), 1);
        s.create(Uid(1), 2);
    }

    #[test]
    fn watch_sees_ordered_changes() {
        let mut s: Store<u32> = Store::new();
        let mut w = s.watch();
        s.create(Uid(1), 10);
        s.update(Uid(1), 20);
        s.delete(Uid(1));
        let evs = s.poll(&mut w);
        assert_eq!(
            evs,
            vec![
                WatchEvent::Added(Uid(1), 10),
                WatchEvent::Modified(Uid(1), 20),
                WatchEvent::Deleted(Uid(1), 20),
            ]
        );
        assert!(s.poll(&mut w).is_empty(), "cursor advanced");
    }

    #[test]
    fn watch_from_start_replays_history() {
        let mut s: Store<u32> = Store::new();
        s.create(Uid(1), 10);
        let mut w = s.watch_from_start();
        let evs = s.poll(&mut w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].uid(), Uid(1));
    }

    #[test]
    fn late_watch_misses_history() {
        let mut s: Store<u32> = Store::new();
        s.create(Uid(1), 10);
        let mut w = s.watch();
        assert!(s.poll(&mut w).is_empty());
        s.update(Uid(1), 11);
        assert_eq!(s.poll(&mut w).len(), 1);
    }

    #[test]
    fn mutate_bumps_revision_and_logs() {
        let mut s: Store<u32> = Store::new();
        s.create(Uid(1), 1);
        let mut w = s.watch();
        let got = s.mutate(Uid(1), |v| {
            *v += 41;
            *v
        });
        assert_eq!(got, Some(42));
        assert_eq!(s.get(Uid(1)), Some(&42));
        assert_eq!(s.poll(&mut w), vec![WatchEvent::Modified(Uid(1), 42)]);
        assert_eq!(s.mutate(Uid(9), |_| ()), None);
    }

    #[test]
    fn namespace_views_partition_the_store() {
        use crate::api::pod::PodSpec;
        use crate::api::{ObjectMeta, Pod, ResourceList};
        use ks_sim_core::time::SimTime;

        let mut s: Store<Pod> = Store::new();
        let pod = |name: &str, uid: u64, ns: &str| {
            Pod::new(
                ObjectMeta::new(name, Uid(uid), SimTime::ZERO).with_namespace(ns),
                PodSpec::new("img", ResourceList::cpu_mem(100, 1 << 20)),
            )
        };
        s.create(Uid(1), pod("a", 1, "tenant-a"));
        s.create(Uid(2), pod("b", 2, "tenant-b"));
        s.create(Uid(3), pod("c", 3, "tenant-a"));
        assert_eq!(s.count_namespace("tenant-a"), 2);
        assert_eq!(s.count_namespace("tenant-b"), 1);
        assert_eq!(s.count_namespace("tenant-c"), 0);
        assert_eq!(s.namespaces(), vec!["tenant-a", "tenant-b"]);
        let uids: Vec<Uid> = s.iter_namespace("tenant-a").map(|(u, _)| u).collect();
        assert_eq!(uids.len(), 2);
        assert!(uids.contains(&Uid(1)) && uids.contains(&Uid(3)));
    }

    #[test]
    fn independent_watchers() {
        let mut s: Store<u32> = Store::new();
        let mut w1 = s.watch();
        s.create(Uid(1), 1);
        let mut w2 = s.watch();
        s.create(Uid(2), 2);
        assert_eq!(s.poll(&mut w1).len(), 2);
        assert_eq!(s.poll(&mut w2).len(), 1);
    }
}
