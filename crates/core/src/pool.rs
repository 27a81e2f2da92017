//! The vGPU pool: the set of shared GPUs KubeShare manages (paper §4.1,
//! §4.4).
//!
//! Each vGPU has a first-class identity ([`crate::gpuid::GpuId`]), residual
//! resource accounting (by `gpu_request`/`gpu_mem`, the quantities the
//! scheduler packs on), accumulated locality labels, and a lifecycle:
//! *creating* (anchor pod launching) → *active* (sharePods attached) →
//! *idle* (none attached) → *deleted* (GPU released back to Kubernetes).
//!
//! Capacity is counted in integer share units, [`FULL`] per GPU on each
//! axis (10^6 per MIG slot), so residuals, conservation and [`fits`] are
//! exact (DESIGN.md §10, "Exact capacity").
//!
//! # Capacity indexes
//!
//! Devices live in a dense slab addressed by private slot handles; an
//! id → handle map serves lookups and id-ordered iteration. Beside it the
//! pool maintains a set of incrementally-updated indexes so Algorithm 1's
//! hot path (best-fit / worst-fit selection, affinity lookup, idle reuse)
//! runs as ordered-range lookups instead of full scans (DESIGN.md §10).
//! Every index entry carries the device's slot handle, so a scan reads
//! its devices straight from the slab:
//!
//! * `plain_fit` / `labeled_fit` — schedulable (non-releasing) devices
//!   under one flat key each, built from their *fit key*
//!   `util_free + mem_free` and their id, split by whether the device
//!   carries affinity labels. `plain_fit` orders by (fit key, id), the
//!   best-fit scan order; `labeled_fit` by (fit key descending, id), so
//!   the worst-fit scan is a forward walk that stops below the bound.
//!   Besides its handle, each fit entry carries the device's residual
//!   `(util_free, mem_free)`, so Algorithm 1's scan rejects a device
//!   that lacks room without reading it from the slab. The skip is
//!   exact: a device with no tenants has a whole GPU free on each axis
//!   and so covers any demand capped at one GPU, and a tenanted device
//!   without room fails the filter anyway;
//! * `unattached` — devices with no tenants (Algorithm 1's `d.idle`),
//!   in id order;
//! * `idle` — devices in the `Idle` lifecycle phase (release-policy
//!   candidates), in id order;
//! * `aff_index` — affinity label → devices carrying it, in id order;
//! * `by_node` — node name → devices hosted there (includes releasing
//!   devices: node-failure handling must see them too);
//! * `spatial` — partitioned devices, the spatial path's candidates.
//!
//! Every mutator (`insert_creating`, `mark_ready`, `attach`,
//! `attach_slice`, `detach`, `mark_releasing`, `remove`) snapshots where
//! the device sits in the scheduler indexes before it changes the device,
//! then applies only the difference through one routine: an `attach`
//! moves one fit entry and adds at most its one new affinity label. The
//! snapshot records the residual pair, not just its sum, so a fit entry
//! is rewritten whenever its carried residual would go stale.
//! [`VgpuPool::verify_indexes`] cross-checks the handle map and the
//! indexes against a from-scratch rebuild and backs the
//! index-consistency property tests.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use ks_cluster::api::Uid;
use ks_partition::{
    DeviceFreeView, PartitionError, PartitionTable, Profile, TableState, SLOTS_PER_GPU,
};
use ks_sim_core::time::{SimDuration, SimTime};
use serde::Serialize;

use crate::gpuid::GpuId;

/// Share units per MIG slot.
pub(crate) const SLOT: u32 = 1_000_000;

/// Share units in one whole GPU, on each axis.
pub const FULL: u32 = SLOT * SLOTS_PER_GPU as u32;

/// Converts a spec fraction to share units, rounding to nearest so a
/// literal's last-ulp noise is no unit. Negative and NaN give 0.
pub fn units(frac: f64) -> u32 {
    (frac * f64::from(FULL)).round() as u32
}

/// The one `f64` view of share units, as a fraction of a GPU: for gauges,
/// fit scores and display.
pub fn frac(units: u32) -> f64 {
    f64::from(units) / f64::from(FULL)
}

/// The one capacity predicate: whether residual `free` covers demand
/// `need`, both (compute, memory) in share units.
pub fn fits(free: (u32, u32), need: (u32, u32)) -> bool {
    need.0 <= free.0 && need.1 <= free.1
}

/// Lifecycle phase of a vGPU (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum VgpuPhase {
    /// Anchor pod launched; waiting for the physical GPU's UUID.
    Creating,
    /// At least one sharePod attached.
    Active,
    /// No sharePods attached; GPU still held from Kubernetes.
    Idle,
}

/// One vGPU in the pool.
#[derive(Debug, Clone)]
pub struct PoolDevice {
    /// First-class identifier.
    pub id: GpuId,
    /// Lifecycle phase.
    pub phase: VgpuPhase,
    /// Node hosting the physical GPU (known once the anchor pod binds).
    pub node: Option<String>,
    /// Physical driver UUID (known once the anchor pod runs).
    pub uuid: Option<String>,
    /// Residual compute in share units: `FULL − Σ gpu_request` of attached pods.
    pub util_free: u32,
    /// Residual memory in share units: `FULL − Σ gpu_mem` of attached pods.
    pub mem_free: u32,
    /// Affinity labels present on this device.
    pub aff: BTreeSet<String>,
    /// Anti-affinity labels present on this device.
    pub anti_aff: BTreeSet<String>,
    /// Exclusion label of this device (single, overwritten on assignment).
    pub excl: Option<String>,
    /// Attached sharePods and their (request, mem) units for release accounting.
    pub attached: BTreeMap<Uid, (u32, u32)>,
    /// Set once DevMgr decided to release the GPU back to Kubernetes; the
    /// anchor pod is being torn down and no new sharePod may bind here.
    pub releasing: bool,
    /// Spatial substrate: the MIG-style slice layout when this device is
    /// partitioned, `None` for the paper's time-sliced devices. The
    /// `util_free`/`mem_free` residuals mirror its free slots so
    /// node-capacity accounting and gauges work unchanged.
    pub partition: Option<PartitionTable>,
    /// Slice tenants: sharePod → start slot of the slice it occupies.
    pub slice_of: BTreeMap<Uid, u8>,
}

impl PoolDevice {
    fn fresh(id: GpuId) -> Self {
        PoolDevice {
            id,
            phase: VgpuPhase::Creating,
            node: None,
            uuid: None,
            util_free: FULL,
            mem_free: FULL,
            aff: BTreeSet::new(),
            anti_aff: BTreeSet::new(),
            excl: None,
            attached: BTreeMap::new(),
            releasing: false,
            partition: None,
            slice_of: BTreeMap::new(),
        }
    }

    /// Whether this device runs the spatial substrate (is partitioned).
    pub fn is_spatial(&self) -> bool {
        self.partition.is_some()
    }

    /// True if no sharePod is scheduled on the device (the algorithm's
    /// `d.idle`). A *creating* device with nothing attached is also idle
    /// in this sense.
    pub fn is_idle(&self) -> bool {
        self.attached.is_empty()
    }

    /// The fit key Algorithm 1 orders placement candidates by: total
    /// residual share units. Best-fit minimizes it, worst-fit maximizes it;
    /// for a fixed request the placement residual is this sum minus a
    /// constant, so ordering by the sum is ordering by the residual.
    pub fn fit_key(&self) -> u32 {
        fit_key(self.free())
    }

    /// The residual `(util_free, mem_free)`.
    pub(crate) fn free(&self) -> (u32, u32) {
        (self.util_free, self.mem_free)
    }

    /// The (free, reachable) compute units the fragmentation score counts:
    /// reachable is the largest placeable profile on a partitioned device.
    pub(crate) fn free_view(&self) -> (u32, u32) {
        match &self.partition {
            Some(t) => (
                self.util_free,
                SLOT * u32::from(t.largest_placeable_slots()),
            ),
            None => (self.util_free, self.util_free),
        }
    }

    /// [`fits`] on this device's residual.
    pub fn fits(&self, need: (u32, u32)) -> bool {
        fits(self.free(), need)
    }
}

/// The fit key of a residual `(util_free, mem_free)`: its sum.
pub(crate) fn fit_key(free: (u32, u32)) -> u32 {
    free.0 + free.1
}

/// Dense handle of a device's slot in the pool's slab. Crate-visible so
/// Algorithm 1's batch drain can carry a decision's winner to its attach
/// without looking the id up again; the public API stays
/// [`GpuId`]-based. A handle is valid until its device is removed, after
/// which the next insert reuses the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeviceIdx(u32);

impl DeviceIdx {
    fn new(slot: usize) -> Self {
        DeviceIdx(u32::try_from(slot).expect("slab fits u32 handles"))
    }

    fn at(self) -> usize {
        self.0 as usize
    }
}

/// One index bucket: devices in id order, each with its slab handle so a
/// scan reads the device without looking its id up.
type IdMap = BTreeMap<GpuId, DeviceIdx>;

/// A fit-index entry's value: the device's slab handle and its residual
/// `(util_free, mem_free)`, so a fit-range scan rejects a device that
/// lacks room without reading it from the slab.
type FitEntry = (DeviceIdx, (u32, u32));

/// Adds `(id, idx)` to the bucket under `key`. The key is looked up
/// before it is cloned, so an existing bucket costs no key allocation.
fn bucket_insert(map: &mut BTreeMap<String, IdMap>, key: &str, id: &GpuId, idx: DeviceIdx) {
    match map.get_mut(key) {
        Some(bucket) => {
            bucket.insert(id.clone(), idx);
        }
        None => {
            map.insert(key.to_owned(), IdMap::from([(id.clone(), idx)]));
        }
    }
}

/// Removes `id` from the bucket under `key`, dropping the bucket once it
/// is empty.
fn bucket_remove(map: &mut BTreeMap<String, IdMap>, key: &str, id: &GpuId) {
    if let Some(bucket) = map.get_mut(key) {
        bucket.remove(id);
        if bucket.is_empty() {
            map.remove(key);
        }
    }
}

/// The smallest [`GpuId`] (the empty string), shared so a fit-range lower
/// bound `(key, MIN)` costs a refcount, not an allocation.
fn min_id() -> &'static GpuId {
    static MIN: OnceLock<GpuId> = OnceLock::new();
    MIN.get_or_init(|| GpuId::named(""))
}

/// Where a device sits in the scheduler indexes (every index but
/// `by_node`). Taken before and after each mutation, so maintenance
/// touches only the entries that differ between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    /// In `spatial`: a non-releasing partitioned device.
    spatial: bool,
    /// A non-releasing time-sliced device's fit entry: its residual
    /// `(util_free, mem_free)`, which the entry carries and whose sum is
    /// its key, and whether it sits in `labeled_fit`. Such a device also
    /// has one `aff_index` entry per affinity label.
    fit: Option<((u32, u32), bool)>,
    /// In `unattached`.
    unattached: bool,
    /// In `idle`.
    idle: bool,
}

impl Placement {
    /// A releasing or absent device: in no scheduler index.
    const HIDDEN: Placement = Placement {
        spatial: false,
        fit: None,
        unattached: false,
        idle: false,
    };

    fn of(d: &PoolDevice) -> Self {
        if d.releasing {
            Placement::HIDDEN
        } else if d.partition.is_some() {
            Placement {
                spatial: true,
                ..Placement::HIDDEN
            }
        } else {
            Placement {
                spatial: false,
                fit: Some((d.free(), !d.aff.is_empty())),
                unattached: d.attached.is_empty(),
                idle: d.phase == VgpuPhase::Idle,
            }
        }
    }
}

/// How a mutation changed a time-sliced device's affinity labels.
#[derive(Debug, Clone, Copy)]
enum LabelChange<'a> {
    /// No label added or dropped.
    Same,
    /// One label the device did not carry before.
    Added(&'a str),
    /// Every label dropped; these are the ones it carried.
    Cleared(&'a BTreeSet<String>),
}

/// The capacity indexes over the device slab. Kept in a dedicated struct so
/// maintenance and verification share one update routine.
#[derive(Debug, Clone, Default)]
struct PoolIndexes {
    /// Schedulable devices without affinity labels, ascending by
    /// (fit key, id): the best-fit scan order.
    plain_fit: BTreeMap<(u32, GpuId), FitEntry>,
    /// Schedulable devices with affinity labels, by fit key descending
    /// and id ascending within a key: the worst-fit scan order.
    labeled_fit: BTreeMap<(Reverse<u32>, GpuId), FitEntry>,
    /// Schedulable devices with no attached sharePods, in id order.
    unattached: IdMap,
    /// Non-releasing devices in the `Idle` phase, in id order.
    idle: IdMap,
    /// Affinity label → schedulable devices carrying it.
    aff_index: BTreeMap<String, IdMap>,
    /// Node → devices hosted there (releasing devices included).
    by_node: BTreeMap<String, IdMap>,
    /// Non-releasing partitioned devices, in id order. Spatial devices
    /// live *only* here (plus `by_node`): they are invisible to the
    /// time-slice fit/idle/affinity indexes, so Algorithm 1's token-lease
    /// path never sees them and the release policy never reclaims them.
    spatial: IdMap,
}

impl PoolIndexes {
    /// Moves device `d` (slot `idx`) in the scheduler indexes from where
    /// it sat before a mutation (`before`) to `after`, touching only the
    /// entries that differ. `labels` says how the mutation changed the
    /// device's affinity labels; a mutation that hides or reveals a device
    /// leaves its labels as they were. `by_node` is not touched: only
    /// `mark_ready` and `remove` change it.
    fn apply(
        &mut self,
        idx: DeviceIdx,
        d: &PoolDevice,
        before: Placement,
        after: Placement,
        labels: LabelChange<'_>,
    ) {
        let id = &d.id;
        if before.spatial != after.spatial {
            if after.spatial {
                self.spatial.insert(id.clone(), idx);
            } else {
                self.spatial.remove(id);
            }
        }
        if before.fit != after.fit {
            match before.fit {
                Some((free, false)) => {
                    self.plain_fit.remove(&(fit_key(free), id.clone()));
                }
                Some((free, true)) => {
                    self.labeled_fit
                        .remove(&(Reverse(fit_key(free)), id.clone()));
                }
                None => {}
            }
            match after.fit {
                Some((free, false)) => {
                    self.plain_fit
                        .insert((fit_key(free), id.clone()), (idx, free));
                }
                Some((free, true)) => {
                    let key = (Reverse(fit_key(free)), id.clone());
                    self.labeled_fit.insert(key, (idx, free));
                }
                None => {}
            }
        }
        for (was, is, set) in [
            (before.unattached, after.unattached, &mut self.unattached),
            (before.idle, after.idle, &mut self.idle),
        ] {
            if was != is {
                if is {
                    set.insert(id.clone(), idx);
                } else {
                    set.remove(id);
                }
            }
        }
        match (before.fit.is_some(), after.fit.is_some()) {
            (false, true) => {
                for label in &d.aff {
                    bucket_insert(&mut self.aff_index, label, id, idx);
                }
            }
            (true, false) => {
                for label in &d.aff {
                    bucket_remove(&mut self.aff_index, label, id);
                }
            }
            (true, true) => match labels {
                LabelChange::Same => {}
                LabelChange::Added(label) => bucket_insert(&mut self.aff_index, label, id, idx),
                LabelChange::Cleared(old) => {
                    for label in old {
                        bucket_remove(&mut self.aff_index, label, id);
                    }
                }
            },
            (false, false) => {}
        }
    }

    /// Builds the indexes from scratch for a device slab: the oracle
    /// [`VgpuPool::verify_indexes`] compares the maintained ones against.
    fn rebuild(slots: &[Option<PoolDevice>]) -> Self {
        let mut ix = PoolIndexes::default();
        for (i, d) in slots.iter().enumerate() {
            if let Some(d) = d {
                let idx = DeviceIdx::new(i);
                if let Some(node) = &d.node {
                    bucket_insert(&mut ix.by_node, node, &d.id, idx);
                }
                ix.apply(
                    idx,
                    d,
                    Placement::HIDDEN,
                    Placement::of(d),
                    LabelChange::Same,
                );
            }
        }
        ix
    }

    /// Every index entry.
    fn entries(&self) -> impl Iterator<Item = (&GpuId, &DeviceIdx)> {
        let fit = (self.plain_fit.iter().map(|((_, id), (idx, _))| (id, idx)))
            .chain(self.labeled_fit.iter().map(|((_, id), (idx, _))| (id, idx)));
        let buckets = (self.aff_index.values().chain(self.by_node.values()))
            .chain([&self.unattached, &self.idle, &self.spatial])
            .flatten();
        fit.chain(buckets)
    }
}

/// The live device in a slab slot, mutably.
fn live_mut(slots: &mut [Option<PoolDevice>], idx: DeviceIdx) -> &mut PoolDevice {
    slots[idx.at()].as_mut().expect("live slab slot")
}

/// Moves a device to `phase`, keeping the per-phase tally exact.
fn set_phase(tally: &mut [u32; 3], d: &mut PoolDevice, phase: VgpuPhase) {
    tally[d.phase as usize] -= 1;
    d.phase = phase;
    tally[phase as usize] += 1;
}

/// Accumulates a new tenant's locality labels on a device. A label or
/// exclusion already present is kept as is, not re-allocated. Returns the
/// affinity label if it is new to the device.
fn add_labels<'a>(
    d: &mut PoolDevice,
    aff: Option<&'a str>,
    anti_aff: Option<&str>,
    excl: Option<&str>,
) -> LabelChange<'a> {
    if let Some(l) = anti_aff {
        if !d.anti_aff.contains(l) {
            d.anti_aff.insert(l.to_string());
        }
    }
    if d.excl.as_deref() != excl {
        d.excl = excl.map(str::to_string);
    }
    match aff {
        Some(l) if !d.aff.contains(l) => {
            d.aff.insert(l.to_string());
            LabelChange::Added(l)
        }
        _ => LabelChange::Same,
    }
}

/// The pool of vGPUs.
///
/// Devices live in a dense slab (`slots`). `ids` maps each id to its slot
/// and serves lookups and id-ordered iteration; every index entry carries
/// the slot handle too, so the scheduler's range scans read devices
/// without an id lookup. Removing a device puts its slot on `free` for
/// the next insert.
#[derive(Debug, Clone, Default)]
pub struct VgpuPool {
    slots: Vec<Option<PoolDevice>>,
    free: Vec<DeviceIdx>,
    ids: IdMap,
    next_id: u64,
    ix: PoolIndexes,
    /// Device count per phase (`Creating`/`Active`/`Idle` by discriminant),
    /// maintained on every transition so gauge mirrors don't rescan the
    /// pool after each event.
    tally: [u32; 3],
}

impl VgpuPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates a fresh GPUID (not yet in the pool).
    pub fn fresh_id(&mut self) -> GpuId {
        loop {
            self.next_id += 1;
            let id = GpuId::generate(self.next_id);
            if !self.ids.contains_key(&id) {
                return id;
            }
        }
    }

    /// The slot handle of a device in the pool.
    ///
    /// # Panics
    /// Panics if the id is not in the pool.
    pub(crate) fn idx(&self, id: &GpuId) -> DeviceIdx {
        *self.ids.get(id).expect("vGPU in pool")
    }

    /// The device in a slot, if the slot exists and is live.
    fn live(&self, idx: DeviceIdx) -> Option<&PoolDevice> {
        self.slots.get(idx.at()).and_then(Option::as_ref)
    }

    /// The live device behind a handle taken from `ids` or an index.
    pub(crate) fn slot(&self, idx: DeviceIdx) -> &PoolDevice {
        self.live(idx).expect("live slab slot")
    }

    /// The device under `id`, mutably.
    fn device_mut(&mut self, id: &GpuId) -> &mut PoolDevice {
        let idx = self.idx(id);
        live_mut(&mut self.slots, idx)
    }

    /// Places a new device in a freed slot (or a new one) and indexes it.
    /// Returns its handle.
    fn insert_device(&mut self, d: PoolDevice) -> DeviceIdx {
        assert!(
            !self.ids.contains_key(&d.id),
            "vGPU {} already in pool",
            d.id
        );
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            DeviceIdx::new(self.slots.len() - 1)
        });
        self.tally[d.phase as usize] += 1;
        self.ix.apply(
            idx,
            &d,
            Placement::HIDDEN,
            Placement::of(&d),
            LabelChange::Same,
        );
        self.ids.insert(d.id.clone(), idx);
        self.slots[idx.at()] = Some(d);
        idx
    }

    /// Adds a new vGPU in `Creating` phase under the given id.
    ///
    /// # Panics
    /// Panics if the id already exists.
    pub fn insert_creating(&mut self, id: GpuId) {
        self.insert_creating_at(id);
    }

    /// [`VgpuPool::insert_creating`], returning the new device's handle.
    pub(crate) fn insert_creating_at(&mut self, id: GpuId) -> DeviceIdx {
        self.insert_device(PoolDevice::fresh(id))
    }

    /// Adds a new *partitioned* vGPU in `Creating` phase under the given
    /// id: its anchor pod claims a whole physical GPU which is carved
    /// into the MIG-style slice grid instead of time-sliced.
    ///
    /// # Panics
    /// Panics if the id already exists.
    pub fn insert_creating_spatial(&mut self, id: GpuId) {
        let mut d = PoolDevice::fresh(id);
        d.partition = Some(PartitionTable::new());
        self.insert_device(d);
    }

    /// Marks a creating vGPU ready: physical GPU acquired.
    pub fn mark_ready(&mut self, id: &GpuId, node: String, uuid: String) {
        let idx = self.idx(id);
        let d = live_mut(&mut self.slots, idx);
        debug_assert_eq!(d.phase, VgpuPhase::Creating);
        let before = Placement::of(d);
        if let Some(old) = &d.node {
            bucket_remove(&mut self.ix.by_node, old, id);
        }
        bucket_insert(&mut self.ix.by_node, &node, id, idx);
        d.node = Some(node);
        d.uuid = Some(uuid);
        let phase = if d.attached.is_empty() {
            VgpuPhase::Idle
        } else {
            VgpuPhase::Active
        };
        set_phase(&mut self.tally, d, phase);
        self.ix
            .apply(idx, d, before, Placement::of(d), LabelChange::Same);
    }

    /// Attaches a sharePod's demand to a vGPU, consuming residual capacity
    /// and accumulating labels.
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's request tuple
    pub fn attach(
        &mut self,
        id: &GpuId,
        sharepod: Uid,
        request: f64,
        mem: f64,
        aff: Option<&str>,
        anti_aff: Option<&str>,
        excl: Option<&str>,
    ) {
        let need = (units(request), units(mem));
        self.attach_at(self.idx(id), sharepod, need, aff, anti_aff, excl);
    }

    /// [`VgpuPool::attach`] on the device behind a handle, with the demand
    /// already in share units. Inlined into the batch drain's
    /// `apply_decision`, its one caller besides [`VgpuPool::attach`].
    #[inline]
    pub(crate) fn attach_at(
        &mut self,
        idx: DeviceIdx,
        sharepod: Uid,
        need: (u32, u32),
        aff: Option<&str>,
        anti_aff: Option<&str>,
        excl: Option<&str>,
    ) {
        let d = live_mut(&mut self.slots, idx);
        assert!(
            !d.is_spatial(),
            "token-lease attach on partitioned vGPU {}; use attach_slice",
            d.id
        );
        assert!(
            d.fits(need),
            "over-committing vGPU {}: free=({:.3},{:.3}) need=({:.3},{:.3})",
            d.id,
            frac(d.util_free),
            frac(d.mem_free),
            frac(need.0),
            frac(need.1)
        );
        let before = Placement::of(d);
        d.util_free -= need.0;
        d.mem_free -= need.1;
        let labels = add_labels(d, aff, anti_aff, excl);
        d.attached.insert(sharepod, need);
        if d.phase != VgpuPhase::Creating {
            set_phase(&mut self.tally, d, VgpuPhase::Active);
        }
        self.ix.apply(idx, d, before, Placement::of(d), labels);
    }

    /// Binds a sharePod to a dedicated slice on a partitioned vGPU. The
    /// slice profile is placed at the fragmentation-aware best start;
    /// labels accumulate exactly as in [`VgpuPool::attach`]. Returns the
    /// start slot, or the partition error (`NoFit` when no legal start
    /// hosts the profile, `BadState` while draining/reconfiguring).
    #[allow(clippy::too_many_arguments)] // mirrors attach's request tuple
    pub fn attach_slice(
        &mut self,
        id: &GpuId,
        sharepod: Uid,
        profile: Profile,
        request: f64,
        mem: f64,
        aff: Option<&str>,
        anti_aff: Option<&str>,
        excl: Option<&str>,
    ) -> Result<u8, PartitionError> {
        let idx = self.idx(id);
        let d = live_mut(&mut self.slots, idx);
        assert!(!d.releasing, "binding to releasing vGPU {id}");
        let table = d
            .partition
            .as_ref()
            .expect("attach_slice on time-sliced vGPU");
        if table.state() != TableState::Active {
            return Err(PartitionError::BadState);
        }
        if !table.can_place(profile) {
            return Err(PartitionError::NoFit);
        }
        let before = Placement::of(d);
        let table = d.partition.as_mut().expect("checked above");
        let start = table.alloc(profile).expect("can_place checked");
        let free = SLOT * u32::from(table.free_slots());
        d.util_free = free;
        d.mem_free = free;
        d.slice_of.insert(sharepod, start);
        let labels = add_labels(d, aff, anti_aff, excl);
        d.attached.insert(sharepod, (units(request), units(mem)));
        if d.phase != VgpuPhase::Creating {
            set_phase(&mut self.tally, d, VgpuPhase::Active);
        }
        self.ix.apply(idx, d, before, Placement::of(d), labels);
        Ok(start)
    }

    /// Detaches a sharePod, restoring capacity. Returns `true` if the vGPU
    /// became idle (labels are cleared then, so an idle device is clean for
    /// any future tenant). On a partitioned device this frees the tenant's
    /// slice (legal while active or draining), so the generic teardown
    /// paths — node failure, pod deletion, drain — work unchanged.
    pub fn detach(&mut self, id: &GpuId, sharepod: Uid) -> bool {
        let idx = self.idx(id);
        let d = live_mut(&mut self.slots, idx);
        let before = Placement::of(d);
        let (request, mem) = d
            .attached
            .remove(&sharepod)
            .expect("sharePod attached to vGPU");
        if let Some(table) = d.partition.as_mut() {
            let start = d.slice_of.remove(&sharepod).expect("slice tenant");
            table.free(start).expect("resident slice");
            let free = SLOT * u32::from(table.free_slots());
            d.util_free = free;
            d.mem_free = free;
        } else {
            d.util_free += request;
            d.mem_free += mem;
        }
        let became_idle = d.attached.is_empty();
        let mut cleared = BTreeSet::new();
        if became_idle {
            debug_assert_eq!((d.util_free, d.mem_free), (FULL, FULL), "idle {}", d.id);
            cleared = std::mem::take(&mut d.aff);
            d.anti_aff.clear();
            d.excl = None;
            if d.phase != VgpuPhase::Creating {
                set_phase(&mut self.tally, d, VgpuPhase::Idle);
            }
        }
        let labels = if became_idle {
            LabelChange::Cleared(&cleared)
        } else {
            LabelChange::Same
        };
        self.ix.apply(idx, d, before, Placement::of(d), labels);
        became_idle
    }

    /// Starts a partition reconfiguration on a spatial device: the table
    /// goes `Active → Draining` and the resident slice tenants are
    /// returned for the caller to requeue (each requeue's detach frees
    /// its slice; once empty, call
    /// [`VgpuPool::note_partition_drained`]).
    pub fn begin_partition_drain(&mut self, id: &GpuId) -> Result<Vec<Uid>, PartitionError> {
        let d = self.device_mut(id);
        let table = d
            .partition
            .as_mut()
            .expect("partition drain on time-sliced vGPU");
        table.begin_reconfig()?;
        Ok(d.attached.keys().copied().collect())
    }

    /// Records that a spatial device's drain completed; the new layout
    /// activates no earlier than `now + cost`. Returns the activation
    /// time.
    pub fn note_partition_drained(
        &mut self,
        id: &GpuId,
        now: SimTime,
        cost: SimDuration,
    ) -> Result<SimTime, PartitionError> {
        let d = self.device_mut(id);
        let table = d
            .partition
            .as_mut()
            .expect("partition drain on time-sliced vGPU");
        table.note_drained(now, cost)
    }

    /// Completes a spatial device's reconfiguration at or after the
    /// activation time recorded by [`VgpuPool::note_partition_drained`].
    pub fn activate_partition(&mut self, id: &GpuId, now: SimTime) -> Result<(), PartitionError> {
        let d = self.device_mut(id);
        let table = d
            .partition
            .as_mut()
            .expect("partition activate on time-sliced vGPU");
        table.activate(now)
    }

    /// Non-releasing partitioned devices in id order — the candidate set
    /// of the spatial placement path.
    pub fn spatial_devices(&self) -> impl Iterator<Item = &PoolDevice> {
        self.ix.spatial.values().map(move |&idx| self.slot(idx))
    }

    /// Number of non-releasing partitioned devices.
    pub fn spatial_count(&self) -> usize {
        self.ix.spatial.len()
    }

    /// The sharePod occupying the slice that starts at `start` on a
    /// partitioned device, if any.
    pub fn slice_tenant(&self, id: &GpuId, start: u8) -> Option<Uid> {
        self.get(id).and_then(|d| {
            d.slice_of
                .iter()
                .find(|&(_, &s)| s == start)
                .map(|(&u, _)| u)
        })
    }

    /// Pool-level fragmentation over all schedulable (non-releasing)
    /// devices: the fraction of free capacity no single allocation can
    /// claim ([`ks_partition::pool_fragmentation`]). Time-sliced devices
    /// contribute `largest_alloc == free` (any residual is reachable);
    /// partitioned ones contribute their largest placeable profile — 0
    /// mid-reconfig, so draining devices raise the gauge until they come
    /// back.
    pub fn fragmentation(&self) -> f64 {
        let views: Vec<DeviceFreeView> = self
            .devices()
            .filter(|d| !d.releasing)
            .map(|d| {
                let (free, reachable) = d.free_view();
                DeviceFreeView {
                    free: frac(free),
                    largest_alloc: frac(reachable),
                }
            })
            .collect();
        ks_partition::pool_fragmentation(&views)
    }

    /// Marks a vGPU as being released: it stays in the pool (its anchor is
    /// still terminating) but is invisible to the scheduler.
    pub fn mark_releasing(&mut self, id: &GpuId) {
        let idx = self.idx(id);
        let d = live_mut(&mut self.slots, idx);
        debug_assert!(d.attached.is_empty(), "releasing vGPU {id} with tenants");
        let before = Placement::of(d);
        d.releasing = true;
        self.ix
            .apply(idx, d, before, Placement::HIDDEN, LabelChange::Same);
    }

    /// Removes a vGPU entirely (GPU released back to Kubernetes).
    ///
    /// # Panics
    /// Panics if sharePods are still attached.
    pub fn remove(&mut self, id: &GpuId) -> PoolDevice {
        let idx = self.idx(id);
        assert!(
            self.slot(idx).attached.is_empty(),
            "removing vGPU {id} with tenants"
        );
        let d = self.slots[idx.at()].take().expect("live slab slot");
        self.ids.remove(id);
        self.free.push(idx);
        self.tally[d.phase as usize] -= 1;
        if let Some(node) = &d.node {
            bucket_remove(&mut self.ix.by_node, node, id);
        }
        self.ix.apply(
            idx,
            &d,
            Placement::of(&d),
            Placement::HIDDEN,
            LabelChange::Same,
        );
        d
    }

    /// Looks up a device.
    pub fn get(&self, id: &GpuId) -> Option<&PoolDevice> {
        self.ids.get(id).map(|&idx| self.slot(idx))
    }

    /// All devices in deterministic id order.
    pub fn devices(&self) -> impl Iterator<Item = &PoolDevice> {
        self.devices_at().map(|(_, d)| d)
    }

    /// [`VgpuPool::devices`] with each device's handle.
    pub(crate) fn devices_at(&self) -> impl Iterator<Item = (DeviceIdx, &PoolDevice)> {
        self.ids.values().map(move |&idx| (idx, self.slot(idx)))
    }

    /// Devices currently idle and not already being released (candidates
    /// for release or for reuse), in id order. Served from the idle index —
    /// no allocation; collect if a snapshot is needed across mutations.
    pub fn idle_devices(&self) -> impl Iterator<Item = &GpuId> + '_ {
        self.ix.idle.keys()
    }

    /// Number of idle, non-releasing devices (release-policy accounting).
    pub fn idle_count(&self) -> usize {
        self.ix.idle.len()
    }

    /// First (id order) schedulable device with no attached sharePods —
    /// Algorithm 1's idle-device preference in the affinity step.
    pub fn first_unattached(&self) -> Option<&GpuId> {
        self.first_unattached_at().map(|(id, _)| id)
    }

    /// [`VgpuPool::first_unattached`] with the device's handle.
    pub(crate) fn first_unattached_at(&self) -> Option<(&GpuId, DeviceIdx)> {
        self.ix.unattached.iter().next().map(|(id, &idx)| (id, idx))
    }

    /// First (id order) schedulable device carrying the affinity label —
    /// the binding target of Algorithm 1's affinity step.
    pub fn affinity_target(&self, label: &str) -> Option<&GpuId> {
        self.affinity_target_at(label).map(|(id, _)| id)
    }

    /// [`VgpuPool::affinity_target`] with the device's handle.
    pub(crate) fn affinity_target_at(&self, label: &str) -> Option<(&GpuId, DeviceIdx)> {
        let bucket = self.ix.aff_index.get(label)?;
        bucket.iter().next().map(|(id, &idx)| (id, idx))
    }

    /// Devices hosted on a node (releasing devices included), in id order.
    pub fn devices_on_node<'a>(&'a self, node: &str) -> impl Iterator<Item = &'a GpuId> + 'a {
        self.ix
            .by_node
            .get(node)
            .into_iter()
            .flat_map(|set| set.keys())
    }

    /// Schedulable devices *without* affinity labels whose fit key is at
    /// least `min_fit`, ascending by (fit key, id) — the best-fit scan
    /// order (tightest candidate first, id as the tie-break).
    pub fn plain_fit_range(&self, min_fit: u32) -> impl Iterator<Item = &PoolDevice> {
        (self.plain_fit_range_at(min_fit)).map(move |(idx, _, _)| self.slot(idx))
    }

    /// [`VgpuPool::plain_fit_range`] as its index entries: each device's
    /// handle, id and residual `(util_free, mem_free)`, read without
    /// touching the slab.
    pub(crate) fn plain_fit_range_at(
        &self,
        min_fit: u32,
    ) -> impl Iterator<Item = (DeviceIdx, &GpuId, (u32, u32))> {
        self.ix
            .plain_fit
            .range((min_fit, min_id().clone())..)
            .map(|((_, id), &(idx, free))| (idx, id, free))
    }

    /// Schedulable devices *with* affinity labels whose fit key is at least
    /// `min_fit`, descending by fit key with ascending id inside one key —
    /// the worst-fit scan order (roomiest candidate first, id tie-break).
    pub fn labeled_fit_range_desc(&self, min_fit: u32) -> impl Iterator<Item = &PoolDevice> {
        (self.labeled_fit_range_desc_at(min_fit)).map(move |(idx, _, _)| self.slot(idx))
    }

    /// [`VgpuPool::labeled_fit_range_desc`] as its index entries, like
    /// [`VgpuPool::plain_fit_range_at`].
    pub(crate) fn labeled_fit_range_desc_at(
        &self,
        min_fit: u32,
    ) -> impl Iterator<Item = (DeviceIdx, &GpuId, (u32, u32))> {
        self.ix
            .labeled_fit
            .iter()
            .take_while(move |((Reverse(fit), _), _)| *fit >= min_fit)
            .map(|((_, id), &(idx, free))| (idx, id, free))
    }

    /// Cross-checks the slab's handle map and the incrementally-maintained
    /// indexes against a from-scratch rebuild. Returns a description of
    /// the first mismatch. Backs the index-consistency property tests;
    /// cheap enough to call from any invariant-minded test.
    pub fn verify_indexes(&self) -> Result<(), String> {
        // `ids` and the live slots form a bijection: as many ids as live
        // slots, each id naming a slot that holds it.
        let live = self.slots.iter().filter(|s| s.is_some()).count();
        if live != self.ids.len() {
            return Err(format!("{} ids but {live} live slots", self.ids.len()));
        }
        for (id, &idx) in &self.ids {
            if self.live(idx).map(|d| &d.id) != Some(id) {
                return Err(format!(
                    "id {id} maps to slot {}, which does not hold it",
                    idx.0
                ));
            }
        }
        // The free list names each empty slot exactly once.
        let mut listed = vec![false; self.slots.len()];
        for &idx in &self.free {
            if self.slots.get(idx.at()).is_none_or(Option::is_some)
                || std::mem::replace(&mut listed[idx.at()], true)
            {
                return Err(format!(
                    "free list names slot {}, which is live, out of range or listed twice",
                    idx.0
                ));
            }
        }
        if live + self.free.len() != self.slots.len() {
            return Err("an empty slot is missing from the free list".into());
        }
        // Every index entry's handle names the live slot holding its id.
        for (id, &idx) in self.ix.entries() {
            if self.live(idx).map(|d| &d.id) != Some(id) {
                return Err(format!(
                    "index entry {id} names slot {}, which does not hold it",
                    idx.0
                ));
            }
        }
        let mut fresh_tally = [0u32; 3];
        for d in self.devices() {
            fresh_tally[d.phase as usize] += 1;
        }
        if fresh_tally != self.tally {
            return Err(format!(
                "phase tally drifted: incremental {:?} != rebuilt {fresh_tally:?}",
                self.tally
            ));
        }
        for d in self.devices() {
            let Some(t) = &d.partition else { continue };
            t.verify().map_err(|e| format!("device {}: {e}", d.id))?;
            if d.slice_of.len() != t.slice_count() {
                return Err(format!(
                    "device {}: {} slice tenants but {} slices",
                    d.id,
                    d.slice_of.len(),
                    t.slice_count()
                ));
            }
            let free = SLOT * u32::from(t.free_slots());
            if d.util_free != free || d.mem_free != free {
                return Err(format!(
                    "device {}: residual mirror ({}, {}) != {free} free slots",
                    d.id, d.util_free, d.mem_free
                ));
            }
        }
        // Name the first index that differs from a rebuild.
        let fresh = PoolIndexes::rebuild(&self.slots);
        macro_rules! first_drift {
            ($($index:ident),*) => {$(
                if self.ix.$index != fresh.$index {
                    return Err(format!(
                        "index {} drifted: incremental {:?} != rebuilt {:?}",
                        stringify!($index),
                        self.ix.$index,
                        fresh.$index
                    ));
                }
            )*};
        }
        first_drift!(
            plain_fit,
            labeled_fit,
            unattached,
            idle,
            aff_index,
            by_node,
            spatial
        );
        Ok(())
    }

    /// Device count per phase as `(creating, active, idle)`, maintained
    /// incrementally — O(1), safe to read after every event.
    pub fn phase_counts(&self) -> (u32, u32, u32) {
        (
            self.tally[VgpuPhase::Creating as usize],
            self.tally[VgpuPhase::Active as usize],
            self.tally[VgpuPhase::Idle as usize],
        )
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_ready(n: usize) -> (VgpuPool, Vec<GpuId>) {
        let mut p = VgpuPool::new();
        let ids: Vec<GpuId> = (0..n)
            .map(|i| {
                let id = p.fresh_id();
                p.insert_creating(id.clone());
                p.mark_ready(&id, format!("node-{i}"), format!("GPU-{i}"));
                id
            })
            .collect();
        (p, ids)
    }

    #[test]
    fn lifecycle_creating_to_idle_to_active() {
        let mut p = VgpuPool::new();
        let id = p.fresh_id();
        p.insert_creating(id.clone());
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Creating);
        p.mark_ready(&id, "n0".into(), "GPU-x".into());
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Idle);
        p.attach(&id, Uid(1), 0.5, 0.5, None, None, None);
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Active);
        assert!(p.detach(&id, Uid(1)));
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Idle);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn attach_while_creating_keeps_creating_phase() {
        let mut p = VgpuPool::new();
        let id = p.fresh_id();
        p.insert_creating(id.clone());
        p.attach(&id, Uid(1), 0.3, 0.3, None, None, None);
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Creating);
        p.mark_ready(&id, "n".into(), "GPU-x".into());
        assert_eq!(p.get(&id).unwrap().phase, VgpuPhase::Active);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn capacity_accounting() {
        let (mut p, ids) = pool_with_ready(1);
        p.attach(&ids[0], Uid(1), 0.3, 0.4, None, None, None);
        p.attach(&ids[0], Uid(2), 0.5, 0.2, None, None, None);
        let d = p.get(&ids[0]).unwrap();
        assert_eq!((d.util_free, d.mem_free), (units(0.2), units(0.4)));
        assert_eq!(d.attached[&Uid(2)], (units(0.5), units(0.2)));
        p.detach(&ids[0], Uid(1));
        let d = p.get(&ids[0]).unwrap();
        assert_eq!((d.util_free, d.mem_free), (units(0.5), units(0.8)));
    }

    #[test]
    fn units_round_to_nearest() {
        assert_eq!(units(1.0), FULL);
        assert_eq!(units(0.3), 2_100_000);
        assert_eq!(units(0.1 + 0.2), units(0.3), "one ulp of noise is no unit");
        assert_eq!(units(1.0 / 7.0), FULL / 7);
        assert_eq!(units(0.0), 0);
        assert_eq!(frac(FULL), 1.0);
        assert_eq!(frac(units(0.125)), 0.125);
    }

    #[test]
    fn detach_to_idle_restores_exact_full_capacity() {
        let (mut p, ids) = pool_with_ready(1);
        // 1 − 0.3 − 0.1 + 0.3 + 0.1 does not round-trip in f64; in share
        // units it does, in any detach order.
        p.attach(&ids[0], Uid(1), 0.3, 0.3, None, None, None);
        p.attach(&ids[0], Uid(2), 0.1, 0.1, None, None, None);
        p.detach(&ids[0], Uid(1));
        p.detach(&ids[0], Uid(2));
        let d = p.get(&ids[0]).unwrap();
        assert_eq!((d.util_free, d.mem_free), (FULL, FULL));
        assert_eq!(d.fit_key(), 2 * FULL);
    }

    #[test]
    #[should_panic(expected = "over-committing")]
    fn overcommit_panics() {
        let (mut p, ids) = pool_with_ready(1);
        p.attach(&ids[0], Uid(1), 0.8, 0.1, None, None, None);
        p.attach(&ids[0], Uid(2), 0.3, 0.1, None, None, None);
    }

    #[test]
    fn labels_accumulate_and_clear_on_idle() {
        let (mut p, ids) = pool_with_ready(1);
        p.attach(
            &ids[0],
            Uid(1),
            0.2,
            0.2,
            Some("g1"),
            Some("noisy"),
            Some("tenant"),
        );
        p.attach(&ids[0], Uid(2), 0.2, 0.2, Some("g2"), None, Some("tenant"));
        let d = p.get(&ids[0]).unwrap();
        assert!(d.aff.contains("g1") && d.aff.contains("g2"));
        assert!(d.anti_aff.contains("noisy"));
        assert_eq!(d.excl.as_deref(), Some("tenant"));
        assert_eq!(p.affinity_target("g1"), Some(&ids[0]));
        assert_eq!(p.affinity_target("g2"), Some(&ids[0]));
        p.detach(&ids[0], Uid(1));
        assert!(p.detach(&ids[0], Uid(2)), "becomes idle");
        let d = p.get(&ids[0]).unwrap();
        assert!(d.aff.is_empty() && d.anti_aff.is_empty() && d.excl.is_none());
        assert_eq!(p.affinity_target("g1"), None);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn idle_devices_listed() {
        let (mut p, ids) = pool_with_ready(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, None);
        let idle: Vec<&GpuId> = p.idle_devices().collect();
        assert_eq!(idle, vec![&ids[1]]);
        assert_eq!(p.idle_count(), 1);
    }

    #[test]
    fn releasing_device_leaves_scheduler_indexes() {
        let (mut p, ids) = pool_with_ready(2);
        p.mark_releasing(&ids[0]);
        assert_eq!(p.idle_count(), 1);
        assert_eq!(p.first_unattached(), Some(&ids[1]));
        assert!(p.plain_fit_range(0).all(|d| d.id != ids[0]));
        // Still visible by node for failure handling.
        assert_eq!(p.devices_on_node("node-0").next(), Some(&ids[0]));
        p.verify_indexes().unwrap();
    }

    #[test]
    fn fit_ranges_order_by_key_then_id() {
        let (mut p, ids) = pool_with_ready(3);
        p.attach(&ids[0], Uid(1), 0.6, 0.6, None, None, None); // fit 0.8
        p.attach(&ids[1], Uid(2), 0.2, 0.2, None, None, None); // fit 1.6
                                                               // ids[2] idle: fit 2.0
        let order: Vec<&GpuId> = p.plain_fit_range(0).map(|d| &d.id).collect();
        assert_eq!(order, vec![&ids[0], &ids[1], &ids[2]]);
        let bounded: Vec<&GpuId> = p.plain_fit_range(FULL).map(|d| &d.id).collect();
        assert_eq!(bounded, vec![&ids[1], &ids[2]]);
        // Labeled devices live in the other index, scanned descending.
        p.attach(&ids[2], Uid(3), 0.5, 0.5, Some("g"), None, None); // fit 1.0
        p.attach(&ids[1], Uid(4), 0.1, 0.1, Some("g"), None, None); // fit 1.4
        let desc: Vec<&GpuId> = p.labeled_fit_range_desc(0).map(|d| &d.id).collect();
        assert_eq!(desc, vec![&ids[1], &ids[2]]);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn per_node_index_tracks_ready_devices() {
        let (mut p, ids) = pool_with_ready(2);
        assert_eq!(
            p.devices_on_node("node-0").collect::<Vec<_>>(),
            vec![&ids[0]]
        );
        p.remove(&ids[0]);
        assert_eq!(p.devices_on_node("node-0").count(), 0);
        assert_eq!(p.devices_on_node("node-1").count(), 1);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn removed_slot_is_reused_and_old_id_resolves_to_none() {
        let (mut p, ids) = pool_with_ready(3);
        let freed = p.idx(&ids[1]);
        p.remove(&ids[1]);
        p.verify_indexes().unwrap();
        let id = p.fresh_id();
        p.insert_creating(id.clone());
        p.mark_ready(&id, "node-9".into(), "GPU-9".into());
        assert_eq!(p.idx(&id), freed, "the new device takes the freed slot");
        assert_eq!(p.slots.len(), 3, "the slab did not grow");
        assert!(p.get(&ids[1]).is_none());
        assert_eq!(p.get(&id).map(|d| &d.id), Some(&id));
        assert_eq!(p.devices_on_node("node-9").next(), Some(&id));
        p.verify_indexes().unwrap();
    }

    #[test]
    fn verify_catches_a_broken_handle_map() {
        let (p, ids) = pool_with_ready(2);
        let (a, b) = (p.idx(&ids[0]), p.idx(&ids[1]));
        let mut bad = p.clone();
        bad.ids.insert(ids[0].clone(), b);
        assert!(bad.verify_indexes().unwrap_err().contains("maps to slot"));
        let mut bad = p.clone();
        bad.ix.unattached.insert(ids[0].clone(), b);
        assert!(bad.verify_indexes().unwrap_err().contains("index entry"));
        let mut bad = p.clone();
        bad.free.push(a);
        assert!(bad.verify_indexes().unwrap_err().contains("free list"));
        p.verify_indexes().unwrap();
    }

    #[test]
    fn verify_catches_a_stale_carried_residual() {
        let (mut p, ids) = pool_with_ready(2);
        p.attach(&ids[1], Uid(1), 0.2, 0.3, Some("g"), None, None);
        p.verify_indexes().unwrap();
        // A residual that no longer matches its device, under the right key.
        let mut bad = p.clone();
        let entry = bad.ix.plain_fit.get_mut(&(2 * FULL, ids[0].clone()));
        entry.unwrap().1 = (FULL + 1, FULL - 1);
        let err = bad.verify_indexes().unwrap_err();
        assert!(err.contains("index plain_fit drifted"), "{err}");
        // Swapped axes keep the sum, and are caught as well.
        let mut bad = p.clone();
        let d = p.get(&ids[1]).unwrap();
        let key = (Reverse(d.fit_key()), ids[1].clone());
        bad.ix.labeled_fit.get_mut(&key).unwrap().1 = (d.mem_free, d.util_free);
        let err = bad.verify_indexes().unwrap_err();
        assert!(err.contains("index labeled_fit drifted"), "{err}");
    }

    #[test]
    #[should_panic(expected = "with tenants")]
    fn remove_active_panics() {
        let (mut p, ids) = pool_with_ready(1);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, None);
        p.remove(&ids[0]);
    }

    fn spatial_pool_with_ready(n: usize) -> (VgpuPool, Vec<GpuId>) {
        let mut p = VgpuPool::new();
        let ids: Vec<GpuId> = (0..n)
            .map(|i| {
                let id = p.fresh_id();
                p.insert_creating_spatial(id.clone());
                p.mark_ready(&id, format!("node-{i}"), format!("GPU-{i}"));
                id
            })
            .collect();
        (p, ids)
    }

    #[test]
    fn spatial_devices_hide_from_time_slice_indexes() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        assert_eq!(p.spatial_count(), 1);
        assert_eq!(p.first_unattached(), None);
        assert_eq!(p.idle_count(), 0);
        assert_eq!(p.plain_fit_range(0).count(), 0);
        p.attach_slice(
            &ids[0],
            Uid(1),
            Profile::P2,
            0.2,
            0.2,
            Some("g"),
            None,
            None,
        )
        .unwrap();
        assert_eq!(p.affinity_target("g"), None);
        // Still visible by node for failure handling.
        assert_eq!(p.devices_on_node("node-0").next(), Some(&ids[0]));
        p.verify_indexes().unwrap();
    }

    #[test]
    fn slice_attach_detach_mirrors_residuals() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        let start = p
            .attach_slice(&ids[0], Uid(1), Profile::P3, 0.4, 0.3, None, None, None)
            .unwrap();
        assert_eq!(p.slice_tenant(&ids[0], start), Some(Uid(1)));
        let d = p.get(&ids[0]).unwrap();
        assert_eq!((d.util_free, d.mem_free), (4 * FULL / 7, 4 * FULL / 7));
        assert_eq!(d.attached[&Uid(1)], (units(0.4), units(0.3)));
        assert_eq!(d.phase, VgpuPhase::Active);
        assert!(p.detach(&ids[0], Uid(1)), "becomes idle");
        let d = p.get(&ids[0]).unwrap();
        assert_eq!((d.util_free, d.mem_free), (FULL, FULL));
        assert_eq!(d.phase, VgpuPhase::Idle);
        assert_eq!(p.slice_tenant(&ids[0], start), None);
        p.verify_indexes().unwrap();
    }

    #[test]
    fn slice_no_fit_reported_not_panicked() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        p.attach_slice(&ids[0], Uid(1), Profile::P7, 1.0, 1.0, None, None, None)
            .unwrap();
        assert_eq!(
            p.attach_slice(&ids[0], Uid(2), Profile::P1, 0.1, 0.1, None, None, None),
            Err(PartitionError::NoFit)
        );
        p.verify_indexes().unwrap();
    }

    #[test]
    fn partition_reconfig_round_trip() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        p.attach_slice(&ids[0], Uid(1), Profile::P2, 0.25, 0.25, None, None, None)
            .unwrap();
        let tenants = p.begin_partition_drain(&ids[0]).unwrap();
        assert_eq!(tenants, vec![Uid(1)]);
        // No new slice while draining.
        assert_eq!(
            p.attach_slice(&ids[0], Uid(2), Profile::P1, 0.1, 0.1, None, None, None),
            Err(PartitionError::BadState)
        );
        p.detach(&ids[0], Uid(1));
        let now = SimTime::from_secs(3);
        let cost = SimDuration::from_secs(2);
        let until = p.note_partition_drained(&ids[0], now, cost).unwrap();
        assert_eq!(
            p.activate_partition(&ids[0], now),
            Err(PartitionError::NotReady)
        );
        p.activate_partition(&ids[0], until).unwrap();
        assert!(p
            .attach_slice(&ids[0], Uid(3), Profile::P7, 1.0, 1.0, None, None, None)
            .is_ok());
        p.verify_indexes().unwrap();
    }

    #[test]
    fn fragmentation_blends_substrates() {
        // One whole time-sliced device: unfragmented.
        let (mut p, _) = pool_with_ready(1);
        assert_eq!(p.fragmentation(), 0.0);
        // Add a partitioned device with a stranded-slot layout: a P2 at
        // slots 2-3 leaves 5 free slots with only a P3 placeable.
        let sid = p.fresh_id();
        p.insert_creating_spatial(sid.clone());
        p.mark_ready(&sid, "node-s".into(), "GPU-s".into());
        p.attach_slice(&sid, Uid(9), Profile::P2, 0.25, 0.25, None, None, None)
            .unwrap();
        // Force the fragmented layout the best-start heuristic avoids.
        {
            // free = 1 + 5/7, reachable = 1 + largest/7.
            let f = p.fragmentation();
            let d = p.get(&sid).unwrap();
            let largest = d.partition.as_ref().unwrap().largest_placeable_slots();
            let expect = 1.0 - (1.0 + f64::from(largest) / 7.0) / (1.0 + 5.0 / 7.0);
            assert_eq!(f, expect);
        }
        p.verify_indexes().unwrap();
    }

    #[test]
    #[should_panic(expected = "use attach_slice")]
    fn token_attach_on_spatial_panics() {
        let (mut p, ids) = spatial_pool_with_ready(1);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, None);
    }

    #[test]
    fn fresh_ids_never_collide() {
        let mut p = VgpuPool::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let id = p.fresh_id();
            p.insert_creating(id.clone());
            assert!(seen.insert(id));
        }
        p.verify_indexes().unwrap();
    }
}
