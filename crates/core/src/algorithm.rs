//! Algorithm 1: locality & resource aware scheduling (paper §4.3).
//!
//! Given a container's requirements `r` (gpu_request, gpu_mem, locality
//! labels) and the vGPU pool `D`, pick the GPUID to bind:
//!
//! * **Step 1** — affinity: if `r` has an affinity label and a device
//!   already carries it, the container *must* go there (reject on any
//!   conflict with exclusion/anti-affinity/capacity). If no device carries
//!   the label yet, prefer an idle or brand-new device so the group has
//!   room to grow.
//! * **Step 2** — filter: drop devices that conflict on exclusion or
//!   anti-affinity or lack residual capacity (idle devices are clean and
//!   always pass).
//! * **Step 3** — placement: **best-fit** among devices *without* affinity
//!   labels, then **worst-fit** among devices *with* affinity labels
//!   (keeping room for their future group members), then a new device.
//!
//! Two implementations exist behind [`SchedMode`]: the paper-faithful
//! linear-scan reference ([`schedule`]) and an indexed path
//! ([`schedule_indexed`]) that serves the same steps from [`VgpuPool`]'s
//! capacity indexes in logarithmic time. They share one locality
//! predicate and one filter, and the indexed path runs Steps 2+3 as a
//! single fit-range scan, called once for best-fit and once for
//! worst-fit, whether or not a provenance collector is capturing. The two
//! produce byte-identical decisions; the differential oracle in
//! `tests/sched_differential.rs` enforces this (DESIGN.md §10).

pub use ks_cluster::scheduler::SchedMode;

use std::cmp::Reverse;

use ks_cluster::api::Uid;
use ks_partition::{Profile, Substrate, TableState};
use ks_sim_core::time::SimTime;
use ks_telemetry::provenance::{DecisionKind, FlightRecorder, Outcome, ReasonCode, SchedProv};

use crate::gpuid::GpuId;
use crate::locality::Locality;
use crate::pool::{fit_key, fits, frac, units, DeviceIdx, PoolDevice, VgpuPool, FULL, SLOT};

/// A container's scheduling requirements (`r` in Algorithm 1).
#[derive(Debug, Clone)]
pub struct SchedRequest {
    /// `gpu_request` — minimum compute share to reserve.
    pub util: f64,
    /// `gpu_mem` — memory fraction to reserve.
    pub mem: f64,
    /// Locality labels.
    pub locality: Locality,
}

impl SchedRequest {
    /// The (compute, memory) demand in share units.
    pub fn need(&self) -> (u32, u32) {
        (units(self.util), units(self.mem))
    }
}

/// The algorithm's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Bind to an existing vGPU.
    Assign(GpuId),
    /// Create a new vGPU with this (fresh) GPUID and bind to it.
    NewDevice(GpuId),
    /// Spatial only: no legal slice start hosts the request anywhere, but
    /// this partitioned device holds enough *total* free slots — capacity
    /// stranded purely by slice geometry. The caller should drain and
    /// reconfigure the device, then retry the request.
    Reconfigure(GpuId),
    /// Constraints cannot be satisfied (paper's `return -1`).
    Reject(RejectReason),
}

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Affinity target exists but carries a different exclusion label.
    ExclusionConflict,
    /// Affinity target already hosts the request's anti-affinity label.
    AntiAffinityConflict,
    /// Affinity target lacks residual capacity.
    InsufficientCapacity,
}

/// The exclusion and anti-affinity predicates shared by every Step 1 and
/// Step 2: the precise and coarse rejection reasons when `dev`'s labels
/// conflict with `loc`, `None` when they do not.
fn locality_conflict(loc: &Locality, dev: &PoolDevice) -> Option<(ReasonCode, RejectReason)> {
    if loc.exclusion != dev.excl {
        Some((
            ReasonCode::AffinityExcluded,
            RejectReason::ExclusionConflict,
        ))
    } else if loc
        .anti_affinity
        .as_ref()
        .is_some_and(|label| dev.anti_aff.contains(label))
    {
        Some((
            ReasonCode::AntiAffinityConflict,
            RejectReason::AntiAffinityConflict,
        ))
    } else {
        None
    }
}

/// Step 2's filter on a time-sliced device: idle devices are clean and
/// always pass; others must agree on locality and cover `req`'s demand
/// `need`.
fn passes(req: &SchedRequest, need: (u32, u32), dev: &PoolDevice) -> bool {
    dev.is_idle() || (locality_conflict(&req.locality, dev).is_none() && dev.fits(need))
}

/// A time-slice decision with, for `Assign`, the winner's slab handle:
/// the batch drain attaches through it instead of looking the id up.
type Decided = (Decision, Option<DeviceIdx>);

/// `Assign` to the device behind `idx`.
fn assign(idx: DeviceIdx, id: &GpuId) -> Decided {
    (Decision::Assign(id.clone()), Some(idx))
}

/// The fit metric of placing `req` on an existing device: the total
/// residual after placement as a fraction of a GPU (0 to 2), which
/// best-fit minimizes (pack tight) and worst-fit maximizes (keep room).
/// Exposed so KubeShare-Sched can record the fit score of the decision it
/// just made. `None` if the device is not in the pool.
pub fn fit_residual(req: &SchedRequest, pool: &VgpuPool, gpuid: &GpuId) -> Option<f64> {
    let (util, mem) = req.need();
    pool.get(gpuid)
        .map(|d| frac(d.fit_key().saturating_sub(util.saturating_add(mem))))
}

/// Runs Algorithm 1. Pure with respect to pool *contents*; only consumes a
/// fresh id from the pool's id counter when a new device is needed.
pub fn schedule(req: &SchedRequest, pool: &mut VgpuPool) -> Decision {
    schedule_prov(req, req.need(), pool, &mut SchedProv::off()).0
}

/// [`schedule`] with a provenance collector. The collector is a pure
/// observer: every capture call is gated on its enablement and mutates
/// nothing the algorithm reads, so decisions are identical with `prov` on
/// or off (enforced by the differential oracles). `need` is
/// [`SchedRequest::need`].
fn schedule_prov(
    req: &SchedRequest,
    need: (u32, u32),
    pool: &mut VgpuPool,
    prov: &mut SchedProv,
) -> Decided {
    // ---- Step 1: affinity (lines 1–14) ----
    if let Some(aff) = &req.locality.affinity {
        let target = pool
            .devices_at()
            .find(|(_, d)| !d.releasing && !d.is_spatial() && d.aff.contains(aff));
        if let Some((idx, d)) = target {
            prov.candidate_with("affinity", frac(d.fit_key()), || d.id.as_str());
            prov.note(|| format!("affinity '{aff}' binds to {}", d.id));
            if let Some((code, reason)) = locality_conflict(&req.locality, d) {
                prov.reject(code);
                return (Decision::Reject(reason), None);
            }
            if !d.fits(need) {
                prov.reject(ReasonCode::AffinityNoCapacity);
                return (Decision::Reject(RejectReason::InsufficientCapacity), None);
            }
            prov.choose(d.id.as_str(), "affinity", frac(d.fit_key()));
            return assign(idx, &d.id);
        }
        // No device carries the label yet: prefer an idle device so the
        // affinity group has maximal room (lines 9–14).
        if let Some((idx, d)) = pool
            .devices_at()
            .find(|(_, d)| !d.releasing && !d.is_spatial() && d.is_idle())
        {
            prov.candidate_with("idle", frac(d.fit_key()), || d.id.as_str());
            prov.choose(d.id.as_str(), "idle", frac(d.fit_key()));
            prov.note(|| format!("no device carries affinity '{aff}'; seed group on idle device"));
            return assign(idx, &d.id);
        }
        prov.note(|| format!("no device carries affinity '{aff}' and none idle; new device"));
        return (Decision::NewDevice(pool.fresh_id()), None);
    }

    // ---- Step 2: filter (lines 15–20) ----
    // Releasing devices were handed back; spatial ones are on the slice
    // substrate.
    let candidates: Vec<(DeviceIdx, &PoolDevice)> = pool
        .devices_at()
        .filter(|(_, d)| !d.releasing && !d.is_spatial() && passes(req, need, d))
        .collect();
    prov.note(|| {
        format!(
            "filter: {} of {} devices pass",
            candidates.len(),
            pool.len()
        )
    });

    // ---- Step 3: placement (lines 21–26) ----
    // The fit metric is the residual after placement, `fit_key − (u+m)`;
    // the request term is constant across candidates, so ordering by the
    // device's integer fit key alone selects the same device, which an
    // ordered index reproduces exactly.
    for (_, d) in &candidates {
        let rule = if d.aff.is_empty() {
            "best_fit"
        } else {
            "worst_fit"
        };
        prov.candidate_with(rule, frac(d.fit_key()), || d.id.as_str());
    }
    // Best fit among devices without affinity labels…
    let best = candidates
        .iter()
        .filter(|(_, d)| d.aff.is_empty())
        .min_by_key(|(_, d)| (d.fit_key(), &d.id));
    if let Some(&(idx, d)) = best {
        prov.choose(d.id.as_str(), "best_fit", frac(d.fit_key()));
        prov.note_static("best_fit over plain devices (min fit key, id tie-break)");
        return assign(idx, &d.id);
    }
    // …worst fit among devices with affinity labels…
    let worst = candidates
        .iter()
        .filter(|(_, d)| !d.aff.is_empty())
        .max_by_key(|(_, d)| (d.fit_key(), Reverse(&d.id)));
    if let Some(&(idx, d)) = worst {
        prov.choose(d.id.as_str(), "worst_fit", frac(d.fit_key()));
        prov.note_static("worst_fit over affinity devices (max fit key, id tie-break)");
        return assign(idx, &d.id);
    }
    // …else a brand-new vGPU.
    prov.note_static("no existing device passes; new device");
    (Decision::NewDevice(pool.fresh_id()), None)
}

/// Runs Algorithm 1 over the pool's capacity indexes. Same decision as
/// [`schedule`], step by step:
///
/// * the affinity target is the first (id-ordered) device carrying the
///   label — `aff_index`'s leading entry;
/// * the idle fallback is the first unattached device — the `unattached`
///   index's leading entry;
/// * best-fit scans `plain_fit` ascending by (fit key, id) from the
///   request's capacity bound, so the first device passing the filters is
///   the reference's minimum; worst-fit scans `labeled_fit` descending by
///   fit key (ascending id within a key), so the first survivor is the
///   reference's maximum with the same smallest-id tie-break.
pub fn schedule_indexed(req: &SchedRequest, pool: &mut VgpuPool) -> Decision {
    schedule_indexed_prov(req, req.need(), pool, &mut SchedProv::off()).0
}

/// [`schedule_indexed`] with a provenance collector. Candidates captured
/// are the devices the range scans actually examined before the first
/// survivor — faithful to this implementation's work, which may differ
/// from the reference path's candidate set even though the chosen device
/// never does. `need` is [`SchedRequest::need`].
fn schedule_indexed_prov(
    req: &SchedRequest,
    need: (u32, u32),
    pool: &mut VgpuPool,
    prov: &mut SchedProv,
) -> Decided {
    // ---- Step 1: affinity ----
    if let Some(aff) = &req.locality.affinity {
        if let Some((_, idx)) = pool.affinity_target_at(aff) {
            let d = pool.slot(idx);
            prov.candidate_with("affinity", frac(d.fit_key()), || d.id.as_str());
            prov.note_static("affinity label binds to its existing carrier (see candidates)");
            if let Some((code, reason)) = locality_conflict(&req.locality, d) {
                prov.reject(code);
                return (Decision::Reject(reason), None);
            }
            if !d.fits(need) {
                prov.reject(ReasonCode::AffinityNoCapacity);
                return (Decision::Reject(RejectReason::InsufficientCapacity), None);
            }
            prov.choose(d.id.as_str(), "affinity", frac(d.fit_key()));
            return assign(idx, &d.id);
        }
        if let Some((id, idx)) = pool.first_unattached_at() {
            prov.choose(id.as_str(), "idle", 2.0);
            prov.note_static("no device carries the affinity label; seed group on idle device");
            return assign(idx, id);
        }
        prov.note_static("no device carries the affinity label and none idle; new device");
        return (Decision::NewDevice(pool.fresh_id()), None);
    }

    // ---- Steps 2+3 fused: range-scan, filter, first survivor wins ----
    // A device that covers the demand has fit key at least its sum. Idle
    // devices sit at `2 × FULL` and always pass, so capping the bound
    // there keeps them in range even when the request could never fit.
    let min_fit = need.0.saturating_add(need.1).min(2 * FULL);
    let best_fit = pool.plain_fit_range_at(min_fit);
    if let Some((idx, d)) = scan_first(pool, best_fit, "best_fit", req, need, prov) {
        prov.note_static("best_fit: first survivor of ascending plain-fit scan");
        return assign(idx, &d.id);
    }
    let worst_fit = pool.labeled_fit_range_desc_at(min_fit);
    if let Some((idx, d)) = scan_first(pool, worst_fit, "worst_fit", req, need, prov) {
        prov.note_static("worst_fit: first survivor of descending labeled-fit scan");
        return assign(idx, &d.id);
    }
    prov.note_static("no indexed device in fit range passes; new device");
    (Decision::NewDevice(pool.fresh_id()), None)
}

/// The indexed path's fit-range scan over `pool`'s index entries `scan`:
/// the first device that [`passes`] the filter for `req` and its demand
/// `need`, with its handle, marked as the winner under `rule`.
///
/// This loop is the only per-device work at cluster scale. Each entry
/// carries its device's residual, so a device without room for the
/// demand is rejected from the entry alone, and only the rest are read
/// from the slab for the idle and locality filter. The skip is exact: a
/// device with no tenants has a whole GPU free on each axis, so it
/// covers the demand capped at one GPU per axis and is always read,
/// while a tenanted device that misses the capped demand misses `need`
/// too and [`passes`] would reject it. Examined devices are staged as
/// `(fit key, id)` pairs, taken from the entry, in a stack buffer (hot
/// lines, pipelined stores) while the collector has room — with the
/// collector off, [`SchedProv::scan_room`] is 0 and nothing is staged —
/// and become candidate records in one burst after the loop. Writing the
/// 48-byte records inside the pointer-chasing scan instead stalls the
/// store buffer for ~130 ns per captured candidate at the 10k-GPU sweep
/// point. A staged winner is marked by its slot, offset past the
/// candidates the collector already held, so the string-searching
/// [`SchedProv::choose`] is never needed.
fn scan_first<'a>(
    pool: &'a VgpuPool,
    scan: impl Iterator<Item = (DeviceIdx, &'a GpuId, (u32, u32))>,
    rule: &'static str,
    req: &SchedRequest,
    need: (u32, u32),
    prov: &mut SchedProv,
) -> Option<(DeviceIdx, &'a PoolDevice)> {
    let capped = (need.0.min(FULL), need.1.min(FULL));
    let base = prov.candidates().len();
    let room = prov.scan_room();
    let mut seen: [(u32, &str); SchedProv::MAX_CANDIDATES] = Default::default();
    let (mut staged, mut scanned) = (0usize, 0usize);
    let mut winner = None;
    for (idx, id, free) in scan {
        scanned += 1;
        let pushed = staged < room;
        if pushed {
            seen[staged] = (fit_key(free), id.as_str());
            staged += 1;
        }
        if !fits(free, capped) {
            continue;
        }
        let d = pool.slot(idx);
        if passes(req, need, d) {
            winner = Some((idx, d, pushed));
            break;
        }
    }
    prov.add_considered(scanned);
    for &(key, id) in &seen[..staged] {
        prov.scan_push(rule, frac(key), id);
    }
    match winner {
        Some((_, d, true)) => prov.choose_at(base + staged - 1, rule, frac(d.fit_key())),
        Some((_, d, false)) => prov.choose_append(d.id.as_str(), rule, frac(d.fit_key())),
        None => {}
    }
    winner.map(|(idx, d, _)| (idx, d))
}

/// Runs Algorithm 1 with the implementation selected by `mode`; both are
/// decision-identical.
pub fn schedule_with(mode: SchedMode, req: &SchedRequest, pool: &mut VgpuPool) -> Decision {
    schedule_with_prov(mode, req, pool, &mut SchedProv::off())
}

/// [`schedule_with`] with a provenance collector.
pub fn schedule_with_prov(
    mode: SchedMode,
    req: &SchedRequest,
    pool: &mut VgpuPool,
    prov: &mut SchedProv,
) -> Decision {
    decide(mode, req, req.need(), pool, prov).0
}

/// [`schedule_with_prov`] on the demand `need` (in share units, converted
/// once by the caller), keeping the winner's handle.
fn decide(
    mode: SchedMode,
    req: &SchedRequest,
    need: (u32, u32),
    pool: &mut VgpuPool,
    prov: &mut SchedProv,
) -> Decided {
    match mode {
        SchedMode::Reference => schedule_prov(req, need, pool, prov),
        SchedMode::Indexed => schedule_indexed_prov(req, need, pool, prov),
    }
}

/// The spatial analogue of Algorithm 1: bind the request to a dedicated
/// MIG-style slice instead of a token lease.
///
/// * **Step 1** — affinity, as in the reference: a partitioned device
///   already carrying the label is binding (reject on conflicts or when
///   no legal start hosts the group member's profile); otherwise prefer
///   an empty partitioned device so the group has maximal room.
/// * **Step 2** — filter: non-releasing partitioned devices passing the
///   exclusion/anti-affinity predicates (empty devices are clean) whose
///   active table can place the profile.
/// * **Step 3** — placement by *fragmentation score*: pick the candidate
///   whose hypothetical placement leaves the pool least fragmented
///   ([`ks_partition::pool_fragmentation`] after the alloc), smallest id
///   on ties. Where best-fit packs residuals, this packs *geometry*:
///   it avoids placements that strand slots no profile can start on.
///
/// When no legal start exists anywhere but some active device holds
/// enough total free slots, the verdict is [`Decision::Reconfigure`] —
/// the capacity exists and only the layout blocks it, so the caller
/// should pay the explicit reconfiguration cost rather than burn a whole
/// new physical GPU.
pub fn schedule_spatial(req: &SchedRequest, pool: &mut VgpuPool) -> Decision {
    schedule_spatial_prov(req, pool, &mut SchedProv::off())
}

/// [`schedule_spatial`] with a provenance collector capturing the
/// fragmentation score of every placeable candidate.
fn schedule_spatial_prov(
    req: &SchedRequest,
    pool: &mut VgpuPool,
    prov: &mut SchedProv,
) -> Decision {
    let demand = req.util.max(req.mem);
    let Some(profile) = Profile::smallest_covering(demand) else {
        prov.reject(ReasonCode::DemandOverCapacity);
        prov.note(|| format!("demand {demand:.3} exceeds a whole device; no covering profile"));
        return Decision::Reject(RejectReason::InsufficientCapacity);
    };
    prov.note(|| format!("demand {demand:.3} rounds up to profile {profile:?}"));

    // ---- Step 1: affinity ----
    if let Some(aff) = &req.locality.affinity {
        let target = pool.spatial_devices().find(|d| d.aff.contains(aff));
        if let Some(d) = target {
            prov.candidate_with("affinity", 0.0, || d.id.as_str());
            prov.note(|| format!("affinity '{aff}' binds to {}", d.id));
            if let Some((code, reason)) = locality_conflict(&req.locality, d) {
                prov.reject(code);
                return Decision::Reject(reason);
            }
            let table = d.partition.as_ref().expect("spatial device");
            if !table.can_place(profile) {
                // Enough raw slots but no legal start is geometry
                // stranding; fewer slots than the profile is capacity.
                prov.reject(if table.free_slots() >= profile.slots() {
                    ReasonCode::SliceGeometryStranded
                } else {
                    ReasonCode::AffinityNoCapacity
                });
                return Decision::Reject(RejectReason::InsufficientCapacity);
            }
            prov.choose(d.id.as_str(), "affinity", 0.0);
            return Decision::Assign(d.id.clone());
        }
        if let Some(d) = pool.spatial_devices().find(|d| {
            d.is_idle()
                && d.partition
                    .as_ref()
                    .expect("spatial device")
                    .can_place(profile)
        }) {
            prov.candidate_with("idle", 0.0, || d.id.as_str());
            prov.choose(d.id.as_str(), "idle", 0.0);
            prov.note(|| format!("no device carries affinity '{aff}'; seed group on idle device"));
            return Decision::Assign(d.id.clone());
        }
        prov.note(|| format!("no device carries affinity '{aff}' and none idle; new device"));
        return Decision::NewDevice(pool.fresh_id());
    }

    // ---- Step 2: filter ----
    let passes = |d: &PoolDevice| d.is_idle() || locality_conflict(&req.locality, d).is_none();

    // ---- Step 3: fragmentation-aware placement ----
    // Pool-wide (free, reachable) share-unit totals over every schedulable
    // device of either substrate; each candidate's score is an O(1) delta
    // on them.
    let (mut free_total, mut reach_total) = (0u64, 0u64);
    for d in pool.devices().filter(|d| !d.releasing) {
        let (f, r) = d.free_view();
        free_total += u64::from(f);
        reach_total += u64::from(r);
    }
    let mut best: Option<(f64, GpuId)> = None;
    for d in pool.spatial_devices() {
        if !passes(d) {
            continue;
        }
        let table = d.partition.as_ref().expect("spatial device");
        if !table.can_place(profile) {
            continue;
        }
        let (_, reach_before) = d.free_view();
        let mut after = table.clone();
        after.alloc(profile).expect("can_place checked");
        let reach_after = SLOT * u32::from(after.largest_placeable_slots());
        // The pool's fragmentation after the placement, from exact totals:
        // reachable capacity never exceeds free capacity, so it is in [0, 1].
        let reach = reach_total - u64::from(reach_before) + u64::from(reach_after);
        let free_after = free_total - u64::from(SLOT * u32::from(profile.slots()));
        let score = if free_after == 0 {
            0.0
        } else {
            1.0 - reach as f64 / free_after as f64
        };
        prov.candidate_with("frag_score", score, || d.id.as_str());
        if best
            .as_ref()
            .is_none_or(|(bs, bid)| score.total_cmp(bs).then_with(|| d.id.cmp(bid)).is_lt())
        {
            best = Some((score, d.id.clone()));
        }
    }
    if let Some((score, id)) = best {
        prov.choose(id.as_str(), "frag_score", score);
        prov.note_static("frag_score: placement leaving the pool least fragmented (id tie-break)");
        return Decision::Assign(id);
    }

    // No legal start anywhere. If an active device holds enough total
    // free slots the capacity is merely stranded by geometry: propose a
    // reconfiguration of the roomiest such device (smallest id on ties).
    let mut target: Option<(u8, GpuId)> = None;
    for d in pool.spatial_devices() {
        if !passes(d) {
            continue;
        }
        let table = d.partition.as_ref().expect("spatial device");
        if table.state() != TableState::Active || table.free_slots() < profile.slots() {
            continue;
        }
        let free = table.free_slots();
        prov.candidate_with("reconfigure", f64::from(free), || d.id.as_str());
        if target
            .as_ref()
            .is_none_or(|(fs, tid)| free > *fs || (free == *fs && d.id < *tid))
        {
            target = Some((free, d.id.clone()));
        }
    }
    if let Some((fs, id)) = target {
        prov.choose(id.as_str(), "reconfigure", f64::from(fs));
        prov.reject(ReasonCode::SliceGeometryStranded);
        prov.note(|| {
            format!(
                "no legal {}-slot start anywhere, but {fs} free slots are \
                 stranded by geometry; reconfigure the roomiest device",
                profile.slots()
            )
        });
        return Decision::Reconfigure(id);
    }
    prov.note_static("no legal start and no stranded capacity; new device");
    Decision::NewDevice(pool.fresh_id())
}

/// Runs the scheduler for a request on a given [`Substrate`]: requests
/// that want a spatial slice go through [`schedule_spatial`]; everything
/// else takes the token-lease path [`schedule_with`] *unchanged* — a
/// `TimeSlice`-only workload is decision-identical to the pre-substrate
/// scheduler (enforced by `tests/substrate_differential.rs`).
pub fn schedule_substrate(
    mode: SchedMode,
    substrate: Substrate,
    req: &SchedRequest,
    pool: &mut VgpuPool,
) -> Decision {
    schedule_substrate_prov(mode, substrate, req, pool, &mut SchedProv::off())
}

/// [`schedule_substrate`] with a provenance collector.
pub fn schedule_substrate_prov(
    mode: SchedMode,
    substrate: Substrate,
    req: &SchedRequest,
    pool: &mut VgpuPool,
    prov: &mut SchedProv,
) -> Decision {
    if substrate.wants_spatial(req.util, req.mem) {
        prov.note_static("substrate routes to the spatial (slice) path");
        schedule_spatial_prov(req, pool, prov)
    } else {
        schedule_with_prov(mode, req, pool, prov)
    }
}

/// Maps a [`Decision`] and its collector to a provenance [`Outcome`],
/// preferring the collector's precise [`ReasonCode`] over the coarse
/// [`RejectReason`] when both exist.
pub fn outcome_of(decision: &Decision, prov: &SchedProv) -> Outcome {
    match decision {
        Decision::Assign(id) => Outcome::Placed {
            target: id.as_str().into(),
        },
        Decision::NewDevice(id) => Outcome::NewDevice {
            target: id.as_str().into(),
        },
        Decision::Reconfigure(id) => Outcome::Reconfigure {
            target: id.as_str().into(),
        },
        Decision::Reject(r) => Outcome::Rejected {
            reason: prov.reason().unwrap_or(coarse_reason(r)),
        },
    }
}

/// The coarse fallback mapping for rejections recorded without a precise
/// collector-noted code.
pub fn coarse_reason(r: &RejectReason) -> ReasonCode {
    match r {
        RejectReason::ExclusionConflict => ReasonCode::AffinityExcluded,
        RejectReason::AntiAffinityConflict => ReasonCode::AntiAffinityConflict,
        RejectReason::InsufficientCapacity => ReasonCode::NoCapacity,
    }
}

/// One pending sharePod in a scheduling batch.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// The sharePod's uid (used to attach its demand to the chosen vGPU).
    pub uid: Uid,
    /// Its scheduling requirements.
    pub req: SchedRequest,
}

/// Applies one [`schedule_batch`] decision to the pool: an `Assign`
/// attaches through the handle its decision carried, a `NewDevice`
/// through the handle its insert returns, so no id is looked up. The
/// time-slice path never proposes a reconfiguration.
fn apply_decision(
    pool: &mut VgpuPool,
    e: &BatchEntry,
    need: (u32, u32),
    (decision, winner): &Decided,
) {
    let idx = match decision {
        Decision::Assign(id) => {
            let idx = winner.expect("an Assign carries its winner's handle");
            debug_assert_eq!(&pool.slot(idx).id, id, "stale winner handle");
            idx
        }
        Decision::NewDevice(id) => pool.insert_creating_at(id.clone()),
        Decision::Reconfigure(_) | Decision::Reject(_) => return,
    };
    let loc = &e.req.locality;
    pool.attach_at(
        idx,
        e.uid,
        need,
        loc.affinity.as_deref(),
        loc.anti_affinity.as_deref(),
        loc.exclusion.as_deref(),
    );
}

/// Drains a pending queue in one pass with shared pool state: each entry
/// is scheduled in order and its decision *applied* to the pool before
/// the next entry runs — `Assign` attaches the demand, `NewDevice`
/// inserts the creating vGPU and attaches, `Reject` leaves the pool
/// untouched — mirroring how `KubeShareSystem` binds each decision before
/// the controller sees the next pending sharePod. Entries must already be
/// in deterministic (uid) order; both modes then produce identical
/// decision vectors.
pub fn schedule_batch(
    mode: SchedMode,
    entries: &[BatchEntry],
    pool: &mut VgpuPool,
) -> Vec<(Uid, Decision)> {
    schedule_batch_recorded(
        mode,
        entries,
        pool,
        SimTime::ZERO,
        &FlightRecorder::disabled(),
    )
}

/// [`schedule_batch`] with every decision's provenance appended to a
/// [`FlightRecorder`]; with a disabled recorder it *is* [`schedule_batch`].
/// The recorder-overhead guard in `ks-bench sched_scale` times the two
/// against each other.
pub fn schedule_batch_recorded(
    mode: SchedMode,
    entries: &[BatchEntry],
    pool: &mut VgpuPool,
    at: SimTime,
    recorder: &FlightRecorder,
) -> Vec<(Uid, Decision)> {
    // One scratch collector and one recorder session for the whole
    // batch: `record_scratch` clones only the visible candidates/chain
    // into the ring slot and resets the collector, and the session holds
    // the recorder lock across the drain, so the per-decision cost is
    // flat regardless of record size or ring depth.
    let mut prov = SchedProv::for_recorder(recorder);
    let mut session = recorder.session();
    entries
        .iter()
        .map(|e| {
            let need = e.req.need();
            let decided = decide(mode, &e.req, need, pool, &mut prov);
            apply_decision(pool, e, need, &decided);
            let (decision, _) = decided;
            if recorder.is_enabled() {
                let outcome = outcome_of(&decision, &prov);
                session.record_scratch(at, e.uid.0, 0, DecisionKind::Schedule, outcome, &mut prov);
            }
            (e.uid, decision)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_cluster::api::Uid;

    fn req(util: f64, mem: f64) -> SchedRequest {
        SchedRequest {
            util,
            mem,
            locality: Locality::none(),
        }
    }

    fn req_loc(util: f64, mem: f64, loc: Locality) -> SchedRequest {
        SchedRequest {
            util,
            mem,
            locality: loc,
        }
    }

    /// Pool with `n` ready devices; returns their ids.
    fn pool(n: usize) -> (VgpuPool, Vec<GpuId>) {
        let mut p = VgpuPool::new();
        let ids = (0..n)
            .map(|i| {
                let id = p.fresh_id();
                p.insert_creating(id.clone());
                p.mark_ready(&id, format!("node-{}", i / 4), format!("GPU-{i}"));
                id
            })
            .collect();
        (p, ids)
    }

    #[test]
    fn empty_pool_creates_new_device() {
        let mut p = VgpuPool::new();
        match schedule(&req(0.5, 0.5), &mut p) {
            Decision::NewDevice(_) => {}
            d => panic!("expected NewDevice, got {d:?}"),
        }
    }

    #[test]
    fn best_fit_packs_tightest_device() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.6, 0.6, None, None, None); // free 0.4
        p.attach(&ids[1], Uid(2), 0.2, 0.2, None, None, None); // free 0.8
                                                               // 0.3 fits both; best fit picks the tighter device (ids[0]).
        assert_eq!(
            schedule(&req(0.3, 0.3), &mut p),
            Decision::Assign(ids[0].clone())
        );
    }

    #[test]
    fn no_fit_on_busy_devices_uses_idle() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.9, 0.9, None, None, None);
        // 0.5 doesn't fit device 0, but device 1 is idle.
        assert_eq!(
            schedule(&req(0.5, 0.5), &mut p),
            Decision::Assign(ids[1].clone())
        );
    }

    #[test]
    fn full_pool_spawns_new_device() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.9, 0.9, None, None, None);
        match schedule(&req(0.5, 0.5), &mut p) {
            Decision::NewDevice(id) => assert_ne!(id, ids[0]),
            d => panic!("expected NewDevice, got {d:?}"),
        }
    }

    #[test]
    fn affinity_joins_existing_group() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[1], Uid(1), 0.3, 0.3, Some("grp"), None, None);
        let r = req_loc(0.3, 0.3, Locality::none().with_affinity("grp"));
        assert_eq!(schedule(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn affinity_without_group_prefers_idle_device() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.1, 0.1, None, None, None);
        let r = req_loc(0.3, 0.3, Locality::none().with_affinity("grp"));
        // ids[0] has load; ids[1] is idle → pick ids[1] to leave room for
        // future "grp" members.
        assert_eq!(schedule(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn affinity_with_no_idle_creates_new() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.1, 0.1, None, None, None);
        let r = req_loc(0.3, 0.3, Locality::none().with_affinity("grp"));
        assert!(matches!(schedule(&r, &mut p), Decision::NewDevice(_)));
    }

    #[test]
    fn affinity_target_exclusion_conflict_rejects() {
        let (mut p, ids) = pool(1);
        p.attach(
            &ids[0],
            Uid(1),
            0.3,
            0.3,
            Some("grp"),
            None,
            Some("tenant-a"),
        );
        let r = req_loc(
            0.3,
            0.3,
            Locality::none()
                .with_affinity("grp")
                .with_exclusion("tenant-b"),
        );
        assert_eq!(
            schedule(&r, &mut p),
            Decision::Reject(RejectReason::ExclusionConflict)
        );
    }

    #[test]
    fn affinity_target_anti_affinity_conflict_rejects() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.3, 0.3, Some("grp"), Some("noisy"), None);
        let r = req_loc(
            0.3,
            0.3,
            Locality::none()
                .with_affinity("grp")
                .with_anti_affinity("noisy"),
        );
        assert_eq!(
            schedule(&r, &mut p),
            Decision::Reject(RejectReason::AntiAffinityConflict)
        );
    }

    #[test]
    fn affinity_target_capacity_conflict_rejects() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.8, 0.8, Some("grp"), None, None);
        let r = req_loc(0.5, 0.1, Locality::none().with_affinity("grp"));
        assert_eq!(
            schedule(&r, &mut p),
            Decision::Reject(RejectReason::InsufficientCapacity)
        );
    }

    #[test]
    fn anti_affinity_spreads_across_devices() {
        let (mut p, ids) = pool(3);
        // Three anti-affine containers: each must land on a different GPU.
        let mut assigned = Vec::new();
        for i in 0..3 {
            let r = req_loc(0.3, 0.3, Locality::none().with_anti_affinity("noisy"));
            match schedule(&r, &mut p) {
                Decision::Assign(id) => {
                    p.attach(&id, Uid(10 + i), 0.3, 0.3, None, Some("noisy"), None);
                    assigned.push(id);
                }
                d => panic!("unexpected {d:?}"),
            }
        }
        assigned.sort();
        assigned.dedup();
        assert_eq!(assigned.len(), 3, "anti-affinity must spread");
        let _ = ids;
    }

    #[test]
    fn anti_affinity_exhausted_creates_new_device() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.3, 0.3, None, Some("noisy"), None);
        let r = req_loc(0.3, 0.3, Locality::none().with_anti_affinity("noisy"));
        assert!(matches!(schedule(&r, &mut p), Decision::NewDevice(_)));
    }

    #[test]
    fn exclusion_separates_tenants() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, Some("tenant-a"));
        let r = req_loc(0.2, 0.2, Locality::none().with_exclusion("tenant-b"));
        // Device 0 belongs to tenant-a; tenant-b must go elsewhere.
        assert_eq!(schedule(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn same_exclusion_label_shares() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, Some("tenant-a"));
        let r = req_loc(0.2, 0.2, Locality::none().with_exclusion("tenant-a"));
        assert_eq!(schedule(&r, &mut p), Decision::Assign(ids[0].clone()));
    }

    #[test]
    fn unlabeled_request_avoids_exclusive_device() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, Some("tenant-a"));
        let r = req(0.2, 0.2);
        assert_eq!(schedule(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn worst_fit_on_affinity_devices_keeps_room() {
        let (mut p, ids) = pool(2);
        // Both devices carry affinity groups with different loads; a
        // label-free request that fits neither clean rule lands on the one
        // with MORE residual (worst fit), keeping group room balanced.
        p.attach(&ids[0], Uid(1), 0.6, 0.6, Some("g1"), None, None); // free 0.4
        p.attach(&ids[1], Uid(2), 0.2, 0.2, Some("g2"), None, None); // free 0.8
        let r = req(0.3, 0.3);
        assert_eq!(schedule(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn best_fit_preferred_over_affinity_devices() {
        let (mut p, ids) = pool(2);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, Some("g1"), None, None); // aff device
        p.attach(&ids[1], Uid(2), 0.2, 0.2, None, None, None); // plain device
        let r = req(0.3, 0.3);
        // Plain device wins even though the affinity device has equal room.
        assert_eq!(schedule(&r, &mut p), Decision::Assign(ids[1].clone()));
    }

    #[test]
    fn idle_device_passes_filters_despite_stale_look() {
        let (mut p, ids) = pool(1);
        p.attach(&ids[0], Uid(1), 0.3, 0.3, None, None, Some("tenant-a"));
        p.detach(&ids[0], Uid(1)); // idle again, labels cleared
        let r = req_loc(0.5, 0.5, Locality::none().with_exclusion("tenant-b"));
        assert_eq!(schedule(&r, &mut p), Decision::Assign(ids[0].clone()));
    }

    #[test]
    fn worst_fit_winner_is_marked_after_best_fit_captures() {
        // Both plain devices are tenant-a's, so the indexed best-fit scan
        // captures them as failures before the worst-fit scan reaches the
        // group device. The mark must land on the group device, not on
        // the best-fit capture in the same slot.
        let (mut p, ids) = pool(3);
        p.attach(&ids[0], Uid(1), 0.2, 0.2, None, None, Some("tenant-a"));
        p.attach(&ids[1], Uid(2), 0.3, 0.3, None, None, Some("tenant-a"));
        p.attach(&ids[2], Uid(3), 0.2, 0.2, Some("grp"), None, None);
        for mode in [SchedMode::Reference, SchedMode::Indexed] {
            let mut prov = SchedProv::on();
            let d = schedule_with_prov(mode, &req(0.1, 0.1), &mut p, &mut prov);
            assert_eq!(d, Decision::Assign(ids[2].clone()), "{mode:?}");
            let chosen: Vec<_> = prov.candidates().iter().filter(|c| c.chosen).collect();
            assert_eq!(chosen.len(), 1, "{mode:?}: {:?}", prov.candidates());
            assert!(chosen[0].target == ids[2].as_str(), "{mode:?}");
            assert_eq!(chosen[0].rule, "worst_fit");
            assert_eq!(chosen[0].score, frac(p.get(&ids[2]).unwrap().fit_key()));
        }
        // The indexed best-fit captures keep their own rule and score.
        let mut prov = SchedProv::on();
        let r = req(0.1, 0.1);
        schedule_indexed_prov(&r, r.need(), &mut p, &mut prov);
        let first = prov.candidates()[0];
        assert!(first.target == ids[1].as_str());
        let key = frac(p.get(&ids[1]).unwrap().fit_key());
        assert_eq!((first.rule, first.score), ("best_fit", key));
    }

    // ---- locality edge cases, run against BOTH implementations ----

    /// Runs a scenario under Reference and Indexed and asserts the
    /// decisions agree before handing one back for scenario asserts.
    fn both_modes(build: impl Fn() -> VgpuPool, req: &SchedRequest) -> Decision {
        let mut ref_pool = build();
        let mut idx_pool = build();
        let d_ref = schedule(req, &mut ref_pool);
        let d_idx = schedule_indexed(req, &mut idx_pool);
        assert_eq!(d_ref, d_idx, "modes diverged");
        d_ref
    }

    #[test]
    fn empty_pool_both_modes_create_new_device() {
        let d = both_modes(VgpuPool::new, &req(0.5, 0.5));
        assert!(matches!(d, Decision::NewDevice(_)));
        let d = both_modes(
            VgpuPool::new,
            &req_loc(0.5, 0.5, Locality::none().with_affinity("g")),
        );
        assert!(matches!(d, Decision::NewDevice(_)));
    }

    #[test]
    fn all_devices_excluded_spawns_new_device() {
        let build = || {
            let (mut p, ids) = pool(3);
            for (i, id) in ids.iter().enumerate() {
                p.attach(
                    id,
                    Uid(i as u64 + 1),
                    0.1,
                    0.1,
                    None,
                    None,
                    Some("tenant-a"),
                );
            }
            p
        };
        let r = req_loc(0.1, 0.1, Locality::none().with_exclusion("tenant-b"));
        assert!(matches!(both_modes(build, &r), Decision::NewDevice(_)));
        // An unlabeled request is excluded from tenant devices too.
        assert!(matches!(
            both_modes(build, &req(0.1, 0.1)),
            Decision::NewDevice(_)
        ));
    }

    #[test]
    fn affinity_group_cannot_span_devices_or_nodes() {
        // pool(8) puts devices on node-0 and node-1 (4 per node). Seed the
        // group on a node-1 device; every subsequent member must land on
        // that same device even with idle devices on node-0, until the
        // device is full — then the member is rejected, never respread.
        let build = || {
            let (mut p, ids) = pool(8);
            p.attach(&ids[5], Uid(1), 0.4, 0.4, Some("grp"), None, None);
            p
        };
        let r = req_loc(0.4, 0.4, Locality::none().with_affinity("grp"));
        let d = both_modes(build, &r);
        let (p, ids) = pool(8);
        assert_eq!(d, Decision::Assign(ids[5].clone()));
        assert_eq!(p.get(&ids[5]).unwrap().node.as_deref(), Some("node-1"));
        // A member too large for the group's remaining room is rejected —
        // the group never silently spans a second device.
        let r_big = req_loc(0.7, 0.7, Locality::none().with_affinity("grp"));
        assert_eq!(
            both_modes(build, &r_big),
            Decision::Reject(RejectReason::InsufficientCapacity)
        );
    }

    #[test]
    fn zero_util_request_with_memory_demand() {
        // gpu_request == 0.0 but gpu_mem > 0: placement is driven purely
        // by the memory axis. A device with no memory headroom must be
        // passed over even though util fits trivially.
        let build = || {
            let (mut p, ids) = pool(2);
            p.attach(&ids[0], Uid(1), 0.1, 0.95, None, None, None); // mem_free 0.05
            p.attach(&ids[1], Uid(2), 0.1, 0.2, None, None, None); // mem_free 0.8
            p
        };
        let (_, ids) = pool(2);
        let d = both_modes(build, &req(0.0, 0.5));
        assert_eq!(d, Decision::Assign(ids[1].clone()));
        // And a zero/zero request best-fits the tightest device.
        let d = both_modes(build, &req(0.0, 0.0));
        assert_eq!(d, Decision::Assign(ids[0].clone()));
    }

    // ---- spatial substrate ----

    /// Pool with `n` ready *partitioned* devices.
    fn spatial_pool(n: usize) -> (VgpuPool, Vec<GpuId>) {
        let mut p = VgpuPool::new();
        let ids = (0..n)
            .map(|i| {
                let id = p.fresh_id();
                p.insert_creating_spatial(id.clone());
                p.mark_ready(&id, format!("node-{}", i / 4), format!("GPU-{i}"));
                id
            })
            .collect();
        (p, ids)
    }

    fn slice(p: &mut VgpuPool, id: &GpuId, uid: u64, profile: Profile) {
        p.attach_slice(
            id,
            Uid(uid),
            profile,
            profile.frac(),
            profile.frac(),
            None,
            None,
            None,
        )
        .unwrap();
    }

    #[test]
    fn time_slice_scheduler_never_sees_spatial_devices() {
        let (mut p, _sids) = spatial_pool(2);
        // Both paths must create a new device rather than touch a
        // partitioned one, in every mode.
        for decide in [schedule, schedule_indexed] {
            match decide(&req(0.5, 0.5), &mut p) {
                Decision::NewDevice(_) => {}
                d => panic!("expected NewDevice, got {d:?}"),
            }
            let r = req_loc(0.5, 0.5, Locality::none().with_affinity("g"));
            match decide(&r, &mut p) {
                Decision::NewDevice(_) => {}
                d => panic!("expected NewDevice, got {d:?}"),
            }
        }
    }

    #[test]
    fn spatial_placement_minimizes_pool_fragmentation() {
        let (mut p, ids) = spatial_pool(2);
        // Device 0 already hosts a P4 (slots 0-3): a P3 completes it
        // exactly; putting the P3 on the empty device 1 would strand its
        // P4 start. The fragmentation score must pack device 0.
        slice(&mut p, &ids[0], 1, Profile::P4);
        assert_eq!(
            schedule_spatial(&req(3.0 / 7.0, 0.1), &mut p),
            Decision::Assign(ids[0].clone())
        );
    }

    #[test]
    fn spatial_demand_rounds_up_to_profile() {
        let (mut p, ids) = spatial_pool(1);
        // 0.3 → P3. After binding, only 4 slots remain.
        assert_eq!(
            schedule_spatial(&req(0.3, 0.1), &mut p),
            Decision::Assign(ids[0].clone())
        );
        slice(&mut p, &ids[0], 1, Profile::P3);
        let d = p.get(&ids[0]).unwrap();
        assert_eq!(d.partition.as_ref().unwrap().free_slots(), 4);
        // Demand beyond a whole device is unsatisfiable.
        assert_eq!(
            schedule_spatial(&req(1.2, 0.1), &mut p),
            Decision::Reject(RejectReason::InsufficientCapacity)
        );
    }

    #[test]
    fn stranded_capacity_triggers_reconfigure_verdict() {
        let (mut p, ids) = spatial_pool(1);
        // Fill the grid with seven 1-slot tenants, then free all but the
        // ones on slots 0 and 4 — the P3/P4 anchor slots. Five slots are
        // free yet no 3-slot (or larger) profile has a legal start.
        for uid in 1..=7u64 {
            slice(&mut p, &ids[0], uid, Profile::P1);
        }
        let keep: Vec<Uid> = [0u8, 4]
            .iter()
            .map(|&s| p.slice_tenant(&ids[0], s).unwrap())
            .collect();
        for uid in 1..=7u64 {
            if !keep.contains(&Uid(uid)) {
                p.detach(&ids[0], Uid(uid));
            }
        }
        let table = p.get(&ids[0]).unwrap().partition.as_ref().unwrap();
        assert_eq!(table.free_slots(), 5);
        assert!(!table.can_place(Profile::P3));
        // A 3-slot demand: capacity exists, only geometry blocks it.
        assert_eq!(
            schedule_spatial(&req(0.4, 0.1), &mut p),
            Decision::Reconfigure(ids[0].clone())
        );
        // A 1-slot demand still fits in place — no reconfig churn.
        assert!(matches!(
            schedule_spatial(&req(0.1, 0.1), &mut p),
            Decision::Assign(_)
        ));
    }

    #[test]
    fn spatial_affinity_binds_to_group_device() {
        let (mut p, ids) = spatial_pool(2);
        p.attach_slice(
            &ids[1],
            Uid(1),
            Profile::P2,
            0.2,
            0.2,
            Some("grp"),
            None,
            None,
        )
        .unwrap();
        let r = req_loc(0.2, 0.2, Locality::none().with_affinity("grp"));
        assert_eq!(
            schedule_spatial(&r, &mut p),
            Decision::Assign(ids[1].clone())
        );
        // A group member too large for the remaining grid is rejected.
        let r_big = req_loc(1.0, 1.0, Locality::none().with_affinity("grp"));
        assert_eq!(
            schedule_spatial(&r_big, &mut p),
            Decision::Reject(RejectReason::InsufficientCapacity)
        );
    }

    #[test]
    fn spatial_exclusion_separates_tenants() {
        let (mut p, ids) = spatial_pool(2);
        p.attach_slice(
            &ids[0],
            Uid(1),
            Profile::P2,
            0.2,
            0.2,
            None,
            None,
            Some("tenant-a"),
        )
        .unwrap();
        let r = req_loc(0.2, 0.2, Locality::none().with_exclusion("tenant-b"));
        assert_eq!(
            schedule_spatial(&r, &mut p),
            Decision::Assign(ids[1].clone())
        );
    }

    #[test]
    fn substrate_dispatch_routes_by_waste() {
        let (mut p, ids) = spatial_pool(1);
        // TimeSlice ignores the partitioned device entirely.
        assert!(matches!(
            schedule_substrate(
                SchedMode::Reference,
                Substrate::TimeSlice,
                &req(0.5, 0.5),
                &mut p
            ),
            Decision::NewDevice(_)
        ));
        // Spatial binds a slice.
        assert_eq!(
            schedule_substrate(
                SchedMode::Reference,
                Substrate::Spatial,
                &req(0.5, 0.5),
                &mut p
            ),
            Decision::Assign(ids[0].clone())
        );
        // Hybrid: 0.5 → P4 (waste 1/14) goes spatial; 0.6 → P7 (waste
        // 0.4) falls back to the token path.
        assert_eq!(
            schedule_substrate(
                SchedMode::Reference,
                Substrate::Hybrid,
                &req(0.5, 0.1),
                &mut p
            ),
            Decision::Assign(ids[0].clone())
        );
        assert!(matches!(
            schedule_substrate(
                SchedMode::Reference,
                Substrate::Hybrid,
                &req(0.6, 0.1),
                &mut p
            ),
            Decision::NewDevice(_)
        ));
    }

    #[test]
    fn batch_applies_decisions_between_entries() {
        // Two anti-affine entries in one batch must not share the device:
        // the first entry's attach is visible to the second's decision.
        let entries: Vec<BatchEntry> = (0..2)
            .map(|i| BatchEntry {
                uid: Uid(i + 1),
                req: req_loc(0.2, 0.2, Locality::none().with_anti_affinity("noisy")),
            })
            .collect();
        for mode in [SchedMode::Reference, SchedMode::Indexed] {
            let (mut p, ids) = pool(2);
            let out = schedule_batch(mode, &entries, &mut p);
            assert_eq!(out[0].1, Decision::Assign(ids[0].clone()));
            assert_eq!(out[1].1, Decision::Assign(ids[1].clone()));
            assert_eq!(p.get(&ids[0]).unwrap().attached.len(), 1);
            assert_eq!(p.get(&ids[1]).unwrap().attached.len(), 1);
            p.verify_indexes().unwrap();
        }
    }

    #[test]
    fn batch_attaches_through_a_reused_slot_handle() {
        // Two tenant-a devices, and a removed device whose slot is on the
        // free list. The first tenant-b entry fits nowhere, so its new
        // device reuses that slot; the last one is assigned to the new
        // device through the handle its decision carried.
        let build = || {
            let (mut p, ids) = pool(3);
            p.attach(&ids[0], Uid(1), 0.5, 0.5, None, None, Some("tenant-a"));
            p.attach(&ids[2], Uid(2), 0.5, 0.5, None, None, Some("tenant-a"));
            let freed = p.idx(&ids[1]);
            p.remove(&ids[1]);
            (p, ids, freed)
        };
        let entry = |uid, share, tenant| BatchEntry {
            uid: Uid(uid),
            req: req_loc(share, share, Locality::none().with_exclusion(tenant)),
        };
        let entries = [
            entry(10, 0.3, "tenant-b"),
            entry(11, 0.2, "tenant-a"),
            entry(12, 0.3, "tenant-b"),
        ];
        let reference = schedule_batch(SchedMode::Reference, &entries, &mut build().0);
        for mode in [SchedMode::Reference, SchedMode::Indexed] {
            let (mut p, ids, freed) = build();
            let out = schedule_batch(mode, &entries, &mut p);
            assert_eq!(out, reference, "{mode:?}");
            let Decision::NewDevice(new) = &out[0].1 else {
                panic!("{mode:?}: expected NewDevice, got {:?}", out[0].1);
            };
            assert_eq!(p.idx(new), freed, "{mode:?}: the freed slot is reused");
            assert_eq!(out[1].1, Decision::Assign(ids[0].clone()), "{mode:?}");
            assert_eq!(out[2].1, Decision::Assign(new.clone()), "{mode:?}");
            let tenants =
                |id: &GpuId| -> Vec<Uid> { p.get(id).unwrap().attached.keys().copied().collect() };
            assert_eq!(tenants(new), [Uid(10), Uid(12)], "{mode:?}");
            assert_eq!(tenants(&ids[0]), [Uid(1), Uid(11)], "{mode:?}");
            assert_eq!(tenants(&ids[2]), [Uid(2)], "{mode:?}");
            p.verify_indexes().unwrap();
        }
    }

    // ---- the fit scan's residual pre-check ----

    #[test]
    fn whole_gpu_request_wins_an_idle_device() {
        // Only the idle device has a whole GPU free; the residual carried
        // in its fit entry covers the demand exactly.
        let build = || {
            let (mut p, ids) = pool(3);
            p.attach(&ids[0], Uid(1), 0.1, 0.1, None, None, None);
            p.attach(&ids[2], Uid(2), 0.2, 0.2, Some("g"), None, None);
            p
        };
        let (_, ids) = pool(3);
        let d = both_modes(build, &req(1.0, 1.0));
        assert_eq!(d, Decision::Assign(ids[1].clone()));
        // A demand over one GPU fits no residual, yet idle devices always
        // pass the filter: the pre-check caps the demand at one GPU per
        // axis, so the idle device is still read and still wins.
        let d = both_modes(build, &req(1.5, 0.2));
        assert_eq!(d, Decision::Assign(ids[1].clone()));
        // Applied in a batch, the first whole-GPU entry fills the idle
        // device and the second needs a new one.
        let entries: Vec<BatchEntry> = (0..2)
            .map(|i| BatchEntry {
                uid: Uid(10 + i),
                req: req(1.0, 1.0),
            })
            .collect();
        for mode in [SchedMode::Reference, SchedMode::Indexed] {
            let mut p = build();
            let out = schedule_batch(mode, &entries, &mut p);
            assert_eq!(out[0].1, Decision::Assign(ids[1].clone()), "{mode:?}");
            assert!(matches!(out[1].1, Decision::NewDevice(_)), "{mode:?}");
            assert_eq!(p.get(&ids[1]).unwrap().fit_key(), 0, "{mode:?}");
            p.verify_indexes().unwrap();
        }
    }

    #[test]
    fn zero_demand_tenant_at_full_residual_is_still_filtered() {
        // ids[0] hosts a zero-demand tenant: its residual is a whole GPU,
        // the same as an idle device's, but it is not idle and keeps its
        // tenant's labels. ids[1] has no room for the requests below.
        let build = |aff: Option<&str>, anti: Option<&str>, excl: Option<&str>| {
            let (mut p, ids) = pool(2);
            p.attach(&ids[0], Uid(1), 0.0, 0.0, aff, anti, excl);
            p.attach(&ids[1], Uid(2), 0.9, 0.9, None, None, None);
            p
        };
        let (_, ids) = pool(2);
        let full = build(None, None, Some("tenant-a"));
        assert_eq!(full.get(&ids[0]).unwrap().fit_key(), 2 * FULL);
        assert!(!full.get(&ids[0]).unwrap().is_idle());
        let r = req(0.5, 0.5);
        // Best-fit scan: the exclusion still keeps an unlabeled request off.
        let d = both_modes(|| build(None, None, Some("tenant-a")), &r);
        assert!(matches!(d, Decision::NewDevice(_)), "{d:?}");
        let same = req_loc(0.5, 0.5, Locality::none().with_exclusion("tenant-a"));
        let d = both_modes(|| build(None, None, Some("tenant-a")), &same);
        assert_eq!(d, Decision::Assign(ids[0].clone()));
        // Anti-affinity is checked too.
        let noisy = req_loc(0.5, 0.5, Locality::none().with_anti_affinity("noisy"));
        let d = both_modes(|| build(None, Some("noisy"), None), &noisy);
        assert!(matches!(d, Decision::NewDevice(_)), "{d:?}");
        assert_eq!(
            both_modes(|| build(None, Some("noisy"), None), &r),
            Decision::Assign(ids[0].clone())
        );
        // Worst-fit scan: an affinity-labelled full-residual device.
        let d = both_modes(|| build(Some("g"), None, Some("tenant-a")), &r);
        assert!(matches!(d, Decision::NewDevice(_)), "{d:?}");
        let d = both_modes(|| build(Some("g"), None, Some("tenant-a")), &same);
        assert_eq!(d, Decision::Assign(ids[0].clone()));
    }
}
