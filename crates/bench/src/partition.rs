//! Substrate comparison: time-slicing vs MIG-style spatial partitioning
//! vs the hybrid router (DESIGN.md §14), on the three axes the substrate
//! decision actually trades off:
//!
//! * **packing** — an isolation-demanding tenant population (every tenant
//!   requires hard isolation from its neighbours). The token substrate
//!   can only deliver that with a dedicated device per tenant (a unique
//!   exclusion label), so it burns one GPU per tenant; the spatial
//!   substrate packs dedicated slices, so GPUs used tracks Σslots/7.
//! * **isolation** — a victim's contended-over-uncontended slowdown,
//!   measured against the real backends: the token backend multiplexes
//!   the device in time (an aggressor stretches the victim's runtime),
//!   the slice backend gives hard isolation (slowdown exactly 1) at the
//!   price of `1/frac` throughput while alone.
//! * **reconfiguration overhead** — the cost spatial sharing pays that
//!   time-slicing never does: a churn workload fragments the slice grids
//!   until big profiles have no legal start, each [`Decision::Reconfigure`]
//!   drains and reshapes a device at an explicit drain-before-activate
//!   cost, and the bench reports the count, displaced tenants, and total
//!   downtime.
//!
//! The `partition` binary renders the table, writes `BENCH_partition.json`,
//! and exits non-zero unless spatial *and* hybrid each beat pure
//! time-slicing on at least one axis.

use ks_cluster::api::Uid;
use ks_sim_core::rng::SimRng;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_vgpu::{ClientId, IsolationMode, ShareSpec, SliceBackend, VgpuConfig};
use ks_workloads::job::JobKind;
use kubeshare::algorithm::{schedule_substrate, Decision, SchedMode, SchedRequest};
use kubeshare::gpuid::GpuId;
use kubeshare::locality::Locality;
use kubeshare::pool::VgpuPool;
use kubeshare::{Profile, Substrate};
use serde::Serialize;

use crate::harness::singlegpu::{SgJob, SingleGpu};

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct PartitionBenchConfig {
    /// Isolation-demanding tenants in the packing scenario.
    pub tenants: usize,
    /// Arrival/departure operations in the churn (reconfiguration)
    /// scenario.
    pub churn_ops: usize,
    /// Seed for demand and churn draws.
    pub seed: u64,
    /// Drain-before-activate cost per partition reconfiguration, seconds
    /// (mirrors `KsConfig::partition_reconfig_cost`).
    pub reconfig_cost_secs: f64,
}

impl Default for PartitionBenchConfig {
    fn default() -> Self {
        PartitionBenchConfig {
            tenants: 210,
            churn_ops: 600,
            seed: 7,
            reconfig_cost_secs: 2.0,
        }
    }
}

/// Packing result for one substrate policy.
#[derive(Debug, Clone, Serialize)]
pub struct PackingPoint {
    /// Policy label (`time_slice`, `spatial`, `hybrid`).
    pub substrate: String,
    /// Tenants placed.
    pub tenants: usize,
    /// Requests the scheduler rejected (must be 0).
    pub rejected: usize,
    /// Physical GPUs consumed.
    pub gpus: usize,
    /// Σ per-tenant utilization demand.
    pub demand_total: f64,
    /// `demand_total / gpus` — mean useful load per burned GPU.
    pub efficiency: f64,
    /// Pool fragmentation after the last placement.
    pub fragmentation: f64,
}

/// Isolation measurements against the real device backends.
#[derive(Debug, Clone, Serialize)]
pub struct IsolationPoint {
    /// Victim runtime alone on a token-substrate device, seconds.
    pub time_slice_alone_secs: f64,
    /// Victim runtime with an equal-share aggressor, seconds.
    pub time_slice_contended_secs: f64,
    /// `contended / alone` on the token substrate.
    pub time_slice_slowdown: f64,
    /// Victim completion alone on its dedicated slice, seconds.
    pub spatial_alone_secs: f64,
    /// Victim completion with an aggressor flooding a neighbour slice.
    pub spatial_contended_secs: f64,
    /// `contended / alone` on the spatial substrate (structurally 1.0).
    pub spatial_slowdown: f64,
    /// The price of the slice: `spatial_alone / time_slice_alone` — the
    /// `1/frac` throughput cost spatial pays while uncontended.
    pub spatial_alone_cost: f64,
}

/// Reconfiguration overhead under churn (spatial substrate only — the
/// token substrate never reconfigures).
#[derive(Debug, Clone, Serialize)]
pub struct ReconfigPoint {
    /// Churn operations driven.
    pub ops: usize,
    /// Partition reconfigurations triggered.
    pub reconfigs: usize,
    /// Tenants displaced (drained and re-placed) across them.
    pub displaced: usize,
    /// Per-reconfiguration drain-before-activate cost, seconds.
    pub cost_per_reconfig_secs: f64,
    /// Total reconfiguration downtime, seconds.
    pub downtime_secs: f64,
    /// Churn makespan, seconds (1 op/s), for scale.
    pub makespan_secs: f64,
    /// `downtime / makespan`.
    pub downtime_frac: f64,
    /// Worst pool fragmentation observed during the churn.
    pub frag_max: f64,
    /// GPUs consumed by the end of the churn.
    pub gpus: usize,
}

/// Which axes each substrate won against pure time-slicing.
#[derive(Debug, Clone, Serialize)]
pub struct Verdict {
    /// Axes where the spatial substrate beat time-slicing.
    pub spatial_beats: Vec<String>,
    /// Axes where the hybrid router beat time-slicing.
    pub hybrid_beats: Vec<String>,
    /// Both lists non-empty.
    pub ok: bool,
}

/// The whole benchmark result.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionBenchResult {
    /// Packing points, one per substrate policy.
    pub packing: Vec<PackingPoint>,
    /// Backend-level isolation measurements.
    pub isolation: IsolationPoint,
    /// Churn reconfiguration overhead.
    pub reconfig: ReconfigPoint,
    /// Win/lose summary.
    pub verdict: Verdict,
}

/// Profile-aligned demand (95 % of a k/7 slice, k ∈ 1..=4) so the
/// covering profile is exact and hybrid routes the tenant spatially.
fn demand(rng: &mut SimRng) -> f64 {
    let k = 1 + rng.index(4) as u32;
    f64::from(k) / 7.0 * 0.95
}

/// Places one request, applying the decision the way `KubeShareSystem`
/// binds it. `allow_reconfig` bounds recursion: a re-placement after a
/// drain falls back to a fresh device instead of cascading reshapes.
#[allow(clippy::too_many_arguments)]
fn place(
    pool: &mut VgpuPool,
    uid: Uid,
    substrate: Substrate,
    util: f64,
    mem: f64,
    loc: &Locality,
    clock_ms: u64,
    stats: Option<&mut ReconfigStats>,
    allow_reconfig: bool,
) -> Result<GpuId, String> {
    let req = SchedRequest {
        util,
        mem,
        locality: loc.clone(),
    };
    let decision = schedule_substrate(SchedMode::default(), substrate, &req, pool);
    let id = match decision {
        Decision::Assign(id) => id,
        Decision::NewDevice(id) => {
            if substrate.wants_spatial(util, mem) {
                pool.insert_creating_spatial(id.clone());
            } else {
                pool.insert_creating(id.clone());
            }
            pool.mark_ready(&id, "node-0".to_string(), format!("GPU-{id}"));
            id
        }
        Decision::Reconfigure(id) => {
            if !allow_reconfig {
                let fresh = pool.fresh_id();
                pool.insert_creating_spatial(fresh.clone());
                pool.mark_ready(&fresh, "node-0".to_string(), format!("GPU-{fresh}"));
                fresh
            } else {
                let stats = stats.expect("reconfigure outside the churn scenario");
                reconfigure(pool, &id, clock_ms, stats);
                // The reshaped table is empty: re-schedule lands on it (or
                // a fresh device, never a second reshape).
                return place(pool, uid, substrate, util, mem, loc, clock_ms, None, false);
            }
        }
        Decision::Reject(r) => return Err(format!("{r:?}")),
    };
    if pool.get(&id).expect("just placed").is_spatial() {
        let profile = Profile::smallest_covering(util.max(mem)).expect("demand ≤ 1");
        pool.attach_slice(
            &id,
            uid,
            profile,
            util,
            mem,
            loc.affinity.as_deref(),
            loc.anti_affinity.as_deref(),
            loc.exclusion.as_deref(),
        )
        .map_err(|e| format!("slice bind on {id}: {e:?}"))?;
    } else {
        pool.attach(
            &id,
            uid,
            util,
            mem,
            loc.affinity.as_deref(),
            loc.anti_affinity.as_deref(),
            loc.exclusion.as_deref(),
        );
    }
    Ok(id)
}

struct ReconfigStats {
    reconfigs: usize,
    displaced: usize,
    cost: SimDuration,
    /// `(uid, util, mem)` of drained tenants awaiting re-placement.
    pending: Vec<(Uid, f64, f64)>,
    /// Live tenant table shared with the churn loop.
    live: Vec<(Uid, GpuId, f64)>,
}

/// Drains, reshapes, and reactivates one device on the bench clock,
/// queueing its tenants for re-placement.
fn reconfigure(pool: &mut VgpuPool, id: &GpuId, clock_ms: u64, stats: &mut ReconfigStats) {
    let tenants = pool
        .begin_partition_drain(id)
        .expect("reconfigure target is active");
    for uid in tenants {
        let pos = stats
            .live
            .iter()
            .position(|(u, _, _)| *u == uid)
            .expect("drained tenant is live");
        let (_, gpu, util) = stats.live.remove(pos);
        pool.detach(&gpu, uid);
        stats.pending.push((uid, util, util));
        stats.displaced += 1;
    }
    let now = SimTime::ZERO + SimDuration::from_millis(clock_ms);
    let until = pool
        .note_partition_drained(id, now, stats.cost)
        .expect("device fully drained");
    pool.activate_partition(id, until)
        .expect("activation follows the drain");
    stats.reconfigs += 1;
}

/// Runs the isolation-demanding packing scenario for one policy.
fn run_packing(policy: &str, cfg: &PartitionBenchConfig) -> PackingPoint {
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xBAC4);
    let mut pool = VgpuPool::new();
    let mut rejected = 0usize;
    let mut demand_total = 0.0;
    for i in 0..cfg.tenants {
        let d = demand(&mut rng);
        demand_total += d;
        let (substrate, loc) = match policy {
            // Hard isolation on the token substrate = a device of your
            // own, expressed as a tenant-unique exclusion label.
            "time_slice" => (
                Substrate::TimeSlice,
                Locality::none().with_exclusion(format!("tenant-{i}")),
            ),
            "spatial" => (Substrate::Spatial, Locality::none()),
            "hybrid" => (Substrate::Hybrid, Locality::none()),
            other => panic!("unknown policy {other}"),
        };
        if place(
            &mut pool,
            Uid(i as u64 + 1),
            substrate,
            d,
            d,
            &loc,
            0,
            None,
            false,
        )
        .is_err()
        {
            rejected += 1;
        }
    }
    let gpus = pool.len();
    PackingPoint {
        substrate: policy.to_string(),
        tenants: cfg.tenants,
        rejected,
        gpus,
        demand_total,
        efficiency: demand_total / gpus as f64,
        fragmentation: pool.fragmentation(),
    }
}

/// Runs the churn scenario on the spatial substrate: small tenants come
/// and go, periodic big profiles land in the fragmented grid and trigger
/// reshapes.
fn run_reconfig(cfg: &PartitionBenchConfig) -> ReconfigPoint {
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x5EC7);
    let mut pool = VgpuPool::new();
    let mut stats = ReconfigStats {
        reconfigs: 0,
        displaced: 0,
        cost: SimDuration::from_millis((cfg.reconfig_cost_secs * 1e3) as u64),
        pending: Vec::new(),
        live: Vec::new(),
    };
    let mut next_uid = 1u64;
    let mut frag_max: f64 = 0.0;
    for op in 0..cfg.churn_ops {
        let clock_ms = (op as u64 + 1) * 1_000;
        let roll = rng.index(100);
        let arrival = if roll < 55 || stats.live.is_empty() {
            // Small tenant: P1–P3.
            Some(f64::from(1 + rng.index(3) as u32) / 7.0 * 0.95)
        } else if roll < 85 {
            // Departure.
            let pos = rng.index(stats.live.len());
            let (uid, gpu, _) = stats.live.remove(pos);
            pool.detach(&gpu, uid);
            None
        } else {
            // Big tenant: P4 — the profile fragmentation strands.
            Some(4.0 / 7.0 * 0.95)
        };
        if let Some(d) = arrival {
            let uid = Uid(next_uid);
            next_uid += 1;
            let gpu = place(
                &mut pool,
                uid,
                Substrate::Spatial,
                d,
                d,
                &Locality::none(),
                clock_ms,
                Some(&mut stats),
                true,
            )
            .expect("spatial placement always finds a device");
            stats.live.push((uid, gpu, d));
            // Re-place tenants displaced by any reshape this op caused.
            while let Some((uid, util, mem)) = stats.pending.pop() {
                let gpu = place(
                    &mut pool,
                    uid,
                    Substrate::Spatial,
                    util,
                    mem,
                    &Locality::none(),
                    clock_ms,
                    None,
                    false,
                )
                .expect("displaced tenant re-places");
                stats.live.push((uid, gpu, util));
            }
        }
        frag_max = frag_max.max(pool.fragmentation());
    }
    let downtime_secs = stats.reconfigs as f64 * cfg.reconfig_cost_secs;
    let makespan_secs = cfg.churn_ops as f64;
    ReconfigPoint {
        ops: cfg.churn_ops,
        reconfigs: stats.reconfigs,
        displaced: stats.displaced,
        cost_per_reconfig_secs: cfg.reconfig_cost_secs,
        downtime_secs,
        makespan_secs,
        downtime_frac: downtime_secs / makespan_secs,
        frag_max,
        gpus: pool.len(),
    }
}

/// Victim runtime on the token substrate, alone or against an
/// equal-share aggressor, measured end-to-end through the real token
/// backend (handoffs, quotas, the elastic policy).
fn token_victim_runtime(with_aggressor: bool) -> f64 {
    let mut h = SingleGpu::new(VgpuConfig::default(), IsolationMode::FULL);
    let victim = h.add_job(
        SgJob {
            kind: JobKind::Training {
                steps: 200,
                kernel: SimDuration::from_millis(20),
                duty: 1.0,
            },
            share: ShareSpec::new(0.5, 1.0, 0.3).unwrap(),
            arrival: SimTime::ZERO,
        },
        SimRng::seed_from_u64(1),
    );
    if with_aggressor {
        h.add_job(
            SgJob {
                kind: JobKind::Training {
                    steps: 400,
                    kernel: SimDuration::from_millis(20),
                    duty: 1.0,
                },
                share: ShareSpec::new(0.5, 1.0, 0.3).unwrap(),
                arrival: SimTime::ZERO,
            },
            SimRng::seed_from_u64(2),
        );
    }
    h.run(10_000_000);
    h.eng.world.jobs[victim].runtime().expect("victim finished")
}

/// Victim completion on a dedicated P4 slice, alone or with a neighbour
/// flooding its own P3 slice, through the real slice backend.
fn slice_victim_completion(with_aggressor: bool) -> f64 {
    const VICTIM: ClientId = ClientId(1);
    const AGGRESSOR: ClientId = ClientId(2);
    let mut b = SliceBackend::new();
    b.bind(VICTIM, Profile::P4, 0).unwrap();
    if with_aggressor {
        b.bind(AGGRESSOR, Profile::P3, 4).unwrap();
    }
    let mut done = SimTime::ZERO;
    for step in 0..200 {
        if with_aggressor && step % 2 == 0 {
            // The neighbour floods its slice with far more work than the
            // victim's whole job.
            b.launch(SimTime::ZERO, AGGRESSOR, SimDuration::from_secs(1))
                .unwrap();
        }
        done = b
            .launch(SimTime::ZERO, VICTIM, SimDuration::from_millis(20))
            .unwrap();
    }
    done.as_secs_f64()
}

/// Runs the isolation axis.
fn run_isolation() -> IsolationPoint {
    let ts_alone = token_victim_runtime(false);
    let ts_cont = token_victim_runtime(true);
    let sp_alone = slice_victim_completion(false);
    let sp_cont = slice_victim_completion(true);
    IsolationPoint {
        time_slice_alone_secs: ts_alone,
        time_slice_contended_secs: ts_cont,
        time_slice_slowdown: ts_cont / ts_alone,
        spatial_alone_secs: sp_alone,
        spatial_contended_secs: sp_cont,
        spatial_slowdown: sp_cont / sp_alone,
        spatial_alone_cost: sp_alone / ts_alone,
    }
}

/// Runs the whole benchmark.
pub fn run(cfg: &PartitionBenchConfig) -> PartitionBenchResult {
    let packing: Vec<PackingPoint> = ["time_slice", "spatial", "hybrid"]
        .iter()
        .map(|p| run_packing(p, cfg))
        .collect();
    let isolation = run_isolation();
    let reconfig = run_reconfig(cfg);

    let ts = &packing[0];
    let mut spatial_beats = Vec::new();
    let mut hybrid_beats = Vec::new();
    for (point, beats) in [
        (&packing[1], &mut spatial_beats),
        (&packing[2], &mut hybrid_beats),
    ] {
        if point.gpus < ts.gpus {
            beats.push("packing".to_string());
        }
        // Hybrid routes these profile-aligned isolation-demanding tenants
        // to slices, so both substrates share the backend measurement.
        if isolation.spatial_slowdown < isolation.time_slice_slowdown * 0.95 {
            beats.push("isolation".to_string());
        }
    }
    let ok = !spatial_beats.is_empty() && !hybrid_beats.is_empty();
    PartitionBenchResult {
        packing,
        isolation,
        reconfig,
        verdict: Verdict {
            spatial_beats,
            hybrid_beats,
            ok,
        },
    }
}

/// Serializes the result document for `BENCH_partition.json`.
pub fn to_json(cfg: &PartitionBenchConfig, result: &PartitionBenchResult) -> String {
    #[derive(Serialize)]
    struct Doc {
        bench: String,
        tenants: usize,
        churn_ops: usize,
        seed: u64,
        reconfig_cost_secs: f64,
        result: PartitionBenchResult,
    }
    serde_json::to_string_pretty(&Doc {
        bench: "partition".to_string(),
        tenants: cfg.tenants,
        churn_ops: cfg.churn_ops,
        seed: cfg.seed,
        reconfig_cost_secs: cfg.reconfig_cost_secs,
        result: result.clone(),
    })
    .expect("serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PartitionBenchConfig {
        PartitionBenchConfig {
            tenants: 42,
            churn_ops: 200,
            seed: 7,
            reconfig_cost_secs: 2.0,
        }
    }

    #[test]
    fn spatial_and_hybrid_beat_time_slicing() {
        let r = run(&small());
        assert!(r.verdict.ok, "verdict: {:?}", r.verdict);
        assert!(r.verdict.spatial_beats.contains(&"packing".to_string()));
        assert!(r.verdict.spatial_beats.contains(&"isolation".to_string()));
        // Token substrate burns one GPU per isolation-demanding tenant.
        assert_eq!(r.packing[0].gpus, 42);
        assert!(r.packing[1].gpus < r.packing[0].gpus / 2);
        assert_eq!(r.packing.iter().map(|p| p.rejected).sum::<usize>(), 0);
        // Slice isolation is structural; token contention is real.
        assert!((r.isolation.spatial_slowdown - 1.0).abs() < 1e-9);
        assert!(r.isolation.time_slice_slowdown > 1.5);
        // The throughput price of the slice is visible, not hidden.
        assert!(r.isolation.spatial_alone_cost > 1.2);
        // Churn actually exercised the reshape path and billed it.
        assert!(r.reconfig.reconfigs > 0);
        assert!(r.reconfig.downtime_secs >= 2.0 * r.reconfig.reconfigs as f64 - 1e-9);
        assert!(r.reconfig.frag_max > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(&small());
        let b = run(&small());
        assert_eq!(to_json(&small(), &a), to_json(&small(), &b));
    }

    #[test]
    fn json_document_round_trips() {
        let r = run(&small());
        let json = to_json(&small(), &r);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.field("bench").as_str(), Some("partition"));
        assert_eq!(
            v.field("result").field("packing").as_array().unwrap().len(),
            3
        );
        assert!(v
            .field("result")
            .field("reconfig")
            .field("reconfigs")
            .as_u64()
            .is_some());
    }
}
