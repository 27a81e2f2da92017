//! Property-based fault tolerance: pool accounting must be conserved under
//! arbitrary interleavings of sharePod submissions, container crashes, node
//! failures and node recoveries — and, in the eviction property, of
//! deletions, preemptions, vGPU drains, cordons and short time advances
//! that let teardown land while anchors are still being created.
//!
//! The invariants checked after every injected operation:
//!
//! 1. per-device residuals stay normalized: `util_free`, `mem_free` ∈
//!    [0, FULL] share units;
//! 2. conservation: Σ attached demand + residual == device capacity
//!    (`FULL`), exactly, for both compute and memory;
//! 3. no leaked vGPU lives on a failed node;
//! 4. every bound sharePod points at a device that exists and carries its
//!    attachment (no dangling GPUID after recovery shuffles the pool).
//!
//! The eviction property adds two more:
//!
//! 5. no single operation or DES event requeues a sharePod twice (one
//!    `SharePodRequeued` per sharePod at most);
//! 6. at final quiescence no pool device is still `releasing`: every vGPU
//!    handed back to Kubernetes actually left the pool.

use ks_chaos::{ChaosConfig, ChaosInjector};
use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{NodeConfig, ResourceList};
use ks_cluster::device_plugin::UnitAssignPolicy;
use ks_cluster::latency::LatencyModel;
use ks_cluster::scheduler::ScorePolicy;
use ks_cluster::sim::{ClusterConfig, GpuPluginKind};
use ks_sim_core::prelude::*;
use ks_vgpu::ShareSpec;
use kubeshare::pool::FULL;
use kubeshare::sharepod::{SharePodPhase, SharePodSpec};
use kubeshare::system::KsEmit;
use kubeshare::{KsConfig, KsEvent, KsNotice, KubeShareSystem};
use proptest::prelude::*;

const NODES: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Submit a sharePod with the given fractional demands.
    Submit { util: f64, mem: f64 },
    /// Crash the pick-th running backing pod (no-op when none run).
    CrashPod { pick: usize },
    /// Fail a node (idempotent when already down).
    FailNode { node: usize },
    /// Recover a node (idempotent when already up).
    RecoverNode { node: usize },
    /// Delete the pick-th sharePod (by uid).
    Delete { pick: usize },
    /// Preempt the pick-th sharePod, then drain the pending queue as the
    /// gateway's pump does.
    Preempt { pick: usize },
    /// Drain the pick-th vGPU in the pool.
    DrainVgpu { pick: usize },
    /// Cordon a node (idempotent).
    Cordon { node: usize },
    /// Lift a node's cordon (idempotent).
    Uncordon { node: usize },
    /// Run the DES for this many milliseconds, not to quiescence.
    Advance { ms: u64 },
}

fn gen_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0.05f64..0.6, 0.05f64..0.6).prop_map(|(util, mem)| Op::Submit { util, mem }),
        2 => (0usize..16).prop_map(|pick| Op::CrashPod { pick }),
        1 => (0usize..NODES).prop_map(|node| Op::FailNode { node }),
        1 => (0usize..NODES).prop_map(|node| Op::RecoverNode { node }),
    ]
}

struct World {
    ks: KubeShareSystem,
    notices: Vec<(SimTime, KsNotice)>,
    /// Operations or events that requeued one sharePod more than once.
    double_requeues: Vec<String>,
}

impl World {
    /// Records the notices one operation or event produced, noting any
    /// sharePod requeued more than once by it.
    fn absorb(&mut self, now: SimTime, what: &dyn std::fmt::Debug, notes: Vec<KsNotice>) {
        let mut requeued: Vec<_> = notes
            .iter()
            .filter_map(|n| match n {
                KsNotice::SharePodRequeued { sp, .. } => Some(*sp),
                _ => None,
            })
            .collect();
        requeued.sort();
        if requeued.windows(2).any(|w| w[0] == w[1]) {
            self.double_requeues
                .push(format!("{what:?} at {now:?} requeued {requeued:?}"));
        }
        self.notices.extend(notes.into_iter().map(|n| (now, n)));
    }
}

struct Ev(KsEvent);

impl SimEvent<World> for Ev {
    fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
        let mut out = Vec::new();
        let mut notes = Vec::new();
        w.ks.handle(now, self.0, &mut out, &mut notes);
        w.absorb(now, &self.0, notes);
        for (at, e) in out {
            q.schedule_at(at, Ev(e));
        }
    }
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        nodes: (0..NODES)
            .map(|i| NodeConfig {
                name: format!("node-{i}"),
                cpu_millis: 36_000,
                memory_bytes: 244 << 30,
                gpus: 2,
                gpu_memory_bytes: 16 << 30,
            })
            .collect(),
        latency: LatencyModel::default(),
        gpu_plugin: GpuPluginKind::WholeDevice,
        assign_policy: UnitAssignPolicy::Sequential,
        score: ScorePolicy::LeastAllocated,
    }
}

fn seed(eng: &mut Engine<World, Ev>, out: KsEmit) {
    for (at, e) in out {
        eng.queue.schedule_at(at, Ev(e));
    }
}

fn sp_spec(util: f64, mem: f64) -> SharePodSpec {
    SharePodSpec::new(
        PodSpec::new("tf:2.1", ResourceList::cpu_mem(1000, 1 << 30)),
        ShareSpec::new(util, 1.0, mem).unwrap(),
    )
}

/// Applies one op a second after the engine's current time and drains
/// the queue.
fn apply(eng: &mut Engine<World, Ev>, op: &Op, down: &mut [bool; NODES]) {
    let now = eng.now() + SimDuration::from_secs(1);
    inject(eng, now, op, down);
    eng.run_to_completion(1_000_000);
}

/// Injects one op at `now`, leaving its consequences queued (an `Advance`
/// fires them up to its horizon).
fn inject(eng: &mut Engine<World, Ev>, now: SimTime, op: &Op, down: &mut [bool; NODES]) {
    let mut out = Vec::new();
    let mut notes = Vec::new();
    match op {
        Op::Submit { util, mem } => {
            eng.world
                .ks
                .submit_sharepod(now, "sp", sp_spec(*util, *mem), &mut out);
        }
        Op::CrashPod { pick } => {
            let pods = eng.world.ks.running_backing_pods();
            if !pods.is_empty() {
                let pod = pods[pick % pods.len()];
                eng.world
                    .ks
                    .crash_pod(now, pod, "chaos", &mut out, &mut notes);
            }
        }
        Op::FailNode { node } => {
            down[*node] = true;
            eng.world
                .ks
                .fail_node(now, &format!("node-{node}"), &mut out, &mut notes);
        }
        Op::RecoverNode { node } => {
            down[*node] = false;
            eng.world
                .ks
                .recover_node(now, &format!("node-{node}"), &mut out);
        }
        Op::Delete { pick } | Op::Preempt { pick } => {
            let mut sps: Vec<_> = eng.world.ks.sharepods().iter().map(|(u, _)| u).collect();
            sps.sort();
            if !sps.is_empty() {
                let sp = sps[pick % sps.len()];
                let ks = &mut eng.world.ks;
                if matches!(op, Op::Delete { .. }) {
                    ks.delete_sharepod(now, sp, &mut out, &mut notes);
                } else if ks.preempt_sharepod(now, sp, &mut out, &mut notes) {
                    ks.drain_pending(now, &mut out, &mut notes);
                }
            }
        }
        Op::DrainVgpu { pick } => {
            let ids: Vec<_> = eng
                .world
                .ks
                .pool()
                .devices()
                .map(|d| d.id.clone())
                .collect();
            if !ids.is_empty() {
                let id = &ids[pick % ids.len()];
                eng.world.ks.drain_vgpu(now, id, &mut out, &mut notes);
            }
        }
        Op::Cordon { node } => {
            eng.world.ks.cordon_node(&format!("node-{node}"));
        }
        Op::Uncordon { node } => {
            eng.world
                .ks
                .uncordon_node(now, &format!("node-{node}"), &mut out);
        }
        Op::Advance { ms } => {
            eng.run_until(now + SimDuration::from_millis(*ms));
        }
    }
    eng.world.absorb(now, op, notes);
    seed(eng, out);
}

fn check_invariants(w: &World, down: &[bool; NODES]) {
    for d in w.ks.pool().devices() {
        // 1. residuals normalized.
        prop_assert!(
            d.util_free <= FULL,
            "{}: util_free {} out of range",
            d.id,
            d.util_free
        );
        prop_assert!(
            d.mem_free <= FULL,
            "{}: mem_free {} out of range",
            d.id,
            d.mem_free
        );
        // 2. conservation against unit capacity, exactly.
        let used_util: u32 = d.attached.values().map(|&(u, _)| u).sum();
        let used_mem: u32 = d.attached.values().map(|&(_, m)| m).sum();
        prop_assert!(
            used_util + d.util_free == FULL,
            "{}: Σutil {} + free {} ≠ {FULL}",
            d.id,
            used_util,
            d.util_free
        );
        prop_assert!(
            used_mem + d.mem_free == FULL,
            "{}: Σmem {} + free {} ≠ {FULL}",
            d.id,
            used_mem,
            d.mem_free
        );
        // 3. no vGPU survives on a dead node.
        if let Some(node) = d.node.as_deref() {
            let idx: usize = node
                .strip_prefix("node-")
                .and_then(|s| s.parse().ok())
                .expect("node name");
            prop_assert!(!down[idx], "{} leaked on failed {node}", d.id);
        }
    }
    // 4. bound sharePods point at live attachments.
    for (uid, sp) in w.ks.sharepods().iter() {
        if matches!(
            sp.status.phase,
            SharePodPhase::AwaitingVgpu | SharePodPhase::Starting | SharePodPhase::Running
        ) {
            let gpuid = sp
                .status
                .bound_gpuid
                .as_ref()
                .expect("bound phase implies GPUID");
            let dev = w.ks.pool().get(gpuid);
            prop_assert!(dev.is_some(), "{uid:?} bound to vanished {gpuid}");
            prop_assert!(
                dev.unwrap().attached.contains_key(&uid),
                "{uid:?} not attached to its bound {gpuid}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation holds at every quiescent point of an arbitrary
    /// submit / crash / fail / recover interleaving.
    #[test]
    fn pool_accounting_survives_chaos(ops in proptest::collection::vec(gen_op(), 1..40)) {
        let mut eng: Engine<World, Ev> = Engine::new(World {
            ks: KubeShareSystem::new(cluster_cfg(), KsConfig::default()),
            notices: Vec::new(),
            double_requeues: Vec::new(),
        });
        let mut down = [false; NODES];
        for op in &ops {
            apply(&mut eng, op, &mut down);
            check_invariants(&eng.world, &down);
        }
        // Full recovery at the end: every node back, queue drained — all
        // non-rejected sharePods must eventually run again.
        for node in 0..NODES {
            apply(&mut eng, &Op::RecoverNode { node }, &mut down);
        }
        check_invariants(&eng.world, &down);
    }
}

/// The eviction alphabet: the ops above plus deletions, preemptions, vGPU
/// drains, cordons and short advances. Ops apply at the engine's current
/// time, so most land while earlier work is still in flight.
fn gen_eviction_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0.05f64..0.6, 0.05f64..0.6).prop_map(|(util, mem)| Op::Submit { util, mem }),
        1 => (0usize..16).prop_map(|pick| Op::CrashPod { pick }),
        1 => (0usize..NODES).prop_map(|node| Op::FailNode { node }),
        1 => (0usize..NODES).prop_map(|node| Op::RecoverNode { node }),
        2 => (0usize..16).prop_map(|pick| Op::Delete { pick }),
        2 => (0usize..16).prop_map(|pick| Op::Preempt { pick }),
        2 => (0usize..8).prop_map(|pick| Op::DrainVgpu { pick }),
        1 => (0usize..NODES).prop_map(|node| Op::Cordon { node }),
        1 => (0usize..NODES).prop_map(|node| Op::Uncordon { node }),
        4 => (1u64..1_500).prop_map(|ms| Op::Advance { ms }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Evictions interleaved with creation: every invariant holds after
    /// each op, no op or event requeues a sharePod twice, and once every
    /// node is back and the queue drained, no released vGPU lingers. Half
    /// the cases make a share of anchor launches fail, so teardown also
    /// lands during anchor backoff.
    #[test]
    fn evictions_keep_the_pool_whole(
        ops in proptest::collection::vec(gen_eviction_op(), 1..40),
        anchor_failure_rate in proptest::option::weighted(0.5, 0.1f64..0.5),
        chaos_seed in 0u64..1_000,
    ) {
        let mut ks = KubeShareSystem::new(cluster_cfg(), KsConfig::default());
        if let Some(rate) = anchor_failure_rate {
            let cfg = ChaosConfig {
                anchor_failure_rate: rate,
                ..ChaosConfig::disabled()
            };
            ks.set_chaos(ChaosInjector::new(cfg.with_seed(chaos_seed), NODES));
        }
        let mut eng: Engine<World, Ev> = Engine::new(World {
            ks,
            notices: Vec::new(),
            double_requeues: Vec::new(),
        });
        let mut down = [false; NODES];
        for op in &ops {
            let now = eng.now();
            inject(&mut eng, now, op, &mut down);
            check_invariants(&eng.world, &down);
        }
        for node in 0..NODES {
            apply(&mut eng, &Op::Uncordon { node }, &mut down);
            apply(&mut eng, &Op::RecoverNode { node }, &mut down);
        }
        check_invariants(&eng.world, &down);
        prop_assert!(
            eng.world.double_requeues.is_empty(),
            "double requeue: {:?}",
            eng.world.double_requeues
        );
        for d in eng.world.ks.pool().devices() {
            prop_assert!(!d.releasing, "{} still releasing at quiescence", d.id);
        }
    }
}
