//! Property-based fault tolerance: pool accounting must be conserved under
//! arbitrary interleavings of sharePod submissions, container crashes, node
//! failures and node recoveries.
//!
//! The invariants checked after every injected operation (with the event
//! queue drained, i.e. at control-plane quiescence):
//!
//! 1. per-device residuals stay normalized: `util_free`, `mem_free` ∈
//!    [0, FULL] share units;
//! 2. conservation: Σ attached demand + residual == device capacity
//!    (`FULL`), exactly, for both compute and memory;
//! 3. no leaked vGPU lives on a failed node;
//! 4. every bound sharePod points at a device that exists and carries its
//!    attachment (no dangling GPUID after recovery shuffles the pool).

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
}

struct Ev(KsEvent);

impl SimEvent<World> for Ev {
    fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
        let mut out = Vec::new();
        let mut notes = Vec::new();
        w.ks.handle(now, self.0, &mut out, &mut notes);
        for n in notes {
            w.notices.push((now, n));
        }
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

/// Applies one op at the engine's current time and drains the queue.
fn apply(eng: &mut Engine<World, Ev>, op: &Op, down: &mut [bool; NODES]) {
    let now = eng.now() + SimDuration::from_secs(1);
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
    }
    for n in notes {
        eng.world.notices.push((now, n));
    }
    seed(eng, out);
    eng.run_to_completion(1_000_000);
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
