//! Property-based tests for the cluster control plane: resource accounting
//! must be conserved under arbitrary submit/delete interleavings.

use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{NodeConfig, ResourceList, Uid, NVIDIA_GPU};
use ks_cluster::device_plugin::UnitAssignPolicy;
use ks_cluster::latency::LatencyModel;
use ks_cluster::scheduler::{SchedMode, ScorePolicy};
use ks_cluster::sim::{ClusterConfig, ClusterEvent, ClusterNotice, ClusterSim, GpuPluginKind};
use ks_sim_core::prelude::*;
use proptest::prelude::*;

struct World {
    cluster: ClusterSim,
    running: Vec<Uid>,
    deleted: usize,
}

struct Ev(ClusterEvent);

impl SimEvent<World> for Ev {
    fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
        let mut out = Vec::new();
        let mut notes = Vec::new();
        w.cluster.handle(now, self.0, &mut out, &mut notes);
        for n in notes {
            match n {
                ClusterNotice::PodRunning { pod } => w.running.push(pod),
                ClusterNotice::PodDeleted { .. } => w.deleted += 1,
                _ => {}
            }
        }
        for (at, e) in out {
            q.schedule_at(at, Ev(e));
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Submit a pod with (cpu_millis, gpus).
    Submit(u64, u64),
    /// Delete the i-th currently running pod (modulo the live count).
    DeleteRunning(usize),
    /// Let the simulation advance this many seconds.
    Advance(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (100u64..4000, 0u64..3).prop_map(|(c, g)| Op::Submit(c, g)),
        (0usize..8).prop_map(Op::DeleteRunning),
        (1u64..20).prop_map(Op::Advance),
    ]
}

fn config() -> ClusterConfig {
    ClusterConfig {
        nodes: (0..2)
            .map(|i| NodeConfig {
                name: format!("n{i}"),
                cpu_millis: 16_000,
                memory_bytes: 64 << 30,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the interleaving: free resources never exceed allocatable,
    /// never go negative (checked_sub would panic), and after deleting
    /// everything the cluster returns to full capacity.
    #[test]
    fn accounting_is_conserved(ops in proptest::collection::vec(op(), 1..60)) {
        let mut eng = Engine::new(World {
            cluster: ClusterSim::new(config()),
            running: Vec::new(),
            deleted: 0,
        });
        let mut submitted = Vec::new();
        let mut horizon = SimTime::ZERO;
        for o in &ops {
            let now = eng.now().max(horizon);
            match o {
                Op::Submit(cpu, gpus) => {
                    let mut requests = ResourceList::cpu_mem(*cpu, 1 << 30);
                    if *gpus > 0 {
                        requests = requests.with_extended(NVIDIA_GPU, *gpus);
                    }
                    let mut out = Vec::new();
                    let uid = eng.world.cluster.submit_pod(
                        now,
                        format!("p{}", submitted.len()),
                        PodSpec::new("img", requests),
                        &mut out,
                    );
                    submitted.push(uid);
                    for (at, e) in out {
                        eng.queue.schedule_at(at, Ev(e));
                    }
                }
                Op::DeleteRunning(i) => {
                    if !eng.world.running.is_empty() {
                        let idx = i % eng.world.running.len();
                        let uid = eng.world.running.remove(idx);
                        let mut out = Vec::new();
                        let mut notes = Vec::new();
                        eng.world.cluster.delete_pod(now, uid, &mut out, &mut notes);
                        for (at, e) in out {
                            eng.queue.schedule_at(at, Ev(e));
                        }
                    }
                }
                Op::Advance(secs) => {
                    horizon = now + SimDuration::from_secs(*secs);
                    eng.run_until(horizon);
                }
            }
            // Invariant: free fits inside allocatable on every node.
            for name in eng.world.cluster.node_names() {
                let free = eng.world.cluster.node_free(&name).unwrap();
                prop_assert!(free.cpu_millis <= 16_000);
                prop_assert!(free.extended_count(NVIDIA_GPU) <= 2);
            }
        }
        // Drain all pending control-plane work, then delete everything.
        eng.run_to_completion(1_000_000);
        let now = eng.now();
        for &uid in &submitted {
            let mut out = Vec::new();
            let mut notes = Vec::new();
            eng.world.cluster.delete_pod(now, uid, &mut out, &mut notes);
            for (at, e) in out {
                eng.queue.schedule_at(at, Ev(e));
            }
        }
        eng.run_to_completion(1_000_000);
        for name in eng.world.cluster.node_names() {
            let free = eng.world.cluster.node_free(&name).unwrap();
            prop_assert_eq!(free.cpu_millis, 16_000, "cpu restored on {}", name);
            prop_assert_eq!(free.extended_count(NVIDIA_GPU), 2, "gpus restored on {}", name);
        }
    }

    /// GPU exclusivity: at no sampled instant do more pods run than there
    /// are GPUs, and no two running pods share a device UUID.
    #[test]
    fn whole_device_plugin_is_exclusive(n_pods in 1usize..12) {
        let mut eng = Engine::new(World {
            cluster: ClusterSim::new(config()),
            running: Vec::new(),
            deleted: 0,
        });
        let mut out = Vec::new();
        for i in 0..n_pods {
            eng.world.cluster.submit_pod(
                SimTime::ZERO,
                format!("p{i}"),
                PodSpec::new(
                    "img",
                    ResourceList::cpu_mem(100, 1 << 20).with_extended(NVIDIA_GPU, 1),
                ),
                &mut out,
            );
        }
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(1_000_000);
        let running = &eng.world.running;
        prop_assert!(running.len() <= 4, "only 4 GPUs exist");
        let mut uuids: Vec<String> = running
            .iter()
            .map(|&u| {
                eng.world
                    .cluster
                    .pod(u)
                    .unwrap()
                    .visible_devices()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let before = uuids.len();
        uuids.sort();
        uuids.dedup();
        prop_assert_eq!(uuids.len(), before, "two pods share a GPU");
    }
}

/// One op of the Reference-vs-Indexed lockstep property. Node operands
/// index `NODES`, where the last name is not a node of the cluster.
#[derive(Debug, Clone)]
enum LockOp {
    /// Submit a pod with (cpu_millis, gpus), pinned to `NODES[i]` if set.
    Submit(u64, u64, Option<usize>),
    /// Delete the i-th submitted pod (modulo the count), whatever its phase.
    Delete(usize),
    /// Crash the i-th submitted pod (modulo the count).
    Crash(usize),
    Fail(usize),
    Recover(usize),
    Cordon(usize),
    Uncordon(usize),
    /// Run both sims this many milliseconds further.
    Advance(u64),
}

const NODES: [&str; 5] = ["n0", "n1", "n2", "n3", "ghost"];

fn lock_op() -> impl Strategy<Value = LockOp> {
    let node = 0usize..NODES.len();
    prop_oneof![
        (100u64..6000, 0u64..3, proptest::option::of(node.clone()))
            .prop_map(|(c, g, pin)| LockOp::Submit(c, g, pin)),
        (0usize..16).prop_map(LockOp::Delete),
        (0usize..16).prop_map(LockOp::Crash),
        node.clone().prop_map(LockOp::Fail),
        node.clone().prop_map(LockOp::Recover),
        node.clone().prop_map(LockOp::Cordon),
        node.prop_map(LockOp::Uncordon),
        (1u64..4000).prop_map(LockOp::Advance),
    ]
}

/// Four nodes of unequal size, so scores spread and also tie.
fn lock_config(score: ScorePolicy) -> ClusterConfig {
    ClusterConfig {
        nodes: (0..4)
            .map(|i| NodeConfig {
                name: NODES[i].to_string(),
                cpu_millis: if i % 2 == 0 { 8_000 } else { 16_000 },
                memory_bytes: 32 << 30,
                gpus: 1 + (i as u32 / 2),
                gpu_memory_bytes: 16 << 30,
            })
            .collect(),
        latency: LatencyModel::default(),
        gpu_plugin: GpuPluginKind::WholeDevice,
        assign_policy: UnitAssignPolicy::Sequential,
        score,
    }
}

struct Lock {
    cluster: ClusterSim,
    notices: Vec<ClusterNotice>,
}

struct LockEv(ClusterEvent);

impl SimEvent<Lock> for LockEv {
    fn fire(self, now: SimTime, w: &mut Lock, q: &mut EventQueue<Self>) {
        let mut out = Vec::new();
        w.cluster.handle(now, self.0, &mut out, &mut w.notices);
        for (at, e) in out {
            q.schedule_at(at, LockEv(e));
        }
    }
}

/// Both sims agree on every submitted pod's phase and node, on the notices
/// emitted so far, and each keeps its rank index and accounting.
fn lockstep_agrees(sims: &[Engine<Lock, LockEv>; 2], uids: &[Uid]) {
    let [a, b] = sims;
    for &uid in uids {
        let state = |e: &Engine<Lock, LockEv>| {
            e.world
                .cluster
                .pod(uid)
                .map(|p| (p.status.phase, p.status.node_name.clone()))
        };
        prop_assert_eq!(state(a), state(b), "pod {}", uid);
    }
    prop_assert_eq!(&a.world.notices, &b.world.notices);
    prop_assert_eq!(a.world.cluster.verify_node_rank(), Ok(()));
    prop_assert_eq!(b.world.cluster.verify_node_rank(), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SchedMode::Reference` and `SchedMode::Indexed` driven through the
    /// same op stream place every pod identically: after every op and
    /// every event both sims agree pod for pod, and both rank indexes and
    /// capacity ledgers match a from-scratch rebuild.
    #[test]
    fn reference_and_indexed_run_in_lockstep(
        most_allocated in any::<bool>(),
        ops in proptest::collection::vec(lock_op(), 1..80),
    ) {
        let score = if most_allocated { ScorePolicy::MostAllocated } else { ScorePolicy::LeastAllocated };
        let mut sims = [SchedMode::Reference, SchedMode::Indexed].map(|mode| {
            let mut cluster = ClusterSim::new(lock_config(score));
            cluster.set_sched_mode(mode);
            Engine::new(Lock { cluster, notices: Vec::new() })
        });
        let mut uids: Vec<Uid> = Vec::new();
        let mut now = SimTime::ZERO;
        for o in &ops {
            let nth = |i: usize| (!uids.is_empty()).then(|| uids[i % uids.len()]);
            let (delete, crash) = match *o {
                LockOp::Delete(i) => (nth(i), None),
                LockOp::Crash(i) => (None, nth(i)),
                _ => (None, None),
            };
            let mut made = Vec::new();
            for sim in sims.iter_mut() {
                let (c, notes) = (&mut sim.world.cluster, &mut sim.world.notices);
                let mut out = Vec::new();
                match *o {
                    LockOp::Submit(cpu, gpus, pin) => {
                        let mut spec = PodSpec::new(
                            "img",
                            ResourceList::cpu_mem(cpu, 1 << 30).with_extended(NVIDIA_GPU, gpus),
                        );
                        spec.node_name = pin.map(|i| NODES[i].to_string());
                        made.push(c.submit_pod(now, format!("p{}", uids.len()), spec, &mut out));
                    }
                    LockOp::Delete(_) => {
                        if let Some(uid) = delete {
                            c.delete_pod(now, uid, &mut out, notes);
                        }
                    }
                    LockOp::Crash(_) => {
                        if let Some(uid) = crash {
                            c.crash_pod(now, uid, "OOMKilled", &mut out, notes);
                        }
                    }
                    LockOp::Fail(n) => {
                        c.fail_node(now, NODES[n], notes);
                    }
                    LockOp::Recover(n) => {
                        c.recover_node(now, NODES[n], &mut out);
                    }
                    LockOp::Cordon(n) => {
                        c.cordon_node(NODES[n]);
                    }
                    LockOp::Uncordon(n) => {
                        c.uncordon_node(now, NODES[n], &mut out);
                    }
                    LockOp::Advance(_) => {}
                }
                for (at, e) in out {
                    sim.queue.schedule_at(at, LockEv(e));
                }
            }
            if let [a, b] = made[..] {
                prop_assert_eq!(a, b);
                uids.push(a);
            }
            lockstep_agrees(&sims, &uids);
            if let LockOp::Advance(ms) = *o {
                now += SimDuration::from_millis(ms);
                while sims[0].queue.peek_time().is_some_and(|t| t <= now) {
                    prop_assert_eq!(sims[0].queue.peek_time(), sims[1].queue.peek_time());
                    sims[0].step();
                    sims[1].step();
                    lockstep_agrees(&sims, &uids);
                }
                prop_assert_eq!(sims[1].queue.peek_time().filter(|&t| t <= now), None);
            }
        }
    }
}
