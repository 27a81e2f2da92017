use super::*;
use crate::locality::Locality;
use crate::pool::{units, VgpuPhase};
use ks_cluster::api::{NodeConfig, ResourceList, NVIDIA_GPU};
use ks_cluster::device_plugin::UnitAssignPolicy;
use ks_cluster::latency::LatencyModel;
use ks_cluster::scheduler::ScorePolicy;
use ks_cluster::sim::GpuPluginKind;
use ks_sim_core::prelude::*;

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
        // Every event leaves the control plane consistent.
        if let Err(e) = w.ks.check_invariants() {
            panic!("after {:?} at {now:?}: {e}", self.0);
        }
        for n in notes {
            w.notices.push((now, n));
        }
        for (at, e) in out {
            q.schedule_at(at, Ev(e));
        }
    }
}

fn cluster_cfg(nodes: usize, gpus_per_node: u32) -> ClusterConfig {
    ClusterConfig {
        nodes: (0..nodes)
            .map(|i| NodeConfig {
                name: format!("node-{i}"),
                cpu_millis: 36_000,
                memory_bytes: 244 << 30,
                gpus: gpus_per_node,
                gpu_memory_bytes: 16 << 30,
            })
            .collect(),
        latency: LatencyModel::default(),
        gpu_plugin: GpuPluginKind::WholeDevice,
        assign_policy: UnitAssignPolicy::Sequential,
        score: ScorePolicy::LeastAllocated,
    }
}

fn engine(nodes: usize, gpus: u32) -> Engine<World, Ev> {
    Engine::new(World {
        ks: KubeShareSystem::new(cluster_cfg(nodes, gpus), KsConfig::default()),
        notices: Vec::new(),
    })
}

fn sp_spec(request: f64, limit: f64, mem: f64) -> SharePodSpec {
    SharePodSpec::new(
        PodSpec::new("tf:2.1", ResourceList::cpu_mem(1000, 1 << 30)),
        ShareSpec::new(request, limit, mem).unwrap(),
    )
}

fn seed(eng: &mut Engine<World, Ev>, out: KsEmit) {
    for (at, e) in out {
        eng.queue.schedule_at(at, Ev(e));
    }
}

fn submit(eng: &mut Engine<World, Ev>, name: &str, spec: SharePodSpec) -> Uid {
    let now = eng.now();
    let mut out = Vec::new();
    let uid = eng.world.ks.submit_sharepod(now, name, spec, &mut out);
    seed(eng, out);
    uid
}

fn running_notice(w: &World, sp: Uid) -> Option<&(SimTime, KsNotice)> {
    w.notices
        .iter()
        .find(|(_, n)| matches!(n, KsNotice::SharePodRunning { sp: s, .. } if *s == sp))
}

#[test]
fn drain_vgpu_requeues_tenants_onto_fresh_device() {
    let mut eng = engine(2, 1);
    let telemetry = ks_telemetry::Telemetry::enabled();
    eng.world.ks.set_telemetry(telemetry.clone());
    // Two tenants share one vGPU (best-fit packs the second onto the
    // first's device).
    let a = submit(&mut eng, "a", sp_spec(0.4, 1.0, 0.3));
    let b = submit(&mut eng, "b", sp_spec(0.4, 1.0, 0.3));
    eng.run_to_completion(20_000);
    let bound_a = eng
        .world
        .ks
        .sharepod(a)
        .unwrap()
        .status
        .bound_gpuid
        .clone()
        .unwrap();
    let bound_b = eng
        .world
        .ks
        .sharepod(b)
        .unwrap()
        .status
        .bound_gpuid
        .clone()
        .unwrap();
    assert_eq!(bound_a, bound_b, "tenants co-located for the drain");

    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    let drained = eng.world.ks.drain_vgpu(now, &bound_a, &mut out, &mut notes);
    assert_eq!(drained, 2);
    // Draining a device already being released is a no-op.
    assert_eq!(
        eng.world.ks.drain_vgpu(now, &bound_a, &mut out, &mut notes),
        0
    );
    // Unknown device: no-op.
    assert_eq!(
        eng.world
            .ks
            .drain_vgpu(now, &GpuId::named("nope"), &mut out, &mut notes),
        0
    );
    for n in notes {
        eng.world.notices.push((now, n));
    }
    seed(&mut eng, out);
    eng.run_to_completion(40_000);

    // Both tenants came back Running on a fresh device; the drained
    // one was released and left the pool.
    for sp in [a, b] {
        let s = eng.world.ks.sharepod(sp).unwrap();
        assert_eq!(s.status.phase, SharePodPhase::Running);
        assert_ne!(s.status.bound_gpuid.as_ref(), Some(&bound_a));
    }
    assert!(eng.world.ks.pool().get(&bound_a).is_none());
    assert!(eng
        .world
        .notices
        .iter()
        .any(|(_, n)| matches!(n, KsNotice::VgpuReleased { gpuid } if *gpuid == bound_a)));
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter_value("ks_vgpu_drains_total", &[]), Some(1));
    assert_eq!(snap.counter_value("ks_sched_requeues_total", &[]), Some(2));
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn cordon_steers_placement_and_counts() {
    let mut eng = engine(2, 1);
    let telemetry = ks_telemetry::Telemetry::enabled();
    eng.world.ks.set_telemetry(telemetry.clone());
    // Cordon node-0: the first sharePod's vGPU must land on node-1.
    assert!(eng.world.ks.cordon_node("node-0"));
    assert!(!eng.world.ks.cordon_node("node-0"), "idempotent");
    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(20_000);
    let bound = eng
        .world
        .ks
        .sharepod(a)
        .unwrap()
        .status
        .bound_gpuid
        .clone()
        .unwrap();
    assert_eq!(
        eng.world.ks.pool().get(&bound).unwrap().node.as_deref(),
        Some("node-1")
    );
    let now = eng.now();
    let mut out = Vec::new();
    assert!(eng.world.ks.uncordon_node(now, "node-0", &mut out));
    assert!(!eng.world.ks.uncordon_node(now, "node-0", &mut out));
    seed(&mut eng, out);
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter_value("ks_node_cordons_total", &[("node", "node-0")]),
        Some(1)
    );
    assert_eq!(
        snap.counter_value("ks_node_uncordons_total", &[("node", "node-0")]),
        Some(1)
    );
    assert_eq!(
        snap.gauge_value("ks_cluster_cordoned_nodes", &[]),
        Some(0.0)
    );
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn drain_pending_schedules_whole_queue_in_one_pass() {
    for mode in [SchedMode::Reference, SchedMode::Indexed] {
        let mut eng = Engine::new(World {
            ks: KubeShareSystem::new(
                cluster_cfg(2, 2),
                KsConfig {
                    sched_mode: mode,
                    ..KsConfig::default()
                },
            ),
            notices: Vec::new(),
        });
        let telemetry = ks_telemetry::Telemetry::enabled();
        eng.world.ks.set_telemetry(telemetry.clone());
        let sps: Vec<Uid> = (0..4)
            .map(|i| submit(&mut eng, &format!("sp-{i}"), sp_spec(0.5, 1.0, 0.5)))
            .collect();
        // Drain before any queued SchedDecide event has fired: every
        // sharePod is decided now, in one batch.
        let now = eng.now();
        let mut out = Vec::new();
        let mut notes = Vec::new();
        let n = eng.world.ks.drain_pending(now, &mut out, &mut notes);
        assert_eq!(n, 4);
        seed(&mut eng, out);
        // The stale SchedDecide events no-op; the batch's binds drive
        // everything to Running.
        eng.run_to_completion(20_000);
        for sp in &sps {
            assert_eq!(
                eng.world.ks.sharepod(*sp).unwrap().status.phase,
                SharePodPhase::Running,
                "mode {mode:?}"
            );
        }
        // A second drain sees an empty queue.
        let mut out = Vec::new();
        let mut notes = Vec::new();
        assert_eq!(
            eng.world.ks.drain_pending(eng.now(), &mut out, &mut notes),
            0
        );
        let snap = telemetry.snapshot();
        assert!(
            snap.histogram_count_sum("sched_batch_len", &[]).is_some(),
            "batch length histogram recorded"
        );
    }
}

#[test]
fn preemption_evicts_running_sharepod_and_higher_priority_wins_drain() {
    let mut eng = engine(1, 1);
    // A low-priority sharePod fills the only GPU.
    let low = submit(&mut eng, "low", sp_spec(1.0, 1.0, 1.0).with_priority(0));
    eng.run_to_completion(20_000);
    assert_eq!(
        eng.world.ks.sharepod(low).unwrap().status.phase,
        SharePodPhase::Running
    );

    // Preempting a Pending or unknown sharePod is refused.
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    assert!(!eng
        .world
        .ks
        .preempt_sharepod(now, Uid(999), &mut out, &mut notes));

    // Evict it: synchronously back to Pending, binding gone, capacity
    // detached, one preemption notice surfaced.
    assert!(eng
        .world
        .ks
        .preempt_sharepod(now, low, &mut out, &mut notes));
    let s = eng.world.ks.sharepod(low).unwrap();
    assert_eq!(s.status.phase, SharePodPhase::Pending);
    assert!(s.status.bound_gpuid.is_none());
    assert!(s.status.pod_uid.is_none());
    assert_eq!(
        notes
            .iter()
            .filter(|n| matches!(n, KsNotice::SharePodPreempted { sp, .. } if *sp == low))
            .count(),
        1
    );
    assert!(notes
        .iter()
        .any(|n| matches!(n, KsNotice::SharePodStopped { sp, .. } if *sp == low)));
    // A second preemption of the now-Pending sharePod is a no-op.
    assert!(!eng
        .world
        .ks
        .preempt_sharepod(now, low, &mut out, &mut notes));
    for n in notes {
        eng.world.notices.push((now, n));
    }
    seed(&mut eng, out);

    // A high-priority arrival drains before the evicted sharePod even
    // though its uid is larger, and ends up owning the GPU.
    let high = submit(&mut eng, "high", sp_spec(1.0, 1.0, 1.0).with_priority(5));
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    assert_eq!(eng.world.ks.drain_pending(now, &mut out, &mut notes), 2);
    seed(&mut eng, out);
    eng.run_to_completion(60_000);
    assert_eq!(
        eng.world.ks.sharepod(high).unwrap().status.phase,
        SharePodPhase::Running,
        "preemptor claims the freed GPU"
    );
    // The victim lost the contest: it waits on a vGPU whose anchor
    // cannot schedule while the preemptor holds the physical GPU.
    assert_ne!(
        eng.world.ks.sharepod(low).unwrap().status.phase,
        SharePodPhase::Running
    );
    // The old backing pod's deletion was swallowed: the victim was
    // never driven to Terminated.
    assert_ne!(
        eng.world.ks.sharepod(low).unwrap().status.phase,
        SharePodPhase::Terminated
    );
    // Preemption churns phases through every transition path; the
    // incremental gauge tallies must agree with a recount.
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn sharepod_end_to_end_with_vgpu_creation() {
    let mut eng = engine(1, 1);
    let sp = submit(&mut eng, "train", sp_spec(0.5, 1.0, 0.5));
    assert_eq!(eng.run_to_completion(10_000), RunOutcome::Drained);
    let (t, n) = running_notice(&eng.world, sp).expect("sharePod ran");
    let KsNotice::SharePodRunning {
        gpuid, node, uuid, ..
    } = n
    else {
        unreachable!()
    };
    assert_eq!(node, "node-0");
    assert!(uuid.starts_with("GPU-"));
    assert_eq!(
        eng.world.ks.pool().get(gpuid).unwrap().phase,
        VgpuPhase::Active
    );
    // Creation needed anchor pod + sharePod pod: roughly twice the
    // native creation time (paper Fig. 10).
    let native = LatencyModel::default().base_creation().as_secs_f64();
    let t = t.as_secs_f64();
    assert!(
        t > 1.8 * native && t < 2.6 * native,
        "creation took {t}s vs native {native}s"
    );
}

#[test]
fn second_sharepod_reuses_vgpu_and_is_faster() {
    let mut eng = engine(1, 1);
    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(10_000);
    let t_a = running_notice(&eng.world, a).unwrap().0;
    let start_b = eng.now();
    let b = submit(&mut eng, "b", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(10_000);
    let t_b = running_notice(&eng.world, b).unwrap().0;
    let dur_a = t_a.as_secs_f64();
    let dur_b = (t_b - start_b).as_secs_f64();
    assert!(
        dur_b < 0.7 * dur_a,
        "reuse must skip anchor creation: {dur_b} vs {dur_a}"
    );
    // Both share the same vGPU.
    let ga = eng.world.ks.sharepod(a).unwrap().status.bound_gpuid.clone();
    let gb = eng.world.ks.sharepod(b).unwrap().status.bound_gpuid.clone();
    assert_eq!(ga, gb);
    assert_eq!(eng.world.ks.pool().len(), 1);
}

#[test]
fn on_demand_policy_releases_idle_vgpu() {
    let mut eng = engine(1, 1);
    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(10_000);
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.delete_sharepod(now, a, &mut out, &mut notes);
    seed(&mut eng, out);
    for n in notes {
        eng.world.notices.push((now, n));
    }
    eng.run_to_completion(10_000);
    assert!(eng.world.ks.pool().is_empty(), "vGPU released on idle");
    assert!(eng
        .world
        .notices
        .iter()
        .any(|(_, n)| matches!(n, KsNotice::VgpuReleased { .. })));
    // The physical GPU is free for native pods again.
    let free = eng.world.ks.cluster.node_free("node-0").unwrap();
    assert_eq!(free.extended_count(NVIDIA_GPU), 1);
}

#[test]
fn reservation_policy_keeps_idle_vgpu() {
    let mut eng = Engine::new(World {
        ks: KubeShareSystem::new(
            cluster_cfg(1, 1),
            KsConfig {
                pool_policy: PoolPolicy::Reservation { max_idle: 1 },
                ..KsConfig::default()
            },
        ),
        notices: Vec::new(),
    });
    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(10_000);
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.delete_sharepod(now, a, &mut out, &mut notes);
    seed(&mut eng, out);
    eng.run_to_completion(10_000);
    assert_eq!(eng.world.ks.pool().len(), 1, "idle vGPU retained");
    assert_eq!(eng.world.ks.pool().idle_count(), 1);
    // But the GPU is still held from Kubernetes' point of view.
    let free = eng.world.ks.cluster.node_free("node-0").unwrap();
    assert_eq!(free.extended_count(NVIDIA_GPU), 0);
}

#[test]
fn crashed_sharepod_pod_returns_capacity_to_pool() {
    let mut eng = engine(1, 1);
    let a = submit(&mut eng, "a", sp_spec(0.6, 1.0, 0.6));
    let b = submit(&mut eng, "b", sp_spec(0.4, 1.0, 0.4));
    eng.run_to_completion(10_000);
    assert_eq!(
        eng.world.ks.sharepod(a).unwrap().status.phase,
        SharePodPhase::Running
    );
    // Crash a's backing pod (container exit), bypassing deletion.
    let pod = eng.world.ks.sharepod(a).unwrap().status.pod_uid.unwrap();
    let now = eng.now();
    let mut cluster_out = Vec::new();
    let mut cluster_notes = Vec::new();
    eng.world
        .ks
        .cluster
        .crash_pod(now, pod, "OOMKilled", &mut cluster_out, &mut cluster_notes);
    // Route the crash notice through the KubeShare controllers the way
    // the embedding world would.
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world
        .ks
        .process_cluster_notices(now, cluster_notes, &mut out, &mut notes);
    seed(&mut eng, out);
    eng.run_to_completion(10_000);
    assert_eq!(
        eng.world.ks.sharepod(a).unwrap().status.phase,
        SharePodPhase::Rejected
    );
    // The vGPU's capacity came back: a new 0.6 sharePod fits again.
    let c = submit(&mut eng, "c", sp_spec(0.6, 1.0, 0.6));
    eng.run_to_completion(20_000);
    assert_eq!(
        eng.world.ks.sharepod(c).unwrap().status.phase,
        SharePodPhase::Running
    );
    // b and c share the single vGPU.
    assert_eq!(eng.world.ks.pool().len(), 1);
    let _ = b;
}

#[test]
fn hybrid_policy_keeps_then_releases_after_ttl() {
    let mut eng = Engine::new(World {
        ks: KubeShareSystem::new(
            cluster_cfg(1, 1),
            KsConfig {
                pool_policy: PoolPolicy::Hybrid {
                    max_idle: 2,
                    idle_ttl: SimDuration::from_secs(30),
                },
                ..KsConfig::default()
            },
        ),
        notices: Vec::new(),
    });
    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(10_000);
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.delete_sharepod(now, a, &mut out, &mut notes);
    seed(&mut eng, out);
    // Shortly after going idle, the vGPU is still held…
    eng.run_until(now + SimDuration::from_secs(10));
    assert_eq!(eng.world.ks.pool().idle_count(), 1, "kept inside TTL");
    // …but once the TTL passes it is released back to Kubernetes.
    eng.run_to_completion(10_000);
    assert!(eng.world.ks.pool().is_empty(), "released after TTL");
    let free = eng.world.ks.cluster.node_free("node-0").unwrap();
    assert_eq!(free.extended_count(NVIDIA_GPU), 1);
}

#[test]
fn hybrid_ttl_cancelled_by_reuse() {
    let mut eng = Engine::new(World {
        ks: KubeShareSystem::new(
            cluster_cfg(1, 1),
            KsConfig {
                pool_policy: PoolPolicy::Hybrid {
                    max_idle: 2,
                    idle_ttl: SimDuration::from_secs(30),
                },
                ..KsConfig::default()
            },
        ),
        notices: Vec::new(),
    });
    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(10_000);
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.delete_sharepod(now, a, &mut out, &mut notes);
    seed(&mut eng, out);
    eng.run_until(now + SimDuration::from_secs(5));
    // A new sharePod reuses the idle vGPU before the TTL fires.
    let b = submit(&mut eng, "b", sp_spec(0.5, 1.0, 0.5));
    eng.run_until(now + SimDuration::from_secs(60));
    assert_eq!(
        eng.world.ks.sharepod(b).unwrap().status.phase,
        SharePodPhase::Running,
        "reused the cached vGPU"
    );
    assert_eq!(eng.world.ks.pool().len(), 1, "stale TTL must not kill it");
}

#[test]
fn anti_affinity_forces_distinct_vgpus() {
    let mut eng = engine(1, 2);
    let loc = Locality::none().with_anti_affinity("noisy");
    let a = submit(
        &mut eng,
        "a",
        sp_spec(0.4, 1.0, 0.4).with_locality(loc.clone()),
    );
    let b = submit(&mut eng, "b", sp_spec(0.4, 1.0, 0.4).with_locality(loc));
    eng.run_to_completion(20_000);
    let ga = eng
        .world
        .ks
        .sharepod(a)
        .unwrap()
        .status
        .bound_gpuid
        .clone()
        .unwrap();
    let gb = eng
        .world
        .ks
        .sharepod(b)
        .unwrap()
        .status
        .bound_gpuid
        .clone()
        .unwrap();
    assert_ne!(ga, gb, "anti-affinity must separate them");
    assert_eq!(eng.world.ks.pool().len(), 2);
}

#[test]
fn affinity_conflict_rejects() {
    let mut eng = engine(1, 2);
    let a = submit(
        &mut eng,
        "a",
        sp_spec(0.8, 1.0, 0.8).with_locality(Locality::none().with_affinity("grp")),
    );
    eng.run_to_completion(20_000);
    // b wants the same group but doesn't fit.
    let b = submit(
        &mut eng,
        "b",
        sp_spec(0.5, 1.0, 0.5).with_locality(Locality::none().with_affinity("grp")),
    );
    eng.run_to_completion(20_000);
    assert_eq!(
        eng.world.ks.sharepod(b).unwrap().status.phase,
        SharePodPhase::Rejected
    );
    assert!(eng
        .world
        .notices
        .iter()
        .any(|(_, n)| matches!(n, KsNotice::SharePodRejected { sp, .. } if *sp == b)));
    let _ = a;
}

#[test]
fn invalid_share_spec_is_rejected_not_a_panic() {
    let mut eng = engine(1, 2);
    // The fields are public, so a spec can skip `ShareSpec::new`.
    let mut spec = sp_spec(0.5, 1.0, 0.5);
    spec.share = ShareSpec {
        request: 2.0,
        ..spec.share
    };
    let bad = submit(&mut eng, "bad", spec);
    let good = submit(&mut eng, "good", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(20_000);
    let s = eng.world.ks.sharepod(bad).unwrap();
    assert_eq!(s.status.phase, SharePodPhase::Rejected);
    let reason = format!("{:?}", ks_vgpu::SpecError::OutOfRange("gpu_request"));
    assert_eq!(s.status.message.as_deref(), Some(reason.as_str()));
    assert!(eng.world.notices.iter().any(|(_, n)| {
        matches!(n, KsNotice::SharePodRejected { sp, reason: r } if *sp == bad && *r == reason)
    }));
    // Nothing of it reached the pool or the cluster.
    assert!(eng
        .world
        .ks
        .pool()
        .devices()
        .all(|d| !d.attached.contains_key(&bad)));
    assert!(running_notice(&eng.world, good).is_some());
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn explicit_gpuid_creates_and_binds() {
    let mut eng = engine(1, 1);
    let sp = submit(
        &mut eng,
        "pinned",
        sp_spec(0.3, 0.6, 0.3).with_gpuid(GpuId::named("my-vgpu")),
    );
    eng.run_to_completion(10_000);
    let bound = eng
        .world
        .ks
        .sharepod(sp)
        .unwrap()
        .status
        .bound_gpuid
        .clone();
    assert_eq!(bound, Some(GpuId::named("my-vgpu")));
    assert!(eng.world.ks.pool().get(&GpuId::named("my-vgpu")).is_some());
}

#[test]
fn native_pods_coexist() {
    let mut eng = engine(1, 2);
    // One native GPU pod and one sharePod share the cluster.
    let now = eng.now();
    let mut out = Vec::new();
    let native = eng.world.ks.submit_native_pod(
        now,
        "native",
        PodSpec::new(
            "cuda:11",
            ResourceList::cpu_mem(1000, 1 << 30).with_extended(NVIDIA_GPU, 1),
        ),
        &mut out,
    );
    seed(&mut eng, out);
    let sp = submit(&mut eng, "shared", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(20_000);
    assert!(running_notice(&eng.world, sp).is_some());
    assert_eq!(
        eng.world.ks.cluster.pod(native).unwrap().status.phase,
        ks_cluster::PodPhase::Running
    );
    // Both GPUs in use: none left.
    let free = eng.world.ks.cluster.node_free("node-0").unwrap();
    assert_eq!(free.extended_count(NVIDIA_GPU), 0);
}

#[test]
fn native_pod_pinned_to_unknown_node_is_unschedulable() {
    let mut eng = engine(1, 1);
    let now = eng.now();
    let mut spec = PodSpec::new(
        "cuda:11",
        ResourceList::cpu_mem(1000, 1 << 30).with_extended(NVIDIA_GPU, 1),
    );
    spec.node_name = Some("no-such-node".into());
    let mut out = Vec::new();
    let pod = eng.world.ks.submit_native_pod(now, "lost", spec, &mut out);
    seed(&mut eng, out);
    eng.run_to_completion(1000);
    assert_eq!(
        eng.world.ks.cluster.pod(pod).unwrap().status.phase,
        ks_cluster::PodPhase::Pending
    );
    assert!(eng.world.notices.iter().any(|(_, n)| matches!(
        n,
        KsNotice::Cluster(ClusterNotice::PodUnschedulable { pod: p }) if *p == pod
    )));
    // The cluster is otherwise unaffected: a sharePod still runs.
    let sp = submit(&mut eng, "shared", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(20_000);
    assert!(running_notice(&eng.world, sp).is_some());
}

#[test]
fn crashed_container_restarts_under_on_failure_policy() {
    let mut eng: Engine<World, Ev> = Engine::new(World {
        ks: KubeShareSystem::new(
            cluster_cfg(1, 1),
            KsConfig {
                restart_policy: RestartPolicy::OnFailure,
                ..KsConfig::default()
            },
        ),
        notices: Vec::new(),
    });
    let sp = submit(&mut eng, "svc", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(10_000);
    assert_eq!(
        eng.world.ks.sharepod(sp).unwrap().status.phase,
        SharePodPhase::Running
    );
    let pod = eng.world.ks.running_backing_pods()[0];
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world
        .ks
        .crash_pod(now, pod, "oom", &mut out, &mut notes);
    for n in notes {
        eng.world.notices.push((now, n));
    }
    seed(&mut eng, out);
    eng.run_to_completion(100_000);
    // Requeued through Algorithm 1 and running again on a new pod.
    assert_eq!(
        eng.world.ks.sharepod(sp).unwrap().status.phase,
        SharePodPhase::Running
    );
    let new_pod = eng.world.ks.running_backing_pods()[0];
    assert_ne!(new_pod, pod, "a fresh backing pod must exist");
    assert!(eng
        .world
        .notices
        .iter()
        .any(|(_, n)| matches!(n, KsNotice::SharePodRequeued { sp: s, .. } if *s == sp)));
    // Capacity accounting survived the round trip.
    let d = eng.world.ks.pool().devices().next().unwrap();
    assert_eq!(d.util_free, units(0.5));
}

#[test]
fn node_failure_requeues_sharepods_to_surviving_pool() {
    let mut eng = engine(2, 1);
    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    let b = submit(&mut eng, "b", sp_spec(0.4, 1.0, 0.4));
    eng.run_to_completion(10_000);
    assert_eq!(
        eng.world.ks.sharepod(a).unwrap().status.phase,
        SharePodPhase::Running
    );
    // Both fit on one vGPU; find its node and kill that node.
    let gpuid = eng
        .world
        .ks
        .sharepod(a)
        .unwrap()
        .status
        .bound_gpuid
        .clone()
        .unwrap();
    let node = eng
        .world
        .ks
        .pool()
        .get(&gpuid)
        .unwrap()
        .node
        .clone()
        .unwrap();

    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.fail_node(now, &node, &mut out, &mut notes);
    assert!(notes
        .iter()
        .any(|n| matches!(n, KsNotice::VgpuLost { gpuid: g, .. } if *g == gpuid)));
    assert!(notes
        .iter()
        .any(|n| matches!(n, KsNotice::SharePodRequeued { sp, .. } if *sp == a)));
    for n in notes {
        eng.world.notices.push((now, n));
    }
    seed(&mut eng, out);
    eng.run_to_completion(20_000);

    // Algorithm 1 re-placed both sharePods on the surviving node.
    for sp in [a, b] {
        assert_eq!(
            eng.world.ks.sharepod(sp).unwrap().status.phase,
            SharePodPhase::Running,
            "sharePod must recover on the surviving node"
        );
        let g = eng
            .world
            .ks
            .sharepod(sp)
            .unwrap()
            .status
            .bound_gpuid
            .clone()
            .unwrap();
        let n = eng.world.ks.pool().get(&g).unwrap().node.clone().unwrap();
        assert_ne!(n, node, "must not land on the dead node");
    }
    // No leaked vGPUs: exactly one live vGPU backing both pods.
    assert_eq!(eng.world.ks.pool().len(), 1);
}

#[test]
fn node_recovery_restores_capacity() {
    let mut eng = engine(1, 1);
    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(10_000);

    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.fail_node(now, "node-0", &mut out, &mut notes);
    seed(&mut eng, out);
    eng.run_to_completion(20_000);
    // Nowhere to go: the sharePod waits in the unschedulable queue
    // (its fresh anchor can't place).
    assert_ne!(
        eng.world.ks.sharepod(a).unwrap().status.phase,
        SharePodPhase::Running
    );

    let now = eng.now();
    let mut out = Vec::new();
    eng.world.ks.recover_node(now, "node-0", &mut out);
    seed(&mut eng, out);
    eng.run_to_completion(20_000);
    assert_eq!(
        eng.world.ks.sharepod(a).unwrap().status.phase,
        SharePodPhase::Running,
        "sharePod must come back once the node does"
    );
    assert_eq!(eng.world.ks.pool().len(), 1);
    // Failure/requeue/recovery churn crosses the remaining phase
    // transitions; the incremental tallies must survive it.
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn anchor_launch_failure_retries_with_backoff() {
    use ks_chaos::{ChaosConfig, ChaosInjector};
    let mut eng = engine(1, 1);
    // Deterministic injector: seed chosen so the first anchor launch
    // fails and a retry succeeds (rate 0.5 gives plenty of both).
    let cfg = ChaosConfig {
        anchor_failure_rate: 0.5,
        ..ChaosConfig::disabled()
    };
    let mut chaos = ChaosInjector::new(cfg.clone().with_seed(0), 1);
    // Find a seed whose first flip fails and second succeeds.
    let mut seed_pick = 0;
    for s in 0..64 {
        let mut probe = ChaosInjector::new(cfg.clone().with_seed(s), 1);
        if probe.anchor_launch_fails() && !probe.anchor_launch_fails() {
            seed_pick = s;
            chaos = ChaosInjector::new(cfg.clone().with_seed(s), 1);
            break;
        }
    }
    eng.world.ks.set_chaos(chaos);

    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(20_000);
    assert_eq!(
        eng.world.ks.sharepod(a).unwrap().status.phase,
        SharePodPhase::Running,
        "retry must eventually materialize the vGPU (seed {seed_pick})"
    );
    // The first failure pushed Running past one backoff interval.
    let t = running_notice(&eng.world, a).unwrap().0.as_secs_f64();
    let base = KsConfig::default().anchor_retry_base.as_secs_f64();
    assert!(t >= base, "backoff must delay creation: {t}s < {base}s");
}

#[test]
fn anchor_retries_exhausted_degrades_gracefully() {
    use ks_chaos::{ChaosConfig, ChaosInjector};
    let mut eng = Engine::new(World {
        ks: KubeShareSystem::new(
            cluster_cfg(1, 2),
            KsConfig {
                anchor_max_retries: 2,
                ..KsConfig::default()
            },
        ),
        notices: Vec::new(),
    });
    // Every launch fails: the vGPU can never materialize.
    let cfg = ChaosConfig {
        anchor_failure_rate: 1.0,
        ..ChaosConfig::disabled()
    };
    eng.world.ks.set_chaos(ChaosInjector::new(cfg, 1));

    let a = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    eng.run_to_completion(50_000);
    // All attempts failed → vGPU given up → the unpinned sharePod was
    // re-queued, whose fresh vGPU also failed… until sched rejects or
    // the sharePod keeps cycling. With rate 1.0 it must NOT be Running,
    // and the pool must not leak half-created devices.
    assert_ne!(
        eng.world.ks.sharepod(a).unwrap().status.phase,
        SharePodPhase::Running
    );
    assert!(eng
        .world
        .notices
        .iter()
        .any(|(_, n)| matches!(n, KsNotice::VgpuLost { .. })));
    let _ = a;
}

#[test]
fn exhausted_retries_reject_pinned_sharepod() {
    use ks_chaos::{ChaosConfig, ChaosInjector};
    let mut eng = Engine::new(World {
        ks: KubeShareSystem::new(
            cluster_cfg(1, 1),
            KsConfig {
                anchor_max_retries: 1,
                ..KsConfig::default()
            },
        ),
        notices: Vec::new(),
    });
    let cfg = ChaosConfig {
        anchor_failure_rate: 1.0,
        ..ChaosConfig::disabled()
    };
    eng.world.ks.set_chaos(ChaosInjector::new(cfg, 1));
    // Pinned to an explicit GPUID: re-queueing would loop forever, so
    // exhausted retries must reject it instead.
    let sp = submit(
        &mut eng,
        "pinned",
        sp_spec(0.3, 0.6, 0.3).with_gpuid(GpuId::named("doomed")),
    );
    eng.run_to_completion(50_000);
    assert_eq!(
        eng.world.ks.sharepod(sp).unwrap().status.phase,
        SharePodPhase::Rejected
    );
    assert!(eng.world.ks.pool().is_empty(), "no leaked Creating vGPU");
}

fn spatial_spec(request: f64, mem: f64) -> SharePodSpec {
    sp_spec(request, 1.0, mem).with_substrate(ks_partition::Substrate::Spatial)
}

#[test]
fn fragmented_partition_reconfigures_and_rebinds() {
    let mut eng = engine(1, 1);
    let telemetry = ks_telemetry::Telemetry::enabled();
    eng.world.ks.set_telemetry(telemetry.clone());
    // Three P2 tenants pack one partitioned device (defrag-greedy
    // placement lands them at starts 4, 0, 2).
    let sps: Vec<Uid> = (0..3)
        .map(|i| submit(&mut eng, &format!("p2-{i}"), spatial_spec(0.25, 0.2)))
        .collect();
    eng.run_to_completion(20_000);
    let gpu = eng
        .world
        .ks
        .sharepod(sps[0])
        .unwrap()
        .status
        .bound_gpuid
        .clone()
        .unwrap();
    let starts: Vec<u8> = sps
        .iter()
        .map(|&sp| {
            let s = eng.world.ks.sharepod(sp).unwrap();
            assert_eq!(s.status.phase, SharePodPhase::Running);
            assert_eq!(s.status.bound_gpuid.as_ref(), Some(&gpu));
            eng.world.ks.pool().get(&gpu).unwrap().slice_of[&sp]
        })
        .collect();
    assert_eq!(starts, vec![4, 0, 2]);

    // Strand the middle tenant: free starts 0 and 4, keeping slot 2-3
    // resident. A P4 (slots 0-3) now has no legal start even though 5
    // of 7 slots are free.
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world
        .ks
        .delete_sharepod(now, sps[1], &mut out, &mut notes);
    eng.world
        .ks
        .delete_sharepod(now, sps[0], &mut out, &mut notes);
    seed(&mut eng, out);
    eng.run_to_completion(40_000);

    // The P4 request triggers a reshape instead of demanding new
    // hardware (there is none: 1 node x 1 GPU).
    let big = submit(&mut eng, "big", spatial_spec(0.5, 0.5));
    eng.run_to_completion(120_000);

    for sp in [big, sps[2]] {
        let s = eng.world.ks.sharepod(sp).unwrap();
        assert_eq!(s.status.phase, SharePodPhase::Running, "sp {sp:?}");
        assert_eq!(s.status.bound_gpuid.as_ref(), Some(&gpu));
    }
    let device = eng.world.ks.pool().get(&gpu).unwrap();
    assert_eq!(device.slice_of.len(), 2);
    assert!(device.slice_of.contains_key(&big));
    assert!(device.slice_of.contains_key(&sps[2]));
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter_value("ks_partition_reconfigs_total", &[]),
        Some(1)
    );
    assert!(snap.gauge_value("ks_pool_fragmentation", &[]).is_some());
    // The displaced tenant was stopped exactly once during the drain.
    let stops = eng
        .world
        .notices
        .iter()
        .filter(|(_, n)| matches!(n, KsNotice::SharePodStopped { sp, .. } if *sp == sps[2]))
        .count();
    assert_eq!(stops, 1);
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn drain_slice_displaces_only_the_slice_tenant() {
    let mut eng = engine(1, 1);
    let telemetry = ks_telemetry::Telemetry::enabled();
    eng.world.ks.set_telemetry(telemetry.clone());
    let a = submit(&mut eng, "a", spatial_spec(0.5, 0.5)); // P4 @ 0
    let b = submit(&mut eng, "b", spatial_spec(0.4, 0.3)); // P3 @ 4
    eng.run_to_completion(20_000);
    let gpu = eng
        .world
        .ks
        .sharepod(a)
        .unwrap()
        .status
        .bound_gpuid
        .clone()
        .unwrap();
    assert_eq!(eng.world.ks.pool().get(&gpu).unwrap().slice_of[&a], 0);
    assert_eq!(eng.world.ks.pool().get(&gpu).unwrap().slice_of[&b], 4);

    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    // Slice-scoped target: only the tenant at start 4 is displaced.
    let drained = eng
        .world
        .ks
        .drain_target(now, &format!("{gpu}#s4"), &mut out, &mut notes);
    assert_eq!(drained, 1);
    // Empty slice, malformed slot, unknown device: all no-ops.
    assert_eq!(
        eng.world
            .ks
            .drain_target(now, &format!("{gpu}#s5"), &mut out, &mut notes),
        0
    );
    assert_eq!(
        eng.world
            .ks
            .drain_target(now, &format!("{gpu}#sbad"), &mut out, &mut notes),
        0
    );
    assert_eq!(
        eng.world
            .ks
            .drain_target(now, "nope#s0", &mut out, &mut notes),
        0
    );
    for n in notes {
        eng.world.notices.push((now, n));
    }
    seed(&mut eng, out);
    eng.run_to_completion(60_000);

    // The co-tenant never stopped; the drained tenant re-ran and is
    // back on the only device that fits it.
    assert!(!eng
        .world
        .notices
        .iter()
        .any(|(_, n)| matches!(n, KsNotice::SharePodStopped { sp, .. } if *sp == a)));
    let sa = eng.world.ks.sharepod(a).unwrap();
    assert_eq!(sa.status.phase, SharePodPhase::Running);
    assert_eq!(sa.status.bound_gpuid.as_ref(), Some(&gpu));
    let sb = eng.world.ks.sharepod(b).unwrap();
    assert_eq!(sb.status.phase, SharePodPhase::Running);
    assert_eq!(eng.world.ks.pool().get(&gpu).unwrap().slice_of[&b], 4);
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter_value("ks_vgpu_slice_drains_total", &[]),
        Some(1)
    );
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn sharepods_queue_when_cluster_full() {
    let mut eng = engine(1, 1);
    let a = submit(&mut eng, "a", sp_spec(0.8, 1.0, 0.8));
    eng.run_to_completion(10_000);
    // b doesn't fit on a's vGPU (0.8+0.8 > 1) → new vGPU → anchor
    // unschedulable (no free GPU) → waits.
    let b = submit(&mut eng, "b", sp_spec(0.8, 1.0, 0.8));
    eng.run_to_completion(10_000);
    assert_eq!(
        eng.world.ks.sharepod(b).unwrap().status.phase,
        SharePodPhase::AwaitingVgpu
    );
    // Delete a → its vGPU releases → anchor for b's vGPU schedules.
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.delete_sharepod(now, a, &mut out, &mut notes);
    seed(&mut eng, out);
    eng.run_to_completion(20_000);
    assert_eq!(
        eng.world.ks.sharepod(b).unwrap().status.phase,
        SharePodPhase::Running
    );
}

#[test]
fn vgpu_released_during_anchor_backoff_is_forgotten() {
    use ks_chaos::{ChaosConfig, ChaosInjector};
    let mut eng = Engine::new(World {
        ks: KubeShareSystem::new(
            cluster_cfg(1, 1),
            KsConfig {
                anchor_max_retries: 10,
                ..KsConfig::default()
            },
        ),
        notices: Vec::new(),
    });
    let cfg = ChaosConfig {
        anchor_failure_rate: 1.0,
        ..ChaosConfig::disabled()
    };
    eng.world.ks.set_chaos(ChaosInjector::new(cfg, 1));
    let sp = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    // The decision at 90 ms creates the vGPU; its first anchor launch
    // fails, so at 200 ms it backs off with no anchor pod alive.
    let at = SimTime::from_millis(200);
    eng.run_until(at);
    let s = eng.world.ks.sharepod(sp).unwrap();
    assert_eq!(s.status.phase, SharePodPhase::AwaitingVgpu);
    let gpuid = s.status.bound_gpuid.clone().unwrap();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.delete_sharepod(at, sp, &mut out, &mut notes);
    for n in notes {
        eng.world.notices.push((at, n));
    }
    seed(&mut eng, out);
    eng.run_to_completion(50_000);
    assert_eq!(
        eng.world.ks.sharepod(sp).unwrap().status.phase,
        SharePodPhase::Terminated
    );
    assert!(
        eng.world.ks.pool().is_empty(),
        "released vGPU leaked: {:?}",
        eng.world.ks.pool().get(&gpuid)
    );
    assert!(eng
        .world
        .notices
        .iter()
        .any(|(_, n)| matches!(n, KsNotice::VgpuReleased { gpuid: g } if *g == gpuid)));
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn drain_vgpu_requeues_an_awaiting_tenant_once() {
    let mut eng = engine(1, 1);
    let telemetry = ks_telemetry::Telemetry::enabled();
    eng.world.ks.set_telemetry(telemetry.clone());
    submit(&mut eng, "a", sp_spec(0.8, 1.0, 0.8));
    eng.run_to_completion(10_000);
    // b needs a second vGPU whose anchor cannot schedule: b is both
    // attached to the Creating vGPU and parked in its waiters.
    let b = submit(&mut eng, "b", sp_spec(0.8, 1.0, 0.8));
    eng.run_to_completion(10_000);
    let s = eng.world.ks.sharepod(b).unwrap();
    assert_eq!(s.status.phase, SharePodPhase::AwaitingVgpu);
    let gpuid = s.status.bound_gpuid.clone().unwrap();

    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    let displaced = eng.world.ks.drain_vgpu(now, &gpuid, &mut out, &mut notes);
    assert_eq!(displaced, 1);
    let decides = out
        .iter()
        .filter(|(_, e)| *e == KsEvent::SchedDecide { sp: b })
        .count();
    assert_eq!(decides, 1);
    let requeued = notes
        .iter()
        .filter(|n| matches!(n, KsNotice::SharePodRequeued { sp, .. } if *sp == b))
        .count();
    assert_eq!(requeued, 1);
    assert_eq!(
        telemetry
            .snapshot()
            .counter_value("ks_sched_requeues_total", &[]),
        Some(1)
    );
    seed(&mut eng, out);
    eng.run_to_completion(20_000);
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn node_failure_mid_anchor_start_relaunches_the_anchor() {
    let mut eng = engine(2, 1);
    let sp = submit(&mut eng, "a", sp_spec(0.5, 1.0, 0.5));
    // Step until the anchor is bound to a node but not yet running.
    let node = loop {
        assert!(eng.step(), "anchor never scheduled");
        let scheduled = eng.world.ks.cluster.pods().iter().find_map(|(_, p)| {
            (p.meta.name.starts_with("anchor-")
                && p.status.phase == ks_cluster::PodPhase::Scheduled)
                .then(|| p.status.node_name.clone().unwrap())
        });
        if let Some(node) = scheduled {
            break node;
        }
    };
    let now = eng.now();
    let mut out = Vec::new();
    let mut notes = Vec::new();
    eng.world.ks.fail_node(now, &node, &mut out, &mut notes);
    seed(&mut eng, out);
    eng.run_to_completion(50_000);
    // The vGPU had no node yet, so it survives the failure; its dead
    // anchor counts as a failed launch and is relaunched elsewhere.
    let s = eng.world.ks.sharepod(sp).unwrap();
    assert_eq!(s.status.phase, SharePodPhase::Running);
    let gpuid = s.status.bound_gpuid.clone().unwrap();
    let dev = eng.world.ks.pool().get(&gpuid).unwrap();
    assert_ne!(dev.node.as_deref(), Some(node.as_str()));
    eng.world.ks.check_invariants().unwrap();
}

#[test]
fn rebound_sharepod_gets_one_backing_pod() {
    let mut eng = engine(1, 1);
    submit(&mut eng, "a", sp_spec(0.4, 1.0, 0.4));
    eng.run_to_completion(20_000);
    // b binds to a's ready vGPU at 90 ms and its pod is ordered for
    // 280 ms; evicting and re-binding it at 190 ms orders a new one.
    let t0 = eng.now();
    let b = submit(&mut eng, "b", sp_spec(0.3, 1.0, 0.3));
    let at = t0 + SimDuration::from_millis(190);
    eng.run_until(at);
    assert_eq!(
        eng.world.ks.sharepod(b).unwrap().status.phase,
        SharePodPhase::Starting
    );
    let mut out = Vec::new();
    let mut notes = Vec::new();
    assert!(eng.world.ks.preempt_sharepod(at, b, &mut out, &mut notes));
    eng.world.ks.drain_pending(at, &mut out, &mut notes);
    seed(&mut eng, out);
    eng.run_to_completion(20_000);
    let s = eng.world.ks.sharepod(b).unwrap();
    assert_eq!(s.status.phase, SharePodPhase::Running);
    let pods: Vec<Uid> = eng
        .world
        .ks
        .cluster
        .pods()
        .iter()
        .filter(|(_, p)| p.meta.name == "b-pod")
        .map(|(uid, _)| uid)
        .collect();
    assert_eq!(pods, vec![s.status.pod_uid.unwrap()], "one pod for b");
}
