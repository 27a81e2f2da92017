//! A higher-level controller over sharePods: `SharePodReplicaSet`.
//!
//! Paper §4.6 (fourth compatibility claim): "our KubeShare controllers
//! basically act like a wrapper over Kubelet to launch pods with shared
//! GPU. Therefore, any higher level controllers (e.g., replication
//! controller, deployment controller) can seamlessly integrate or adapt to
//! our solution by requesting a sharePod instead of the native pod."
//!
//! This module proves the claim: a replication controller in the standard
//! Kubernetes style (desired replica count + template, reconciled on the
//! system's [`KsNotice`]s) that manages *sharePods* through exactly the
//! public KubeShare API — no special hooks.

use std::collections::HashMap;

use ks_cluster::api::Uid;
use ks_sim_core::time::SimTime;

use crate::sharepod::SharePodSpec;
use crate::system::{KsEmit, KsNotice, KubeShareSystem};

/// Desired state of one replica set.
#[derive(Debug, Clone)]
pub struct ReplicaSetSpec {
    /// Base name; replicas are `<name>-<n>`.
    pub name: String,
    /// Desired number of running sharePods.
    pub replicas: u32,
    /// Template stamped out for every replica.
    pub template: SharePodSpec,
}

/// Identifies a replica set managed by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaSetId(pub u64);

#[derive(Debug)]
struct SetState {
    spec: ReplicaSetSpec,
    /// Live replicas (submitted and not yet observed terminated).
    members: Vec<Uid>,
    /// Monotone counter for replica names (never reused).
    spawned: u64,
}

/// The replication controller. Drive it by (1) creating sets, (2) feeding
/// every [`KsNotice`] the system emits into [`ReplicaSetController::observe`].
#[derive(Debug, Default)]
pub struct ReplicaSetController {
    sets: HashMap<ReplicaSetId, SetState>,
    /// sharePod → owning set (the ownerReference).
    owner: HashMap<Uid, ReplicaSetId>,
    next_id: u64,
}

impl ReplicaSetController {
    /// Creates an empty controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a replica set and submits its initial replicas.
    pub fn create(
        &mut self,
        now: SimTime,
        spec: ReplicaSetSpec,
        system: &mut KubeShareSystem,
        out: &mut KsEmit,
    ) -> ReplicaSetId {
        self.next_id += 1;
        let id = ReplicaSetId(self.next_id);
        self.sets.insert(
            id,
            SetState {
                spec,
                members: Vec::new(),
                spawned: 0,
            },
        );
        self.reconcile(now, id, system, out);
        id
    }

    /// Changes the desired replica count (scale up or down).
    pub fn scale(
        &mut self,
        now: SimTime,
        id: ReplicaSetId,
        replicas: u32,
        system: &mut KubeShareSystem,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let set = self.sets.get_mut(&id).expect("replica set exists");
        set.spec.replicas = replicas;
        // Scale down: delete surplus members (newest first).
        while set.members.len() as u32 > replicas {
            let victim = set.members.pop().expect("non-empty");
            self.owner.remove(&victim);
            system.delete_sharepod(now, victim, out, notices);
        }
        self.reconcile(now, id, system, out);
    }

    /// Current live member count of a set.
    pub fn live_replicas(&self, id: ReplicaSetId) -> usize {
        self.sets.get(&id).map_or(0, |s| s.members.len())
    }

    /// Feeds one system notice into the control loop; replacements are
    /// submitted when members terminate or get rejected.
    pub fn observe(
        &mut self,
        now: SimTime,
        notice: &KsNotice,
        system: &mut KubeShareSystem,
        out: &mut KsEmit,
    ) {
        let departed = match notice {
            KsNotice::SharePodStopped { sp, .. } => Some(*sp),
            KsNotice::SharePodRejected { sp, .. } => Some(*sp),
            _ => None,
        };
        let Some(sp) = departed else { return };
        let Some(id) = self.owner.remove(&sp) else {
            return; // not ours
        };
        if let Some(set) = self.sets.get_mut(&id) {
            set.members.retain(|&m| m != sp);
        }
        self.reconcile(now, id, system, out);
    }

    /// Brings a set up to its desired count.
    fn reconcile(
        &mut self,
        now: SimTime,
        id: ReplicaSetId,
        system: &mut KubeShareSystem,
        out: &mut KsEmit,
    ) {
        let set = self.sets.get_mut(&id).expect("replica set exists");
        while (set.members.len() as u32) < set.spec.replicas {
            set.spawned += 1;
            let name = format!("{}-{}", set.spec.name, set.spawned);
            let sp = system.submit_sharepod(now, name, set.spec.template.clone(), out);
            set.members.push(sp);
            self.owner.insert(sp, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_cluster::api::pod::PodSpec;
    use ks_cluster::api::{NodeConfig, ResourceList};
    use ks_cluster::device_plugin::UnitAssignPolicy;
    use ks_cluster::latency::LatencyModel;
    use ks_cluster::scheduler::ScorePolicy;
    use ks_cluster::sim::{ClusterConfig, GpuPluginKind};
    use ks_sim_core::prelude::*;
    use ks_vgpu::ShareSpec;

    use crate::sharepod::SharePodPhase;
    use crate::system::{KsConfig, KsEvent};

    struct World {
        ks: KubeShareSystem,
        rc: ReplicaSetController,
    }

    struct Ev(KsEvent);

    impl SimEvent<World> for Ev {
        fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
            let mut out = Vec::new();
            let mut notes = Vec::new();
            w.ks.handle(now, self.0, &mut out, &mut notes);
            for n in &notes {
                w.rc.observe(now, n, &mut w.ks, &mut out);
            }
            for (at, e) in out {
                q.schedule_at(at, Ev(e));
            }
        }
    }

    fn engine() -> Engine<World, Ev> {
        let cluster = ClusterConfig {
            nodes: vec![NodeConfig {
                name: "n0".into(),
                cpu_millis: 36_000,
                memory_bytes: 64 << 30,
                gpus: 2,
                gpu_memory_bytes: 16 << 30,
            }],
            latency: LatencyModel::default(),
            gpu_plugin: GpuPluginKind::WholeDevice,
            assign_policy: UnitAssignPolicy::Sequential,
            score: ScorePolicy::LeastAllocated,
        };
        Engine::new(World {
            ks: KubeShareSystem::new(cluster, KsConfig::default()),
            rc: ReplicaSetController::new(),
        })
    }

    fn template() -> SharePodSpec {
        SharePodSpec::new(
            PodSpec::new("serving:latest", ResourceList::cpu_mem(500, 1 << 30)),
            ShareSpec::new(0.25, 0.5, 0.25).unwrap(),
        )
    }

    fn running_members(w: &World, id: ReplicaSetId) -> usize {
        w.ks.sharepods()
            .iter()
            .filter(|(_, sp)| sp.status.phase == SharePodPhase::Running)
            .count()
            .min(w.rc.live_replicas(id))
    }

    #[test]
    fn replicas_come_up_and_share_gpus() {
        let mut eng = engine();
        let mut out = Vec::new();
        let id = eng.world.rc.create(
            SimTime::ZERO,
            ReplicaSetSpec {
                name: "serve".into(),
                replicas: 4,
                template: template(),
            },
            &mut eng.world.ks,
            &mut out,
        );
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(100_000);
        assert_eq!(eng.world.rc.live_replicas(id), 4);
        assert_eq!(running_members(&eng.world, id), 4);
        // Four quarter-GPU replicas fit on a single physical GPU.
        assert_eq!(eng.world.ks.pool().len(), 1);
    }

    #[test]
    fn terminated_replica_is_replaced() {
        let mut eng = engine();
        let mut out = Vec::new();
        let id = eng.world.rc.create(
            SimTime::ZERO,
            ReplicaSetSpec {
                name: "serve".into(),
                replicas: 2,
                template: template(),
            },
            &mut eng.world.ks,
            &mut out,
        );
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(100_000);
        // Kill one member (e.g. node drain / crash): the control loop
        // must spawn a replacement.
        let victim = eng
            .world
            .ks
            .sharepods()
            .iter()
            .map(|(u, _)| u)
            .next()
            .unwrap();
        let now = eng.now();
        let mut out = Vec::new();
        let mut notes = Vec::new();
        eng.world
            .ks
            .delete_sharepod(now, victim, &mut out, &mut notes);
        for n in &notes {
            eng.world.rc.observe(now, n, &mut eng.world.ks, &mut out);
        }
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(100_000);
        assert_eq!(eng.world.rc.live_replicas(id), 2, "replacement spawned");
        // Three sharePods total existed over time (2 + 1 replacement).
        assert_eq!(eng.world.ks.sharepods().iter().count(), 3);
    }

    #[test]
    fn scale_up_and_down() {
        let mut eng = engine();
        let mut out = Vec::new();
        let id = eng.world.rc.create(
            SimTime::ZERO,
            ReplicaSetSpec {
                name: "serve".into(),
                replicas: 1,
                template: template(),
            },
            &mut eng.world.ks,
            &mut out,
        );
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(100_000);
        assert_eq!(eng.world.rc.live_replicas(id), 1);

        let now = eng.now();
        let mut out = Vec::new();
        let mut notes = Vec::new();
        eng.world
            .rc
            .scale(now, id, 3, &mut eng.world.ks, &mut out, &mut notes);
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(100_000);
        assert_eq!(eng.world.rc.live_replicas(id), 3);

        let now = eng.now();
        let mut out = Vec::new();
        let mut notes = Vec::new();
        eng.world
            .rc
            .scale(now, id, 1, &mut eng.world.ks, &mut out, &mut notes);
        for n in &notes {
            eng.world.rc.observe(now, n, &mut eng.world.ks, &mut out);
        }
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
        eng.run_to_completion(100_000);
        assert_eq!(eng.world.rc.live_replicas(id), 1);
    }
}
