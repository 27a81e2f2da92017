//! The simulated cluster control plane, driven by discrete events.
//!
//! [`ClusterSim`] wires together the API object store, kube-scheduler,
//! per-node kubelets and device managers, and a latency model. It follows
//! the same passive-state-machine pattern as `ks-vgpu`: calls and event
//! handlers append `(fire_at, ClusterEvent)` pairs to an output vector and
//! surface lifecycle transitions as [`ClusterNotice`]s, so any embedding
//! world (native experiments, KubeShare, baselines) can route them.

use std::collections::HashMap;

use ks_sim_core::time::SimTime;
use ks_telemetry::provenance::{DecisionKind, Outcome, ReasonCode, SchedProv};
use ks_telemetry::{FlightRecorder, Telemetry, TraceCtx};

use crate::api::meta::{Uid, UidAllocator};
use crate::api::node::NodeConfig;
use crate::api::pod::{Pod, PodPhase, PodSpec};
use crate::api::resources::ResourceList;
use crate::api::ObjectMeta;
use crate::device_plugin::{DeviceManager, FractionalGpuPlugin, NvidiaGpuPlugin, UnitAssignPolicy};
use crate::latency::LatencyModel;
use crate::scheduler::{KubeScheduler, NodeView, OrdF64, SchedMode, ScorePolicy, SpatialSlices};
use crate::store::Store;

/// Which GPU device plugin every node runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuPluginKind {
    /// Standard NVIDIA plugin: 1 unit per GPU, exclusive allocation.
    WholeDevice,
    /// Scaling-factor plugin: `scaling` units per GPU under `resource`.
    Fractional {
        /// Units per physical GPU.
        scaling: u32,
        /// Extended resource name.
        resource: String,
    },
    /// No GPU plugin (CPU-only cluster).
    None,
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker nodes.
    pub nodes: Vec<NodeConfig>,
    /// Control-plane latency constants.
    pub latency: LatencyModel,
    /// GPU plugin installed on every node.
    pub gpu_plugin: GpuPluginKind,
    /// Kubelet unit-assignment policy (the implicit binding).
    pub assign_policy: UnitAssignPolicy,
    /// kube-scheduler scoring policy.
    pub score: ScorePolicy,
}

impl ClusterConfig {
    /// The paper's testbed with the native NVIDIA plugin.
    pub fn paper_native() -> Self {
        ClusterConfig {
            nodes: crate::api::node::paper_testbed(),
            latency: LatencyModel::default(),
            gpu_plugin: GpuPluginKind::WholeDevice,
            assign_policy: UnitAssignPolicy::Sequential,
            score: ScorePolicy::LeastAllocated,
        }
    }
}

/// Events routed back into [`ClusterSim::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// kube-scheduler attempts to place the pod.
    ScheduleAttempt {
        /// Pod to place.
        pod: Uid,
    },
    /// The binding reached the kubelet; admission + device allocation.
    BindArrived {
        /// Bound pod.
        pod: Uid,
    },
    /// The container runtime finished starting the container.
    ContainerStarted {
        /// Pod whose container started.
        pod: Uid,
    },
    /// The container stopped and its resources are released.
    PodStopped {
        /// Stopping pod.
        pod: Uid,
    },
}

/// Lifecycle transitions surfaced to the embedding world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterNotice {
    /// Pod entered `Running`; read its injected env from the store.
    PodRunning {
        /// The pod.
        pod: Uid,
    },
    /// No node currently fits; pod queued and retried on releases.
    PodUnschedulable {
        /// The pod.
        pod: Uid,
    },
    /// Admission failed (e.g. device allocation race).
    PodFailed {
        /// The pod.
        pod: Uid,
        /// Failure reason.
        reason: String,
    },
    /// Pod fully terminated; resources are back.
    PodDeleted {
        /// The pod.
        pod: Uid,
    },
}

/// Scheduled cluster events: `(fire_at, event)`.
pub type ClusterEmit = Vec<(SimTime, ClusterEvent)>;

#[derive(Debug)]
struct NodeState {
    /// The node's one capacity record, scored and fitted in place.
    cap: NodeView,
    device_mgr: Option<DeviceManager>,
    /// Containers currently in the create phase (concurrency penalty).
    starting: u32,
    /// Whether the kubelet is reachable. Down nodes take no placements and
    /// their pods are failed by [`ClusterSim::fail_node`].
    up: bool,
    /// Administratively unschedulable ([`ClusterSim::cordon_node`]).
    /// Cordoned nodes keep their running pods but take no new placements
    /// and contribute nothing to cluster-wide free capacity.
    cordoned: bool,
    /// The score key this node is currently filed under in the rank index
    /// (`None` while down). Stored so removal never recomputes — the index
    /// stays correct regardless of mutation order.
    score_key: Option<OrdF64>,
}

impl NodeState {
    /// Up and not cordoned: the node takes placements.
    fn schedulable(&self) -> bool {
        self.up && !self.cordoned
    }
}

/// The simulated control plane. See module docs.
#[derive(Debug)]
pub struct ClusterSim {
    latency: LatencyModel,
    scheduler: KubeScheduler,
    pods: Store<Pod>,
    uids: UidAllocator,
    nodes: Vec<NodeState>,
    /// Pods that found no node; retried whenever capacity frees.
    unschedulable: Vec<Uid>,
    telemetry: Telemetry,
    /// Flight recorder for node-rank decision provenance (disabled by
    /// default; [`ClusterSim::set_recorder`]).
    recorder: FlightRecorder,
    /// Causal trace contexts for pods created on behalf of a traced
    /// operation (KubeShare anchors and backing pods).
    pod_trace: HashMap<Uid, TraceCtx>,
    /// Which node-selection implementation `on_schedule` runs.
    sched_mode: SchedMode,
    /// Up nodes keyed by current scheduler score; iterated descending
    /// (score, then ascending node index) this reproduces
    /// [`KubeScheduler::pick_node`]'s argmax with its first-node
    /// tie-break as an ordered scan.
    node_rank: std::collections::BTreeSet<(OrdF64, std::cmp::Reverse<usize>)>,
    /// Node index by name. The node set is fixed at construction, so this
    /// never changes; it replaces the per-pod linear name scans that made
    /// pinned-pod placement O(nodes).
    name_ix: HashMap<String, usize>,
    /// Sum of free resources across *up* nodes, maintained through the
    /// same unindex→mutate→index discipline as the rank index, so
    /// cluster-wide capacity checks are O(1) instead of a node sweep.
    free_total: ResourceList,
}

impl ClusterSim {
    /// Builds a cluster: nodes boot and device plugins register.
    pub fn new(cfg: ClusterConfig) -> Self {
        let nodes = cfg
            .nodes
            .iter()
            .map(|nc| {
                let device_mgr = match &cfg.gpu_plugin {
                    GpuPluginKind::WholeDevice => Some(DeviceManager::register(
                        Box::new(NvidiaGpuPlugin::new(nc.gpu_uuids())),
                        cfg.assign_policy,
                    )),
                    GpuPluginKind::Fractional { scaling, resource } => {
                        Some(DeviceManager::register(
                            Box::new(FractionalGpuPlugin::new(
                                nc.gpu_uuids(),
                                *scaling,
                                resource.clone(),
                            )),
                            cfg.assign_policy,
                        ))
                    }
                    GpuPluginKind::None => None,
                };
                let mut allocatable = nc.base_allocatable();
                if let Some(dm) = &device_mgr {
                    // kubelet advertises the aggregate unit count.
                    allocatable = allocatable.with_extended(dm.resource_name(), dm.free_count());
                }
                NodeState {
                    cap: NodeView {
                        name: nc.name.clone(),
                        free: allocatable.clone(),
                        allocatable,
                        // Advertised by the control plane through
                        // `set_spatial_slices`; `None` scores exactly as
                        // before the partition subsystem existed.
                        spatial: None,
                    },
                    device_mgr,
                    starting: 0,
                    up: true,
                    cordoned: false,
                    score_key: None,
                }
            })
            .collect();
        let mut sim = ClusterSim {
            latency: cfg.latency,
            scheduler: KubeScheduler::new(cfg.score),
            pods: Store::new(),
            uids: UidAllocator::new(),
            nodes,
            unschedulable: Vec::new(),
            telemetry: Telemetry::disabled(),
            recorder: FlightRecorder::disabled(),
            pod_trace: HashMap::new(),
            sched_mode: SchedMode::default(),
            node_rank: std::collections::BTreeSet::new(),
            name_ix: HashMap::new(),
            free_total: ResourceList::zero(),
        };
        sim.name_ix = sim
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.cap.name.clone(), i))
            .collect();
        for i in 0..sim.nodes.len() {
            sim.rank_index(i);
        }
        sim
    }

    /// Index of a node by name (O(1); the node set is construction-fixed).
    fn node_idx(&self, name: &str) -> Option<usize> {
        self.name_ix.get(name).copied()
    }

    /// Selects the node-selection implementation (default:
    /// [`SchedMode::Indexed`]). Both modes place identically.
    pub fn set_sched_mode(&mut self, mode: SchedMode) {
        self.sched_mode = mode;
    }

    /// Advertises (or updates) a node's spatial slice capacity: the
    /// control plane mirrors its partition tables here so node scoring
    /// sees slice occupancy as one more capacity axis. `total == 0`
    /// withdraws the advertisement. Returns `false` for unknown nodes.
    /// The node is re-filed in the rank index under its new score, so both
    /// node-selection modes keep placing identically.
    pub fn set_spatial_slices(&mut self, node: &str, free_slots: u64, total_slots: u64) -> bool {
        let Some(idx) = self.node_idx(node) else {
            return false;
        };
        let spatial = (total_slots > 0).then_some(SpatialSlices {
            free_slots: free_slots.min(total_slots),
            total_slots,
        });
        if self.nodes[idx].cap.spatial != spatial {
            self.update_cap(idx, |cap| cap.spatial = spatial);
        }
        true
    }

    /// Files a schedulable node in the rank index under its current score
    /// and adds its free capacity, in place, to the cluster-wide total.
    fn rank_index(&mut self, idx: usize) {
        let n = &mut self.nodes[idx];
        debug_assert!(n.score_key.is_none(), "node already ranked");
        if !n.schedulable() {
            return;
        }
        let key = OrdF64::of(self.scheduler.node_score(&n.cap));
        self.free_total += &n.cap.free;
        self.node_rank.insert((key, std::cmp::Reverse(idx)));
        n.score_key = Some(key);
    }

    /// Unfiles a node from the rank index (no-op if it was not ranked),
    /// taking its free capacity, in place, out of the cluster-wide total.
    fn rank_unindex(&mut self, idx: usize) {
        let n = &mut self.nodes[idx];
        if let Some(key) = n.score_key.take() {
            self.node_rank.remove(&(key, std::cmp::Reverse(idx)));
            self.free_total -= &n.cap.free;
        }
    }

    /// Changes a node's capacity record in place between unranking and
    /// re-ranking it, so the rank index and the cluster-wide free total
    /// move with it. Every charge and release of pod requests, and every
    /// spatial-slice update, goes through here.
    fn update_cap(&mut self, idx: usize, update: impl FnOnce(&mut NodeView)) {
        self.rank_unindex(idx);
        update(&mut self.nodes[idx].cap);
        self.rank_index(idx);
    }

    /// Capacity was freed or restored: every unschedulable pod gets
    /// another scheduling attempt, in queue order.
    fn retry_unschedulable(&mut self, now: SimTime, out: &mut ClusterEmit) {
        let at = now + self.latency.schedule;
        out.extend(
            self.unschedulable
                .drain(..)
                .map(|pod| (at, ClusterEvent::ScheduleAttempt { pod })),
        );
    }

    /// Schedulable nodes with their index into `self.nodes`, in node order.
    fn schedulable_nodes(&self) -> impl Iterator<Item = (usize, &NodeView)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.schedulable())
            .map(|(i, n)| (i, &n.cap))
    }

    /// Ordered-scan equivalent of [`KubeScheduler::pick_node`]: walk up
    /// nodes by descending score (ascending index within a score) and
    /// take the first one the request fits on.
    fn pick_node_indexed(&self, requests: &ResourceList) -> Option<usize> {
        self.node_rank
            .iter()
            .rev()
            .map(|&(_, std::cmp::Reverse(idx))| idx)
            .find(|&idx| requests.fits_in(&self.nodes[idx].cap.free))
    }

    /// Cross-checks the node rank index and the cluster-wide free total
    /// against a from-scratch rebuild, and each node's free capacity
    /// against its source of truth, the pod store: allocatable minus the
    /// requests of its `Scheduled` and `Running` pods, none on a down node.
    pub fn verify_node_rank(&self) -> Result<(), String> {
        let mut fresh = std::collections::BTreeSet::new();
        let mut fresh_free = ResourceList::zero();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.schedulable() {
                if n.score_key.is_some() {
                    return Err(format!("down/cordoned node {i} still has a score key"));
                }
                continue;
            }
            let score = self.scheduler.node_score(&n.cap);
            let key = OrdF64::of(score);
            if n.score_key != Some(key) {
                return Err(format!(
                    "node {i} filed under {:?}, current score is {score}",
                    n.score_key
                ));
            }
            fresh.insert((key, std::cmp::Reverse(i)));
            fresh_free += &n.cap.free;
        }
        if fresh != self.node_rank {
            return Err(format!(
                "rank index drifted: incremental {:?} != rebuilt {:?}",
                self.node_rank, fresh
            ));
        }
        if !fresh_free.same_counts(&self.free_total) {
            return Err(format!(
                "free total drifted: incremental {:?} != rebuilt {fresh_free:?}",
                self.free_total
            ));
        }
        let mut charged = vec![ResourceList::zero(); self.nodes.len()];
        for (uid, p) in self.pods.iter() {
            if matches!(p.status.phase, PodPhase::Scheduled | PodPhase::Running) {
                let idx = p.status.node_name.as_deref().and_then(|n| self.node_idx(n));
                let idx = idx.ok_or_else(|| format!("pod {uid} is bound to no known node"))?;
                charged[idx] += &p.spec.requests;
            }
        }
        for (n, mut charged) in self.nodes.iter().zip(charged) {
            if !n.up && !charged.is_zero() {
                return Err(format!(
                    "down node {} still charged {charged:?}",
                    n.cap.name
                ));
            }
            charged += &n.cap.free;
            if !charged.same_counts(&n.cap.allocatable) {
                return Err(format!(
                    "node {}: free {:?} plus its pods' requests is not allocatable {:?}",
                    n.cap.name, n.cap.free, n.cap.allocatable
                ));
            }
        }
        Ok(())
    }

    /// Attaches a telemetry handle; also instruments the pod store.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.pods.instrument(telemetry.clone(), "pods");
        self.telemetry = telemetry;
    }

    /// Attaches a flight recorder: every node-selection decision taken by
    /// `on_schedule` is captured as a [`DecisionKind::NodeRank`] record
    /// keyed by the pod uid. Provenance is computed read-only *after* the
    /// decision, so attaching a recorder never changes placements.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = recorder;
    }

    /// The attached flight recorder (disabled by default).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Attaches a causal trace context to a pod: its lifecycle events join
    /// that trace (used by KubeShare for anchor and backing pods). The
    /// association is dropped when the pod's `deleted` transition fires.
    pub fn set_pod_trace(&mut self, pod: Uid, ctx: TraceCtx) {
        if !ctx.is_none() {
            self.pod_trace.insert(pod, ctx);
        }
    }

    /// The trace context attached to a pod ([`TraceCtx::NONE`] if untraced).
    pub fn pod_trace(&self, pod: Uid) -> TraceCtx {
        self.pod_trace.get(&pod).copied().unwrap_or(TraceCtx::NONE)
    }

    /// Counts one pod lifecycle transition and mirrors the unschedulable
    /// queue depth, which changes on most transitions.
    fn note_phase(&mut self, now: SimTime, uid: Uid, phase: &'static str) {
        if phase == "deleted" {
            // Take (not just read) so the map cannot grow unboundedly.
            let ctx = self.pod_trace.remove(&uid).unwrap_or(TraceCtx::NONE);
            self.note_phase_ctx(now, uid, phase, ctx);
            return;
        }
        let ctx = self.pod_trace.get(&uid).copied().unwrap_or(TraceCtx::NONE);
        self.note_phase_ctx(now, uid, phase, ctx);
    }

    fn note_phase_ctx(&self, now: SimTime, uid: Uid, phase: &'static str, ctx: TraceCtx) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter("ks_cluster_pod_lifecycle_total", &[("phase", phase)])
            .inc();
        self.telemetry
            .gauge("ks_cluster_unschedulable_pods", &[])
            .set(self.unschedulable.len() as f64);
        self.telemetry.trace_event_in(
            now,
            ctx,
            "cluster",
            "pod_phase",
            &[("pod", &uid.to_string()), ("phase", phase)],
        );
    }

    /// Latency model in force.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Read access to a pod.
    pub fn pod(&self, uid: Uid) -> Option<&Pod> {
        self.pods.get(uid)
    }

    /// The pod store: every pod's current state, and the store revision.
    pub fn pods(&self) -> &Store<Pod> {
        &self.pods
    }

    /// Node names in order.
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.cap.name.clone()).collect()
    }

    /// Sum of free resources across up nodes, maintained incrementally —
    /// O(1), safe to consult on every scheduling decision.
    pub fn free_total(&self) -> &ResourceList {
        &self.free_total
    }

    /// Free resources on a node.
    pub fn node_free(&self, name: &str) -> Option<ResourceList> {
        self.node_idx(name).map(|i| self.nodes[i].cap.free.clone())
    }

    /// Per-device allocated unit counts on a node (over-commit analysis).
    pub fn node_allocation_by_device(
        &self,
        name: &str,
    ) -> Option<std::collections::BTreeMap<String, u64>> {
        self.node_idx(name)
            .and_then(|i| self.nodes[i].device_mgr.as_ref())
            .map(|dm| dm.allocation_by_device())
    }

    /// Physical devices backing a pod's allocation.
    pub fn pod_devices(&self, uid: Uid) -> Vec<String> {
        let Some(pod) = self.pods.get(uid) else {
            return Vec::new();
        };
        let Some(node_name) = &pod.status.node_name else {
            return Vec::new();
        };
        self.node_idx(node_name)
            .and_then(|i| self.nodes[i].device_mgr.as_ref())
            .map(|dm| dm.devices_of_pod(uid))
            .unwrap_or_default()
    }

    /// Creates a pod. The API commit and the scheduler pass are charged
    /// before the first [`ClusterEvent::ScheduleAttempt`] fires.
    pub fn submit_pod(
        &mut self,
        now: SimTime,
        name: impl Into<String>,
        spec: PodSpec,
        out: &mut ClusterEmit,
    ) -> Uid {
        let uid = self.uids.next();
        let meta = ObjectMeta::new(name, uid, now);
        self.pods.create(uid, Pod::new(meta, spec));
        out.push((
            now + self.latency.api_commit + self.latency.schedule,
            ClusterEvent::ScheduleAttempt { pod: uid },
        ));
        uid
    }

    /// Deletes a pod (user `kubectl delete`). Running pods stop after the
    /// container-stop latency; queued/pending pods disappear immediately.
    pub fn delete_pod(
        &mut self,
        now: SimTime,
        uid: Uid,
        out: &mut ClusterEmit,
        notices: &mut Vec<ClusterNotice>,
    ) {
        let Some(pod) = self.pods.get(uid) else {
            return;
        };
        match pod.status.phase {
            PodPhase::Pending | PodPhase::Failed => {
                self.unschedulable.retain(|&u| u != uid);
                self.pods.delete(uid);
                notices.push(ClusterNotice::PodDeleted { pod: uid });
                self.note_phase(now, uid, "deleted");
            }
            PodPhase::Scheduled | PodPhase::Running => {
                out.push((
                    now + self.latency.container_stop,
                    ClusterEvent::PodStopped { pod: uid },
                ));
            }
            PodPhase::Terminated => {}
        }
    }

    /// Marks a pod as failed (container crash), releasing its resources
    /// immediately. The pod ends `Failed` in the store, and a
    /// [`ClusterNotice::PodFailed`] tells controllers of the transition.
    pub fn crash_pod(
        &mut self,
        now: SimTime,
        uid: Uid,
        reason: impl Into<String>,
        out: &mut ClusterEmit,
        notices: &mut Vec<ClusterNotice>,
    ) {
        let Some(pod) = self.pods.get(uid) else {
            return;
        };
        if !matches!(pod.status.phase, PodPhase::Scheduled | PodPhase::Running) {
            return;
        }
        let requests = pod.spec.requests.clone();
        let node_name = pod.status.node_name.clone().expect("bound pod");
        let idx = self.node_idx(&node_name).expect("node exists");
        self.update_cap(idx, |cap| cap.free += &requests);
        if let Some(dm) = &mut self.nodes[idx].device_mgr {
            dm.deallocate(uid);
        }
        let reason = reason.into();
        self.pods.mutate(uid, |p| {
            p.status.phase = PodPhase::Failed;
            p.status.message = Some(reason.clone());
        });
        notices.push(ClusterNotice::PodFailed { pod: uid, reason });
        self.note_phase(now, uid, "failed");
        self.retry_unschedulable(now, out);
    }

    /// Whether a node is currently up. `None` for unknown nodes.
    pub fn node_up(&self, name: &str) -> Option<bool> {
        self.node_idx(name).map(|i| self.nodes[i].up)
    }

    /// Whether a node is cordoned. `None` for unknown nodes.
    pub fn node_cordoned(&self, name: &str) -> Option<bool> {
        self.node_idx(name).map(|i| self.nodes[i].cordoned)
    }

    /// Marks a node administratively unschedulable: running pods stay,
    /// but the node takes no new placements (pinned or scored) and its
    /// free capacity leaves the cluster-wide total until
    /// [`ClusterSim::uncordon_node`]. Idempotent: returns `false` for
    /// unknown or already-cordoned nodes.
    pub fn cordon_node(&mut self, name: &str) -> bool {
        let Some(idx) = self.node_idx(name) else {
            return false;
        };
        if self.nodes[idx].cordoned {
            return false;
        }
        // No-op while down (the crash already unranked it); the cordon
        // then simply outlives the recovery.
        self.rank_unindex(idx);
        self.nodes[idx].cordoned = true;
        true
    }

    /// Clears a cordon; if the node is up it rejoins the schedulable set
    /// and the unschedulable queue is retried against it. Idempotent:
    /// returns `false` for unknown or not-cordoned nodes.
    pub fn uncordon_node(&mut self, now: SimTime, name: &str, out: &mut ClusterEmit) -> bool {
        let Some(idx) = self.node_idx(name) else {
            return false;
        };
        if !self.nodes[idx].cordoned {
            return false;
        }
        self.nodes[idx].cordoned = false;
        if self.nodes[idx].up {
            self.rank_index(idx);
            self.retry_unschedulable(now, out);
        }
        true
    }

    /// Simulates a node crash: the kubelet stops responding, so every pod
    /// bound to the node fails immediately with its resources returned, and
    /// the node takes no further placements until
    /// [`ClusterSim::recover_node`]. Returns the failed pods in submission
    /// order; a [`ClusterNotice::PodFailed`] is emitted for each so
    /// embedding controllers can react.
    pub fn fail_node(
        &mut self,
        now: SimTime,
        name: &str,
        notices: &mut Vec<ClusterNotice>,
    ) -> Vec<Uid> {
        let Some(idx) = self.node_idx(name) else {
            return Vec::new();
        };
        if !self.nodes[idx].up {
            return Vec::new();
        }
        self.rank_unindex(idx);
        self.nodes[idx].up = false;
        self.nodes[idx].starting = 0;
        let mut victims: Vec<Uid> = self
            .pods
            .iter()
            .filter(|(_, p)| {
                p.status.node_name.as_deref() == Some(name)
                    && matches!(p.status.phase, PodPhase::Scheduled | PodPhase::Running)
            })
            .map(|(uid, _)| uid)
            .collect();
        victims.sort();
        for &uid in &victims {
            if let Some(dm) = &mut self.nodes[idx].device_mgr {
                dm.deallocate(uid);
            }
            self.pods.mutate(uid, |p| {
                p.status.phase = PodPhase::Failed;
                p.status.message = Some("node failure".into());
            });
            notices.push(ClusterNotice::PodFailed {
                pod: uid,
                reason: "node failure".into(),
            });
            self.note_phase(now, uid, "failed");
        }
        // Everything charged against the node is gone with the kubelet.
        let cap = &mut self.nodes[idx].cap;
        cap.free.clone_from(&cap.allocatable);
        victims
    }

    /// Brings a crashed node back with empty state and retries the
    /// unschedulable queue against the restored capacity. Returns `false`
    /// for unknown or already-up nodes.
    pub fn recover_node(&mut self, now: SimTime, name: &str, out: &mut ClusterEmit) -> bool {
        let Some(idx) = self.node_idx(name) else {
            return false;
        };
        if self.nodes[idx].up {
            return false;
        }
        self.nodes[idx].up = true;
        self.nodes[idx].starting = 0;
        self.rank_index(idx);
        self.retry_unschedulable(now, out);
        true
    }

    /// Routes a cluster event.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: ClusterEvent,
        out: &mut ClusterEmit,
        notices: &mut Vec<ClusterNotice>,
    ) {
        match ev {
            ClusterEvent::ScheduleAttempt { pod } => self.on_schedule(now, pod, out, notices),
            ClusterEvent::BindArrived { pod } => self.on_bind(now, pod, out, notices),
            ClusterEvent::ContainerStarted { pod } => self.on_started(now, pod, notices),
            ClusterEvent::PodStopped { pod } => self.on_stopped(now, pod, out, notices),
        }
    }

    fn on_schedule(
        &mut self,
        now: SimTime,
        uid: Uid,
        out: &mut ClusterEmit,
        notices: &mut Vec<ClusterNotice>,
    ) {
        let Some(pod) = self.pods.get(uid) else {
            return; // deleted while queued
        };
        if pod.status.phase != PodPhase::Pending {
            return;
        }
        let requests = pod.spec.requests.clone();
        let pinned = pod.spec.node_name.clone();

        let node_idx = match &pinned {
            // A down, cordoned or unknown node cannot take the pod; it
            // queues until the node can (or the owner re-schedules it
            // elsewhere).
            Some(name) => self.node_idx(name).filter(|&idx| {
                let n = &self.nodes[idx];
                n.schedulable() && requests.fits_in(&n.cap.free)
            }),
            None => match self.sched_mode {
                SchedMode::Reference => self
                    .scheduler
                    .pick_node(&requests, self.schedulable_nodes()),
                SchedMode::Indexed => self.pick_node_indexed(&requests),
            },
        };

        if self.recorder.is_enabled() {
            self.record_node_rank(now, uid, &requests, pinned.as_deref(), node_idx);
        }

        match node_idx {
            Some(idx) => {
                let node_name = self.nodes[idx].cap.name.clone();
                self.update_cap(idx, |cap| cap.free -= &requests);
                self.pods.mutate(uid, |p| {
                    p.status.phase = PodPhase::Scheduled;
                    p.status.node_name = Some(node_name);
                });
                out.push((
                    now + self.latency.bind,
                    ClusterEvent::BindArrived { pod: uid },
                ));
                self.note_phase(now, uid, "scheduled");
            }
            None => {
                if !self.unschedulable.contains(&uid) {
                    self.unschedulable.push(uid);
                }
                notices.push(ClusterNotice::PodUnschedulable { pod: uid });
                self.note_phase(now, uid, "unschedulable");
            }
        }
    }

    /// Captures one [`DecisionKind::NodeRank`] record for a node-selection
    /// decision: every up node as a scored candidate, the chosen node
    /// marked, unschedulable rendered as `Rejected(NoCapacity)`. Called
    /// strictly *after* the decision and *before* any state mutation, and
    /// only when a recorder is attached — it reads cluster state without
    /// touching it, so placements are bit-identical recorder on or off.
    fn record_node_rank(
        &self,
        now: SimTime,
        uid: Uid,
        requests: &ResourceList,
        pinned: Option<&str>,
        node_idx: Option<usize>,
    ) {
        let mut prov = SchedProv::on();
        match pinned {
            Some(name) => prov.note(|| format!("pod pinned to node {name}")),
            None => prov.note(|| {
                format!(
                    "ranked {} up node(s) under {:?}",
                    self.node_rank.len(),
                    self.sched_mode
                )
            }),
        }
        for (_, n) in self.schedulable_nodes() {
            let rule = if requests.fits_in(&n.free) {
                "node_score"
            } else {
                "node_unfit"
            };
            prov.candidate_with(rule, self.scheduler.node_score(n), || n.name.clone());
        }
        let outcome = match node_idx {
            Some(idx) => {
                let n = &self.nodes[idx].cap;
                let score = self.scheduler.node_score(n);
                let rule = if pinned.is_some() {
                    "pinned"
                } else {
                    "node_score"
                };
                prov.choose(&n.name, rule, score);
                Outcome::Placed {
                    target: n.name.as_str().into(),
                }
            }
            None => {
                prov.reject(ReasonCode::NoCapacity);
                prov.note(|| "no up node fits the request".to_string());
                Outcome::Rejected {
                    reason: ReasonCode::NoCapacity,
                }
            }
        };
        // Pod uids live in a different keyspace from sharePod uids, so the
        // record is keyed by the causal trace alone (`sp` = 0); the pod
        // identity rides in `fields`. For KubeShare anchor and backing
        // pods the trace is the owning sharePod's, which is exactly the
        // join `FlightRecorder::explain` uses to pull node-rank records
        // into a sharePod's decision chain.
        let trace = self.pod_trace(uid).trace;
        let mut rec = prov.into_record(now, 0, trace, DecisionKind::NodeRank, outcome);
        rec.fields.push(("pod".to_string(), uid.to_string()));
        self.recorder.record(rec);
    }

    fn on_bind(
        &mut self,
        now: SimTime,
        uid: Uid,
        out: &mut ClusterEmit,
        notices: &mut Vec<ClusterNotice>,
    ) {
        let Some(pod) = self.pods.get(uid) else {
            return;
        };
        if pod.status.phase != PodPhase::Scheduled {
            return; // deleted meanwhile
        }
        let node_name = pod
            .status
            .node_name
            .clone()
            .expect("scheduled pod has node");
        let requests = pod.spec.requests.clone();
        let idx = self.node_idx(&node_name).expect("node exists");

        // Device allocation (paper Fig. 2b): the kubelet asks the plugin
        // for concrete units and injects the returned env.
        let mut injected = pod.spec.env.clone();
        let mut units = Vec::new();
        if let Some(dm) = &mut self.nodes[idx].device_mgr {
            let count = requests.extended_count(dm.resource_name());
            if count > 0 {
                match dm.allocate(uid, count) {
                    Ok((u, resp)) => {
                        injected.extend(resp.env);
                        units = u;
                    }
                    Err(e) => {
                        // Cannot happen when scheduler accounting is
                        // consistent, but surface it instead of hiding it.
                        self.update_cap(idx, |cap| cap.free += &requests);
                        self.pods.mutate(uid, |p| {
                            p.status.phase = PodPhase::Failed;
                            p.status.message = Some(format!("device allocation failed: {e:?}"));
                        });
                        notices.push(ClusterNotice::PodFailed {
                            pod: uid,
                            reason: format!("{e:?}"),
                        });
                        self.note_phase(now, uid, "failed");
                        return;
                    }
                }
            }
        }
        self.pods.mutate(uid, |p| {
            p.status.injected_env = injected.clone();
            p.status.allocated_units = units.clone();
        });
        let ahead = self.nodes[idx].starting;
        self.nodes[idx].starting += 1;
        let delay = self.latency.container_create + self.latency.concurrency_penalty * ahead as u64;
        out.push((now + delay, ClusterEvent::ContainerStarted { pod: uid }));
    }

    fn on_started(&mut self, now: SimTime, uid: Uid, notices: &mut Vec<ClusterNotice>) {
        let Some(pod) = self.pods.get(uid) else {
            return;
        };
        let Some(node_name) = pod.status.node_name.clone() else {
            return;
        };
        let submitted = pod.meta.created_at;
        if let Some(i) = self.node_idx(&node_name) {
            self.nodes[i].starting = self.nodes[i].starting.saturating_sub(1);
        }
        if pod.status.phase != PodPhase::Scheduled {
            return; // deleted during start
        }
        self.pods
            .mutate(uid, |p| p.status.phase = PodPhase::Running);
        notices.push(ClusterNotice::PodRunning { pod: uid });
        if self.telemetry.is_enabled() {
            self.telemetry
                .histogram_seconds("ks_cluster_pod_start_seconds", &[])
                .observe(now.saturating_since(submitted).as_secs_f64());
        }
        self.note_phase(now, uid, "running");
    }

    fn on_stopped(
        &mut self,
        now: SimTime,
        uid: Uid,
        out: &mut ClusterEmit,
        notices: &mut Vec<ClusterNotice>,
    ) {
        let Some(pod) = self.pods.get(uid) else {
            return;
        };
        // Failed pods (container crash or node failure) already released
        // their resources; releasing again would underflow the accounting.
        if matches!(pod.status.phase, PodPhase::Terminated | PodPhase::Failed) {
            return;
        }
        let requests = pod.spec.requests.clone();
        if let Some(node_name) = pod.status.node_name.clone() {
            let idx = self.node_idx(&node_name).expect("node exists");
            self.update_cap(idx, |cap| cap.free += &requests);
            if let Some(dm) = &mut self.nodes[idx].device_mgr {
                dm.deallocate(uid);
            }
        }
        self.pods
            .mutate(uid, |p| p.status.phase = PodPhase::Terminated);
        notices.push(ClusterNotice::PodDeleted { pod: uid });
        self.note_phase(now, uid, "deleted");

        self.retry_unschedulable(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::resources::NVIDIA_GPU;
    use ks_sim_core::prelude::*;

    /// Minimal engine wrapper for driving a ClusterSim in tests.
    struct World {
        cluster: ClusterSim,
        notices: Vec<(SimTime, ClusterNotice)>,
    }

    struct Ev(ClusterEvent);

    impl SimEvent<World> for Ev {
        fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
            let mut out = Vec::new();
            let mut notes = Vec::new();
            w.cluster.handle(now, self.0, &mut out, &mut notes);
            for n in notes {
                w.notices.push((now, n));
            }
            for (at, e) in out {
                q.schedule_at(at, Ev(e));
            }
        }
    }

    fn engine(cfg: ClusterConfig) -> Engine<World, Ev> {
        Engine::new(World {
            cluster: ClusterSim::new(cfg),
            notices: Vec::new(),
        })
    }

    fn small_cluster(gpus: u32) -> ClusterConfig {
        ClusterConfig {
            nodes: vec![NodeConfig {
                name: "n0".into(),
                cpu_millis: 8_000,
                memory_bytes: 32 << 30,
                gpus,
                gpu_memory_bytes: 16 << 30,
            }],
            latency: LatencyModel::default(),
            gpu_plugin: GpuPluginKind::WholeDevice,
            assign_policy: UnitAssignPolicy::Sequential,
            score: ScorePolicy::LeastAllocated,
        }
    }

    fn gpu_pod_spec() -> PodSpec {
        PodSpec::new(
            "tf:latest",
            ResourceList::cpu_mem(1000, 1 << 30).with_extended(NVIDIA_GPU, 1),
        )
    }

    fn seed(eng: &mut Engine<World, Ev>, out: ClusterEmit) {
        for (at, e) in out {
            eng.queue.schedule_at(at, Ev(e));
        }
    }

    #[test]
    fn pod_reaches_running_with_device_env() {
        let mut eng = engine(small_cluster(1));
        let mut out = Vec::new();
        let uid = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "train-0", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        assert_eq!(eng.run_to_completion(1000), RunOutcome::Drained);
        let pod = eng.world.cluster.pod(uid).unwrap();
        assert_eq!(pod.status.phase, PodPhase::Running);
        assert!(pod.visible_devices().unwrap().starts_with("GPU-"));
        // Creation latency matches the model.
        let (t, n) = &eng.world.notices[0];
        assert!(matches!(n, ClusterNotice::PodRunning { .. }));
        let expected = eng.world.cluster.latency().base_creation();
        assert_eq!(t.saturating_since(SimTime::ZERO), expected);
    }

    #[test]
    fn second_gpu_pod_queues_until_first_deleted() {
        let mut eng = engine(small_cluster(1));
        let mut out = Vec::new();
        let a = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "a", gpu_pod_spec(), &mut out);
        let b = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "b", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(a).unwrap().status.phase,
            PodPhase::Running
        );
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Pending
        );
        assert!(eng
            .world
            .notices
            .iter()
            .any(|(_, n)| matches!(n, ClusterNotice::PodUnschedulable { pod } if *pod == b)));

        // Delete a → b schedules and runs.
        let now = eng.now();
        let mut out = Vec::new();
        let mut notes = Vec::new();
        eng.world.cluster.delete_pod(now, a, &mut out, &mut notes);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Running
        );
    }

    #[test]
    fn concurrent_starts_pay_penalty() {
        let mut eng = engine(small_cluster(4));
        let mut out = Vec::new();
        for i in 0..4 {
            eng.world
                .cluster
                .submit_pod(SimTime::ZERO, format!("p{i}"), gpu_pod_spec(), &mut out);
        }
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        let times: Vec<f64> = eng
            .world
            .notices
            .iter()
            .filter(|(_, n)| matches!(n, ClusterNotice::PodRunning { .. }))
            .map(|(t, _)| t.as_secs_f64())
            .collect();
        assert_eq!(times.len(), 4);
        // Later pods started strictly later due to the concurrency penalty.
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        let spread = times[3] - times[0];
        assert!(spread > 0.2, "penalty visible: {spread}");
    }

    #[test]
    fn pinned_pod_lands_on_named_node() {
        let mut cfg = small_cluster(1);
        cfg.nodes.push(NodeConfig {
            name: "n1".into(),
            cpu_millis: 8_000,
            memory_bytes: 32 << 30,
            gpus: 1,
            gpu_memory_bytes: 16 << 30,
        });
        let mut eng = engine(cfg);
        let mut spec = gpu_pod_spec();
        spec.node_name = Some("n1".into());
        let mut out = Vec::new();
        let uid = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "anchor", spec, &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world
                .cluster
                .pod(uid)
                .unwrap()
                .status
                .node_name
                .as_deref(),
            Some("n1")
        );
    }

    #[test]
    fn delete_pending_pod_is_immediate() {
        let mut eng = engine(small_cluster(1));
        let mut out = Vec::new();
        let a = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "a", gpu_pod_spec(), &mut out);
        let b = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "b", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        let now = eng.now();
        let mut out = Vec::new();
        let mut notes = Vec::new();
        eng.world.cluster.delete_pod(now, b, &mut out, &mut notes);
        assert!(matches!(
            notes.as_slice(),
            [ClusterNotice::PodDeleted { pod }] if *pod == b
        ));
        assert!(eng.world.cluster.pod(b).is_none());
        let _ = a;
    }

    #[test]
    fn fractional_plugin_shares_a_device() {
        let mut cfg = small_cluster(1);
        cfg.gpu_plugin = GpuPluginKind::Fractional {
            scaling: 100,
            resource: "ks.example/vgpu".into(),
        };
        let mut eng = engine(cfg);
        let spec = |units: u64| {
            PodSpec::new(
                "tf:latest",
                ResourceList::cpu_mem(100, 1 << 20).with_extended("ks.example/vgpu", units),
            )
        };
        let mut out = Vec::new();
        let a = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "a", spec(50), &mut out);
        let b = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "b", spec(50), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(a).unwrap().status.phase,
            PodPhase::Running
        );
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Running
        );
        // Both pods landed on the same physical device (1 GPU node).
        assert_eq!(
            eng.world.cluster.pod_devices(a),
            eng.world.cluster.pod_devices(b)
        );
    }

    #[test]
    fn node_failure_fails_pods_and_blocks_placement() {
        let mut eng = engine(small_cluster(1));
        let mut out = Vec::new();
        let a = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "a", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(a).unwrap().status.phase,
            PodPhase::Running
        );

        let now = eng.now();
        let mut notes = Vec::new();
        let victims = eng.world.cluster.fail_node(now, "n0", &mut notes);
        assert_eq!(victims, vec![a]);
        assert_eq!(eng.world.cluster.node_up("n0"), Some(false));
        assert_eq!(
            eng.world.cluster.pod(a).unwrap().status.phase,
            PodPhase::Failed
        );
        assert!(matches!(
            notes.as_slice(),
            [ClusterNotice::PodFailed { pod, .. }] if *pod == a
        ));
        // Resources came back even though the node is down.
        let free = eng.world.cluster.node_free("n0").unwrap();
        assert_eq!(free, eng.world.cluster.nodes[0].cap.allocatable);

        // New pods cannot land anywhere while the only node is down.
        let mut out = Vec::new();
        let b = eng
            .world
            .cluster
            .submit_pod(eng.now(), "b", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Pending
        );

        // Recovery retries the queue and the pod runs.
        let now = eng.now();
        let mut out = Vec::new();
        assert!(eng.world.cluster.recover_node(now, "n0", &mut out));
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Running
        );
    }

    #[test]
    fn cordon_blocks_placement_but_keeps_running_pods() {
        let mut eng = engine(small_cluster(2));
        let mut out = Vec::new();
        let a = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "a", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(a).unwrap().status.phase,
            PodPhase::Running
        );

        assert!(eng.world.cluster.cordon_node("n0"));
        assert_eq!(eng.world.cluster.node_cordoned("n0"), Some(true));
        // Running pod is untouched; the rank index stays consistent.
        assert_eq!(
            eng.world.cluster.pod(a).unwrap().status.phase,
            PodPhase::Running
        );
        eng.world.cluster.verify_node_rank().unwrap();

        // New pods queue: the only node with a free GPU is cordoned.
        let mut out = Vec::new();
        let b = eng
            .world
            .cluster
            .submit_pod(eng.now(), "b", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Pending
        );

        // Uncordon retries the queue and the pod runs.
        let now = eng.now();
        let mut out = Vec::new();
        assert!(eng.world.cluster.uncordon_node(now, "n0", &mut out));
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Running
        );
        eng.world.cluster.verify_node_rank().unwrap();
    }

    #[test]
    fn cordon_and_uncordon_are_idempotent() {
        let mut eng = engine(small_cluster(1));
        let mut out = Vec::new();
        assert_eq!(eng.world.cluster.node_cordoned("n0"), Some(false));
        assert_eq!(eng.world.cluster.node_cordoned("nope"), None);
        assert!(eng.world.cluster.cordon_node("n0"));
        assert!(!eng.world.cluster.cordon_node("n0"), "second cordon no-ops");
        assert!(!eng.world.cluster.cordon_node("nope"));
        eng.world.cluster.verify_node_rank().unwrap();
        assert!(eng
            .world
            .cluster
            .uncordon_node(SimTime::ZERO, "n0", &mut out));
        assert!(
            !eng.world
                .cluster
                .uncordon_node(SimTime::ZERO, "n0", &mut out),
            "second uncordon no-ops"
        );
        assert!(!eng
            .world
            .cluster
            .uncordon_node(SimTime::ZERO, "nope", &mut out));
        eng.world.cluster.verify_node_rank().unwrap();
    }

    #[test]
    fn cordon_survives_crash_and_recovery() {
        let mut eng = engine(small_cluster(1));
        assert!(eng.world.cluster.cordon_node("n0"));
        let mut notes = Vec::new();
        eng.world.cluster.fail_node(SimTime::ZERO, "n0", &mut notes);
        eng.world.cluster.verify_node_rank().unwrap();
        // Recovery brings the kubelet back, but the cordon holds: the
        // node must not rejoin the schedulable set.
        let mut out = Vec::new();
        assert!(eng
            .world
            .cluster
            .recover_node(SimTime::ZERO, "n0", &mut out));
        assert_eq!(eng.world.cluster.node_up("n0"), Some(true));
        assert_eq!(eng.world.cluster.node_cordoned("n0"), Some(true));
        eng.world.cluster.verify_node_rank().unwrap();
        let mut out = Vec::new();
        let b = eng
            .world
            .cluster
            .submit_pod(eng.now(), "b", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Pending
        );
        // Uncordon after recovery: placements resume.
        let now = eng.now();
        let mut out = Vec::new();
        assert!(eng.world.cluster.uncordon_node(now, "n0", &mut out));
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(b).unwrap().status.phase,
            PodPhase::Running
        );
    }

    #[test]
    fn pinned_pod_waits_out_node_downtime() {
        let mut eng = engine(small_cluster(1));
        let now = SimTime::ZERO;
        let mut notes = Vec::new();
        eng.world.cluster.fail_node(now, "n0", &mut notes);

        let mut spec = gpu_pod_spec();
        spec.node_name = Some("n0".into());
        let mut out = Vec::new();
        let uid = eng.world.cluster.submit_pod(now, "pinned", spec, &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(uid).unwrap().status.phase,
            PodPhase::Pending
        );

        let now = eng.now();
        let mut out = Vec::new();
        eng.world.cluster.recover_node(now, "n0", &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        assert_eq!(
            eng.world.cluster.pod(uid).unwrap().status.phase,
            PodPhase::Running
        );
    }

    #[test]
    fn delete_after_node_failure_does_not_double_release() {
        let mut eng = engine(small_cluster(1));
        let mut out = Vec::new();
        let a = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "a", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);

        // Delete starts the container-stop countdown, then the node dies
        // before PodStopped fires: the pod fails and releases immediately,
        // and the in-flight PodStopped must not release again.
        let now = eng.now();
        let mut out = Vec::new();
        let mut notes = Vec::new();
        eng.world.cluster.delete_pod(now, a, &mut out, &mut notes);
        eng.world.cluster.fail_node(now, "n0", &mut notes);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        let free = eng.world.cluster.node_free("n0").unwrap();
        assert_eq!(free, eng.world.cluster.nodes[0].cap.allocatable);
    }

    #[test]
    fn running_pods_tracked_in_store() {
        let mut eng = engine(small_cluster(1));
        let before = eng.world.cluster.pods().revision();
        let mut out = Vec::new();
        let a = eng
            .world
            .cluster
            .submit_pod(SimTime::ZERO, "a", gpu_pod_spec(), &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        let pods = eng.world.cluster.pods();
        assert_eq!(pods.get(a).unwrap().status.phase, PodPhase::Running);
        // Created, then (scheduled, env, running) writes at least.
        let writes = pods.revision() - before;
        assert!(writes >= 3, "saw {writes} writes");
    }

    fn multi_cluster(n: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: (0..n)
                .map(|i| NodeConfig {
                    name: format!("n{i}"),
                    cpu_millis: 8_000,
                    memory_bytes: 32 << 30,
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

    /// Same workload — a pod wave, a crash, a node failure and recovery,
    /// a second wave — placed identically under both node-selection
    /// implementations, with the rank index consistent throughout.
    #[test]
    fn indexed_node_pick_matches_reference() {
        let run = |mode: SchedMode| -> Vec<(Uid, Option<String>)> {
            let mut eng = engine(multi_cluster(4));
            eng.world.cluster.set_sched_mode(mode);
            let mut uids = Vec::new();
            let mut out = Vec::new();
            for i in 0..6 {
                uids.push(eng.world.cluster.submit_pod(
                    SimTime::ZERO,
                    format!("a{i}"),
                    gpu_pod_spec(),
                    &mut out,
                ));
            }
            seed(&mut eng, out);
            eng.run_to_completion(10_000);
            eng.world.cluster.verify_node_rank().unwrap();

            let now = eng.now();
            let mut out = Vec::new();
            let mut notes = Vec::new();
            eng.world
                .cluster
                .crash_pod(now, uids[0], "OOMKilled", &mut out, &mut notes);
            eng.world.cluster.fail_node(now, "n1", &mut notes);
            seed(&mut eng, out);
            eng.run_to_completion(10_000);
            eng.world.cluster.verify_node_rank().unwrap();

            let now = eng.now();
            let mut out = Vec::new();
            eng.world.cluster.recover_node(now, "n1", &mut out);
            for i in 0..4 {
                uids.push(eng.world.cluster.submit_pod(
                    now,
                    format!("b{i}"),
                    gpu_pod_spec(),
                    &mut out,
                ));
            }
            seed(&mut eng, out);
            eng.run_to_completion(20_000);
            eng.world.cluster.verify_node_rank().unwrap();

            uids.iter()
                .map(|&u| {
                    (
                        u,
                        eng.world
                            .cluster
                            .pod(u)
                            .and_then(|p| p.status.node_name.clone()),
                    )
                })
                .collect()
        };
        assert_eq!(run(SchedMode::Reference), run(SchedMode::Indexed));
    }
}
