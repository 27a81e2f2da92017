//! The composed KubeShare control plane: KubeShare-Sched + KubeShare-DevMgr
//! running as custom controllers next to an (unmodified) Kubernetes cluster
//! (paper §4.1, Fig. 4).
//!
//! Flow of one sharePod, exactly as in the paper:
//!
//! 1. a client submits a [`SharePodSpec`] through the API server;
//! 2. **KubeShare-Sched** runs Algorithm 1 against the vGPU pool and fills
//!    in the GPUID (or rejects);
//! 3. **KubeShare-DevMgr** materializes the vGPU if the GPUID is new: it
//!    launches an *anchor pod* that requests one whole `nvidia.com/gpu`
//!    from native Kubernetes — the GPU is thereby allocated without
//!    running any workload — and reads the device UUID from the anchor's
//!    injected `NVIDIA_VISIBLE_DEVICES`;
//! 4. DevMgr then creates the real pod *pinned to the vGPU's node*, with
//!    `NVIDIA_VISIBLE_DEVICES` set to the physical UUID (explicit binding)
//!    and the device library installed (surfaced to the embedding world in
//!    [`KsNotice::SharePodRunning`] so it can attach the container to the
//!    node's `SharedGpu`);
//! 5. on deletion, the pod's demand returns to the vGPU; an idle vGPU is
//!    released (on-demand policy) or kept (reservation policy), trading
//!    creation latency against cluster-level utilization (paper §4.4).
//!
//! One `impl KubeShareSystem` block per component, each in its own file:
//!
//! - this module: the types, the configuration, the system itself, the
//!   sharePod and native-pod lifecycle, the event router and accessors,
//!   and [`KubeShareSystem::check_invariants`];
//! - `sched`: **KubeShare-Sched** — Algorithm 1 per decision and in batch
//!   drains, binding, partition reconfiguration;
//! - `devmgr`: **KubeShare-DevMgr** — one `VgpuRecord` per vGPU in the
//!   pool, anchor launch and capped-backoff retry, backing-pod creation
//!   with explicit device binding, and the idle-vGPU policy;
//! - `evict`: the helpers every path that takes a sharePod off a vGPU
//!   composes;
//! - `faults`: fault and remediation entry points (node failure, cordons,
//!   drains, crashes, preemption);
//! - `reconcile`: both controllers' reactions to cluster notices.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::fmt;

use ks_chaos::ChaosInjector;
use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{ObjectMeta, Uid, UidAllocator};
use ks_cluster::sim::{ClusterConfig, ClusterEmit, ClusterEvent, ClusterNotice, ClusterSim};
use ks_cluster::store::Store;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::provenance::{DecisionKind, Outcome, SchedProv};
use ks_telemetry::{FlightRecorder, Gauge, LogLevel, Logger, SpanId, Telemetry, TraceCtx};
use ks_vgpu::ShareSpec;

use crate::algorithm::SchedMode;
use crate::gpuid::GpuId;
use crate::pool::VgpuPool;
use crate::sharepod::{SharePod, SharePodPhase, SharePodSpec};

mod devmgr;
mod evict;
mod faults;
mod reconcile;
mod sched;

use devmgr::VgpuRecord;

/// When to release idle vGPUs back to Kubernetes (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Release immediately when a vGPU goes idle (the paper's choice).
    OnDemand,
    /// Keep up to `max_idle` idle vGPUs for fast future allocation.
    Reservation {
        /// Maximum number of idle vGPUs retained.
        max_idle: usize,
    },
    /// The paper's hybrid strategy (§4.4): keep up to `max_idle` idle
    /// vGPUs, but release any that stay idle longer than `idle_ttl`.
    Hybrid {
        /// Maximum number of idle vGPUs retained at once.
        max_idle: usize,
        /// How long an idle vGPU is kept before release.
        idle_ttl: SimDuration,
    },
}

/// KubeShare configuration.
#[derive(Debug, Clone)]
pub struct KsConfig {
    /// KubeShare-Sched decision latency (etcd reads + Algorithm 1 + etcd
    /// write of the SharePodSpec).
    pub sched_latency: SimDuration,
    /// DevMgr's vGPU info query + container device-env setup before pod
    /// creation. Together with `sched_latency` this is the ≈15 % overhead
    /// of paper Fig. 10.
    pub vgpu_query_latency: SimDuration,
    /// Idle-vGPU management policy.
    pub pool_policy: PoolPolicy,
    /// First backoff after a failed anchor launch; doubles per attempt.
    pub anchor_retry_base: SimDuration,
    /// Backoff ceiling for anchor retries.
    pub anchor_retry_cap: SimDuration,
    /// Retries before DevMgr gives up on a vGPU and degrades its tenants
    /// to the surviving pool.
    pub anchor_max_retries: u32,
    /// What happens to a sharePod whose backing container crashes.
    pub restart_policy: RestartPolicy,
    /// Which Algorithm 1 implementation KubeShare-Sched runs. Both are
    /// decision-identical (enforced by the differential oracle); `Indexed`
    /// serves placement from the pool's capacity indexes.
    pub sched_mode: SchedMode,
    /// Wall time a spatial partition reconfiguration takes once the device
    /// is drained (MIG-style instance teardown + re-creation). The device
    /// accepts no slices from drain start until this much after the last
    /// tenant leaves.
    pub partition_reconfig_cost: SimDuration,
}

/// Crash semantics for a sharePod's backing container (mirrors the pod
/// `restartPolicy` the paper's SharePods inherit from the PodSpec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// A crash fails the sharePod permanently (batch semantics).
    Never,
    /// A crash re-queues the sharePod through Algorithm 1 (service
    /// semantics; what the chaos soak runs under).
    OnFailure,
}

impl Default for KsConfig {
    fn default() -> Self {
        KsConfig {
            sched_latency: SimDuration::from_millis(90),
            vgpu_query_latency: SimDuration::from_millis(190),
            pool_policy: PoolPolicy::OnDemand,
            anchor_retry_base: SimDuration::from_millis(500),
            anchor_retry_cap: SimDuration::from_secs(8),
            anchor_max_retries: 5,
            restart_policy: RestartPolicy::Never,
            sched_mode: SchedMode::default(),
            partition_reconfig_cost: SimDuration::from_secs(2),
        }
    }
}

/// Internal inconsistencies surfaced as notices instead of panics, so a
/// fault injected mid-transition degrades one sharePod rather than the
/// whole control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// A sharePod references a vGPU that is no longer in the pool.
    MissingVgpu {
        /// The vanished vGPU.
        gpuid: GpuId,
    },
    /// A sharePod past scheduling has no bound GPUID.
    UnboundSharePod {
        /// The sharePod.
        sp: Uid,
    },
    /// A vGPU was used as ready but has no node/UUID yet.
    VgpuNotReady {
        /// The not-ready vGPU.
        gpuid: GpuId,
    },
    /// An anchor pod disappeared from the cluster store.
    MissingAnchor {
        /// The anchor pod uid.
        pod: Uid,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::MissingVgpu { gpuid } => write!(f, "vGPU {gpuid} not in pool"),
            SystemError::UnboundSharePod { sp } => write!(f, "sharePod {sp:?} has no bound GPUID"),
            SystemError::VgpuNotReady { gpuid } => write!(f, "vGPU {gpuid} has no node/UUID"),
            SystemError::MissingAnchor { pod } => write!(f, "anchor pod {pod:?} missing"),
        }
    }
}

impl std::error::Error for SystemError {}

/// Events routed back into [`KubeShareSystem::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsEvent {
    /// An event for the underlying Kubernetes cluster.
    Cluster(ClusterEvent),
    /// KubeShare-Sched runs Algorithm 1 for this sharePod.
    SchedDecide {
        /// The sharePod.
        sp: Uid,
    },
    /// DevMgr finished the vGPU info query; create the backing pod.
    CreatePod {
        /// The sharePod.
        sp: Uid,
    },
    /// A hybrid-policy idle TTL ran out; release the vGPU behind this
    /// ticket if it is still idle.
    ReleaseIdleVgpu {
        /// Ticket into the pending-idle table.
        ticket: u64,
    },
    /// Backoff after a failed anchor launch expired; try launching the
    /// anchor for the vGPU behind this ticket again.
    RetryAnchor {
        /// Ticket into the anchor-retry table.
        ticket: u64,
    },
    /// A drained partition's reconfiguration window elapsed; activate the
    /// new layout on the vGPU behind this ticket.
    PartitionActivate {
        /// Ticket into the reconfiguration table.
        ticket: u64,
    },
}

/// Notices surfaced to the embedding world.
#[derive(Debug, Clone, PartialEq)]
pub enum KsNotice {
    /// A sharePod's container is running with the device library installed.
    SharePodRunning {
        /// The sharePod.
        sp: Uid,
        /// Bound vGPU.
        gpuid: GpuId,
        /// Node hosting the physical GPU.
        node: String,
        /// Physical device UUID.
        uuid: String,
        /// The container's share spec (attach it to the node's SharedGpu).
        share: ShareSpec,
    },
    /// A sharePod was rejected by Algorithm 1.
    SharePodRejected {
        /// The sharePod.
        sp: Uid,
        /// Rejection reason.
        reason: String,
    },
    /// A sharePod terminated; detach its container from the SharedGpu.
    SharePodStopped {
        /// The sharePod.
        sp: Uid,
        /// vGPU it was bound to.
        gpuid: GpuId,
        /// Node hosting the physical GPU.
        node: String,
        /// Physical device UUID.
        uuid: String,
    },
    /// A vGPU became ready (anchor pod running, UUID known).
    VgpuCreated {
        /// The vGPU.
        gpuid: GpuId,
        /// Hosting node.
        node: String,
        /// Physical device UUID.
        uuid: String,
    },
    /// A vGPU was released back to Kubernetes.
    VgpuReleased {
        /// The vGPU.
        gpuid: GpuId,
    },
    /// A sharePod was pushed back to `Pending` and re-queued through
    /// Algorithm 1 (its vGPU died with a node, or its anchor never came
    /// up). The embedding world should detach any container state it kept
    /// for the old binding.
    SharePodRequeued {
        /// The sharePod.
        sp: Uid,
        /// The binding it lost, if it had one.
        gpuid: Option<GpuId>,
    },
    /// A sharePod was evicted to make room for higher-priority work (the
    /// gateway's preemption policy). Its capacity has already been
    /// detached and it sits `Pending` again; the next batch drain decides
    /// it after every higher class. The embedding world should detach any
    /// container state it kept for the old binding.
    SharePodPreempted {
        /// The preempted sharePod.
        sp: Uid,
        /// The binding it lost, if it had one.
        gpuid: Option<GpuId>,
    },
    /// A vGPU was lost to a failure (node crash or anchor giving up) as
    /// opposed to a graceful policy release.
    VgpuLost {
        /// The lost vGPU.
        gpuid: GpuId,
        /// What killed it.
        reason: String,
    },
    /// An internal inconsistency was detected and contained.
    Fault {
        /// The contained error.
        error: SystemError,
    },
    /// Pass-through of a native cluster notice (for pods created outside
    /// KubeShare — the co-existence property of §4.6).
    Cluster(ClusterNotice),
}

/// Scheduled KubeShare events: `(fire_at, event)`.
pub type KsEmit = Vec<(SimTime, KsEvent)>;

/// The KubeShare control plane. See module docs.
#[derive(Debug)]
pub struct KubeShareSystem {
    /// The underlying (unmodified) Kubernetes cluster.
    pub cluster: ClusterSim,
    cfg: KsConfig,
    sharepods: Store<SharePod>,
    sp_uids: UidAllocator,
    pool: VgpuPool,
    /// DevMgr's record of each vGPU in the pool, keyed like the pool.
    vgpus: HashMap<GpuId, VgpuRecord>,
    /// anchor pod uid → vGPU it reserves (the records' anchors, reversed).
    anchor_vgpu: HashMap<Uid, GpuId>,
    /// backing pod uid → sharePod uid.
    pod_sp: HashMap<Uid, Uid>,
    /// `Starting` sharePod → when its latest `CreatePod` order fires.
    pod_due: HashMap<Uid, SimTime>,
    /// Backing pods torn down by preemption: their sharePods were reset to
    /// `Pending` synchronously, so the asynchronous `PodDeleted` /
    /// `PodFailed` notice that eventually arrives for them must be
    /// swallowed instead of driving the normal terminal transition.
    preempted_pods: HashSet<Uid>,
    /// Hybrid policy: idle-TTL tickets → the vGPU they refer to.
    idle_tickets: HashMap<u64, GpuId>,
    /// Anchor-retry tickets → the vGPU whose anchor is being relaunched.
    retry_tickets: HashMap<u64, GpuId>,
    /// Partition-reconfiguration tickets → the draining vGPU and the open
    /// `partition/reconfig` span to close at activation.
    reconfig_tickets: HashMap<u64, (GpuId, SpanId)>,
    next_ticket: u64,
    /// Optional fault injector consulted on anchor launches; the embedding
    /// world drives its time-based streams.
    chaos: Option<ChaosInjector>,
    telemetry: Telemetry,
    gauges: Gauges,
    /// Decision-provenance flight recorder (disabled by default; zero-cost
    /// off, a pure observer on).
    recorder: FlightRecorder,
    /// Structured log stream correlated to sharePod traces.
    logger: Logger,
    /// Per-sharePod causal trace state (populated only when telemetry is
    /// enabled; removed when the trace closes on a terminal transition).
    sp_trace: HashMap<Uid, SpTrace>,
    /// `Pending` sharePod count, maintained on every phase transition so
    /// gauge mirrors don't rescan the store after each event.
    sp_pending: usize,
    /// `Running` sharePod count, maintained likewise.
    sp_running: usize,
}

/// The gauges [`KubeShareSystem`] mirrors after every event, each resolved
/// on first use and kept until the telemetry handle changes.
#[derive(Debug, Default)]
struct Gauges {
    /// `ks_devmgr_vgpus{phase}` for creating, active, idle.
    vgpus: [OnceCell<Gauge>; 3],
    pending: OnceCell<Gauge>,
    running: OnceCell<Gauge>,
    awaiting: OnceCell<Gauge>,
    fragmentation: OnceCell<Gauge>,
}

/// One sharePod's causal trace: the root context plus the child spans
/// currently open on its behalf (`SpanId::NONE` when closed/never opened).
#[derive(Debug, Clone, Copy, Default)]
struct SpTrace {
    ctx: TraceCtx,
    /// Submission (or requeue) → Algorithm 1 decision.
    sched_span: SpanId,
    /// Parked awaiting vGPU → anchor reports the GPUID ready (or give-up).
    vgpu_span: SpanId,
    /// Backing-pod creation ordered → pod running.
    pod_span: SpanId,
}

impl KubeShareSystem {
    /// Builds KubeShare next to a cluster running the native whole-device
    /// GPU plugin (which is what DevMgr's anchor pods allocate through).
    pub fn new(cluster_cfg: ClusterConfig, cfg: KsConfig) -> Self {
        let mut cluster = ClusterSim::new(cluster_cfg);
        // One switch drives both layers: Algorithm 1 over the vGPU pool
        // and kube-scheduler node selection in the simulated cluster.
        cluster.set_sched_mode(cfg.sched_mode);
        KubeShareSystem {
            cluster,
            cfg,
            sharepods: Store::new(),
            sp_uids: UidAllocator::new(),
            pool: VgpuPool::new(),
            vgpus: HashMap::new(),
            anchor_vgpu: HashMap::new(),
            pod_sp: HashMap::new(),
            pod_due: HashMap::new(),
            preempted_pods: HashSet::new(),
            idle_tickets: HashMap::new(),
            retry_tickets: HashMap::new(),
            reconfig_tickets: HashMap::new(),
            next_ticket: 0,
            chaos: None,
            telemetry: Telemetry::disabled(),
            gauges: Gauges::default(),
            recorder: FlightRecorder::disabled(),
            logger: Logger::disabled(),
            sp_trace: HashMap::new(),
            sp_pending: 0,
            sp_running: 0,
        }
    }

    /// Installs a fault injector; DevMgr consults it on every anchor
    /// launch, and the embedding world drives its time-based streams
    /// through [`KubeShareSystem::chaos_mut`].
    pub fn set_chaos(&mut self, mut injector: ChaosInjector) {
        injector.set_telemetry(self.telemetry.clone());
        self.chaos = Some(injector);
    }

    /// Attaches a telemetry handle and propagates it down the stack: the
    /// cluster substrate, the sharePod store, and any installed chaos
    /// injector all record through the same registry and tracer. Call
    /// order relative to [`KubeShareSystem::set_chaos`] does not matter.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.cluster.set_telemetry(telemetry.clone());
        self.sharepods.instrument(telemetry.clone(), "sharepods");
        if let Some(c) = self.chaos.as_mut() {
            c.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
        self.gauges = Gauges::default();
    }

    /// Installs a decision-provenance flight recorder and propagates it to
    /// the cluster layer (kube-scheduler node-rank records). A disabled
    /// recorder (the default) costs one branch per decision.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.cluster.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The installed flight recorder (disabled handle by default).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Installs a structured-log sink for scheduler lifecycle events.
    pub fn set_logger(&mut self, logger: Logger) {
        self.logger = logger;
    }

    /// The installed structured-log sink (disabled handle by default).
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// Appends one scheduling provenance record keyed to `sp`'s trace and
    /// mirrors the typed reason into `ks_sched_rejections_total{reason}`
    /// and the structured log. The counter and log run off the *reason*,
    /// which [`SchedProv`] tracks even when candidate capture is off — so
    /// metrics agree with records whether or not a recorder is installed.
    fn record_sched_outcome(&self, now: SimTime, sp: Uid, prov: SchedProv, outcome: Outcome) {
        if let Some(reason) = outcome.reason() {
            if self.telemetry.is_enabled() {
                self.telemetry
                    .counter("ks_sched_rejections_total", &[("reason", reason.label())])
                    .inc();
            }
        }
        let trace = self.sp_ctx(sp).trace;
        if self.logger.is_enabled() {
            let level = match &outcome {
                Outcome::Placed { .. } | Outcome::NewDevice { .. } => LogLevel::Info,
                _ => LogLevel::Warn,
            };
            self.logger.log(
                now,
                level,
                "sched",
                trace,
                || match (outcome.target(), outcome.reason()) {
                    (Some(t), _) => format!("sharePod {sp}: {} on {t}", outcome.class()),
                    (None, Some(r)) => {
                        format!("sharePod {sp}: {} ({})", outcome.class(), r.label())
                    }
                    (None, None) => format!("sharePod {sp}: {}", outcome.class()),
                },
                || vec![("sp".into(), sp.to_string())],
            );
        }
        if self.recorder.is_enabled() {
            self.recorder.record(prov.into_record(
                now,
                sp.0,
                trace,
                DecisionKind::Schedule,
                outcome,
            ));
        }
    }

    /// Sets a sharePod's phase through the tally bookkeeping that backs
    /// the scheduler gauges, applying any extra status mutation in the
    /// same store write. Every phase transition MUST go through here (or
    /// the tallies drift — `verify_sp_tally` cross-checks).
    fn transition_sp(&mut self, sp: Uid, to: SharePodPhase, f: impl FnOnce(&mut SharePod)) {
        let Some(from) = self.sharepods.get(sp).map(|s| s.status.phase) else {
            return;
        };
        if from != to {
            match from {
                SharePodPhase::Pending => self.sp_pending -= 1,
                SharePodPhase::Running => self.sp_running -= 1,
                _ => {}
            }
            match to {
                SharePodPhase::Pending => self.sp_pending += 1,
                SharePodPhase::Running => self.sp_running += 1,
                _ => {}
            }
        }
        self.sharepods.mutate(sp, |s| {
            s.status.phase = to;
            f(s);
        });
    }

    /// Checks the control plane's invariants, each with the component that
    /// owns it: the pool's capacity indexes, the cluster's node ranking,
    /// the sharePod phase tallies, DevMgr's vGPU records (`verify_devmgr`)
    /// and Sched's bindings (`verify_bindings`). Returns the first
    /// violation found. It walks the pool and the sharePod store, so tests
    /// can afford it after every operation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.pool.verify_indexes()?;
        self.cluster.verify_node_rank()?;
        self.verify_sp_tally()?;
        self.verify_devmgr()?;
        self.verify_bindings()
    }

    /// Recounts the phase tallies from the store (the cross-check for
    /// [`KubeShareSystem::transition_sp`] discipline).
    fn verify_sp_tally(&self) -> Result<(), String> {
        let (mut pending, mut running) = (0usize, 0usize);
        for (_, s) in self.sharepods.iter() {
            match s.status.phase {
                SharePodPhase::Pending => pending += 1,
                SharePodPhase::Running => running += 1,
                _ => {}
            }
        }
        if (pending, running) != (self.sp_pending, self.sp_running) {
            return Err(format!(
                "sharePod tally drifted: incremental ({}, {}) != recount ({pending}, {running})",
                self.sp_pending, self.sp_running
            ));
        }
        Ok(())
    }

    /// Mirrors the vGPU pool composition and the scheduler's pending-work
    /// depth into gauges. Called after every event that can move pool or
    /// queue state; reads the incrementally-maintained tallies (plus one
    /// pool walk for the fragmentation gauge when spatial devices exist),
    /// so a pure time-slice run never rescans the pool or store per event.
    fn record_gauges(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let (t, g) = (&self.telemetry, &self.gauges);
        let (creating, active, idle) = self.pool.phase_counts();
        let phases = [("creating", creating), ("active", active), ("idle", idle)];
        for ((phase, v), cell) in phases.into_iter().zip(&g.vgpus) {
            cell.get_or_init(|| t.gauge("ks_devmgr_vgpus", &[("phase", phase)]))
                .set(f64::from(v));
        }
        g.pending
            .get_or_init(|| t.gauge("ks_sched_pending_sharepods", &[]))
            .set(self.sp_pending as f64);
        g.running
            .get_or_init(|| t.gauge("ks_sched_running_sharepods", &[]))
            .set(self.sp_running as f64);
        let waiting: usize = self.vgpus.values().map(|r| r.waiting.len()).sum();
        g.awaiting
            .get_or_init(|| t.gauge("ks_sched_awaiting_vgpu_sharepods", &[]))
            .set(waiting as f64);
        // Pool-level fragmentation: the one O(pool) scan here, and only
        // when spatial devices exist — a pure time-slice pool always reads
        // 0 and skips the walk.
        if self.pool.spatial_count() > 0 {
            g.fragmentation
                .get_or_init(|| t.gauge("ks_pool_fragmentation", &[]))
                .set(self.pool.fragmentation());
        }
    }

    /// Counts one GPUID churn event (`vgpu_created` / `vgpu_released` /
    /// `vgpu_lost`) for DevMgr.
    fn note_vgpu_churn(&self, now: SimTime, event: &'static str, gpuid: &GpuId) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter("ks_devmgr_vgpu_churn_total", &[("event", event)])
            .inc();
        self.telemetry
            .trace_event(now, "devmgr", event, &[("gpuid", gpuid.as_str())]);
    }

    /// The causal trace context minted for a sharePod at submission, if
    /// its trace is still open. Embedding worlds use this to tag work done
    /// on the sharePod's behalf in other layers (e.g. token grants).
    pub fn sharepod_trace(&self, sp: Uid) -> Option<TraceCtx> {
        self.sp_trace.get(&sp).map(|t| t.ctx)
    }

    /// The sharePod's context, or `NONE` when untraced.
    fn sp_ctx(&self, sp: Uid) -> TraceCtx {
        self.sp_trace
            .get(&sp)
            .map(|t| t.ctx)
            .unwrap_or(TraceCtx::NONE)
    }

    /// Ends any open child spans and the root span with a terminal
    /// outcome, removing the trace state. Idempotent: later terminal
    /// transitions of an already-closed sharePod are no-ops.
    fn close_sp_trace(&mut self, now: SimTime, sp: Uid, outcome: &'static str) {
        let Some(tr) = self.sp_trace.remove(&sp) else {
            return;
        };
        self.telemetry.span_end(now, tr.sched_span, &[]);
        self.telemetry.span_end(now, tr.vgpu_span, &[]);
        self.telemetry.span_end(now, tr.pod_span, &[]);
        self.telemetry
            .span_end(now, tr.ctx.span, &[("outcome", outcome)]);
    }

    /// The installed fault injector, if any.
    pub fn chaos(&self) -> Option<&ChaosInjector> {
        self.chaos.as_ref()
    }

    /// Mutable access to the fault injector (for scheduling its streams).
    pub fn chaos_mut(&mut self) -> Option<&mut ChaosInjector> {
        self.chaos.as_mut()
    }

    /// The vGPU pool (read access).
    pub fn pool(&self) -> &VgpuPool {
        &self.pool
    }

    /// A sharePod object.
    pub fn sharepod(&self, sp: Uid) -> Option<&SharePod> {
        self.sharepods.get(sp)
    }

    /// The sharePod store: every sharePod's current state, and the store
    /// revision.
    pub fn sharepods(&self) -> &Store<SharePod> {
        &self.sharepods
    }

    /// Submits a sharePod through the API server. KubeShare-Sched decides
    /// after its scheduling latency.
    pub fn submit_sharepod(
        &mut self,
        now: SimTime,
        name: impl Into<String>,
        spec: SharePodSpec,
        out: &mut KsEmit,
    ) -> Uid {
        self.submit_sharepod_in(now, "default", name, spec, out)
    }

    /// Submits a sharePod into a specific namespace. The gateway runs one
    /// namespace per tenant, and the namespace is kept in the sharePod's
    /// [`ObjectMeta`]. A share spec that fails [`ShareSpec::validate`] ends
    /// `Rejected` at its decision, with a [`KsNotice::SharePodRejected`]
    /// naming the error.
    pub fn submit_sharepod_in(
        &mut self,
        now: SimTime,
        namespace: impl Into<String>,
        name: impl Into<String>,
        spec: SharePodSpec,
        out: &mut KsEmit,
    ) -> Uid {
        let uid = self.sp_uids.next();
        let meta = ObjectMeta::new(name, uid, now).with_namespace(namespace);
        let sp_name = meta.name.clone();
        self.sharepods.create(uid, SharePod::new(meta, spec));
        self.sp_pending += 1;
        if self.telemetry.is_enabled() {
            // One trace per sharePod: the root span covers submission to
            // the terminal transition; the schedule span opens immediately
            // and closes at the Algorithm 1 decision.
            let ctx = self.telemetry.trace_root(
                now,
                "sched",
                "sharepod",
                &[("sp", &uid.to_string()), ("name", &sp_name)],
            );
            let sched_span = self
                .telemetry
                .span_begin_in(now, ctx, "sched", "schedule", &[]);
            self.sp_trace.insert(
                uid,
                SpTrace {
                    ctx,
                    sched_span,
                    ..SpTrace::default()
                },
            );
        }
        out.push((
            now + self.cfg.sched_latency,
            KsEvent::SchedDecide { sp: uid },
        ));
        uid
    }

    /// Deletes a sharePod.
    pub fn delete_sharepod(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        match (sharepod.status.phase, sharepod.status.pod_uid) {
            (SharePodPhase::Terminated, _) => {}
            (SharePodPhase::Pending | SharePodPhase::Rejected, _) => {
                self.transition_sp(sp, SharePodPhase::Terminated, |_| {});
                self.close_sp_trace(now, sp, "deleted");
            }
            // Detach bookkeeping happens when PodDeleted arrives.
            (SharePodPhase::Starting | SharePodPhase::Running, Some(pod)) => {
                self.cluster_call(now, out, notices, |c, o, n| c.delete_pod(now, pod, o, n));
            }
            // Awaiting its vGPU, or Starting before the CreatePod event
            // fired: nothing exists in the cluster; tear down locally.
            _ => self.finish_sharepod(now, sp, "deleted", None, out, notices),
        }
        self.record_gauges();
    }

    /// Submits a *native* pod straight to Kubernetes — KubeShare does not
    /// interfere (co-existence, §4.6).
    pub fn submit_native_pod(
        &mut self,
        now: SimTime,
        name: impl Into<String>,
        spec: PodSpec,
        out: &mut KsEmit,
    ) -> Uid {
        lifted(out, |o| self.cluster.submit_pod(now, name, spec, o))
    }

    /// Deletes a native pod.
    pub fn delete_native_pod(
        &mut self,
        now: SimTime,
        pod: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        self.cluster_call(now, out, notices, |c, o, n| c.delete_pod(now, pod, o, n));
    }

    /// Routes an event.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: KsEvent,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        match ev {
            KsEvent::Cluster(cev) => {
                self.cluster_call(now, out, notices, |c, o, n| c.handle(now, cev, o, n));
            }
            KsEvent::SchedDecide { sp } => self.on_sched_decide(now, sp, out, notices),
            KsEvent::CreatePod { sp } => self.on_create_pod(now, sp, out, notices),
            KsEvent::ReleaseIdleVgpu { ticket } => {
                if let Some(gpuid) = self.idle_tickets.remove(&ticket) {
                    if self
                        .pool
                        .get(&gpuid)
                        .is_some_and(|d| d.is_idle() && !d.releasing)
                    {
                        self.release_vgpu(now, &gpuid, out, notices);
                    }
                }
            }
            KsEvent::RetryAnchor { ticket } => self.on_retry_anchor(now, ticket, out, notices),
            KsEvent::PartitionActivate { ticket } => self.on_partition_activate(now, ticket),
        }
        self.record_gauges();
    }
}

/// Runs one cluster operation, lifting the events it emits into `out`.
fn lifted<R>(out: &mut KsEmit, op: impl FnOnce(&mut ClusterEmit) -> R) -> R {
    let mut cluster_out = Vec::new();
    let r = op(&mut cluster_out);
    out.extend(
        cluster_out
            .into_iter()
            .map(|(at, ev)| (at, KsEvent::Cluster(ev))),
    );
    r
}

#[cfg(test)]
mod tests;
