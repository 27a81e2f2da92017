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

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::fmt;

use ks_chaos::ChaosInjector;
use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{ObjectMeta, ResourceList, Uid, UidAllocator, NVIDIA_GPU};
use ks_cluster::sim::{ClusterConfig, ClusterEvent, ClusterNotice, ClusterSim};
use ks_cluster::store::Store;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::provenance::{DecisionKind, Outcome, ReasonCode, SchedProv};
use ks_telemetry::{FlightRecorder, Gauge, LogLevel, Logger, SpanId, Telemetry, TraceCtx};
use ks_vgpu::ShareSpec;

use ks_partition::Profile;

use crate::algorithm::{
    fit_residual, outcome_of, schedule_substrate_prov, Decision, RejectReason, SchedMode,
    SchedRequest,
};
use crate::gpuid::GpuId;
use crate::pool::VgpuPool;
use crate::sharepod::{SharePod, SharePodPhase, SharePodSpec};

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
    /// A sharePod in a pod-backed phase has no backing pod recorded.
    MissingBackingPod {
        /// The sharePod.
        sp: Uid,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::MissingVgpu { gpuid } => write!(f, "vGPU {gpuid} not in pool"),
            SystemError::UnboundSharePod { sp } => write!(f, "sharePod {sp:?} has no bound GPUID"),
            SystemError::VgpuNotReady { gpuid } => write!(f, "vGPU {gpuid} has no node/UUID"),
            SystemError::MissingAnchor { pod } => write!(f, "anchor pod {pod:?} missing"),
            SystemError::MissingBackingPod { sp } => {
                write!(f, "sharePod {sp:?} has no backing pod")
            }
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
    /// anchor pod uid → vGPU it reserves.
    anchor_vgpu: HashMap<Uid, GpuId>,
    /// vGPU → its anchor pod uid.
    vgpu_anchor: HashMap<GpuId, Uid>,
    /// backing pod uid → sharePod uid.
    pod_sp: HashMap<Uid, Uid>,
    /// Backing pods torn down by preemption: their sharePods were reset to
    /// `Pending` synchronously, so the asynchronous `PodDeleted` /
    /// `PodFailed` notice that eventually arrives for them must be
    /// swallowed instead of driving the normal terminal transition.
    preempted_pods: HashSet<Uid>,
    /// sharePods waiting for their vGPU to become ready.
    waiting: HashMap<GpuId, Vec<Uid>>,
    /// Hybrid policy: idle-TTL tickets → the vGPU they refer to.
    idle_tickets: HashMap<u64, GpuId>,
    /// Anchor-retry tickets → the vGPU whose anchor is being relaunched.
    retry_tickets: HashMap<u64, GpuId>,
    /// Partition-reconfiguration tickets → the draining vGPU and the open
    /// `partition/reconfig` span to close at activation.
    reconfig_tickets: HashMap<u64, (GpuId, SpanId)>,
    /// Per-vGPU anchor launch attempts and the node preference to relaunch
    /// with; cleared once the anchor reports in.
    anchor_retry: HashMap<GpuId, AnchorRetry>,
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
    /// Trace context of the sharePod whose decision triggered each vGPU's
    /// anchor, so DevMgr launch/backoff events land in that trace.
    anchor_ctx: HashMap<GpuId, TraceCtx>,
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

/// DevMgr's retry bookkeeping for one vGPU's anchor.
#[derive(Debug, Clone)]
struct AnchorRetry {
    attempts: u32,
    node: Option<String>,
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
            anchor_vgpu: HashMap::new(),
            vgpu_anchor: HashMap::new(),
            pod_sp: HashMap::new(),
            preempted_pods: HashSet::new(),
            waiting: HashMap::new(),
            idle_tickets: HashMap::new(),
            retry_tickets: HashMap::new(),
            reconfig_tickets: HashMap::new(),
            anchor_retry: HashMap::new(),
            next_ticket: 0,
            chaos: None,
            telemetry: Telemetry::disabled(),
            gauges: Gauges::default(),
            recorder: FlightRecorder::disabled(),
            logger: Logger::disabled(),
            sp_trace: HashMap::new(),
            anchor_ctx: HashMap::new(),
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
    /// the tallies drift — `verify_sp_tally` cross-checks in tests).
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

    /// Recounts the phase tallies from the store (test cross-check for
    /// [`KubeShareSystem::transition_sp`] discipline).
    #[cfg(test)]
    pub(crate) fn verify_sp_tally(&self) -> Result<(), String> {
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
        let waiting: usize = self.waiting.values().map(Vec::len).sum();
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

    /// The sharePod store (for watches).
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
    /// namespace per tenant, so a tenant's objects are separable through
    /// the store's [`Store::iter_namespace`] views.
    pub fn submit_sharepod_in(
        &mut self,
        now: SimTime,
        namespace: impl Into<String>,
        name: impl Into<String>,
        spec: SharePodSpec,
        out: &mut KsEmit,
    ) -> Uid {
        spec.share.validate().expect("invalid share spec");
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
        match sharepod.status.phase {
            SharePodPhase::Pending | SharePodPhase::Rejected => {
                self.transition_sp(sp, SharePodPhase::Terminated, |_| {});
                self.close_sp_trace(now, sp, "deleted");
            }
            SharePodPhase::AwaitingVgpu => {
                let Some(gpuid) = sharepod.status.bound_gpuid.clone() else {
                    self.transition_sp(sp, SharePodPhase::Terminated, |_| {});
                    self.close_sp_trace(now, sp, "deleted");
                    notices.push(KsNotice::Fault {
                        error: SystemError::UnboundSharePod { sp },
                    });
                    return;
                };
                if let Some(w) = self.waiting.get_mut(&gpuid) {
                    w.retain(|&u| u != sp);
                }
                let became_idle = self.pool.detach(&gpuid, sp);
                self.transition_sp(sp, SharePodPhase::Terminated, |_| {});
                self.close_sp_trace(now, sp, "deleted");
                if became_idle {
                    self.apply_pool_policy(now, &gpuid, out, notices);
                }
            }
            SharePodPhase::Starting | SharePodPhase::Running => {
                let Some(pod) = sharepod.status.pod_uid else {
                    // Starting but the CreatePod event has not fired yet:
                    // nothing exists in the cluster; tear down locally.
                    let gpuid = sharepod.status.bound_gpuid.clone();
                    self.transition_sp(sp, SharePodPhase::Terminated, |_| {});
                    self.close_sp_trace(now, sp, "deleted");
                    if let Some(gpuid) = gpuid {
                        if self.pool.get(&gpuid).is_some() {
                            let became_idle = self.pool.detach(&gpuid, sp);
                            if became_idle {
                                self.apply_pool_policy(now, &gpuid, out, notices);
                            }
                        }
                    } else {
                        notices.push(KsNotice::Fault {
                            error: SystemError::MissingBackingPod { sp },
                        });
                    }
                    return;
                };
                let mut cluster_out = Vec::new();
                let mut cluster_notes = Vec::new();
                self.cluster
                    .delete_pod(now, pod, &mut cluster_out, &mut cluster_notes);
                lift(cluster_out, out);
                // Detach bookkeeping happens when PodDeleted arrives.
                self.process_cluster_notices(now, cluster_notes, out, notices);
            }
            SharePodPhase::Terminated => {}
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
        let mut cluster_out = Vec::new();
        let uid = self.cluster.submit_pod(now, name, spec, &mut cluster_out);
        lift(cluster_out, out);
        uid
    }

    /// Deletes a native pod.
    pub fn delete_native_pod(
        &mut self,
        now: SimTime,
        pod: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let mut cluster_out = Vec::new();
        let mut cluster_notes = Vec::new();
        self.cluster
            .delete_pod(now, pod, &mut cluster_out, &mut cluster_notes);
        lift(cluster_out, out);
        self.process_cluster_notices(now, cluster_notes, out, notices);
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
                let mut cluster_out = Vec::new();
                let mut cluster_notes = Vec::new();
                self.cluster
                    .handle(now, cev, &mut cluster_out, &mut cluster_notes);
                lift(cluster_out, out);
                self.process_cluster_notices(now, cluster_notes, out, notices);
            }
            KsEvent::SchedDecide { sp } => self.on_sched_decide(now, sp, out, notices),
            KsEvent::CreatePod { sp } => self.on_create_pod(now, sp, out, notices),
            KsEvent::ReleaseIdleVgpu { ticket } => {
                if let Some(gpuid) = self.idle_tickets.remove(&ticket) {
                    let still_idle = self
                        .pool
                        .get(&gpuid)
                        .map(|d| d.is_idle() && !d.releasing)
                        .unwrap_or(false);
                    if still_idle {
                        self.release_vgpu(now, &gpuid, out, notices);
                    }
                }
            }
            KsEvent::RetryAnchor { ticket } => self.on_retry_anchor(now, ticket, out, notices),
            KsEvent::PartitionActivate { ticket } => self.on_partition_activate(now, ticket),
        }
        self.record_gauges();
    }

    // ---- fault entry points ----
    //
    // The embedding world routes `ks_chaos::ChaosEvent`s into these; they
    // are equally usable directly from tests.

    /// A node crashed: the kubelet and every container on it are gone.
    /// DevMgr marks the node's vGPUs dead, releases their GPUIDs, and
    /// re-queues every attached or waiting sharePod through Algorithm 1
    /// against the surviving pool.
    pub fn fail_node(
        &mut self,
        now: SimTime,
        name: &str,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let mut cluster_notes = Vec::new();
        let victims = self.cluster.fail_node(now, name, &mut cluster_notes);
        // Per-node failure counter: the control plane's own observation
        // point, giving anomaly detectors a per-node crash-burn series.
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_node_failures_total", &[("node", name)])
                .inc();
        }

        // vGPUs whose physical device sat on the failed node, straight
        // from the per-node index (releasing devices included — their
        // anchors died with the node too).
        let dead: Vec<GpuId> = self.pool.devices_on_node(name).cloned().collect();

        // Victim pods we account for here; everything else (native pods)
        // passes through as a plain cluster notice.
        let mut displaced: Vec<Uid> = Vec::new();
        for pod in victims {
            if let Some(gpuid) = self.anchor_vgpu.remove(&pod) {
                // The anchor died with its node; the vGPU is handled below
                // (it is necessarily in `dead` — anchors run on the node
                // that hosts the device).
                self.vgpu_anchor.remove(&gpuid);
                self.anchor_retry.remove(&gpuid);
            } else if let Some(sp) = self.pod_sp.remove(&pod) {
                // Pods mid-preemption-teardown: their sharePods are already
                // `Pending`, so the node taking the pod down changes nothing.
                if !self.preempted_pods.remove(&pod) {
                    displaced.push(sp);
                }
            } else {
                notices.push(KsNotice::Cluster(ClusterNotice::PodFailed {
                    pod,
                    reason: "node failure".into(),
                }));
            }
        }

        for gpuid in dead {
            // Tenants lose their binding: detach them all, then drop the
            // device and its GPUID.
            let tenants: Vec<Uid> = self
                .pool
                .get(&gpuid)
                .map(|d| d.attached.keys().copied().collect())
                .unwrap_or_default();
            for sp in &tenants {
                self.pool.detach(&gpuid, *sp);
                if !displaced.contains(sp) {
                    displaced.push(*sp);
                }
            }
            for sp in self.waiting.remove(&gpuid).unwrap_or_default() {
                if !displaced.contains(&sp) {
                    displaced.push(sp);
                }
            }
            if let Some(&anchor) = self.vgpu_anchor.get(&gpuid) {
                // The anchor pod survived in the store as Failed; forget it.
                self.anchor_vgpu.remove(&anchor);
                self.vgpu_anchor.remove(&gpuid);
            }
            self.anchor_retry.remove(&gpuid);
            self.pool.remove(&gpuid);
            self.note_vgpu_churn(now, "vgpu_lost", &gpuid);
            notices.push(KsNotice::VgpuLost {
                gpuid,
                reason: "node failure".into(),
            });
        }

        // Creating vGPUs may also have been waiting on an anchor that died
        // with the node (covered above via anchor_vgpu) — anything still in
        // the pool keeps its pending anchor retry/unschedulable state.

        for sp in displaced {
            self.requeue_sharepod(now, sp, out, notices);
        }
        self.record_gauges();
    }

    /// A crashed node rejoined with empty state; queued work is retried.
    pub fn recover_node(&mut self, now: SimTime, name: &str, out: &mut KsEmit) {
        let mut cluster_out = Vec::new();
        self.cluster.recover_node(now, name, &mut cluster_out);
        lift(cluster_out, out);
    }

    /// Cordons a node (remediation path): running sharePods stay, but no
    /// new placements land on it until [`KubeShareSystem::uncordon_node`].
    /// Idempotent; returns whether the state changed.
    pub fn cordon_node(&mut self, name: &str) -> bool {
        let changed = self.cluster.cordon_node(name);
        if changed && self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_node_cordons_total", &[("node", name)])
                .inc();
            self.telemetry
                .gauge("ks_cluster_cordoned_nodes", &[])
                .add(1.0);
        }
        changed
    }

    /// Lifts a cordon; queued work is retried against the node. Idempotent;
    /// returns whether the state changed.
    pub fn uncordon_node(&mut self, now: SimTime, name: &str, out: &mut KsEmit) -> bool {
        let mut cluster_out = Vec::new();
        let changed = self.cluster.uncordon_node(now, name, &mut cluster_out);
        lift(cluster_out, out);
        if changed && self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_node_uncordons_total", &[("node", name)])
                .inc();
            self.telemetry
                .gauge("ks_cluster_cordoned_nodes", &[])
                .add(-1.0);
        }
        changed
    }

    /// Drains every sharePod off a live vGPU and retires the device: each
    /// attached tenant is detached (with a [`KsNotice::SharePodStopped`]
    /// so the embedding world tears down container state), its backing
    /// pod is deleted, waiters are re-queued, and the device goes back to
    /// Kubernetes through the normal release path. Because the device is
    /// marked `releasing` immediately, Algorithm 1 cannot re-bind any of
    /// the displaced sharePods to it — they land on other vGPUs or fresh
    /// ones. This is the remediation path for a degraded GPU: a
    /// replacement vGPU is a fresh physical allocation and therefore
    /// healthy. Returns the number of sharePods displaced; 0 when the
    /// vGPU is unknown or already being released.
    pub fn drain_vgpu(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        let Some(device) = self.pool.get(gpuid) else {
            return 0;
        };
        if device.releasing {
            return 0;
        }
        let mut tenants: Vec<Uid> = device.attached.keys().copied().collect();
        tenants.sort();
        let node = device.node.clone();
        let uuid = device.uuid.clone();
        let mut displaced = 0;
        for sp in tenants {
            if let (Some(node), Some(uuid)) = (node.clone(), uuid.clone()) {
                notices.push(KsNotice::SharePodStopped {
                    sp,
                    gpuid: gpuid.clone(),
                    node,
                    uuid,
                });
            }
            self.pool.detach(gpuid, sp);
            // Capture the backing pod before the requeue clears it; its
            // teardown mirrors preemption (the deletion notice must not
            // terminate the already-Pending sharePod).
            let pod = self.sharepods.get(sp).and_then(|s| s.status.pod_uid);
            self.requeue_sharepod(now, sp, out, notices);
            if let Some(pod) = pod {
                self.preempted_pods.insert(pod);
                let mut cluster_out = Vec::new();
                let mut cluster_notes = Vec::new();
                self.cluster
                    .delete_pod(now, pod, &mut cluster_out, &mut cluster_notes);
                lift(cluster_out, out);
                self.process_cluster_notices(now, cluster_notes, out, notices);
            }
            displaced += 1;
        }
        for sp in self.waiting.remove(gpuid).unwrap_or_default() {
            self.requeue_sharepod(now, sp, out, notices);
            displaced += 1;
        }
        self.release_vgpu(now, gpuid, out, notices);
        if self.telemetry.is_enabled() {
            self.telemetry.counter("ks_vgpu_drains_total", &[]).inc();
        }
        self.record_gauges();
        displaced
    }

    /// Drains the tenant of a single slice on a partitioned vGPU: the
    /// slice's sharePod is stopped, detached — freeing only its slice —
    /// and re-queued through Algorithm 1; every other slice on the device
    /// keeps running. This is the remediation path for a degraded slice:
    /// spatial isolation means the fault stops at the slice boundary, so
    /// retiring the whole device (as [`KubeShareSystem::drain_vgpu`] does)
    /// would displace healthy tenants for nothing. Returns the number of
    /// sharePods displaced (0 when the vGPU is unknown, not partitioned,
    /// releasing, or the slice has no tenant).
    pub fn drain_slice(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        start: u8,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        let Some(device) = self.pool.get(gpuid) else {
            return 0;
        };
        if device.releasing || !device.is_spatial() {
            return 0;
        }
        let node = device.node.clone();
        let uuid = device.uuid.clone();
        let Some(sp) = self.pool.slice_tenant(gpuid, start) else {
            return 0;
        };
        if let (Some(node), Some(uuid)) = (node, uuid) {
            notices.push(KsNotice::SharePodStopped {
                sp,
                gpuid: gpuid.clone(),
                node,
                uuid,
            });
        }
        let became_idle = self.pool.detach(gpuid, sp);
        let pod = self.sharepods.get(sp).and_then(|s| s.status.pod_uid);
        self.requeue_sharepod(now, sp, out, notices);
        if let Some(pod) = pod {
            self.preempted_pods.insert(pod);
            let mut cluster_out = Vec::new();
            let mut cluster_notes = Vec::new();
            self.cluster
                .delete_pod(now, pod, &mut cluster_out, &mut cluster_notes);
            lift(cluster_out, out);
            self.process_cluster_notices(now, cluster_notes, out, notices);
        }
        if let Some(w) = self.waiting.get_mut(gpuid) {
            w.retain(|&u| u != sp);
        }
        if became_idle {
            self.apply_pool_policy(now, gpuid, out, notices);
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_vgpu_slice_drains_total", &[])
                .inc();
        }
        self.record_gauges();
        1
    }

    /// Remediation entry point that understands both substrates: a plain
    /// `"<gpuid>"` target drains the whole vGPU, while `"<gpuid>#sN"`
    /// drains only slice `N` on a partitioned vGPU. Returns the number of
    /// sharePods displaced.
    pub fn drain_target(
        &mut self,
        now: SimTime,
        target: &str,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        match target.split_once("#s") {
            Some((gpu, slot)) => match slot.parse::<u8>() {
                Ok(start) => self.drain_slice(now, &GpuId::named(gpu), start, out, notices),
                Err(_) => 0,
            },
            None => self.drain_vgpu(now, &GpuId::named(target), out, notices),
        }
    }

    /// Crashes a single pod (container exit / OOM kill) and routes the
    /// consequences through the KubeShare controllers.
    pub fn crash_pod(
        &mut self,
        now: SimTime,
        pod: Uid,
        reason: impl Into<String>,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let mut cluster_out = Vec::new();
        let mut cluster_notes = Vec::new();
        self.cluster
            .crash_pod(now, pod, reason, &mut cluster_out, &mut cluster_notes);
        lift(cluster_out, out);
        self.process_cluster_notices(now, cluster_notes, out, notices);
        self.record_gauges();
    }

    /// Uids of all running sharePod backing pods (chaos victim candidates).
    pub fn running_backing_pods(&self) -> Vec<Uid> {
        let mut pods: Vec<Uid> = self
            .pod_sp
            .iter()
            .filter(|(&pod, _)| {
                self.cluster
                    .pod(pod)
                    .map(|p| p.status.phase == ks_cluster::PodPhase::Running)
                    .unwrap_or(false)
            })
            .map(|(&pod, _)| pod)
            .collect();
        pods.sort();
        pods
    }

    /// Pushes a sharePod back to `Pending` (clearing any binding) and
    /// schedules a fresh Algorithm 1 pass, unless it already terminated.
    fn requeue_sharepod(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        self.requeue_sharepod_at(now, sp, now + self.cfg.sched_latency, out, notices);
    }

    /// [`KubeShareSystem::requeue_sharepod`] with an explicit decision
    /// time: partition reconfiguration re-decides its displaced tenants
    /// only once the new layout is active, so they do not stampede onto
    /// fresh physical GPUs while the capacity they need is mid-reshape.
    fn requeue_sharepod_at(
        &mut self,
        now: SimTime,
        sp: Uid,
        decide_at: SimTime,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        if matches!(
            sharepod.status.phase,
            SharePodPhase::Terminated | SharePodPhase::Rejected
        ) {
            return;
        }
        let gpuid = sharepod.status.bound_gpuid.clone();
        self.transition_sp(sp, SharePodPhase::Pending, |s| {
            s.status.bound_gpuid = None;
            s.status.pod_uid = None;
            s.status.message = Some("requeued after failure".into());
        });
        notices.push(KsNotice::SharePodRequeued { sp, gpuid });
        if self.telemetry.is_enabled() {
            self.telemetry.counter("ks_sched_requeues_total", &[]).inc();
            let ctx = self.sp_ctx(sp);
            self.telemetry
                .trace_event_in(now, ctx, "sched", "requeue", &[("sp", &sp.to_string())]);
            // A fresh schedule span for the new Algorithm 1 pass; any span
            // left open by the failed attempt ends here.
            if self.sp_trace.contains_key(&sp) {
                let sched_span = self
                    .telemetry
                    .span_begin_in(now, ctx, "sched", "schedule", &[]);
                let tr = self.sp_trace.get_mut(&sp).expect("just checked");
                let vgpu_span = std::mem::replace(&mut tr.vgpu_span, SpanId::NONE);
                let pod_span = std::mem::replace(&mut tr.pod_span, SpanId::NONE);
                tr.sched_span = sched_span;
                self.telemetry.span_end(now, vgpu_span, &[]);
                self.telemetry.span_end(now, pod_span, &[]);
            }
        }
        out.push((decide_at, KsEvent::SchedDecide { sp }));
    }

    /// Evicts a sharePod to make room for higher-priority work (the
    /// gateway's preemption policy). Its capacity is detached from the
    /// vGPU *synchronously* — the freed room is visible to the very next
    /// Algorithm 1 pass — and the sharePod returns to `Pending` without a
    /// `SchedDecide` being scheduled: the caller re-enters it through
    /// [`KubeShareSystem::drain_pending`], whose priority ordering places
    /// it after everything that outranks it. The backing pod (if any) is
    /// torn down through the cluster; its eventual deletion notice is
    /// swallowed. Returns `false` when the sharePod does not exist, is
    /// still `Pending`, or already reached a terminal phase.
    pub fn preempt_sharepod(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> bool {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return false;
        };
        if matches!(
            sharepod.status.phase,
            SharePodPhase::Pending | SharePodPhase::Rejected | SharePodPhase::Terminated
        ) {
            return false;
        }
        let gpuid = sharepod.status.bound_gpuid.clone();
        let pod = sharepod.status.pod_uid;

        // Free the vGPU capacity now. The `SharePodStopped` notice lets
        // the embedding world detach any container state for the binding.
        if let Some(gpuid) = &gpuid {
            if let Some(w) = self.waiting.get_mut(gpuid) {
                w.retain(|&u| u != sp);
            }
            if let Some(device) = self.pool.get(gpuid) {
                if let (Some(node), Some(uuid)) = (device.node.clone(), device.uuid.clone()) {
                    notices.push(KsNotice::SharePodStopped {
                        sp,
                        gpuid: gpuid.clone(),
                        node,
                        uuid,
                    });
                }
                let became_idle = self.pool.detach(gpuid, sp);
                if became_idle {
                    self.apply_pool_policy(now, gpuid, out, notices);
                }
            }
        }

        self.transition_sp(sp, SharePodPhase::Pending, |s| {
            s.status.bound_gpuid = None;
            s.status.pod_uid = None;
            s.status.message = Some("preempted".into());
        });
        // Victim-side provenance: the eviction is a decision about this
        // sharePod, keyed to its trace like any scheduling record.
        let victim_ctx = self.sp_ctx(sp);
        if self.recorder.is_enabled() {
            let target = gpuid
                .as_ref()
                .map(|g| g.as_str().to_string())
                .unwrap_or_default();
            self.recorder.record(SchedProv::on().into_record(
                now,
                sp.0,
                victim_ctx.trace,
                DecisionKind::PreemptVictim,
                Outcome::Evicted {
                    target: target.into(),
                },
            ));
        }
        self.logger.log(
            now,
            LogLevel::Warn,
            "sched",
            victim_ctx.trace,
            || format!("sharePod {sp}: evicted for higher-priority work"),
            || vec![("sp".into(), sp.to_string())],
        );
        notices.push(KsNotice::SharePodPreempted { sp, gpuid });
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_sched_preemptions_total", &[])
                .inc();
            let ctx = self.sp_ctx(sp);
            self.telemetry
                .trace_event_in(now, ctx, "sched", "preempt", &[("sp", &sp.to_string())]);
            // Same span bookkeeping as a requeue: end whatever child span
            // the evicted attempt left open, open a fresh schedule span
            // for the next Algorithm 1 pass.
            if self.sp_trace.contains_key(&sp) {
                let sched_span = self
                    .telemetry
                    .span_begin_in(now, ctx, "sched", "schedule", &[]);
                let tr = self.sp_trace.get_mut(&sp).expect("just checked");
                let old_sched = std::mem::replace(&mut tr.sched_span, sched_span);
                let vgpu_span = std::mem::replace(&mut tr.vgpu_span, SpanId::NONE);
                let pod_span = std::mem::replace(&mut tr.pod_span, SpanId::NONE);
                self.telemetry.span_end(now, old_sched, &[]);
                self.telemetry.span_end(now, vgpu_span, &[]);
                self.telemetry.span_end(now, pod_span, &[]);
            }
        }

        // Tear the backing pod down last: the deletion runs through the
        // cluster asynchronously, and the sharePod's state must already
        // be reset when any synchronous notice comes back.
        if let Some(pod) = pod {
            self.preempted_pods.insert(pod);
            let mut cluster_out = Vec::new();
            let mut cluster_notes = Vec::new();
            self.cluster
                .delete_pod(now, pod, &mut cluster_out, &mut cluster_notes);
            lift(cluster_out, out);
            self.process_cluster_notices(now, cluster_notes, out, notices);
        }
        self.record_gauges();
        true
    }

    // ---- KubeShare-Sched ----

    /// Batch scheduler entry point: decides every `Pending` sharePod in
    /// one pass — highest priority class first, uid order within a class —
    /// with each decision applied to the pool (bind / anchor launch /
    /// reject) before the next one runs: the same per-decision semantics
    /// as the event-driven path, without paying one `sched_latency`
    /// round-trip per sharePod. The priority ordering is what makes
    /// preemption stick: a preemptor drained in the same pass as its
    /// freshly-`Pending` victims claims the freed capacity before any of
    /// them is decided. Any `SchedDecide` events already queued for these
    /// sharePods become no-ops (the phase has moved past `Pending`).
    /// Returns the batch length.
    pub fn drain_pending(
        &mut self,
        now: SimTime,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        let mut pending: Vec<(u8, Uid)> = self
            .sharepods
            .iter()
            .filter(|(_, s)| s.status.phase == SharePodPhase::Pending)
            .map(|(uid, s)| (s.spec.priority, uid))
            .collect();
        // Store iteration order is a hash order; the batch must not be.
        pending.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let batch_len = pending.len();
        for (_, sp) in pending {
            self.on_sched_decide(now, sp, out, notices);
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .histogram_log("sched_batch_len", &[], 1.0, 1e6, 30)
                .observe(batch_len as f64);
            self.telemetry.trace_event(
                now,
                "sched",
                "batch_drain",
                &[("len", &batch_len.to_string())],
            );
        }
        batch_len
    }

    /// Removes a terminal sharePod from the API store — the analogue of
    /// the cluster's pod GC, without which a long-running control plane
    /// iterates every sharePod that ever lived on each batch drain. Live
    /// sharePods are never collected. Returns whether an object was
    /// removed.
    pub fn gc_sharepod(&mut self, sp: Uid) -> bool {
        let terminal = self
            .sharepods
            .get(sp)
            .map(|s| {
                matches!(
                    s.status.phase,
                    SharePodPhase::Terminated | SharePodPhase::Rejected
                )
            })
            .unwrap_or(false);
        if !terminal {
            return false;
        }
        self.sharepods.delete(sp);
        self.sp_trace.remove(&sp);
        true
    }

    /// Whether a brand-new vGPU could actually anchor right now: free
    /// physical GPUs net of the creating vGPUs already racing for them.
    fn has_spare_physical_gpu(&self) -> bool {
        let free = self.cluster.free_total().extended_count(NVIDIA_GPU);
        let (creating, _, _) = self.pool.phase_counts();
        free > u64::from(creating)
    }

    /// Whether any sharePod of a strictly lower priority class currently
    /// holds vGPU capacity — i.e. whether preemption could make room.
    fn has_attached_below(&self, priority: u8) -> bool {
        self.pool.devices().any(|d| {
            d.attached.keys().any(|&uid| {
                self.sharepods
                    .get(uid)
                    .map(|s| s.spec.priority < priority)
                    .unwrap_or(false)
            })
        })
    }

    fn on_sched_decide(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        if sharepod.status.phase != SharePodPhase::Pending {
            return; // deleted while queued
        }
        let submitted = sharepod.meta.created_at;
        let spec = sharepod.spec.clone();
        let req = SchedRequest {
            util: spec.share.request,
            mem: spec.share.mem,
            locality: spec.locality.clone(),
        };
        let mut prov = SchedProv::for_recorder(&self.recorder);
        let decision = match &spec.gpuid {
            // Explicit GPUID: an existing vGPU binds directly; a
            // non-existent GPUID asks DevMgr to create one (paper §4.4).
            Some(id) => match self.pool.get(id) {
                Some(d) => {
                    let fits = if let Some(table) = &d.partition {
                        // Pinning to a partitioned vGPU asks for a slice:
                        // the demand's covering profile must have a legal
                        // start in the current layout.
                        Profile::smallest_covering(spec.share.request.max(spec.share.mem))
                            .map(|p| table.can_place(p))
                            .unwrap_or(false)
                    } else {
                        d.fits(req.util, req.mem)
                    };
                    prov.candidate_with("pinned", d.fit_key(), || d.id.as_str().to_string());
                    if !d.releasing && fits {
                        prov.choose(d.id.as_str(), "pinned", d.fit_key());
                        prov.note(|| format!("spec pins GPUID {id}; it fits"));
                        Decision::Assign(id.clone())
                    } else {
                        prov.reject(ReasonCode::PinnedUnfit);
                        prov.note(|| format!("spec pins GPUID {id}; it cannot host the demand"));
                        Decision::Reject(RejectReason::InsufficientCapacity)
                    }
                }
                None => {
                    prov.note(|| format!("spec pins unknown GPUID {id}; DevMgr will create it"));
                    Decision::NewDevice(id.clone())
                }
            },
            None => schedule_substrate_prov(
                self.cfg.sched_mode,
                spec.substrate,
                &req,
                &mut self.pool,
                &mut prov,
            ),
        };

        if self.telemetry.is_enabled() {
            let outcome = match &decision {
                Decision::Assign(_) => "assign",
                Decision::NewDevice(_) => "new_device",
                Decision::Reconfigure(_) => "reconfigure",
                Decision::Reject(_) => "reject",
            };
            self.telemetry
                .counter("ks_sched_decisions_total", &[("outcome", outcome)])
                .inc();
            // Submission-to-decision latency; re-queued sharePods keep
            // their original submission time, so requeues stretch the tail.
            self.telemetry
                .histogram_seconds("ks_sched_decision_seconds", &[])
                .observe(now.saturating_since(submitted).as_secs_f64());
            if let Decision::Assign(gpuid) = &decision {
                // util + mem residual each in [0,1] → fit score in [0,2].
                if let Some(r) = fit_residual(&req, &self.pool, gpuid) {
                    self.telemetry
                        .histogram_linear("ks_sched_fit_residual", &[], 0.0, 2.0, 20)
                        .observe(r);
                }
            }
            let target = match &decision {
                Decision::Assign(g) | Decision::NewDevice(g) | Decision::Reconfigure(g) => {
                    g.to_string()
                }
                Decision::Reject(r) => format!("{r:?}"),
            };
            let ctx = self.sp_ctx(sp);
            self.telemetry.trace_event_in(
                now,
                ctx,
                "sched",
                "decision",
                &[
                    ("sp", &sp.to_string()),
                    ("outcome", outcome),
                    ("target", &target),
                ],
            );
            // The schedule span (opened at submission/requeue) ends at the
            // decision, carrying the outcome.
            if let Some(tr) = self.sp_trace.get_mut(&sp) {
                let span = std::mem::replace(&mut tr.sched_span, SpanId::NONE);
                self.telemetry
                    .span_end(now, span, &[("outcome", outcome), ("target", &target)]);
            }
        }

        // Evaluate the awaiting-preemption holds once, up front, so the
        // provenance outcome recorded below and the control flow in the
        // match agree exactly (including for `drain_pending` entries,
        // which take this same path — the typed reason is never dropped
        // mid-batch).
        let parks = match &decision {
            // A priority class above the floor does not take "no" while
            // strictly lower-priority work holds pool capacity: it stays
            // Pending so the front door's preemption pump can evict on
            // its behalf and re-decide. Priority-0 workloads (everything
            // pre-gateway) keep the paper's reject semantics.
            Decision::Reject(_) => spec.priority > 0 && self.has_attached_below(spec.priority),
            // Same hold for a new vGPU: it needs a free physical GPU, and
            // the algorithm cannot see that the cluster is out of them.
            // Rather than park a high-priority sharePod behind an anchor
            // that cannot start, keep it Pending so preemption can free
            // existing capacity for it.
            Decision::NewDevice(_) => {
                spec.priority > 0
                    && !self.has_spare_physical_gpu()
                    && self.has_attached_below(spec.priority)
            }
            _ => false,
        };
        let outcome = if parks {
            prov.reject(ReasonCode::AwaitingPreemption);
            Outcome::Held {
                reason: ReasonCode::AwaitingPreemption,
            }
        } else {
            outcome_of(&decision, &prov)
        };
        self.record_sched_outcome(now, sp, prov, outcome);

        match decision {
            Decision::Reject(reason) => {
                if parks {
                    self.sharepods.mutate(sp, |s| {
                        s.status.message = Some("awaiting preemption".to_string());
                    });
                    return;
                }
                self.transition_sp(sp, SharePodPhase::Rejected, |s| {
                    s.status.message = Some(format!("{reason:?}"));
                });
                self.close_sp_trace(now, sp, "rejected");
                notices.push(KsNotice::SharePodRejected {
                    sp,
                    reason: format!("{reason:?}"),
                });
            }
            Decision::Assign(gpuid) => {
                self.bind(now, sp, &spec, gpuid, out);
            }
            Decision::NewDevice(gpuid) => {
                if parks {
                    self.sharepods.mutate(sp, |s| {
                        s.status.message = Some("awaiting preemption".to_string());
                    });
                    return;
                }
                if spec
                    .substrate
                    .wants_spatial(spec.share.request, spec.share.mem)
                {
                    self.pool.insert_creating_spatial(gpuid.clone());
                } else {
                    self.pool.insert_creating(gpuid.clone());
                }
                // DevMgr work for this vGPU is on behalf of the sharePod
                // whose decision demanded it.
                let ctx = self.sp_ctx(sp);
                if !ctx.is_none() {
                    self.anchor_ctx.insert(gpuid.clone(), ctx);
                }
                self.launch_anchor(now, &gpuid, spec.node_name.clone(), out, notices);
                // The launch may have failed and be backing off — the
                // sharePod still binds and waits; a successful retry will
                // release it, and exhausted retries re-queue it.
                if self.pool.get(&gpuid).is_some() {
                    self.bind(now, sp, &spec, gpuid, out);
                }
            }
            Decision::Reconfigure(gpuid) => {
                self.reconfigure_partition(now, sp, gpuid, out, notices);
            }
        }
    }

    /// Records the sharePod on the vGPU; creates the backing pod now (ready
    /// vGPU) or parks it until the anchor reports the UUID. On a
    /// partitioned vGPU the demand binds to a dedicated slice; the path is
    /// picked by the *device's* substrate, so an explicit-GPUID pin to a
    /// partitioned device gets a slice regardless of the spec's substrate.
    fn bind(&mut self, now: SimTime, sp: Uid, spec: &SharePodSpec, gpuid: GpuId, out: &mut KsEmit) {
        let is_spatial = self
            .pool
            .get(&gpuid)
            .map(|d| d.is_spatial())
            .unwrap_or(false);
        if is_spatial {
            let demand = spec.share.request.max(spec.share.mem);
            let bound = Profile::smallest_covering(demand).and_then(|profile| {
                self.pool
                    .attach_slice(
                        &gpuid,
                        sp,
                        profile,
                        spec.share.request,
                        spec.share.mem,
                        spec.locality.affinity.as_deref(),
                        spec.locality.anti_affinity.as_deref(),
                        spec.locality.exclusion.as_deref(),
                    )
                    .ok()
            });
            if bound.is_none() {
                // The slice the decision counted on was taken (or the
                // table started draining) between decide and bind: stay
                // Pending and re-decide against fresh state.
                self.sharepods.mutate(sp, |s| {
                    s.status.message = Some("slice bind raced; re-deciding".into());
                });
                out.push((now + self.cfg.sched_latency, KsEvent::SchedDecide { sp }));
                return;
            }
        } else {
            self.pool.attach(
                &gpuid,
                sp,
                spec.share.request,
                spec.share.mem,
                spec.locality.affinity.as_deref(),
                spec.locality.anti_affinity.as_deref(),
                spec.locality.exclusion.as_deref(),
            );
        }
        let ready = self
            .pool
            .get(&gpuid)
            .map(|d| d.uuid.is_some())
            .unwrap_or(false);
        let next = if ready {
            SharePodPhase::Starting
        } else {
            SharePodPhase::AwaitingVgpu
        };
        self.transition_sp(sp, next, |s| {
            s.status.bound_gpuid = Some(gpuid.clone());
        });
        if ready {
            self.open_pod_span(now, sp, &gpuid);
            out.push((now + self.cfg.vgpu_query_latency, KsEvent::CreatePod { sp }));
        } else {
            if self.sp_trace.contains_key(&sp) {
                let ctx = self.sp_ctx(sp);
                let span = self.telemetry.span_begin_in(
                    now,
                    ctx,
                    "devmgr",
                    "vgpu_create",
                    &[("gpuid", gpuid.as_str())],
                );
                self.sp_trace.get_mut(&sp).expect("just checked").vgpu_span = span;
            }
            self.waiting.entry(gpuid).or_default().push(sp);
        }
    }

    /// Opens the pod-creation child span (Starting → Running).
    fn open_pod_span(&mut self, now: SimTime, sp: Uid, gpuid: &GpuId) {
        if self.sp_trace.contains_key(&sp) {
            let ctx = self.sp_ctx(sp);
            let span = self.telemetry.span_begin_in(
                now,
                ctx,
                "cluster",
                "pod_create",
                &[("gpuid", gpuid.as_str())],
            );
            self.sp_trace.get_mut(&sp).expect("just checked").pod_span = span;
        }
    }

    /// Applies a [`Decision::Reconfigure`] verdict: the capacity the
    /// request needs exists on `gpuid` but the slice layout strands it, so
    /// pay the explicit reconfiguration cost instead of burning a fresh
    /// physical GPU. The device drains (tenants are stopped and displaced
    /// exactly as in a vGPU drain, but the device survives), the new
    /// layout activates `partition_reconfig_cost` later, and the
    /// triggering sharePod plus every displaced tenant re-decide only once
    /// it is live — re-deciding earlier would stampede them onto new
    /// devices while the capacity they need is mid-reshape.
    fn reconfigure_partition(
        &mut self,
        now: SimTime,
        sp: Uid,
        gpuid: GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let mut tenants = match self.pool.begin_partition_drain(&gpuid) {
            Ok(t) => t,
            Err(_) => {
                // The table left `Active` between decide and apply (a
                // concurrent reconfiguration); park the sharePod for a
                // fresh pass against the settled pool.
                self.sharepods.mutate(sp, |s| {
                    s.status.message = Some("partition busy; re-deciding".into());
                });
                out.push((now + self.cfg.sched_latency, KsEvent::SchedDecide { sp }));
                return;
            }
        };
        tenants.sort();
        // Reconfigure provenance: which device is being reshaped, on whose
        // behalf, and who gets displaced for it.
        let reconfig_ctx = self.sp_ctx(sp);
        if self.recorder.is_enabled() {
            let mut rec = SchedProv::on().into_record(
                now,
                sp.0,
                reconfig_ctx.trace,
                DecisionKind::Reconfigure,
                Outcome::Reconfigure {
                    target: gpuid.as_str().into(),
                },
            );
            rec.fields
                .push(("displaced".into(), tenants.len().to_string()));
            self.recorder.record(rec);
        }
        self.logger.log(
            now,
            LogLevel::Warn,
            "partition",
            reconfig_ctx.trace,
            || {
                format!(
                    "sharePod {sp}: reconfiguring {gpuid} (displacing {} tenants)",
                    tenants.len()
                )
            },
            || {
                vec![
                    ("sp".into(), sp.to_string()),
                    ("gpuid".into(), gpuid.to_string()),
                ]
            },
        );
        let span = if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_partition_reconfigs_total", &[])
                .inc();
            let ctx = self.sp_ctx(sp);
            self.telemetry.span_begin_in(
                now,
                ctx,
                "partition",
                "reconfig",
                &[
                    ("gpuid", gpuid.as_str()),
                    ("displaced", &tenants.len().to_string()),
                ],
            )
        } else {
            SpanId::NONE
        };
        let (node, uuid) = self
            .pool
            .get(&gpuid)
            .map(|d| (d.node.clone(), d.uuid.clone()))
            .unwrap_or((None, None));
        let mut displaced = tenants.clone();
        for w in self.waiting.remove(&gpuid).unwrap_or_default() {
            if !displaced.contains(&w) {
                displaced.push(w);
            }
        }
        for &t in &tenants {
            if let (Some(node), Some(uuid)) = (node.clone(), uuid.clone()) {
                notices.push(KsNotice::SharePodStopped {
                    sp: t,
                    gpuid: gpuid.clone(),
                    node,
                    uuid,
                });
            }
            self.pool.detach(&gpuid, t);
            // Backing-pod teardown mirrors preemption: the eventual
            // deletion notice must not terminate the requeued sharePod.
            let pod = self.sharepods.get(t).and_then(|s| s.status.pod_uid);
            if let Some(pod) = pod {
                self.preempted_pods.insert(pod);
                let mut cluster_out = Vec::new();
                let mut cluster_notes = Vec::new();
                self.cluster
                    .delete_pod(now, pod, &mut cluster_out, &mut cluster_notes);
                lift(cluster_out, out);
                self.process_cluster_notices(now, cluster_notes, out, notices);
            }
        }
        let until = self
            .pool
            .note_partition_drained(&gpuid, now, self.cfg.partition_reconfig_cost)
            .expect("all tenants just detached");
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.reconfig_tickets.insert(ticket, (gpuid, span));
        out.push((until, KsEvent::PartitionActivate { ticket }));
        let decide_at = until + self.cfg.sched_latency;
        for t in displaced {
            self.requeue_sharepod_at(now, t, decide_at, out, notices);
        }
        // The triggering sharePod never left Pending; a fresh schedule
        // span covers its wait for the new layout.
        self.sharepods.mutate(sp, |s| {
            s.status.message = Some("awaiting partition reconfiguration".into());
        });
        if self.telemetry.is_enabled() && self.sp_trace.contains_key(&sp) {
            let ctx = self.sp_ctx(sp);
            let sched_span = self
                .telemetry
                .span_begin_in(now, ctx, "sched", "schedule", &[]);
            self.sp_trace.get_mut(&sp).expect("just checked").sched_span = sched_span;
        }
        out.push((decide_at, KsEvent::SchedDecide { sp }));
        self.record_gauges();
    }

    /// A reconfiguration window elapsed: activate the new layout if the
    /// device is still around (it may have died with its node mid-window).
    fn on_partition_activate(&mut self, now: SimTime, ticket: u64) {
        let Some((gpuid, span)) = self.reconfig_tickets.remove(&ticket) else {
            return;
        };
        // The device may have died with its node mid-window, and in the
        // extreme its GPUID may even have been reused by a time-sliced
        // replacement — only a still-partitioned device activates.
        let outcome = match self.pool.get(&gpuid) {
            Some(d) if d.is_spatial() => match self.pool.activate_partition(&gpuid, now) {
                Ok(()) => "activated",
                Err(_) => "stale",
            },
            _ => "device_lost",
        };
        self.telemetry.span_end(now, span, &[("outcome", outcome)]);
    }

    // ---- KubeShare-DevMgr ----

    fn launch_anchor(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        node_name: Option<String>,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        self.anchor_retry
            .entry(gpuid.clone())
            .or_insert(AnchorRetry {
                attempts: 0,
                node: node_name.clone(),
            });
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_devmgr_anchor_launches_total", &[])
                .inc();
            let ctx = self
                .anchor_ctx
                .get(gpuid)
                .copied()
                .unwrap_or(TraceCtx::NONE);
            self.telemetry.trace_event_in(
                now,
                ctx,
                "devmgr",
                "anchor_launch",
                &[("gpuid", gpuid.as_str())],
            );
        }
        // An injected launch fault (image pull error, plugin hiccup, …)
        // consumes the attempt before any pod reaches the cluster.
        let injected_fail = self
            .chaos
            .as_mut()
            .map(|c| c.anchor_launch_fails())
            .unwrap_or(false);
        if injected_fail {
            self.on_anchor_launch_failed(now, gpuid.clone(), out, notices);
            return;
        }
        // "The sole purpose of this pod is to allocate the GPU without
        // running any workload" (§4.4): negligible CPU/memory, one GPU.
        let mut spec = PodSpec::new(
            "kubeshare/vgpu-anchor",
            ResourceList::cpu_mem(0, 0).with_extended(NVIDIA_GPU, 1),
        );
        spec.node_name = node_name;
        let mut cluster_out = Vec::new();
        let pod = self
            .cluster
            .submit_pod(now, format!("anchor-{gpuid}"), spec, &mut cluster_out);
        lift(cluster_out, out);
        if let Some(ctx) = self.anchor_ctx.get(gpuid) {
            self.cluster.set_pod_trace(pod, *ctx);
        }
        self.anchor_vgpu.insert(pod, gpuid.clone());
        self.vgpu_anchor.insert(gpuid.clone(), pod);
    }

    /// One anchor launch attempt failed. Retry with capped exponential
    /// backoff; past the cap, give the vGPU up and degrade its tenants to
    /// the surviving pool.
    fn on_anchor_launch_failed(
        &mut self,
        now: SimTime,
        gpuid: GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(retry) = self.anchor_retry.get_mut(&gpuid) else {
            return; // vGPU already gone (node failure raced the retry)
        };
        retry.attempts += 1;
        let attempts = retry.attempts;
        if attempts > self.cfg.anchor_max_retries {
            self.give_up_vgpu(now, &gpuid, "anchor launch retries exhausted", out, notices);
            return;
        }
        // base * 2^(attempts-1), capped.
        let backoff = self
            .cfg
            .anchor_retry_base
            .mul_f64(f64::from(1u32 << (attempts - 1).min(16)))
            .min(self.cfg.anchor_retry_cap);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_devmgr_anchor_backoffs_total", &[])
                .inc();
            let ctx = self
                .anchor_ctx
                .get(&gpuid)
                .copied()
                .unwrap_or(TraceCtx::NONE);
            self.telemetry.trace_event_in(
                now,
                ctx,
                "devmgr",
                "anchor_backoff",
                &[
                    ("gpuid", gpuid.as_str()),
                    ("attempt", &attempts.to_string()),
                ],
            );
        }
        self.next_ticket += 1;
        self.retry_tickets.insert(self.next_ticket, gpuid);
        out.push((
            now + backoff,
            KsEvent::RetryAnchor {
                ticket: self.next_ticket,
            },
        ));
    }

    fn on_retry_anchor(
        &mut self,
        now: SimTime,
        ticket: u64,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(gpuid) = self.retry_tickets.remove(&ticket) else {
            return;
        };
        // Only relaunch while the vGPU still exists, is still waiting on
        // its anchor, and has no live anchor pod (a newer launch or a node
        // failure may have raced the backoff timer).
        let still_creating = self
            .pool
            .get(&gpuid)
            .map(|d| d.uuid.is_none() && !d.releasing)
            .unwrap_or(false);
        if !still_creating || self.vgpu_anchor.contains_key(&gpuid) {
            return;
        }
        let node = self.anchor_retry.get(&gpuid).and_then(|r| r.node.clone());
        self.launch_anchor(now, &gpuid, node, out, notices);
    }

    /// Removes a vGPU that can no longer be materialized and re-queues its
    /// tenants through Algorithm 1 so they land on the surviving pool.
    fn give_up_vgpu(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        reason: &str,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let mut displaced: Vec<Uid> = self
            .pool
            .get(gpuid)
            .map(|d| d.attached.keys().copied().collect())
            .unwrap_or_default();
        for sp in &displaced {
            self.pool.detach(gpuid, *sp);
        }
        for sp in self.waiting.remove(gpuid).unwrap_or_default() {
            if !displaced.contains(&sp) {
                displaced.push(sp);
            }
        }
        if let Some(anchor) = self.vgpu_anchor.remove(gpuid) {
            self.anchor_vgpu.remove(&anchor);
        }
        self.anchor_retry.remove(gpuid);
        self.anchor_ctx.remove(gpuid);
        self.pool.remove(gpuid);
        self.note_vgpu_churn(now, "vgpu_lost", gpuid);
        notices.push(KsNotice::VgpuLost {
            gpuid: gpuid.clone(),
            reason: reason.into(),
        });
        for sp in displaced {
            // A sharePod that explicitly pinned this GPUID would just
            // re-create the same doomed vGPU; reject it instead.
            let pinned = self
                .sharepods
                .get(sp)
                .map(|s| s.spec.gpuid.as_ref() == Some(gpuid))
                .unwrap_or(false);
            if pinned {
                self.transition_sp(sp, SharePodPhase::Rejected, |s| {
                    s.status.bound_gpuid = None;
                    s.status.message = Some(reason.to_string());
                });
                self.close_sp_trace(now, sp, "rejected");
                notices.push(KsNotice::SharePodRejected {
                    sp,
                    reason: reason.to_string(),
                });
            } else {
                self.requeue_sharepod(now, sp, out, notices);
            }
        }
    }

    fn on_create_pod(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        if sharepod.status.phase != SharePodPhase::Starting {
            return; // deleted or re-queued meanwhile
        }
        let Some(gpuid) = sharepod.status.bound_gpuid.clone() else {
            notices.push(KsNotice::Fault {
                error: SystemError::UnboundSharePod { sp },
            });
            return;
        };
        let Some(device) = self.pool.get(&gpuid) else {
            // The vGPU vanished between scheduling and pod creation (node
            // failure); send the sharePod back through Algorithm 1.
            self.requeue_sharepod(now, sp, out, notices);
            return;
        };
        let (Some(node), Some(uuid)) = (device.node.clone(), device.uuid.clone()) else {
            notices.push(KsNotice::Fault {
                error: SystemError::VgpuNotReady { gpuid },
            });
            return;
        };
        let share = sharepod.spec.share;

        // DevMgr performs the explicit binding: pin the pod to the vGPU's
        // node and set NVIDIA_VISIBLE_DEVICES to the physical UUID. The pod
        // does NOT request `nvidia.com/gpu` — the anchor already holds it.
        let mut pod_spec = sharepod.spec.pod.clone();
        pod_spec.node_name = Some(node);
        pod_spec
            .env
            .insert("NVIDIA_VISIBLE_DEVICES".to_string(), uuid);
        pod_spec
            .env
            .insert("KUBESHARE_GPUID".to_string(), gpuid.to_string());
        pod_spec.env.insert(
            "KUBESHARE_GPU_REQUEST".to_string(),
            format!("{}", share.request),
        );
        pod_spec.env.insert(
            "KUBESHARE_GPU_LIMIT".to_string(),
            format!("{}", share.limit),
        );
        pod_spec
            .env
            .insert("KUBESHARE_GPU_MEM".to_string(), format!("{}", share.mem));
        // LD_PRELOAD of the vGPU device library (the install step of §4.4).
        pod_spec.env.insert(
            "LD_PRELOAD".to_string(),
            "/kubeshare/library/libgemhook.so.1".to_string(),
        );

        let name = sharepod.meta.name.clone();
        let mut cluster_out = Vec::new();
        let pod = self
            .cluster
            .submit_pod(now, format!("{name}-pod"), pod_spec, &mut cluster_out);
        lift(cluster_out, out);
        let ctx = self.sp_ctx(sp);
        if !ctx.is_none() {
            self.cluster.set_pod_trace(pod, ctx);
        }
        self.pod_sp.insert(pod, sp);
        self.sharepods.mutate(sp, |s| s.status.pod_uid = Some(pod));
    }

    fn apply_pool_policy(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let release = match self.cfg.pool_policy {
            PoolPolicy::OnDemand => true,
            PoolPolicy::Reservation { max_idle } => self.pool.idle_count() > max_idle,
            PoolPolicy::Hybrid { max_idle, idle_ttl } => {
                if self.pool.idle_count() > max_idle {
                    true
                } else {
                    // Keep it for now, but start the idle TTL clock.
                    self.next_ticket += 1;
                    self.idle_tickets.insert(self.next_ticket, gpuid.clone());
                    out.push((
                        now + idle_ttl,
                        KsEvent::ReleaseIdleVgpu {
                            ticket: self.next_ticket,
                        },
                    ));
                    false
                }
            }
        };
        if !release {
            return;
        }
        self.release_vgpu(now, gpuid, out, notices);
    }

    /// Hands the GPU behind `gpuid` back to Kubernetes.
    fn release_vgpu(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        // Hide the vGPU from the scheduler for the rest of its teardown —
        // otherwise a sharePod could bind during the anchor's termination
        // window and the GPU would vanish under it.
        self.pool.mark_releasing(gpuid);
        // A creating vGPU whose tenants all left: its anchor may not even
        // be running yet; delete it regardless — the cluster handles both.
        if let Some(&anchor) = self.vgpu_anchor.get(gpuid) {
            let mut cluster_out = Vec::new();
            let mut cluster_notes = Vec::new();
            self.cluster
                .delete_pod(now, anchor, &mut cluster_out, &mut cluster_notes);
            lift(cluster_out, out);
            self.process_cluster_notices(now, cluster_notes, out, notices);
        }
    }

    // ---- controller reconciliation on cluster watch events ----

    fn process_cluster_notices(
        &mut self,
        now: SimTime,
        cluster_notes: Vec<ClusterNotice>,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        for note in cluster_notes {
            match &note {
                ClusterNotice::PodRunning { pod } => {
                    if let Some(gpuid) = self.anchor_vgpu.get(pod).cloned() {
                        self.on_anchor_running(now, *pod, gpuid, out, notices);
                    } else if let Some(&sp) = self.pod_sp.get(pod) {
                        self.on_sharepod_pod_running(now, sp, notices);
                    } else {
                        notices.push(KsNotice::Cluster(note));
                    }
                }
                ClusterNotice::PodDeleted { pod } => {
                    if let Some(gpuid) = self.anchor_vgpu.remove(pod) {
                        self.vgpu_anchor.remove(&gpuid);
                        self.anchor_ctx.remove(&gpuid);
                        self.pool.remove(&gpuid);
                        self.note_vgpu_churn(now, "vgpu_released", &gpuid);
                        notices.push(KsNotice::VgpuReleased { gpuid });
                    } else if let Some(sp) = self.pod_sp.remove(pod) {
                        // A preempted pod's sharePod was reset to `Pending`
                        // and detached when the eviction ran; its deletion
                        // notice is old news and must not terminate it.
                        if !self.preempted_pods.remove(pod) {
                            self.on_sharepod_pod_deleted(now, sp, out, notices);
                        }
                    } else {
                        notices.push(KsNotice::Cluster(note));
                    }
                }
                ClusterNotice::PodFailed { pod, reason } => {
                    if let Some(gpuid) = self.anchor_vgpu.remove(pod) {
                        // The anchor never made it (admission race, crash
                        // during start): treat as a failed launch attempt
                        // and back off.
                        self.vgpu_anchor.remove(&gpuid);
                        self.on_anchor_launch_failed(now, gpuid, out, notices);
                    } else if let Some(sp) = self.pod_sp.remove(pod) {
                        if self.preempted_pods.remove(pod) {
                            // The pod died while preemption teardown was in
                            // flight; the sharePod is already `Pending`.
                            continue;
                        }
                        if self.cfg.restart_policy == RestartPolicy::OnFailure {
                            // Service semantics: give the crashed
                            // container's demand back to its vGPU, then
                            // send the sharePod through Algorithm 1 again.
                            if let Some(gpuid) = self
                                .sharepods
                                .get(sp)
                                .and_then(|s| s.status.bound_gpuid.clone())
                            {
                                if let Some(device) = self.pool.get(&gpuid) {
                                    if let (Some(node), Some(uuid)) =
                                        (device.node.clone(), device.uuid.clone())
                                    {
                                        notices.push(KsNotice::SharePodStopped {
                                            sp,
                                            gpuid: gpuid.clone(),
                                            node,
                                            uuid,
                                        });
                                    }
                                    let became_idle = self.pool.detach(&gpuid, sp);
                                    if became_idle {
                                        self.apply_pool_policy(now, &gpuid, out, notices);
                                    }
                                } else {
                                    notices.push(KsNotice::Fault {
                                        error: SystemError::MissingVgpu { gpuid },
                                    });
                                }
                            }
                            self.requeue_sharepod(now, sp, out, notices);
                            continue;
                        }
                        self.transition_sp(sp, SharePodPhase::Rejected, |s| {
                            s.status.message = Some(reason.clone());
                        });
                        self.close_sp_trace(now, sp, "failed");
                        notices.push(KsNotice::SharePodRejected {
                            sp,
                            reason: reason.clone(),
                        });
                        // The crashed container's demand returns to the
                        // vGPU; without this, its capacity would leak.
                        if let Some(gpuid) = self
                            .sharepods
                            .get(sp)
                            .and_then(|s| s.status.bound_gpuid.clone())
                        {
                            let Some(device) = self.pool.get(&gpuid) else {
                                // The vGPU died first (node failure raced
                                // the crash); nothing left to return to.
                                notices.push(KsNotice::Fault {
                                    error: SystemError::MissingVgpu { gpuid },
                                });
                                continue;
                            };
                            if let (Some(node), Some(uuid)) =
                                (device.node.clone(), device.uuid.clone())
                            {
                                notices.push(KsNotice::SharePodStopped {
                                    sp,
                                    gpuid: gpuid.clone(),
                                    node,
                                    uuid,
                                });
                            }
                            let became_idle = self.pool.detach(&gpuid, sp);
                            if became_idle {
                                self.apply_pool_policy(now, &gpuid, out, notices);
                            }
                        }
                    } else {
                        notices.push(KsNotice::Cluster(note));
                    }
                }
                ClusterNotice::PodUnschedulable { pod } => {
                    if !self.anchor_vgpu.contains_key(pod) && !self.pod_sp.contains_key(pod) {
                        notices.push(KsNotice::Cluster(note));
                    }
                    // Anchors and sharePod pods just wait in the cluster's
                    // retry queue.
                }
            }
        }
    }

    fn on_anchor_running(
        &mut self,
        now: SimTime,
        anchor_pod: Uid,
        gpuid: GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        // DevMgr "obtains the actual device UUID from the environment
        // variable inside the launched container" (§4.4).
        let Some(pod) = self.cluster.pod(anchor_pod) else {
            notices.push(KsNotice::Fault {
                error: SystemError::MissingAnchor { pod: anchor_pod },
            });
            return;
        };
        let uuid = pod.visible_devices().map(str::to_string);
        let node = pod.status.node_name.clone();
        let (Some(uuid), Some(node)) = (uuid, node) else {
            // A running anchor without a device/node assignment is an
            // admission bug; contain it and let the retry path relaunch.
            notices.push(KsNotice::Fault {
                error: SystemError::VgpuNotReady {
                    gpuid: gpuid.clone(),
                },
            });
            self.anchor_vgpu.remove(&anchor_pod);
            self.vgpu_anchor.remove(&gpuid);
            self.on_anchor_launch_failed(now, gpuid, out, notices);
            return;
        };
        self.anchor_retry.remove(&gpuid);
        self.anchor_ctx.remove(&gpuid);
        self.pool.mark_ready(&gpuid, node.clone(), uuid.clone());
        self.note_vgpu_churn(now, "vgpu_created", &gpuid);
        let uuid_for_spans = uuid.clone();
        notices.push(KsNotice::VgpuCreated {
            gpuid: gpuid.clone(),
            node,
            uuid,
        });
        // Release any sharePods parked on this vGPU.
        for sp in self.waiting.remove(&gpuid).unwrap_or_default() {
            if self
                .sharepods
                .get(sp)
                .map(|s| s.status.phase == SharePodPhase::AwaitingVgpu)
                .unwrap_or(false)
            {
                self.transition_sp(sp, SharePodPhase::Starting, |_| {});
                // The vGPU-creation wait ends; the pod-creation span opens.
                if let Some(tr) = self.sp_trace.get_mut(&sp) {
                    let span = std::mem::replace(&mut tr.vgpu_span, SpanId::NONE);
                    self.telemetry
                        .span_end(now, span, &[("uuid", &uuid_for_spans)]);
                }
                self.open_pod_span(now, sp, &gpuid);
                out.push((now + self.cfg.vgpu_query_latency, KsEvent::CreatePod { sp }));
            }
        }
    }

    fn on_sharepod_pod_running(&mut self, now: SimTime, sp: Uid, notices: &mut Vec<KsNotice>) {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        let Some(gpuid) = sharepod.status.bound_gpuid.clone() else {
            notices.push(KsNotice::Fault {
                error: SystemError::UnboundSharePod { sp },
            });
            return;
        };
        let Some(device) = self.pool.get(&gpuid) else {
            notices.push(KsNotice::Fault {
                error: SystemError::MissingVgpu { gpuid },
            });
            return;
        };
        let (Some(node), Some(uuid)) = (device.node.clone(), device.uuid.clone()) else {
            notices.push(KsNotice::Fault {
                error: SystemError::VgpuNotReady { gpuid },
            });
            return;
        };
        let submitted = sharepod.meta.created_at;
        notices.push(KsNotice::SharePodRunning {
            sp,
            gpuid,
            node,
            uuid,
            share: sharepod.spec.share,
        });
        self.transition_sp(sp, SharePodPhase::Running, |_| {});
        if self.telemetry.is_enabled() {
            // Submission-to-running: the end-to-end startup latency the
            // `sharepod_startup_p99` SLO watches.
            self.telemetry
                .histogram_seconds("ks_sharepod_startup_seconds", &[])
                .observe(now.saturating_since(submitted).as_secs_f64());
            if let Some(tr) = self.sp_trace.get_mut(&sp) {
                let span = std::mem::replace(&mut tr.pod_span, SpanId::NONE);
                self.telemetry.span_end(now, span, &[]);
            }
            let ctx = self.sp_ctx(sp);
            self.telemetry.trace_event_in(
                now,
                ctx,
                "sched",
                "sharepod_running",
                &[("sp", &sp.to_string())],
            );
        }
    }

    fn on_sharepod_pod_deleted(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        let Some(gpuid) = sharepod.status.bound_gpuid.clone() else {
            self.transition_sp(sp, SharePodPhase::Terminated, |_| {});
            self.close_sp_trace(now, sp, "stopped");
            notices.push(KsNotice::Fault {
                error: SystemError::UnboundSharePod { sp },
            });
            return;
        };
        let Some(device) = self.pool.get(&gpuid) else {
            self.transition_sp(sp, SharePodPhase::Terminated, |_| {});
            self.close_sp_trace(now, sp, "stopped");
            notices.push(KsNotice::Fault {
                error: SystemError::MissingVgpu { gpuid },
            });
            return;
        };
        let node = device.node.clone().unwrap_or_default();
        let uuid = device.uuid.clone().unwrap_or_default();
        self.transition_sp(sp, SharePodPhase::Terminated, |_| {});
        self.close_sp_trace(now, sp, "stopped");
        notices.push(KsNotice::SharePodStopped {
            sp,
            gpuid: gpuid.clone(),
            node,
            uuid,
        });
        let became_idle = self.pool.detach(&gpuid, sp);
        if became_idle {
            self.apply_pool_policy(now, &gpuid, out, notices);
        }
    }
}

fn lift(cluster_out: ks_cluster::sim::ClusterEmit, out: &mut KsEmit) {
    for (at, ev) in cluster_out {
        out.push((at, KsEvent::Cluster(ev)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::Locality;
    use crate::pool::VgpuPhase;
    use ks_cluster::api::NodeConfig;
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
        eng.world.ks.pool().verify_indexes().unwrap();
        eng.world.ks.verify_sp_tally().unwrap();
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
        eng.world.ks.cluster.verify_node_rank().unwrap();
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
        eng.world.ks.verify_sp_tally().unwrap();
        eng.world.ks.pool().verify_indexes().unwrap();
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
        assert!((d.util_free - 0.5).abs() < 1e-9);
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
        eng.world.ks.verify_sp_tally().unwrap();
        eng.world.ks.pool().verify_indexes().unwrap();
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
        eng.world.ks.pool().verify_indexes().unwrap();
        eng.world.ks.verify_sp_tally().unwrap();
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
        eng.world.ks.pool().verify_indexes().unwrap();
        eng.world.ks.verify_sp_tally().unwrap();
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
}
