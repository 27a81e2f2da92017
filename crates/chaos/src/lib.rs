//! Deterministic fault injection for the KubeShare simulation.
//!
//! The paper's testbed (§5) assumes a healthy cluster; this crate supplies
//! the adversarial half of the robustness story. A [`ChaosInjector`] turns a
//! seed plus MTBF/MTTR distributions into a stream of failure events —
//! node crashes and recoveries, anchor-pod launch failures, container
//! crashes, and token-backend restarts — that an embedding world schedules
//! as ordinary discrete-event-simulation events. All randomness flows from
//! per-fault-class forks of one `SimRng`, so two injectors built from the
//! same [`ChaosConfig`] emit byte-identical schedules, and adding a fault
//! class does not perturb the others.
//!
//! The injector is passive, like every state machine in this workspace: it
//! proposes `(SimTime, ChaosEvent)` pairs and records what it proposed in a
//! replayable [`FaultRecord`] trace; the embedding world owns the event
//! queue and the recovery logic.

use ks_sim_core::rng::SimRng;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::{SpanId, Telemetry};

/// Failure classes the injector can schedule.
///
/// Node indices refer to the embedding world's node ordering (the injector
/// does not know node names). `ContainerCrash` and `BackendRestart` carry no
/// victim: the world picks one via [`ChaosInjector::pick_victim`] so that
/// victim selection stays on its own deterministic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A node drops off the cluster (kubelet dead, devices unreachable).
    NodeCrash { node: usize },
    /// A previously crashed node rejoins with empty state.
    NodeRecover { node: usize },
    /// Some running container dies (the world chooses which).
    ContainerCrash,
    /// The token backend daemon on some vGPU restarts, losing its
    /// queue/window state.
    BackendRestart,
    /// Some vGPU's physical GPU silently slows down (thermal throttling,
    /// ECC retirement, a noisy co-tenant outside the framework's
    /// control): kernel bursts stretch by `1 + severity_pct/100` until
    /// the matching [`ChaosEvent::VgpuRestore`] fires. The world picks
    /// the victim via [`ChaosInjector::pick_degrade_victim`]. Severity
    /// is integer percent so fault events stay `Eq`/replayable.
    VgpuDegrade { severity_pct: u32 },
    /// The oldest still-degraded vGPU returns to full speed.
    VgpuRestore,
}

/// One entry in the deterministic fault trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRecord {
    /// A scheduled fault event, stamped with its fire time.
    Event { at: SimTime, event: ChaosEvent },
    /// Outcome of one anchor-launch coin flip.
    AnchorLaunch { failed: bool },
    /// Victim index drawn for a `ContainerCrash`/`BackendRestart`.
    Victim { index: usize },
    /// Victim index drawn for a `VgpuDegrade`.
    DegradeVictim { index: usize },
    /// Slice index drawn when a fault lands on a spatially partitioned
    /// vGPU and must be scoped to one resident slice.
    SliceVictim { index: usize },
}

/// Mean-time-between-failure / mean-time-to-repair configuration.
///
/// Every `Option<SimDuration>` mean is the parameter of an exponential
/// distribution; `None` disables that fault class. `anchor_failure_rate` is
/// a per-launch Bernoulli probability rather than a renewal process because
/// anchor launches are driven by the scheduler, not by wall-clock time.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for all fault streams.
    pub seed: u64,
    /// Mean up-time of a node before it crashes.
    pub node_mtbf: Option<SimDuration>,
    /// Mean down-time of a crashed node before it recovers.
    pub node_mttr: SimDuration,
    /// Mean gap between container-crash events (cluster-wide).
    pub container_mtbf: Option<SimDuration>,
    /// Mean gap between token-backend restarts (cluster-wide).
    pub backend_mtbf: Option<SimDuration>,
    /// Probability that any single anchor-pod launch fails.
    pub anchor_failure_rate: f64,
    /// Mean gap between vGPU-degradation events (cluster-wide).
    pub vgpu_degrade_mtbf: Option<SimDuration>,
    /// Mean duration of a degradation before the vGPU restores.
    pub vgpu_degrade_mttr: SimDuration,
    /// Severity range in integer percent slowdown, inclusive: each
    /// degradation draws uniformly from `[lo, hi]` and stretches kernel
    /// bursts by `1 + pct/100`.
    pub vgpu_degrade_severity_pct: (u32, u32),
    /// No fault fires at or after this time; lets a run quiesce so
    /// steady-state recovery can be measured.
    pub horizon: SimTime,
}

impl ChaosConfig {
    /// A configuration that injects nothing.
    pub fn disabled() -> Self {
        ChaosConfig {
            seed: 0,
            node_mtbf: None,
            node_mttr: SimDuration::from_secs(30),
            container_mtbf: None,
            backend_mtbf: None,
            anchor_failure_rate: 0.0,
            vgpu_degrade_mtbf: None,
            vgpu_degrade_mttr: SimDuration::from_secs(60),
            vgpu_degrade_severity_pct: (100, 300),
            horizon: SimTime::MAX,
        }
    }

    /// The churn preset used by the robustness harness: node MTBF much
    /// larger than MTTR (nodes are mostly up), moderate container churn,
    /// and a bounded anchor failure rate.
    pub fn preset(seed: u64) -> Self {
        ChaosConfig {
            seed,
            node_mtbf: Some(SimDuration::from_secs(120)),
            node_mttr: SimDuration::from_secs(10),
            container_mtbf: Some(SimDuration::from_secs(45)),
            backend_mtbf: Some(SimDuration::from_secs(90)),
            anchor_failure_rate: 0.2,
            vgpu_degrade_mtbf: None,
            vgpu_degrade_mttr: SimDuration::from_secs(60),
            vgpu_degrade_severity_pct: (100, 300),
            horizon: SimTime::MAX,
        }
    }

    /// Returns a copy with a different seed (for replay experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the degraded-vGPU stream enabled: mean gap
    /// `mtbf` between degradations, mean duration `mttr`, and severity
    /// drawn uniformly from `severity_pct` (inclusive, `lo ≤ hi`).
    pub fn with_vgpu_degrade(
        mut self,
        mtbf: SimDuration,
        mttr: SimDuration,
        severity_pct: (u32, u32),
    ) -> Self {
        assert!(
            severity_pct.0 <= severity_pct.1,
            "severity range inverted: {severity_pct:?}"
        );
        self.vgpu_degrade_mtbf = Some(mtbf);
        self.vgpu_degrade_mttr = mttr;
        self.vgpu_degrade_severity_pct = severity_pct;
        self
    }

    /// Returns a copy with a fault horizon.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }
}

/// Per-node renewal state: a node alternates between up and down phases.
#[derive(Debug, Clone)]
struct NodeStream {
    rng: SimRng,
}

/// Seeded fault-event generator.
///
/// Usage: call [`ChaosInjector::initial_events`] once at simulation start
/// and schedule the returned events; whenever one fires, call
/// [`ChaosInjector::next_after`] with it to get the follow-up event (the
/// recovery for a crash, or the next renewal of a self-rescheduling
/// stream). Anchor-launch failures are polled at launch time via
/// [`ChaosInjector::anchor_launch_fails`].
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    cfg: ChaosConfig,
    nodes: Vec<NodeStream>,
    container_rng: SimRng,
    backend_rng: SimRng,
    anchor_rng: SimRng,
    victim_rng: SimRng,
    degrade_rng: SimRng,
    degrade_victim_rng: SimRng,
    slice_victim_rng: SimRng,
    trace: Vec<FaultRecord>,
    telemetry: Telemetry,
    /// Open `node_outage` span per node (crash fired, recovery pending).
    outage_spans: Vec<SpanId>,
}

impl ChaosInjector {
    /// Builds an injector for a cluster of `num_nodes` nodes.
    pub fn new(cfg: ChaosConfig, num_nodes: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.anchor_failure_rate),
            "anchor_failure_rate out of range: {}",
            cfg.anchor_failure_rate
        );
        let mut root = SimRng::seed_from_u64(cfg.seed ^ 0xC4A0_5C4A_05C4_A05C);
        // Fork order is part of the determinism contract: per-node streams
        // first (so the same node index always gets the same stream for a
        // given seed and node count), then the class-wide streams. New
        // fault classes must fork AFTER the existing ones so configs that
        // do not use them replay byte-identically.
        let nodes = (0..num_nodes)
            .map(|_| NodeStream { rng: root.fork() })
            .collect();
        ChaosInjector {
            nodes,
            container_rng: root.fork(),
            backend_rng: root.fork(),
            anchor_rng: root.fork(),
            victim_rng: root.fork(),
            degrade_rng: root.fork(),
            degrade_victim_rng: root.fork(),
            slice_victim_rng: root.fork(),
            cfg,
            trace: Vec::new(),
            telemetry: Telemetry::disabled(),
            outage_spans: vec![SpanId::NONE; num_nodes],
        }
    }

    /// Attaches a telemetry handle. Faults are counted when they *fire*
    /// (i.e. when the world feeds them back through
    /// [`ChaosInjector::next_after`]), not when they are scheduled, so the
    /// metrics reflect what the cluster actually experienced. Node outages
    /// additionally open a `chaos/node_outage` span closed by the matching
    /// recovery.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn kind_label(event: ChaosEvent) -> &'static str {
        match event {
            ChaosEvent::NodeCrash { .. } => "node_crash",
            ChaosEvent::NodeRecover { .. } => "node_recover",
            ChaosEvent::ContainerCrash => "container_crash",
            ChaosEvent::BackendRestart => "backend_restart",
            ChaosEvent::VgpuDegrade { .. } => "vgpu_degrade",
            ChaosEvent::VgpuRestore => "vgpu_restore",
        }
    }

    /// Records a fired fault: counter, trace event, and outage span
    /// begin/end for node crash/recover pairs.
    fn note_fired(&mut self, now: SimTime, event: ChaosEvent) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let kind = Self::kind_label(event);
        self.telemetry
            .counter("ks_chaos_faults_total", &[("kind", kind)])
            .inc();
        match event {
            ChaosEvent::NodeCrash { node } => {
                self.outage_spans[node] = self.telemetry.span_begin(
                    now,
                    "chaos",
                    "node_outage",
                    &[("node", &node.to_string())],
                );
            }
            ChaosEvent::NodeRecover { node } => {
                let span = std::mem::replace(&mut self.outage_spans[node], SpanId::NONE);
                self.telemetry.span_end(now, span, &[]);
            }
            _ => {
                self.telemetry
                    .trace_event(now, "chaos", "fault", &[("kind", kind)]);
            }
        }
    }

    /// The configuration this injector was built from.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// The deterministic trace of everything the injector has emitted.
    pub fn trace(&self) -> &[FaultRecord] {
        &self.trace
    }

    /// First event of every enabled fault stream, to be scheduled by the
    /// embedding world at simulation start.
    pub fn initial_events(&mut self) -> Vec<(SimTime, ChaosEvent)> {
        let mut out = Vec::new();
        if self.cfg.node_mtbf.is_some() {
            for node in 0..self.nodes.len() {
                if let Some(ev) = self.node_crash_after(SimTime::ZERO, node) {
                    out.push(ev);
                }
            }
        }
        if self.cfg.container_mtbf.is_some() {
            if let Some(ev) = self.renewal(SimTime::ZERO, ChaosEvent::ContainerCrash) {
                out.push(ev);
            }
        }
        if self.cfg.backend_mtbf.is_some() {
            if let Some(ev) = self.renewal(SimTime::ZERO, ChaosEvent::BackendRestart) {
                out.push(ev);
            }
        }
        if self.cfg.vgpu_degrade_mtbf.is_some() {
            if let Some(ev) = self.degrade_after(SimTime::ZERO) {
                out.push(ev);
            }
        }
        out
    }

    /// Follow-up event after `event` fired at `now`: the matching recovery
    /// for a crash, the next crash after a recovery, or the next renewal of
    /// a cluster-wide stream. Returns `None` past the horizon.
    pub fn next_after(&mut self, now: SimTime, event: ChaosEvent) -> Option<(SimTime, ChaosEvent)> {
        self.note_fired(now, event);
        match event {
            ChaosEvent::NodeCrash { node } => {
                let gap = self.nodes[node].rng.exp_interarrival(self.cfg.node_mttr);
                self.emit(now + gap, ChaosEvent::NodeRecover { node })
            }
            ChaosEvent::NodeRecover { node } => self.node_crash_after(now, node),
            ChaosEvent::ContainerCrash | ChaosEvent::BackendRestart => self.renewal(now, event),
            ChaosEvent::VgpuDegrade { .. } => {
                let gap = self
                    .degrade_rng
                    .exp_interarrival(self.cfg.vgpu_degrade_mttr);
                self.emit(now + gap, ChaosEvent::VgpuRestore)
            }
            ChaosEvent::VgpuRestore => self.degrade_after(now),
        }
    }

    /// Coin flip for one anchor-pod launch; recorded in the trace.
    pub fn anchor_launch_fails(&mut self) -> bool {
        let failed = self.cfg.anchor_failure_rate > 0.0
            && self.anchor_rng.bernoulli(self.cfg.anchor_failure_rate);
        self.trace.push(FaultRecord::AnchorLaunch { failed });
        if failed && self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_chaos_anchor_launch_failures_total", &[])
                .inc();
        }
        failed
    }

    /// Draws a victim index in `[0, n)` for a `ContainerCrash` or
    /// `BackendRestart`; recorded in the trace. Returns `None` when there
    /// is nothing to victimise.
    pub fn pick_victim(&mut self, n: usize) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let index = self.victim_rng.index(n);
        self.trace.push(FaultRecord::Victim { index });
        Some(index)
    }

    /// Draws a victim index in `[0, n)` for a `VgpuDegrade`; recorded in
    /// the trace on its own stream so degrade victims never perturb
    /// container/backend victim draws. Returns `None` when there is
    /// nothing to degrade.
    pub fn pick_degrade_victim(&mut self, n: usize) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let index = self.degrade_victim_rng.index(n);
        self.trace.push(FaultRecord::DegradeVictim { index });
        Some(index)
    }

    /// Draws a resident-slice index in `[0, n)` when a fault lands on a
    /// spatially partitioned vGPU: instead of taking the whole device, the
    /// blast radius is one slice (the world drains only that slice's
    /// sharePods, e.g. via a `"gpu#sN"` drain target). Its own stream, so
    /// enabling slice-scoped faults never perturbs whole-device victim
    /// draws. Returns `None` when the device has no resident slices.
    pub fn pick_slice_victim(&mut self, n: usize) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let index = self.slice_victim_rng.index(n);
        self.trace.push(FaultRecord::SliceVictim { index });
        Some(index)
    }

    /// Schedules the next degradation: exponential gap, severity drawn
    /// uniformly from the configured range at schedule time (so it is
    /// part of the replayable trace entry).
    fn degrade_after(&mut self, now: SimTime) -> Option<(SimTime, ChaosEvent)> {
        let mtbf = self.cfg.vgpu_degrade_mtbf?;
        let gap = self.degrade_rng.exp_interarrival(mtbf);
        let (lo, hi) = self.cfg.vgpu_degrade_severity_pct;
        let severity_pct = lo + self.degrade_rng.index((hi - lo + 1) as usize) as u32;
        self.emit(now + gap, ChaosEvent::VgpuDegrade { severity_pct })
    }

    fn node_crash_after(&mut self, now: SimTime, node: usize) -> Option<(SimTime, ChaosEvent)> {
        let mtbf = self.cfg.node_mtbf?;
        let gap = self.nodes[node].rng.exp_interarrival(mtbf);
        self.emit(now + gap, ChaosEvent::NodeCrash { node })
    }

    fn renewal(&mut self, now: SimTime, event: ChaosEvent) -> Option<(SimTime, ChaosEvent)> {
        let (mean, rng) = match event {
            ChaosEvent::ContainerCrash => (self.cfg.container_mtbf?, &mut self.container_rng),
            ChaosEvent::BackendRestart => (self.cfg.backend_mtbf?, &mut self.backend_rng),
            _ => unreachable!("renewal() only handles cluster-wide streams"),
        };
        let gap = rng.exp_interarrival(mean);
        self.emit(now + gap, event)
    }

    fn emit(&mut self, at: SimTime, event: ChaosEvent) -> Option<(SimTime, ChaosEvent)> {
        if at >= self.cfg.horizon {
            return None;
        }
        self.trace.push(FaultRecord::Event { at, event });
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(inj: &mut ChaosInjector, rounds: usize) -> Vec<(SimTime, ChaosEvent)> {
        let mut pending = inj.initial_events();
        let mut fired = Vec::new();
        for _ in 0..rounds {
            pending.sort_by_key(|(t, _)| *t);
            if pending.is_empty() {
                break;
            }
            let (t, ev) = pending.remove(0);
            fired.push((t, ev));
            if let Some(next) = inj.next_after(t, ev) {
                pending.push(next);
            }
        }
        fired
    }

    #[test]
    fn same_seed_same_trace() {
        let cfg = ChaosConfig::preset(42);
        let mut a = ChaosInjector::new(cfg.clone(), 3);
        let mut b = ChaosInjector::new(cfg, 3);
        let fa = drain(&mut a, 200);
        let fb = drain(&mut b, 200);
        assert_eq!(fa, fb);
        assert_eq!(a.trace(), b.trace());
        // Anchor coin flips come from their own stream and are likewise
        // reproducible.
        let flips_a: Vec<bool> = (0..50).map(|_| a.anchor_launch_fails()).collect();
        let flips_b: Vec<bool> = (0..50).map(|_| b.anchor_launch_fails()).collect();
        assert_eq!(flips_a, flips_b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaosInjector::new(ChaosConfig::preset(1), 3);
        let mut b = ChaosInjector::new(ChaosConfig::preset(2), 3);
        assert_ne!(drain(&mut a, 50), drain(&mut b, 50));
    }

    #[test]
    fn crash_and_recover_alternate_per_node() {
        let mut inj = ChaosInjector::new(ChaosConfig::preset(7), 2);
        let fired = drain(&mut inj, 400);
        for node in 0..2 {
            let mut up = true;
            for (_, ev) in &fired {
                match ev {
                    ChaosEvent::NodeCrash { node: n } if *n == node => {
                        assert!(up, "node {node} crashed while already down");
                        up = false;
                    }
                    ChaosEvent::NodeRecover { node: n } if *n == node => {
                        assert!(!up, "node {node} recovered while up");
                        up = true;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn disabled_config_emits_nothing() {
        let mut inj = ChaosInjector::new(ChaosConfig::disabled(), 4);
        assert!(inj.initial_events().is_empty());
        assert!(!inj.anchor_launch_fails());
        assert!(inj
            .trace()
            .iter()
            .all(|r| matches!(r, FaultRecord::AnchorLaunch { failed: false })));
    }

    #[test]
    fn horizon_caps_the_schedule() {
        let horizon = SimTime::from_secs(300);
        let cfg = ChaosConfig::preset(11).with_horizon(horizon);
        let mut inj = ChaosInjector::new(cfg, 3);
        let fired = drain(&mut inj, 10_000);
        assert!(!fired.is_empty());
        assert!(fired.iter().all(|(t, _)| *t < horizon));
        // drain() stops because every stream ran past the horizon, not
        // because we hit the round cap.
        assert!(fired.len() < 10_000);
    }

    #[test]
    fn mtbf_matches_configured_mean() {
        // One node, long horizon: the empirical mean of up-phases should be
        // within 15% of the configured MTBF.
        let cfg = ChaosConfig {
            seed: 5,
            node_mtbf: Some(SimDuration::from_secs(100)),
            node_mttr: SimDuration::from_secs(5),
            ..ChaosConfig::disabled()
        };
        let mut inj = ChaosInjector::new(cfg, 1);
        let fired = drain(&mut inj, 2000);
        let mut up_total = 0.0;
        let mut up_count = 0u32;
        let mut last_recover = SimTime::ZERO;
        for (t, ev) in fired {
            match ev {
                ChaosEvent::NodeCrash { .. } => {
                    up_total += t.saturating_since(last_recover).as_secs_f64();
                    up_count += 1;
                }
                ChaosEvent::NodeRecover { .. } => last_recover = t,
                _ => {}
            }
        }
        let mean = up_total / up_count as f64;
        assert!(
            (85.0..=115.0).contains(&mean),
            "empirical MTBF {mean:.1}s outside 100s +/- 15%"
        );
    }

    #[test]
    fn degrade_stream_alternates_and_is_replayable() {
        let cfg = ChaosConfig::disabled().with_seed(13).with_vgpu_degrade(
            SimDuration::from_secs(90),
            SimDuration::from_secs(30),
            (100, 300),
        );
        let mut a = ChaosInjector::new(cfg.clone(), 2);
        let mut b = ChaosInjector::new(cfg, 2);
        let fired = drain(&mut a, 300);
        assert_eq!(fired, drain(&mut b, 300));
        assert!(!fired.is_empty());
        // Strict degrade/restore alternation, severities in range.
        let mut degraded = false;
        for (_, ev) in &fired {
            match ev {
                ChaosEvent::VgpuDegrade { severity_pct } => {
                    assert!(!degraded, "degrade while already degraded");
                    assert!((100..=300).contains(severity_pct));
                    degraded = true;
                }
                ChaosEvent::VgpuRestore => {
                    assert!(degraded, "restore with nothing degraded");
                    degraded = false;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        // Victim draws are on their own stream and replayable.
        for n in 1..10 {
            let va = a.pick_degrade_victim(n);
            assert_eq!(va, b.pick_degrade_victim(n));
            assert!(va.unwrap() < n);
        }
        assert_eq!(a.pick_degrade_victim(0), None);
        assert!(a
            .trace()
            .iter()
            .any(|r| matches!(r, FaultRecord::DegradeVictim { .. })));
    }

    #[test]
    fn degrade_stream_does_not_perturb_existing_classes() {
        // Enabling the degrade stream must leave every other fault
        // class's schedule byte-identical: the new streams fork after the
        // existing ones.
        let plain = ChaosConfig::preset(21);
        let with_degrade = ChaosConfig::preset(21).with_vgpu_degrade(
            SimDuration::from_secs(70),
            SimDuration::from_secs(20),
            (150, 150),
        );
        let mut a = ChaosInjector::new(plain, 3);
        let mut b = ChaosInjector::new(with_degrade, 3);
        let fa = drain(&mut a, 400);
        let fb: Vec<_> = drain(&mut b, 400)
            .into_iter()
            .filter(|(_, ev)| {
                !matches!(ev, ChaosEvent::VgpuDegrade { .. } | ChaosEvent::VgpuRestore)
            })
            .collect();
        // drain() is round-capped, so compare the common prefix.
        let n = fa.len().min(fb.len());
        assert!(n > 50);
        assert_eq!(fa[..n], fb[..n]);
        // Fixed severity range (150, 150) always draws 150.
        assert!(b.trace().iter().any(|r| matches!(
            r,
            FaultRecord::Event {
                event: ChaosEvent::VgpuDegrade { severity_pct: 150 },
                ..
            }
        )));
    }

    #[test]
    fn slice_victim_stream_is_independent_and_replayable() {
        let mut a = ChaosInjector::new(ChaosConfig::preset(17), 2);
        let mut b = ChaosInjector::new(ChaosConfig::preset(17), 2);
        // Interleave slice draws into one injector only: the other victim
        // streams must not notice.
        for n in 1..8 {
            assert!(a.pick_slice_victim(n).unwrap() < n);
        }
        for n in 1..10 {
            assert_eq!(a.pick_victim(n), b.pick_victim(n));
            assert_eq!(a.pick_degrade_victim(n), b.pick_degrade_victim(n));
        }
        assert_eq!(a.pick_slice_victim(0), None);
        // Same seed replays the same slice draws.
        let draws: Vec<_> = (1..8).map(|n| b.pick_slice_victim(n)).collect();
        let mut c = ChaosInjector::new(ChaosConfig::preset(17), 2);
        let replay: Vec<_> = (1..8).map(|n| c.pick_slice_victim(n)).collect();
        assert_eq!(draws, replay);
        assert!(a
            .trace()
            .iter()
            .any(|r| matches!(r, FaultRecord::SliceVictim { .. })));
    }

    #[test]
    fn anchor_failure_rate_is_respected() {
        let mut inj = ChaosInjector::new(ChaosConfig::preset(9), 1);
        let fails = (0..2000).filter(|_| inj.anchor_launch_fails()).count();
        let rate = fails as f64 / 2000.0;
        assert!(
            (0.15..=0.25).contains(&rate),
            "empirical anchor failure rate {rate:.3} outside 0.2 +/- 0.05"
        );
    }

    #[test]
    fn victim_stream_is_deterministic_and_in_range() {
        let mut a = ChaosInjector::new(ChaosConfig::preset(3), 2);
        let mut b = ChaosInjector::new(ChaosConfig::preset(3), 2);
        for n in 1..20 {
            let va = a.pick_victim(n);
            assert_eq!(va, b.pick_victim(n));
            assert!(va.unwrap() < n);
        }
        assert_eq!(a.pick_victim(0), None);
    }
}
