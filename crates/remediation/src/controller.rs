//! The remediation controller: verdicts in, graded actions out.
//!
//! The controller is deliberately **decoupled from the control plane**:
//! it consumes [`Anomaly`] verdicts and [`SloStatus`] rows and emits
//! [`Action`] values with string targets; the host (the bench harness, or
//! an operator shim) executes them against [`kubeshare`]'s recovery
//! paths — `cordon_node`, `drain_vgpu`, `Gateway::set_admission_scale`.
//! That keeps the decision logic testable with synthetic inputs and
//! keeps this crate's dependency footprint to `sim-core` + `telemetry`.
//!
//! The escalation ladder, mildest first:
//!
//! 1. **tighten admission** — a breaching gateway SLO shrinks the token
//!    buckets and queue caps by `tighten_scale`, shedding load at the
//!    front door before touching placed work;
//! 2. **cordon** — a node whose crash-burn rate is anomalous stops
//!    receiving new placements (running pods undisturbed);
//! 3. **drain** — a vGPU whose observed throughput collapses has its
//!    tenants requeued onto fresh silicon and the device retired.
//!
//! Every path runs through the [`FlapGuard`]: per-target cooldown plus a
//! global budget per sliding window. When the budget is spent the loop
//! degrades to observe-only (verdicts still traced and counted, nothing
//! executed) instead of oscillating. Recovery actions (uncordon, relax)
//! fire only after `clear_after` consecutive healthy evaluations of the
//! same target — hysteresis, so one quiet tick cannot undo a cordon.
//!
//! Causality: each anomaly mints a `remediation/anomaly` root trace;
//! every action taken for it opens a `remediation/*` child span, so the
//! chaos→detection→action chain is walkable in the trace viewer.

use std::collections::BTreeMap;

use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::provenance::{DecisionKind, Outcome, SchedProv};
use ks_telemetry::{FlightRecorder, SloStatus, SpanId, Telemetry, TraceCtx};

use crate::detect::Anomaly;
use crate::guard::{FlapGuard, GuardVerdict};

/// A remediation the host should execute. Targets are plain strings so
/// the controller needs no control-plane types.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Stop placing onto `node`; running pods stay.
    CordonNode { node: String },
    /// Resume placing onto `node` and retry its unschedulable queue.
    UncordonNode { node: String },
    /// Requeue every tenant off the vGPU and retire the device.
    DrainVgpu { gpu: String },
    /// Scale gateway rate limits and queue caps down to `scale`.
    TightenAdmission { scale: f64 },
    /// Restore gateway admission to the configured limits.
    RelaxAdmission,
}

impl Action {
    /// Label for `ks_remediation_actions_total`.
    pub fn label(&self) -> &'static str {
        match self {
            Action::CordonNode { .. } => "cordon_node",
            Action::UncordonNode { .. } => "uncordon_node",
            Action::DrainVgpu { .. } => "drain_vgpu",
            Action::TightenAdmission { .. } => "tighten_admission",
            Action::RelaxAdmission => "relax_admission",
        }
    }
}

/// Wiring from verdicts to actions, plus the guard's knobs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Detector rule whose verdicts cordon the breaching `node` label.
    pub cordon_rule: &'static str,
    /// Detector rule whose verdicts drain the breaching `gpu` label.
    pub drain_rule: &'static str,
    /// SLO rule whose burn tightens gateway admission.
    pub tighten_slo: &'static str,
    /// Admission scale applied while the SLO burns, in `(0, 1)`.
    pub tighten_scale: f64,
    /// Consecutive healthy evaluations before uncordon / relax.
    pub clear_after: u32,
    /// Per-target cooldown between actions.
    pub cooldown: SimDuration,
    /// Sliding budget window.
    pub budget_window: SimDuration,
    /// Max actions per budget window; past it the loop observes only.
    pub max_actions: u32,
    /// When false the controller traces and counts but emits no actions
    /// (observe-only baseline; the disabled loop must be decision-inert).
    pub enabled: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            cordon_rule: "node_crash_burn",
            drain_rule: "vgpu_throughput_drop",
            tighten_slo: "handoff_wait_p99",
            tighten_scale: 0.5,
            clear_after: 8,
            cooldown: SimDuration::from_secs(30),
            budget_window: SimDuration::from_secs(120),
            max_actions: 12,
            enabled: true,
        }
    }
}

/// An open remediation being tracked toward recovery.
#[derive(Debug)]
struct OpenRemediation {
    span: SpanId,
    ctx: TraceCtx,
    /// Consecutive evaluations without a fresh verdict on this target.
    healthy_streak: u32,
}

/// Turns anomaly verdicts and SLO burn into graded, budget-capped
/// actions. Pure state machine: all telemetry flows through the handle
/// given at construction, all side effects through the returned actions.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    telemetry: Telemetry,
    /// Flight recorder for [`DecisionKind::Remediation`] records, keyed
    /// by each anomaly's root trace (disabled by default).
    recorder: FlightRecorder,
    guard: FlapGuard,
    /// Nodes we cordoned, awaiting health to uncordon.
    cordoned: BTreeMap<String, OpenRemediation>,
    /// The admission tightening in flight, if any.
    tightened: Option<OpenRemediation>,
    actions_taken: u64,
}

impl Controller {
    pub fn new(cfg: ControllerConfig, telemetry: Telemetry) -> Self {
        assert!(
            cfg.tighten_scale > 0.0 && cfg.tighten_scale < 1.0,
            "tighten_scale must be in (0, 1)"
        );
        assert!(cfg.clear_after >= 1, "clear_after must be >= 1");
        let guard = FlapGuard::new(cfg.cooldown, cfg.budget_window, cfg.max_actions);
        Controller {
            cfg,
            telemetry,
            recorder: FlightRecorder::disabled(),
            guard,
            cordoned: BTreeMap::new(),
            tightened: None,
            actions_taken: 0,
        }
    }

    /// Installs a decision-provenance flight recorder: every emitted
    /// action leaves a [`DecisionKind::Remediation`] record joined to the
    /// triggering anomaly's trace. Recording happens after each action is
    /// decided, so the control loop is decision-identical recorder on or
    /// off.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = recorder;
    }

    /// The installed flight recorder (disabled handle by default).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Captures one emitted action as a provenance record under the
    /// anomaly's trace (`sp` is 0: remediation acts on infrastructure,
    /// not on one sharePod).
    fn record_action(&self, now: SimTime, ctx: TraceCtx, action: &Action, why: &str) {
        if !self.recorder.is_enabled() {
            return;
        }
        let target = match action {
            Action::CordonNode { node } | Action::UncordonNode { node } => node.clone(),
            Action::DrainVgpu { gpu } => gpu.clone(),
            Action::TightenAdmission { .. } | Action::RelaxAdmission => "gateway".to_string(),
        };
        let mut prov = SchedProv::on();
        prov.note(|| format!("remediation: {} ({why})", action.label()));
        self.recorder.record(prov.into_record(
            now,
            0,
            ctx.trace,
            DecisionKind::Remediation,
            Outcome::Action {
                name: action.label().to_string(),
                target: target.into(),
            },
        ));
    }

    pub fn actions_taken(&self) -> u64 {
        self.actions_taken
    }

    /// Targets currently cordoned by this controller.
    pub fn cordoned_nodes(&self) -> Vec<&str> {
        self.cordoned.keys().map(|s| s.as_str()).collect()
    }

    pub fn is_tightened(&self) -> bool {
        self.tightened.is_some()
    }

    /// One control-loop evaluation. `anomalies` are this tick's fresh
    /// detector verdicts; `slo` is the full SLO engine output. Returns
    /// the actions the host must execute, in a deterministic order.
    pub fn step(&mut self, now: SimTime, anomalies: &[Anomaly], slo: &[SloStatus]) -> Vec<Action> {
        let mut actions = Vec::new();
        let observe_only = !self.cfg.enabled || self.guard.observe_only(now);
        if self.telemetry.is_enabled() {
            self.telemetry
                .gauge("ks_remediation_observe_only", &[])
                .set(if observe_only { 1.0 } else { 0.0 });
        }

        // --- ingest verdicts: every anomaly mints a root trace. ---
        for a in anomalies {
            let ctx = self.telemetry.trace_root(
                now,
                "remediation",
                "anomaly",
                &[
                    ("rule", a.rule),
                    ("metric", a.metric),
                    ("value", &format!("{:.6}", a.value)),
                    ("z", &format!("{:.3}", a.z)),
                ],
            );
            self.telemetry
                .counter("ks_remediation_anomalies_total", &[("rule", a.rule)])
                .inc();
            if !self.cfg.enabled {
                self.suppress("disabled");
                continue;
            }
            if a.rule == self.cfg.cordon_rule {
                if let Some(node) = a.label("node") {
                    self.try_cordon(now, node, ctx, &mut actions);
                }
            } else if a.rule == self.cfg.drain_rule {
                if let Some(gpu) = a.label("gpu") {
                    self.try_drain(now, gpu, ctx, &mut actions);
                }
            }
        }

        // --- hysteresis: track open remediations toward recovery. ---
        if self.cfg.enabled {
            self.advance_cordons(now, anomalies, &mut actions);
            self.advance_tighten(now, anomalies, slo, &mut actions);
        }

        for act in &actions {
            self.telemetry
                .counter("ks_remediation_actions_total", &[("action", act.label())])
                .inc();
        }
        self.actions_taken += actions.len() as u64;
        actions
    }

    fn suppress(&self, reason: &'static str) {
        self.telemetry
            .counter("ks_remediation_suppressed_total", &[("reason", reason)])
            .inc();
    }

    fn guarded(&mut self, now: SimTime, key: &str) -> bool {
        match self.guard.admit(now, key) {
            GuardVerdict::Allowed => true,
            v => {
                self.suppress(v.label());
                false
            }
        }
    }

    fn try_cordon(&mut self, now: SimTime, node: &str, ctx: TraceCtx, actions: &mut Vec<Action>) {
        if let Some(open) = self.cordoned.get_mut(node) {
            // Still sick: restart the healthy streak, don't re-cordon.
            open.healthy_streak = 0;
            return;
        }
        if !self.guarded(now, &format!("cordon:{node}")) {
            return;
        }
        let span =
            self.telemetry
                .span_begin_in(now, ctx, "remediation", "cordon", &[("node", node)]);
        self.cordoned.insert(
            node.to_string(),
            OpenRemediation {
                span,
                ctx,
                healthy_streak: 0,
            },
        );
        let action = Action::CordonNode {
            node: node.to_string(),
        };
        self.record_action(now, ctx, &action, "anomaly verdict on node");
        actions.push(action);
    }

    fn try_drain(&mut self, now: SimTime, gpu: &str, ctx: TraceCtx, actions: &mut Vec<Action>) {
        if !self.guarded(now, &format!("drain:{gpu}")) {
            return;
        }
        // Drain is one-shot: the device is retired, nothing to track.
        let span = self
            .telemetry
            .span_begin_in(now, ctx, "remediation", "drain", &[("gpu", gpu)]);
        self.telemetry.span_end(now, span, &[]);
        let action = Action::DrainVgpu {
            gpu: gpu.to_string(),
        };
        self.record_action(now, ctx, &action, "anomaly verdict on vGPU");
        actions.push(action);
    }

    fn advance_cordons(&mut self, now: SimTime, anomalies: &[Anomaly], actions: &mut Vec<Action>) {
        let clear_after = self.cfg.clear_after;
        let mut to_lift: Vec<String> = Vec::new();
        for (node, open) in self.cordoned.iter_mut() {
            let still_sick = anomalies
                .iter()
                .any(|a| a.rule == self.cfg.cordon_rule && a.label("node") == Some(node));
            if still_sick {
                open.healthy_streak = 0;
            } else {
                open.healthy_streak += 1;
                if open.healthy_streak >= clear_after {
                    to_lift.push(node.clone());
                }
            }
        }
        for node in to_lift {
            if !self.guarded(now, &format!("uncordon:{node}")) {
                continue;
            }
            let open = self.cordoned.remove(&node).expect("tracked above");
            self.telemetry
                .span_end(now, open.span, &[("outcome", "uncordoned")]);
            self.telemetry.trace_event_in(
                now,
                open.ctx,
                "remediation",
                "uncordon",
                &[("node", &node)],
            );
            let action = Action::UncordonNode { node };
            self.record_action(now, open.ctx, &action, "healthy streak reached clear_after");
            actions.push(action);
        }
    }

    fn advance_tighten(
        &mut self,
        now: SimTime,
        _anomalies: &[Anomaly],
        slo: &[SloStatus],
        actions: &mut Vec<Action>,
    ) {
        let burning = slo
            .iter()
            .find(|s| s.rule == self.cfg.tighten_slo)
            .map(|s| s.breaching)
            .unwrap_or(false);
        match &mut self.tightened {
            None if burning => {
                if !self.guarded(now, "gateway:tighten") {
                    return;
                }
                let ctx = self.telemetry.trace_root(
                    now,
                    "remediation",
                    "anomaly",
                    &[("rule", self.cfg.tighten_slo), ("kind", "slo_burn")],
                );
                let span = self.telemetry.span_begin_in(
                    now,
                    ctx,
                    "remediation",
                    "tighten_admission",
                    &[("scale", &format!("{:.3}", self.cfg.tighten_scale))],
                );
                self.tightened = Some(OpenRemediation {
                    span,
                    ctx,
                    healthy_streak: 0,
                });
                let action = Action::TightenAdmission {
                    scale: self.cfg.tighten_scale,
                };
                self.record_action(now, ctx, &action, "SLO burning");
                actions.push(action);
            }
            Some(open) if burning => open.healthy_streak = 0,
            Some(open) => {
                open.healthy_streak += 1;
                if open.healthy_streak >= self.cfg.clear_after && self.guarded(now, "gateway:relax")
                {
                    let open = self.tightened.take().expect("matched Some");
                    self.telemetry
                        .span_end(now, open.span, &[("outcome", "relaxed")]);
                    self.record_action(
                        now,
                        open.ctx,
                        &Action::RelaxAdmission,
                        "SLO healthy streak reached clear_after",
                    );
                    actions.push(Action::RelaxAdmission);
                }
            }
            None => {}
        }
    }
}
