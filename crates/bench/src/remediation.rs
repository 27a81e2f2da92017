//! Closed-loop self-healing soak: chaos in, remediation out, measured.
//!
//! The same 4-node × 2-GPU long-running-service fleet as the chaos soak,
//! now with two fault classes — node crashes and **degraded vGPUs**
//! (seeded slow-silicon streams that stretch every kernel 2.5–4×) — and
//! the full detection → remediation loop from `ks-remediation` wired in:
//!
//! ```text
//! chaos fault ─→ telemetry series ─→ Scraper ─→ Detector ─→ Controller
//!      ^                                                        │
//!      └──── cordon / drain / uncordon executed on the ─────────┘
//!            control plane (KubeShareSystem recovery paths)
//! ```
//!
//! The synthetic workload model: every ready vGPU delivers
//! `1000 / degradation_factor` work milli-units per tenant per second,
//! accounted in `ks_workload_completed_total{gpu}` and normalized into
//! the `ks_vgpu_work_rate_milli{gpu}` gauge the detector watches (work
//! per tenant per second — tenancy churn from crashes cannot fake a
//! throughput collapse). Node crash burn is watched on the per-node
//! `ks_node_failures_total` counters.
//!
//! Three modes on the same seed:
//!
//! * **Vanilla** — no detector, no controller (today's system);
//! * **Observe** — detector + controller constructed but disabled:
//!   verdicts flow, nothing executes. Must be *byte-identical* to
//!   Vanilla in every sample and fault record (decision identity);
//! * **Closed** — the loop acts: cordon on crash burn, drain-and-requeue
//!   off slow vGPUs, hysteresis uncordon, all behind the flap guard.
//!
//! Asserted (collected into `failures`, so the bin exits non-zero):
//! detection latency ≤ `DETECT_K` scrape intervals for every *eligible*
//! fault (eligibility excludes faults the rules cannot see fresh: repeat
//! crashes inside the still-latched 60 s window, degrades on a device
//! younger than the detector warmup, re-degraded before re-arm, hosted
//! on a down node, or restored before the persistence window elapses —
//! the counts are reported, never silently dropped); closed-loop work
//! strictly beats observe-only on the same seed; a fault-free closed
//! run takes zero actions; Vanilla ≡ Observe decision identity; same
//! seed ⇒ identical closed runs; and the flap-guard budget holds over
//! every sliding window of the action log.

use std::collections::BTreeMap;

use ks_chaos::{ChaosConfig, ChaosEvent, ChaosInjector, FaultRecord};
use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::ResourceList;
use ks_remediation::{Action, Controller, ControllerConfig, DetectRule, Detector, Signal};
use ks_sim_core::prelude::*;
use ks_telemetry::{Scraper, SloEngine, Telemetry};
use ks_vgpu::ShareSpec;
use kubeshare::sharepod::SharePodSpec;
use kubeshare::system::{KsConfig, KsEmit, KsEvent, RestartPolicy};
use kubeshare::{GpuId, KubeShareSystem};
use serde::Serialize;

use crate::report::{f1, Table};

const NODES: usize = 4;
const GPUS_PER_NODE: u32 = 2;
const PODS: usize = 12;
/// No fault fires past this point; the tail measures recovery.
const FAULT_HORIZON_SECS: u64 = 300;
const RUN_SECS: u64 = 360;
/// Scrape cadence (also the sample/work tick).
const SCRAPE_SECS: u64 = 1;
/// Detection deadline, in scrape intervals, for every eligible fault.
const DETECT_K: u64 = 5;
/// Healthy per-tenant work rate, milli-units per second.
const WORK_RATE_MILLI: u64 = 1000;
/// Flap-guard budget: actions per sliding window.
const MAX_ACTIONS: u32 = 16;
const BUDGET_WINDOW_SECS: u64 = 120;
/// Detector warmup (observations before a series may breach).
const WARMUP: u64 = 5;

/// How much of the loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Today's system: no detector, no controller.
    Vanilla,
    /// Detector + disabled controller: verdicts, no actions.
    Observe,
    /// Full loop: verdicts drive cordon/drain/uncordon.
    Closed,
}

/// The two detection rules this soak exercises.
fn rule_catalogue() -> Vec<DetectRule> {
    vec![
        // Any crash burn on a node: the counter series is per-node, the
        // healthy rate is exactly zero, and two consecutive breaching
        // scrapes (persist = 2) separate a real crash from scrape jitter.
        DetectRule::threshold(
            "node_crash_burn",
            "ks_node_failures_total",
            SimDuration::from_secs(60),
            0.0,
        ),
        // Per-tenant normalized throughput of one vGPU: constant 1000 on
        // healthy silicon, ≤ 400 under a 2.5–4× degrade — a z-score far
        // past any noise floor.
        DetectRule::zscore(
            "vgpu_throughput_drop",
            "ks_vgpu_work_rate_milli",
            Signal::GaugeZScore {
                window: SimDuration::from_secs(SCRAPE_SECS),
            },
            6.0,
        ),
    ]
}

fn controller_config(enabled: bool) -> ControllerConfig {
    ControllerConfig {
        cordon_rule: "node_crash_burn",
        drain_rule: "vgpu_throughput_drop",
        clear_after: 8,
        cooldown: SimDuration::from_secs(20),
        budget_window: SimDuration::from_secs(BUDGET_WINDOW_SECS),
        max_actions: MAX_ACTIONS,
        enabled,
        ..ControllerConfig::default()
    }
}

/// One injected fault, with the eligibility verdict decided at injection
/// time (see module docs).
#[derive(Debug, Clone, PartialEq)]
struct FaultEntry {
    at: SimTime,
    /// "node_crash" or "vgpu_degrade".
    kind: &'static str,
    /// "node-3" or the vGPU's GPUID string.
    target: String,
    eligible: bool,
}

struct World {
    ks: KubeShareSystem,
    telemetry: Telemetry,
    scraper: Scraper,
    slo: SloEngine,
    detector: Option<Detector>,
    controller: Option<Controller>,
    /// Severity (percent added to the kernel factor) per degraded vGPU.
    degraded: BTreeMap<GpuId, u32>,
    /// The outstanding degrade `VgpuRestore` will lift (the chaos degrade
    /// stream strictly alternates, so at most one is in flight).
    pending_restore: Option<GpuId>,
    /// First tick each vGPU reported a work rate (detector warmup gate).
    born: BTreeMap<GpuId, SimTime>,
    /// Last crash per node (repeat-crash eligibility gate).
    last_crash: BTreeMap<String, SimTime>,
    /// Per-second: (t, running sharePods, work done this tick).
    samples: Vec<(SimTime, u32, u64)>,
    work_total: u64,
    faults: Vec<FaultEntry>,
    /// (t, rule, target) for every detector verdict.
    verdicts: Vec<(SimTime, &'static str, String)>,
    /// (t, action label, target) for every executed action.
    actions: Vec<(SimTime, &'static str, String)>,
}

enum Ev {
    Ks(KsEvent),
    Chaos(ChaosEvent),
    Sample,
}

impl World {
    fn apply_chaos(&mut self, now: SimTime, ev: ChaosEvent, out: &mut KsEmit) {
        let mut notes = Vec::new();
        match ev {
            ChaosEvent::NodeCrash { node } => {
                let name = format!("node-{node}");
                // Eligible when the rule can see it fresh: the previous
                // crash's 60 s breach window (plus re-arm slack) is over.
                let eligible = self
                    .last_crash
                    .get(&name)
                    .is_none_or(|&prev| now.saturating_since(prev) > SimDuration::from_secs(75));
                self.last_crash.insert(name.clone(), now);
                self.faults.push(FaultEntry {
                    at: now,
                    kind: "node_crash",
                    target: name.clone(),
                    eligible,
                });
                self.ks.fail_node(now, &name, out, &mut notes);
            }
            ChaosEvent::NodeRecover { node } => {
                self.ks.recover_node(now, &format!("node-{node}"), out);
            }
            ChaosEvent::ContainerCrash => {
                let pods = self.ks.running_backing_pods();
                let victim = self
                    .ks
                    .chaos_mut()
                    .and_then(|inj| inj.pick_victim(pods.len()))
                    .map(|i| pods[i]);
                if let Some(pod) = victim {
                    self.ks.crash_pod(now, pod, "chaos", out, &mut notes);
                }
            }
            ChaosEvent::VgpuDegrade { severity_pct } => {
                let candidates: Vec<GpuId> = self
                    .ks
                    .pool()
                    .devices()
                    .filter(|d| d.uuid.is_some() && !d.releasing)
                    .map(|d| d.id.clone())
                    .collect();
                let victim = self
                    .ks
                    .chaos_mut()
                    .and_then(|inj| inj.pick_degrade_victim(candidates.len()))
                    .map(|i| candidates[i].clone());
                if let Some(id) = victim {
                    // Eligible when the detector can fire fresh: the
                    // series is past warmup, the previous degrade on
                    // this device has cleared and re-armed, and the
                    // hosting node is up — a device on a crashed node
                    // stops rendering its work-rate gauge, so the
                    // degraded value is invisible until recovery.
                    let node_up = self
                        .ks
                        .pool()
                        .devices()
                        .find(|d| d.id == id)
                        .and_then(|d| d.node.as_deref())
                        .is_some_and(|n| self.ks.cluster.node_up(n) == Some(true));
                    let eligible = node_up
                        && !self.degraded.contains_key(&id)
                        && self.born.get(&id).is_some_and(|&b| {
                            now.saturating_since(b) > SimDuration::from_secs(WARMUP + 3)
                        });
                    self.faults.push(FaultEntry {
                        at: now,
                        kind: "vgpu_degrade",
                        target: id.to_string(),
                        eligible,
                    });
                    self.degraded.insert(id.clone(), severity_pct);
                    self.pending_restore = Some(id);
                }
            }
            ChaosEvent::VgpuRestore => {
                if let Some(id) = self.pending_restore.take() {
                    // A degrade restored before the detector's persistence
                    // window elapses (persist = 2 scrapes, plus tick
                    // alignment slack) never renders two breaching
                    // samples: it is invisible by design, so retract its
                    // eligibility rather than hold the loop to an
                    // impossible deadline. The chaos stream is identical
                    // across modes, so this stays deterministic.
                    let target = id.to_string();
                    if let Some(entry) = self
                        .faults
                        .iter_mut()
                        .rev()
                        .find(|f| f.kind == "vgpu_degrade" && f.target == target)
                    {
                        if now.saturating_since(entry.at) <= SimDuration::from_secs(3) {
                            entry.eligible = false;
                        }
                    }
                    // No-op if the closed loop already drained the device.
                    self.degraded.remove(&id);
                }
            }
            ChaosEvent::BackendRestart => {
                // Token-level churn; invisible at the control plane.
            }
        }
    }

    /// The synthetic work tick: every ready vGPU delivers
    /// `WORK_RATE_MILLI / factor` milli-units per attached tenant, where
    /// `factor = 1 + severity/100` while degraded.
    fn do_work(&mut self, now: SimTime) -> u64 {
        let mut tick_work = 0u64;
        let per_device: Vec<(GpuId, u64, u64)> = self
            .ks
            .pool()
            .devices()
            .filter(|d| d.uuid.is_some() && !d.releasing)
            .map(|d| {
                let factor_pct = 100 + u64::from(self.degraded.get(&d.id).copied().unwrap_or(0));
                let per_tenant = WORK_RATE_MILLI * 100 / factor_pct;
                (d.id.clone(), per_tenant, d.attached.len() as u64)
            })
            .collect();
        for (id, per_tenant, tenants) in per_device {
            self.born.entry(id.clone()).or_insert(now);
            let id_str = id.to_string();
            self.telemetry
                .gauge("ks_vgpu_work_rate_milli", &[("gpu", &id_str)])
                .set(per_tenant as f64);
            let work = per_tenant * tenants;
            if work > 0 {
                self.telemetry
                    .counter("ks_workload_completed_total", &[("gpu", &id_str)])
                    .add(work);
            }
            tick_work += work;
        }
        tick_work
    }

    fn execute(&mut self, now: SimTime, action: Action, out: &mut KsEmit) {
        let mut notes = Vec::new();
        let target = match &action {
            Action::CordonNode { node } => {
                self.ks.cordon_node(node);
                node.clone()
            }
            Action::UncordonNode { node } => {
                self.ks.uncordon_node(now, node, out);
                node.clone()
            }
            Action::DrainVgpu { gpu } => {
                // A `"gpu#sN"` target scopes the drain to one slice of a
                // spatially partitioned device; a plain id drains the whole
                // vGPU. Either way the *device* leaves the degraded set —
                // severity is a device-level property.
                self.ks.drain_target(now, gpu, out, &mut notes);
                let base = gpu.split_once("#s").map_or(gpu.as_str(), |(g, _)| g);
                self.degraded.remove(&GpuId::named(base));
                gpu.clone()
            }
            // No gateway fronts this soak; admission tightening is
            // exercised by the gateway integration tests.
            Action::TightenAdmission { .. } | Action::RelaxAdmission => String::new(),
        };
        self.actions.push((now, action.label(), target));
    }
}

impl SimEvent<World> for Ev {
    fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
        let mut out = Vec::new();
        match self {
            Ev::Ks(ev) => {
                let mut notes = Vec::new();
                w.ks.handle(now, ev, &mut out, &mut notes);
            }
            Ev::Chaos(ev) => {
                w.apply_chaos(now, ev, &mut out);
                if let Some(inj) = w.ks.chaos_mut() {
                    if let Some((at, next)) = inj.next_after(now, ev) {
                        q.schedule_at(at, Ev::Chaos(next));
                    }
                }
            }
            Ev::Sample => {
                let tick_work = w.do_work(now);
                w.work_total += tick_work;
                let running = w.telemetry.gauge("ks_sched_running_sharepods", &[]).get();
                w.samples.push((now, running as u32, tick_work));
                if w.scraper.tick(now, &w.telemetry) {
                    let slo_status = w.slo.evaluate(now, w.scraper.tsdb(), &w.telemetry);
                    let anomalies = match &mut w.detector {
                        Some(det) => det.evaluate(now, w.scraper.tsdb()),
                        None => Vec::new(),
                    };
                    for a in &anomalies {
                        let target = a
                            .label("node")
                            .or_else(|| a.label("gpu"))
                            .unwrap_or("")
                            .to_string();
                        w.verdicts.push((now, a.rule, target));
                    }
                    let actions = match &mut w.controller {
                        Some(c) => c.step(now, &anomalies, &slo_status),
                        None => Vec::new(),
                    };
                    for act in actions {
                        w.execute(now, act, &mut out);
                    }
                }
                if now < SimTime::from_secs(RUN_SECS) {
                    q.schedule_at(now + SimDuration::from_secs(SCRAPE_SECS), Ev::Sample);
                }
            }
        }
        for (at, e) in out {
            q.schedule_at(at, Ev::Ks(e));
        }
    }
}

fn sp_spec() -> SharePodSpec {
    SharePodSpec::new(
        PodSpec::new("serve:1", ResourceList::cpu_mem(1000, 1 << 30)),
        ShareSpec::new(0.2, 1.0, 0.2).unwrap(),
    )
}

struct SoakOutcome {
    samples: Vec<(SimTime, u32, u64)>,
    work_total: u64,
    faults: Vec<FaultEntry>,
    verdicts: Vec<(SimTime, &'static str, String)>,
    actions: Vec<(SimTime, &'static str, String)>,
    trace: Vec<FaultRecord>,
    final_running: u32,
    controller_actions: u64,
    detector_fired: u64,
}

fn soak_run(chaos: Option<ChaosConfig>, mode: Mode) -> SoakOutcome {
    let telemetry = Telemetry::enabled();
    let mut ks = KubeShareSystem::new(
        crate::harness::cluster_config(NODES, GPUS_PER_NODE),
        KsConfig {
            restart_policy: RestartPolicy::OnFailure,
            ..KsConfig::default()
        },
    );
    ks.set_telemetry(telemetry.clone());
    let mut initial = Vec::new();
    if let Some(cfg) = chaos {
        let mut inj = ChaosInjector::new(cfg, NODES);
        initial = inj.initial_events();
        ks.set_chaos(inj);
    }
    let (detector, controller) = match mode {
        Mode::Vanilla => (None, None),
        Mode::Observe => (
            Some(Detector::new(rule_catalogue())),
            Some(Controller::new(controller_config(false), telemetry.clone())),
        ),
        Mode::Closed => (
            Some(Detector::new(rule_catalogue())),
            Some(Controller::new(controller_config(true), telemetry.clone())),
        ),
    };
    let mut eng: Engine<World, Ev> = Engine::new(World {
        ks,
        telemetry: telemetry.clone(),
        scraper: Scraper::new(SimDuration::from_secs(SCRAPE_SECS), 2048),
        slo: SloEngine::kubeshare_catalogue(),
        detector,
        controller,
        degraded: BTreeMap::new(),
        pending_restore: None,
        born: BTreeMap::new(),
        last_crash: BTreeMap::new(),
        samples: Vec::new(),
        work_total: 0,
        faults: Vec::new(),
        verdicts: Vec::new(),
        actions: Vec::new(),
    });
    let mut out = Vec::new();
    for i in 0..PODS {
        eng.world
            .ks
            .submit_sharepod(SimTime::ZERO, format!("svc-{i}"), sp_spec(), &mut out);
    }
    for (at, e) in out {
        eng.queue.schedule_at(at, Ev::Ks(e));
    }
    for (at, e) in initial {
        eng.queue.schedule_at(at, Ev::Chaos(e));
    }
    eng.queue
        .schedule_at(SimTime::from_secs(SCRAPE_SECS), Ev::Sample);
    eng.run_to_completion(100_000_000);

    // Force any node still down back up and drain, so the fleet count at
    // the end reflects convergence, not an unlucky horizon edge.
    let now = eng.now() + SimDuration::from_secs(1);
    let mut out = Vec::new();
    for node in 0..NODES {
        eng.world
            .ks
            .recover_node(now, &format!("node-{node}"), &mut out);
    }
    for (at, e) in out {
        eng.queue.schedule_at(at, Ev::Ks(e));
    }
    eng.run_to_completion(100_000_000);

    let final_running = telemetry
        .snapshot()
        .gauge_value("ks_sched_running_sharepods", &[])
        .unwrap_or(0.0) as u32;
    let trace = eng
        .world
        .ks
        .chaos()
        .map(|inj| inj.trace().to_vec())
        .unwrap_or_default();
    let w = eng.world;
    SoakOutcome {
        samples: w.samples,
        work_total: w.work_total,
        faults: w.faults,
        verdicts: w.verdicts,
        actions: w.actions,
        trace,
        final_running,
        controller_actions: w.controller.as_ref().map_or(0, |c| c.actions_taken()),
        detector_fired: w.detector.as_ref().map_or(0, |d| d.fired_total()),
    }
}

/// Detection latency (seconds) per eligible fault: injection to the
/// first matching verdict. `None` when no verdict ever matched.
fn detection_latencies(out: &SoakOutcome) -> Vec<(FaultEntry, Option<f64>)> {
    out.faults
        .iter()
        .filter(|f| f.eligible)
        .map(|f| {
            let rule = match f.kind {
                "node_crash" => "node_crash_burn",
                _ => "vgpu_throughput_drop",
            };
            let hit = out
                .verdicts
                .iter()
                .find(|(t, r, target)| *t >= f.at && *r == rule && *target == f.target)
                .map(|(t, _, _)| t.saturating_since(f.at).as_secs_f64());
            (f.clone(), hit)
        })
        .collect()
}

/// The `BENCH_remediation.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct RemediationReport {
    /// Injector seed.
    pub seed: u64,
    /// Scrape (and control-loop) cadence, seconds.
    pub scrape_interval_s: f64,
    /// Detection deadline, in scrape intervals.
    pub detect_k: u64,
    /// Work on the fault-free run (the re-attainment denominator).
    pub ideal_work: u64,
    /// Total work milli-units with the loop observing only.
    pub observe_work: u64,
    /// Total work milli-units with the loop closed.
    pub closed_work: u64,
    /// `100 · observe_work / ideal_work`.
    pub reattain_observe_pct: f64,
    /// `100 · closed_work / ideal_work` (must beat observe-only).
    pub reattain_closed_pct: f64,
    /// Crash + degrade faults injected over the horizon.
    pub faults_injected: usize,
    /// Node crashes the detector could see fresh (see module docs).
    pub eligible_node_faults: usize,
    /// Degrades the detector could see fresh.
    pub eligible_degrade_faults: usize,
    /// Mean injection→verdict latency over eligible faults, seconds.
    pub detection_latency_mean_s: f64,
    /// Worst injection→verdict latency, seconds (≤ k · interval).
    pub detection_latency_max_s: f64,
    /// Actions taken on the fault-free run (must be 0).
    pub faultfree_actions: u64,
    /// Actions taken by the closed loop under chaos.
    pub closed_actions: u64,
    /// Cordon actions executed.
    pub cordons: u64,
    /// Uncordon actions executed.
    pub uncordons: u64,
    /// Drain-and-requeue actions executed.
    pub drains: u64,
    /// Detector verdicts raised during the closed run.
    pub closed_verdicts: u64,
    /// Vanilla ≡ Observe on every sample and fault record.
    pub decision_identity: bool,
    /// Two closed runs on the same seed are identical.
    pub replay_identical: bool,
    /// Running sharePods once faults stop (must re-attain the fleet).
    pub final_running_closed: u32,
    /// Violated acceptance bounds; empty means the soak passed.
    pub failures: Vec<String>,
}

/// Runs all four scenarios and checks every acceptance bound. Failures
/// are collected (not panicked) so the bin can still write the report.
pub fn run(seed: u64) -> RemediationReport {
    let mut failures: Vec<String> = Vec::new();

    // Fault-free closed loop: the controller must stay silent.
    let clean = soak_run(None, Mode::Closed);
    if clean.controller_actions != 0 || !clean.actions.is_empty() {
        failures.push(format!(
            "fault-free run took {} remediation actions (must be 0)",
            clean.controller_actions
        ));
    }
    if clean.detector_fired != 0 {
        failures.push(format!(
            "fault-free run fired {} anomaly verdicts (must be 0)",
            clean.detector_fired
        ));
    }
    let ideal_work = clean.work_total;

    let cfg = ChaosConfig::preset(seed)
        .with_horizon(SimTime::from_secs(FAULT_HORIZON_SECS))
        .with_vgpu_degrade(
            SimDuration::from_secs(20),
            SimDuration::from_secs(40),
            (150, 300),
        );

    // Decision identity: today's system vs the disabled loop.
    let vanilla = soak_run(Some(cfg.clone()), Mode::Vanilla);
    let observe = soak_run(Some(cfg.clone()), Mode::Observe);
    let decision_identity = vanilla.samples == observe.samples
        && vanilla.trace == observe.trace
        && vanilla.faults == observe.faults
        && observe.actions.is_empty();
    if !decision_identity {
        failures.push(
            "disabled controller must be decision-inert: Observe diverged from Vanilla".into(),
        );
    }

    // The closed loop, twice: replay identity.
    let closed = soak_run(Some(cfg.clone()), Mode::Closed);
    let replay = soak_run(Some(cfg), Mode::Closed);
    let replay_identical = closed.samples == replay.samples
        && closed.trace == replay.trace
        && closed.faults == replay.faults
        && closed.actions == replay.actions
        && closed.verdicts == replay.verdicts;
    if !replay_identical {
        failures.push("same seed must replay the closed loop identically".into());
    }

    // Detection latency on the observe run (no drains perturb series).
    let latencies = detection_latencies(&observe);
    let eligible_node = observe
        .faults
        .iter()
        .filter(|f| f.eligible && f.kind == "node_crash")
        .count();
    let eligible_degrade = observe
        .faults
        .iter()
        .filter(|f| f.eligible && f.kind == "vgpu_degrade")
        .count();
    if eligible_node == 0 || eligible_degrade == 0 {
        failures.push(format!(
            "soak must exercise both fault classes: {eligible_node} eligible crashes, \
             {eligible_degrade} eligible degrades"
        ));
    }
    let deadline = (DETECT_K * SCRAPE_SECS) as f64;
    let mut lat_sum = 0.0;
    let mut lat_max = 0.0f64;
    for (f, lat) in &latencies {
        match lat {
            Some(l) if *l <= deadline => {
                lat_sum += l;
                lat_max = lat_max.max(*l);
            }
            Some(l) => failures.push(format!(
                "{} on {} at {:.1}s detected after {l:.1}s (> {deadline:.0}s)",
                f.kind,
                f.target,
                f.at.as_secs_f64()
            )),
            None => failures.push(format!(
                "{} on {} at {:.1}s never detected",
                f.kind,
                f.target,
                f.at.as_secs_f64()
            )),
        }
    }
    let lat_mean = if latencies.is_empty() {
        0.0
    } else {
        lat_sum / latencies.len() as f64
    };

    // Closed loop must strictly beat observe-only on total work.
    if closed.work_total <= observe.work_total {
        failures.push(format!(
            "closed loop must beat observe-only: {} <= {}",
            closed.work_total, observe.work_total
        ));
    }
    if closed.final_running != PODS as u32 {
        failures.push(format!(
            "closed-loop fleet must fully converge: {}/{PODS} running",
            closed.final_running
        ));
    }

    // The flap-guard budget must hold over every window of the log.
    let times: Vec<SimTime> = closed.actions.iter().map(|&(t, _, _)| t).collect();
    for (i, &t0) in times.iter().enumerate() {
        let inside = times[i..]
            .iter()
            .filter(|&&t| t.saturating_since(t0) <= SimDuration::from_secs(BUDGET_WINDOW_SECS))
            .count();
        if inside > MAX_ACTIONS as usize {
            failures.push(format!(
                "action budget breached: {inside} actions in the window at {t0:?}"
            ));
            break;
        }
    }

    let count = |label: &str| {
        closed
            .actions
            .iter()
            .filter(|&&(_, l, _)| l == label)
            .count() as u64
    };
    RemediationReport {
        seed,
        scrape_interval_s: SCRAPE_SECS as f64,
        detect_k: DETECT_K,
        ideal_work,
        observe_work: observe.work_total,
        closed_work: closed.work_total,
        reattain_observe_pct: 100.0 * observe.work_total as f64 / ideal_work as f64,
        reattain_closed_pct: 100.0 * closed.work_total as f64 / ideal_work as f64,
        faults_injected: observe.faults.len(),
        eligible_node_faults: eligible_node,
        eligible_degrade_faults: eligible_degrade,
        detection_latency_mean_s: lat_mean,
        detection_latency_max_s: lat_max,
        faultfree_actions: clean.controller_actions,
        closed_actions: closed.controller_actions,
        cordons: count("cordon_node"),
        uncordons: count("uncordon_node"),
        drains: count("drain_vgpu"),
        closed_verdicts: closed.verdicts.len() as u64,
        decision_identity,
        replay_identical,
        final_running_closed: closed.final_running,
        failures,
    }
}

/// Renders the soak report.
pub fn report(r: &RemediationReport) -> Table {
    let mut t = Table::new(
        format!("Self-healing soak (seed {})", r.seed),
        &["metric", "value", "bound"],
    );
    t.row(vec![
        "faults injected".into(),
        r.faults_injected.to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "eligible crashes / degrades".into(),
        format!("{} / {}", r.eligible_node_faults, r.eligible_degrade_faults),
        "≥1 / ≥1".into(),
    ]);
    t.row(vec![
        "detection latency mean/max (s)".into(),
        format!(
            "{} / {}",
            f1(r.detection_latency_mean_s),
            f1(r.detection_latency_max_s)
        ),
        format!("≤ {}", r.detect_k as f64 * r.scrape_interval_s),
    ]);
    t.row(vec![
        "re-attainment observe-only (%)".into(),
        f1(r.reattain_observe_pct),
        "-".into(),
    ]);
    t.row(vec![
        "re-attainment closed-loop (%)".into(),
        f1(r.reattain_closed_pct),
        format!("> {}", f1(r.reattain_observe_pct)),
    ]);
    t.row(vec![
        "actions (cordon/uncordon/drain)".into(),
        format!("{} / {} / {}", r.cordons, r.uncordons, r.drains),
        format!("≤ {MAX_ACTIONS} per {BUDGET_WINDOW_SECS}s"),
    ]);
    t.row(vec![
        "fault-free actions".into(),
        r.faultfree_actions.to_string(),
        "0".into(),
    ]);
    t.row(vec![
        "decision identity (disabled)".into(),
        r.decision_identity.to_string(),
        "true".into(),
    ]);
    t.row(vec![
        "replay identical".into(),
        r.replay_identical.to_string(),
        "true".into(),
    ]);
    t.row(vec![
        "final running (closed)".into(),
        r.final_running_closed.to_string(),
        PODS.to_string(),
    ]);
    t
}

/// Serializes the report as the `BENCH_remediation.json` payload.
pub fn to_json(report: &RemediationReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_bounds_hold() {
        let r = run(7);
        assert!(r.failures.is_empty(), "failures: {:#?}", r.failures);
        assert!(r.closed_work > r.observe_work);
        assert!(r.drains >= 1, "degrades must trigger drains");
        assert!(r.cordons >= 1, "crash burn must trigger cordons");
        assert_eq!(r.faultfree_actions, 0);
        assert!(r.decision_identity);
        assert!(r.replay_identical);
        assert!(r.detection_latency_max_s <= (DETECT_K * SCRAPE_SECS) as f64);
        let t = report(&r);
        assert_eq!(t.len(), 10);
    }
}
