//! Declarative SLO rules with burn-rate alerting over the [`crate::tsdb`].
//!
//! An [`SloEngine`] holds a catalogue of [`SloRule`]s and is evaluated
//! periodically (typically right after a [`crate::tsdb::Scraper`] tick)
//! against the ring-buffer store. Three condition shapes cover the
//! catalogue:
//!
//! * [`SloCondition::QuantileBelow`] — a windowed histogram quantile must
//!   stay under a threshold (`p99(ks_sched_decision_seconds) < 2 s`);
//! * [`SloCondition::RateAtMost`] — a windowed counter rate must not
//!   exceed a ceiling (`rate(ks_token_guarantee_violations_total) == 0`);
//! * [`SloCondition::BurnRate`] — the Google-SRE multi-window form: the
//!   budget must be burning over *both* a long and a short window before
//!   the alert fires, so a long-resolved spike cannot page.
//!
//! Alerts are edge-triggered with re-arm: a rule fires once when it
//! transitions healthy → breaching (emitting a `slo/alert` trace event —
//! causally linked to nothing, it is a root-level observation — and
//! bumping `ks_slo_alerts_total{rule}`), emits `slo/resolve` when it
//! clears, and can fire again afterwards. Missing series never fire:
//! absence of evidence is not a breach.

use ks_sim_core::time::{SimDuration, SimTime};

use crate::tsdb::Tsdb;
use crate::Telemetry;

/// A rule's breach predicate. Metric/label names are `'static` so fired
/// alerts can be stamped into the tracer, whose field keys are static.
#[derive(Debug, Clone)]
pub enum SloCondition {
    /// `quantile(metric{labels}, q)` over `window` must stay `< threshold`.
    QuantileBelow {
        metric: &'static str,
        labels: &'static [(&'static str, &'static str)],
        q: f64,
        window: SimDuration,
        threshold: f64,
    },
    /// `rate(metric{labels})` over `window` must stay `≤ max_per_sec`.
    RateAtMost {
        metric: &'static str,
        labels: &'static [(&'static str, &'static str)],
        window: SimDuration,
        max_per_sec: f64,
    },
    /// Multi-window burn rate: breaches only while `rate > max_per_sec`
    /// over **both** the long and the short window.
    BurnRate {
        metric: &'static str,
        labels: &'static [(&'static str, &'static str)],
        long_window: SimDuration,
        short_window: SimDuration,
        max_per_sec: f64,
    },
}

impl SloCondition {
    /// Whether the condition is breached at `now`. Missing data → false.
    fn breached(&self, tsdb: &Tsdb, now: SimTime) -> bool {
        match self {
            SloCondition::QuantileBelow {
                metric,
                labels,
                q,
                window,
                threshold,
            } => tsdb
                .quantile(metric, labels, *q, *window, now)
                .is_some_and(|v| v >= *threshold),
            SloCondition::RateAtMost {
                metric,
                labels,
                window,
                max_per_sec,
            } => tsdb
                .rate(metric, labels, *window, now)
                .is_some_and(|r| r > *max_per_sec),
            SloCondition::BurnRate {
                metric,
                labels,
                long_window,
                short_window,
                max_per_sec,
            } => {
                let long = tsdb.rate(metric, labels, *long_window, now);
                let short = tsdb.rate(metric, labels, *short_window, now);
                long.is_some_and(|r| r > *max_per_sec) && short.is_some_and(|r| r > *max_per_sec)
            }
        }
    }

    fn metric(&self) -> &'static str {
        match self {
            SloCondition::QuantileBelow { metric, .. }
            | SloCondition::RateAtMost { metric, .. }
            | SloCondition::BurnRate { metric, .. } => metric,
        }
    }
}

/// A named SLO with its breach predicate.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Stable identifier, used as the `rule` label on alerts.
    pub name: &'static str,
    /// Human-readable objective, for reports.
    pub objective: &'static str,
    pub condition: SloCondition,
}

#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    active: bool,
    fired: u64,
}

/// The outcome of one rule at one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloStatus {
    pub rule: &'static str,
    pub breaching: bool,
    /// True only on the evaluation where the rule transitioned into breach.
    pub newly_fired: bool,
}

/// Evaluates a rule catalogue against a [`Tsdb`], tracking per-rule
/// active/re-arm state across evaluations.
#[derive(Debug)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    state: Vec<RuleState>,
}

impl SloEngine {
    pub fn new(rules: Vec<SloRule>) -> Self {
        let state = vec![RuleState::default(); rules.len()];
        SloEngine { rules, state }
    }

    /// The default KubeShare rule catalogue (DESIGN.md §11.4). Thresholds
    /// are deliberately generous: on a healthy run every rule must stay
    /// quiet; they exist to catch pathologies, not to tune noise.
    pub fn kubeshare_catalogue() -> Self {
        use SloCondition::*;
        SloEngine::new(vec![
            SloRule {
                name: "sched_decision_p99",
                objective: "p99 scheduler decision latency < 2s over 1m",
                condition: QuantileBelow {
                    metric: "ks_sched_decision_seconds",
                    labels: &[],
                    q: 0.99,
                    window: SimDuration::from_secs(60),
                    threshold: 2.0,
                },
            },
            SloRule {
                name: "sharepod_startup_p99",
                objective: "p99 SharePod submission-to-running < 30s over 5m",
                condition: QuantileBelow {
                    metric: "ks_sharepod_startup_seconds",
                    labels: &[],
                    q: 0.99,
                    window: SimDuration::from_secs(300),
                    threshold: 30.0,
                },
            },
            SloRule {
                name: "token_guarantee",
                objective: "zero token-guarantee violations over 1m",
                condition: RateAtMost {
                    metric: "ks_token_guarantee_violations_total",
                    labels: &[],
                    window: SimDuration::from_secs(60),
                    max_per_sec: 0.0,
                },
            },
            SloRule {
                name: "handoff_wait_p99",
                objective: "p99 token handoff wait < 5s over 1m",
                condition: QuantileBelow {
                    metric: "ks_vgpu_handoff_wait_seconds",
                    labels: &[],
                    q: 0.99,
                    window: SimDuration::from_secs(60),
                    threshold: 5.0,
                },
            },
            SloRule {
                name: "pod_failures",
                objective: "zero pod failures over 1m",
                condition: RateAtMost {
                    metric: "ks_cluster_pod_lifecycle_total",
                    labels: &[("phase", "failed")],
                    window: SimDuration::from_secs(60),
                    max_per_sec: 0.0,
                },
            },
            SloRule {
                name: "node_outage_burn",
                objective: "no node-crash budget burn over 5m AND 1m",
                condition: BurnRate {
                    metric: "ks_chaos_faults_total",
                    labels: &[("kind", "node_crash")],
                    long_window: SimDuration::from_secs(300),
                    short_window: SimDuration::from_secs(60),
                    max_per_sec: 0.0,
                },
            },
        ])
    }

    /// The catalogue.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Evaluates every rule at `now`. Transitions into breach emit a
    /// `slo/alert` trace event and bump `ks_slo_alerts_total{rule}` on
    /// `telemetry`; transitions out emit `slo/resolve` and re-arm.
    pub fn evaluate(&mut self, now: SimTime, tsdb: &Tsdb, telemetry: &Telemetry) -> Vec<SloStatus> {
        let mut out = Vec::with_capacity(self.rules.len());
        for (rule, state) in self.rules.iter().zip(self.state.iter_mut()) {
            let breaching = rule.condition.breached(tsdb, now);
            let newly_fired = breaching && !state.active;
            if newly_fired {
                state.fired += 1;
                telemetry
                    .counter("ks_slo_alerts_total", &[("rule", rule.name)])
                    .inc();
                telemetry.trace_event(
                    now,
                    "slo",
                    "alert",
                    &[
                        ("rule", rule.name),
                        ("metric", rule.condition.metric()),
                        ("objective", rule.objective),
                    ],
                );
            } else if !breaching && state.active {
                telemetry.trace_event(now, "slo", "resolve", &[("rule", rule.name)]);
            }
            state.active = breaching;
            out.push(SloStatus {
                rule: rule.name,
                breaching,
                newly_fired,
            });
        }
        out
    }

    /// Times `rule` transitioned into breach so far.
    pub fn fired(&self, rule: &str) -> u64 {
        self.rules
            .iter()
            .position(|r| r.name == rule)
            .map(|i| self.state[i].fired)
            .unwrap_or(0)
    }

    /// Total alert firings across all rules.
    pub fn fired_total(&self) -> u64 {
        self.state.iter().map(|s| s.fired).sum()
    }

    /// Whether `rule` is currently breaching.
    pub fn active(&self, rule: &str) -> bool {
        self.rules
            .iter()
            .position(|r| r.name == rule)
            .map(|i| self.state[i].active)
            .unwrap_or(false)
    }

    /// One-line-per-rule report at the most recent evaluation state.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (rule, state) in self.rules.iter().zip(&self.state) {
            s.push_str(&format!(
                "{:<22} {:<8} fired={:<3} {}\n",
                rule.name,
                if state.active { "BREACH" } else { "ok" },
                state.fired,
                rule.objective,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn rate_rule_fires_once_and_rearms() {
        let t = Telemetry::enabled();
        let c = t.counter("ks_token_guarantee_violations_total", &[]);
        let mut db = Tsdb::new(64);
        let mut engine = SloEngine::new(vec![SloRule {
            name: "token_guarantee",
            objective: "zero violations",
            condition: SloCondition::RateAtMost {
                metric: "ks_token_guarantee_violations_total",
                labels: &[],
                window: SimDuration::from_secs(10),
                max_per_sec: 0.0,
            },
        }]);

        db.ingest(s(0), &t.snapshot());
        let st = engine.evaluate(s(0), &db, &t);
        assert!(!st[0].breaching);

        // Violation appears: fires exactly once while breaching.
        c.inc();
        db.ingest(s(5), &t.snapshot());
        assert!(engine.evaluate(s(5), &db, &t)[0].newly_fired);
        db.ingest(s(8), &t.snapshot());
        let st = engine.evaluate(s(8), &db, &t);
        assert!(st[0].breaching && !st[0].newly_fired);
        assert_eq!(engine.fired("token_guarantee"), 1);

        // Window slides past the violation: resolves and re-arms.
        db.ingest(s(30), &t.snapshot());
        assert!(!engine.evaluate(s(30), &db, &t)[0].breaching);
        assert!(!engine.active("token_guarantee"));

        // Second violation fires again.
        c.inc();
        db.ingest(s(31), &t.snapshot());
        assert!(engine.evaluate(s(31), &db, &t)[0].newly_fired);
        assert_eq!(engine.fired_total(), 2);

        // Alert counter and trace events were emitted.
        assert_eq!(
            t.snapshot()
                .counter_value("ks_slo_alerts_total", &[("rule", "token_guarantee")]),
            Some(2)
        );
        let alerts = t
            .trace_events()
            .into_iter()
            .filter(|e| e.subsystem == "slo" && e.name == "alert")
            .count();
        assert_eq!(alerts, 2);
    }

    #[test]
    fn burn_rate_needs_both_windows() {
        let t = Telemetry::enabled();
        let c = t.counter("ks_chaos_faults_total", &[("kind", "node_crash")]);
        let mut db = Tsdb::new(256);
        let mut engine = SloEngine::new(vec![SloRule {
            name: "node_outage_burn",
            objective: "no crash burn",
            condition: SloCondition::BurnRate {
                metric: "ks_chaos_faults_total",
                labels: &[("kind", "node_crash")],
                long_window: SimDuration::from_secs(100),
                short_window: SimDuration::from_secs(10),
                max_per_sec: 0.0,
            },
        }]);

        // Crash at t=50: both windows see it → breach.
        c.inc();
        db.ingest(s(50), &t.snapshot());
        assert!(engine.evaluate(s(50), &db, &t)[0].newly_fired);

        // t=80: still in the long window but outside the short one —
        // the multi-window form has already stopped paging.
        db.ingest(s(80), &t.snapshot());
        assert!(!engine.evaluate(s(80), &db, &t)[0].breaching);
    }

    #[test]
    fn quantile_rule_ignores_missing_series() {
        let t = Telemetry::enabled();
        let db = Tsdb::new(8);
        let mut engine = SloEngine::kubeshare_catalogue();
        let st = engine.evaluate(s(10), &db, &t);
        assert!(st.iter().all(|r| !r.breaching), "empty TSDB must not page");
        assert_eq!(engine.fired_total(), 0);
        assert!(engine.rules().len() >= 5);
    }

    #[test]
    fn quantile_rule_fires_on_slow_latencies() {
        let t = Telemetry::enabled();
        let h = t.histogram_seconds("ks_sched_decision_seconds", &[]);
        let mut db = Tsdb::new(64);
        let mut engine = SloEngine::kubeshare_catalogue();

        for _ in 0..50 {
            h.observe(0.001);
        }
        db.ingest(s(10), &t.snapshot());
        assert!(!engine.evaluate(s(10), &db, &t)[0].breaching);

        for _ in 0..50 {
            h.observe(10.0);
        }
        db.ingest(s(20), &t.snapshot());
        let st = engine.evaluate(s(20), &db, &t);
        let sched = st.iter().find(|r| r.rule == "sched_decision_p99").unwrap();
        assert!(sched.breaching && sched.newly_fired);
        assert!(engine.render().contains("BREACH"));
    }
}
