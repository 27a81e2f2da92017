//! The gateway SLO catalogue.
//!
//! Two families of rules, evaluated by the shared [`SloEngine`] against
//! the scraped TSDB:
//!
//! - **Fairness / isolation**: per-tier p99 admission wait. Higher tiers
//!   buy shorter waits, so the thresholds tighten as the tier rises; a
//!   premium tenant queuing behind free traffic fires an alert. These are
//!   the SLOs the load generator asserts on.
//! - **Tripwires**: counters that stay at zero for as long as the
//!   pipeline's own invariants hold — a rate-limiter window-bound breach
//!   (`ks_gw_limit_violations_total`), a quota pre-check/reservation
//!   disagreement (`ks_gw_quota_violations_total`), or a priority
//!   inversion in victim selection (`ks_gw_preempt_inversions_total`).
//!   Any non-zero rate breaches immediately.

use ks_sim_core::time::SimDuration;
use ks_telemetry::slo::{SloCondition, SloEngine, SloRule};

/// Per-tier p99 admission-wait objectives, seconds. Indexed free,
/// standard, premium.
pub const ADMISSION_WAIT_P99_SECS: [f64; 3] = [900.0, 120.0, 30.0];

/// Builds the gateway rule set. Combine with
/// [`SloEngine::kubeshare_catalogue`]'s rules when the backing scheduler
/// should be watched too.
pub fn gateway_catalogue() -> SloEngine {
    use SloCondition::*;
    SloEngine::new(vec![
        SloRule {
            name: "gw_admission_wait_free_p99",
            objective: "p99 free-tier admission wait < 900s over 10m",
            condition: QuantileBelow {
                metric: "ks_gw_admission_wait_seconds",
                labels: &[("tier", "free")],
                q: 0.99,
                window: SimDuration::from_secs(600),
                threshold: ADMISSION_WAIT_P99_SECS[0],
            },
        },
        SloRule {
            name: "gw_admission_wait_standard_p99",
            objective: "p99 standard-tier admission wait < 120s over 10m",
            condition: QuantileBelow {
                metric: "ks_gw_admission_wait_seconds",
                labels: &[("tier", "standard")],
                q: 0.99,
                window: SimDuration::from_secs(600),
                threshold: ADMISSION_WAIT_P99_SECS[1],
            },
        },
        SloRule {
            name: "gw_admission_wait_premium_p99",
            objective: "p99 premium-tier admission wait < 30s over 10m",
            condition: QuantileBelow {
                metric: "ks_gw_admission_wait_seconds",
                labels: &[("tier", "premium")],
                q: 0.99,
                window: SimDuration::from_secs(600),
                threshold: ADMISSION_WAIT_P99_SECS[2],
            },
        },
        SloRule {
            name: "gw_rate_limit_tripwire",
            objective: "rate limiter never grants past burst + rate*t",
            condition: RateAtMost {
                metric: "ks_gw_limit_violations_total",
                labels: &[],
                window: SimDuration::from_secs(600),
                max_per_sec: 0.0,
            },
        },
        SloRule {
            name: "gw_quota_tripwire",
            objective: "quota pre-check and reservation always agree",
            condition: RateAtMost {
                metric: "ks_gw_quota_violations_total",
                labels: &[],
                window: SimDuration::from_secs(600),
                max_per_sec: 0.0,
            },
        },
        SloRule {
            name: "gw_preempt_inversion_tripwire",
            objective: "preemption only ever evicts strictly lower classes",
            condition: RateAtMost {
                metric: "ks_gw_preempt_inversions_total",
                labels: &[],
                window: SimDuration::from_secs(600),
                max_per_sec: 0.0,
            },
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_sim_core::time::SimTime;
    use ks_telemetry::slo::SloCondition::QuantileBelow;
    use ks_telemetry::tsdb::Scraper;
    use ks_telemetry::Telemetry;

    #[test]
    fn tripwire_fires_on_any_violation() {
        let telemetry = Telemetry::enabled();
        let mut scraper = Scraper::new(SimDuration::from_secs(15), 256);
        let mut engine = gateway_catalogue();

        // Quiet pipeline: nothing breaches.
        scraper.force(SimTime::from_secs(15), &telemetry);
        let statuses = engine.evaluate(SimTime::from_secs(15), scraper.tsdb(), &telemetry);
        assert!(statuses.iter().all(|s| !s.breaching));

        // One inversion anywhere in the window breaches the tripwire.
        telemetry
            .counter("ks_gw_preempt_inversions_total", &[])
            .inc();
        scraper.force(SimTime::from_secs(30), &telemetry);
        let statuses = engine.evaluate(SimTime::from_secs(30), scraper.tsdb(), &telemetry);
        let trip = statuses
            .iter()
            .find(|s| s.rule == "gw_preempt_inversion_tripwire")
            .unwrap();
        assert!(trip.breaching);
    }

    #[test]
    fn tier_objectives_tighten_upward() {
        let mut last = f64::INFINITY;
        for (t, secs) in crate::Tier::ALL.iter().zip(ADMISSION_WAIT_P99_SECS) {
            assert!(
                secs < last,
                "{t:?} objective must be tighter than the tier below"
            );
            last = secs;
        }
    }

    #[test]
    fn admission_wait_thresholds_are_bounds_of_the_seconds_layout() {
        let bounds = ks_telemetry::registry::seconds_bounds();
        let mut checked = 0;
        for rule in gateway_catalogue().rules() {
            if let QuantileBelow {
                metric, threshold, ..
            } = rule.condition
            {
                assert!(metric.ends_with("_seconds"), "{}", rule.name);
                assert!(bounds.contains(&threshold), "{}: {threshold}", rule.name);
                checked += 1;
            }
        }
        assert_eq!(checked, ADMISSION_WAIT_P99_SECS.len());
    }
}
