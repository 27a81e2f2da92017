//! Property tests: metric aggregation must be order-independent, the two
//! export formats must agree for arbitrary registry contents, TSDB window
//! queries must equal a from-scratch fold over the raw snapshots, and SLO
//! quantile verdicts must equal a count over the raw observations.

use ks_sim_core::histogram::{quantile_from_buckets, rank, Histogram};
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::registry::seconds_bounds;
use ks_telemetry::slo::{SloCondition, SloEngine, SloRule};
use ks_telemetry::snapshot::{MetricsSnapshot, SampleValue};
use ks_telemetry::tsdb::Tsdb;
use ks_telemetry::{export, Telemetry};
use proptest::prelude::*;

/// One recording operation against a small fixed family of series.
#[derive(Debug, Clone)]
enum Op {
    CounterInc { series: usize, n: u64 },
    GaugeAdd { series: usize, delta: i32 },
    Observe { series: usize, millis: u16 },
}

const COUNTER_NAMES: [&str; 3] = [
    "ks_sched_decisions_total",
    "ks_devmgr_anchor_launch_total",
    "ks_vgpu_token_grants_total",
];
const GAUGE_NAMES: [&str; 2] = ["ks_devmgr_vgpu_pool", "ks_sched_queue_depth"];
const HISTO_NAMES: [&str; 2] = ["ks_sched_latency_seconds", "ks_vgpu_handoff_wait_seconds"];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..COUNTER_NAMES.len(), 1u64..100).prop_map(|(series, n)| Op::CounterInc { series, n }),
        (0..GAUGE_NAMES.len(), -50i32..50)
            .prop_map(|(series, delta)| Op::GaugeAdd { series, delta }),
        (0..HISTO_NAMES.len(), 1u16..5000)
            .prop_map(|(series, millis)| Op::Observe { series, millis }),
    ]
}

fn counter_name(i: usize) -> &'static str {
    COUNTER_NAMES[i]
}

fn apply(t: &Telemetry, op: &Op) {
    match *op {
        Op::CounterInc { series, n } => t.counter(counter_name(series), &[]).add(n),
        Op::GaugeAdd { series, delta } => t.gauge(GAUGE_NAMES[series], &[]).add(delta as f64),
        // Dividing by a power of two keeps every observation exactly
        // representable, so histogram sums are order-exact; a non-dyadic
        // divisor would make the f64 sum depend on addition order in the
        // last bit.
        Op::Observe { series, millis } => t
            .histogram_seconds(HISTO_NAMES[series], &[])
            .observe(millis as f64 / 1024.0),
    }
}

proptest! {
    /// Counters and histograms aggregate identically under any permutation
    /// of the recording order; gauge `add` deltas commute. (Series that
    /// never receive an op are absent from both snapshots, which is also
    /// order-independent.)
    #[test]
    fn aggregation_is_order_independent(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
    ) {
        let forward = Telemetry::enabled();
        for op in &ops {
            apply(&forward, op);
        }

        // A deterministic permutation derived from the seed.
        let mut permuted: Vec<&Op> = ops.iter().collect();
        let n = permuted.len();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            permuted.swap(i, j);
        }
        let shuffled = Telemetry::enabled();
        for op in permuted {
            apply(&shuffled, op);
        }

        // Gauge sums accumulate floating-point error across orderings only
        // through association; with integral deltas the sums are exact.
        prop_assert_eq!(forward.snapshot(), shuffled.snapshot());
    }

    /// For arbitrary registry contents the two export formats agree on
    /// every flattened sample.
    #[test]
    fn exports_agree_for_arbitrary_contents(
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let t = Telemetry::enabled();
        for op in &ops {
            apply(&t, op);
        }
        let snap = t.snapshot();
        let prom = export::to_prometheus_text(&snap);
        let json = export::to_json(&snap);
        prop_assert!(export::verify_agreement(&prom, &json).is_ok());
    }
}

// ---------------------------------------------------------------------------
// TSDB window queries vs a from-scratch fold over raw snapshots.

const TSDB_COUNTER: &str = "ks_prop_total";
const TSDB_HISTO: &str = "ks_prop_wait_seconds";

/// Reference implementation of the windowing rule (DESIGN.md §11.3),
/// folding over the raw `(time, snapshot)` log instead of the ring store:
/// head = latest snapshot at or before `now` containing the series,
/// baseline = latest at or before `now − window` (zero if the window
/// reaches before the first scrape), answer = head − baseline.
fn spec_delta(
    log: &[(SimTime, MetricsSnapshot)],
    name: &str,
    window: SimDuration,
    now: SimTime,
) -> Option<SampleValue> {
    let find_at = |limit: SimTime| {
        log.iter()
            .rev()
            .filter(|(at, _)| *at <= limit)
            .find_map(|(_, snap)| snap.samples().iter().find(|s| s.name == name).cloned())
    };
    let head = find_at(now)?;
    let floor = now.as_micros().checked_sub(window.as_micros());
    match floor.and_then(|f| find_at(SimTime::from_micros(f))) {
        Some(base) => head.value.monotonic_sub(&base.value),
        // No baseline: the cumulative value itself is the delta from zero.
        None => Some(head.value),
    }
}

/// One observation in seconds: up to 2000 s, so past the last bound
/// (overflow), or exactly on a bound of the seconds layout.
fn seconds_obs() -> impl Strategy<Value = f64> {
    let bounds = seconds_bounds();
    prop_oneof![
        (1u32..2_000_000).prop_map(|ms| ms as f64 / 1000.0),
        (0..bounds.len()).prop_map(move |i| bounds[i]),
    ]
}

proptest! {
    /// The ring-buffer TSDB's windowed `rate` and `quantile` equal a
    /// from-scratch fold over the raw snapshot log, for arbitrary scrape
    /// schedules, op mixes, and query windows (capacity high enough that
    /// nothing the query needs has been evicted). A `QuantileBelow` rule
    /// on any bound of the seconds layout breaches iff the windowed
    /// observation of rank `⌈q·n⌉`, found by sorting the raw observations,
    /// is at or above it. `Histogram::quantile` equals the estimator on
    /// the registry's export of the same observations.
    #[test]
    fn tsdb_window_queries_match_snapshot_fold(
        // (gap to next scrape in s, counter incs, histogram obs in s)
        steps in proptest::collection::vec(
            (1u64..40, 0u64..5, proptest::collection::vec(seconds_obs(), 0..4)),
            1..25,
        ),
        window_s in 1u64..400,
        now_off in 0u64..50,
        threshold_ix in 0..seconds_bounds().len(),
    ) {
        let t = Telemetry::enabled();
        let mut db = Tsdb::new(64);
        let mut log: Vec<(SimTime, MetricsSnapshot)> = Vec::new();
        let mut at = SimTime::ZERO;
        for (gap, incs, obs) in &steps {
            at += SimDuration::from_secs(*gap);
            t.counter(TSDB_COUNTER, &[]).add(*incs);
            for x in obs {
                t.histogram_seconds(TSDB_HISTO, &[]).observe(*x);
            }
            let snap = t.snapshot();
            db.ingest(at, &snap);
            log.push((at, snap));
        }
        let window = SimDuration::from_secs(window_s);
        let now = at + SimDuration::from_secs(now_off);

        // Counter rate.
        let expect_rate = match spec_delta(&log, TSDB_COUNTER, window, now) {
            Some(SampleValue::Counter(d)) => Some(d as f64 / window.as_secs_f64()),
            _ => None,
        };
        let got_rate = db.rate(TSDB_COUNTER, &[], window, now);
        prop_assert_eq!(got_rate, expect_rate);

        // The raw observations inside the window, sorted: those scraped
        // after the baseline point, `now − window`.
        let floor = now.as_micros().checked_sub(window.as_micros());
        let mut in_window: Vec<f64> = log
            .iter()
            .zip(&steps)
            .filter(|((at, _), _)| floor.is_none_or(|f| at.as_micros() > f))
            .flat_map(|(_, (_, _, obs))| obs.iter().copied())
            .collect();
        in_window.sort_by(f64::total_cmp);
        let threshold = seconds_bounds()[threshold_ix];

        let mut all = Histogram::with_bounds(seconds_bounds());
        for (_, _, obs) in &steps {
            for x in obs {
                all.record(*x);
            }
        }
        for q in [0.5, 0.99] {
            // Histogram quantile over the windowed delta.
            let expect_q = match spec_delta(&log, TSDB_HISTO, window, now) {
                Some(SampleValue::Histogram { buckets, overflow, .. }) =>
                    quantile_from_buckets(&buckets, overflow, q),
                _ => None,
            };
            let got_q = db.quantile(TSDB_HISTO, &[], q, window, now);
            prop_assert_eq!(got_q, expect_q);

            // The exact SLO verdict against the sorted raw observations.
            let n = in_window.len() as u64;
            let expect_breach = n > 0 && in_window[rank(q, n) as usize - 1] >= threshold;
            let mut engine = SloEngine::new(vec![SloRule {
                name: "prop_p",
                objective: "",
                condition: SloCondition::QuantileBelow {
                    metric: TSDB_HISTO,
                    labels: &[],
                    q,
                    window,
                    threshold,
                },
            }]);
            let got_breach = engine.evaluate(now, &db, &Telemetry::disabled())[0].breaching;
            prop_assert_eq!(got_breach, expect_breach, "q {} threshold {}", q, threshold);

            // One estimator: a live histogram's quantile is the estimator
            // applied to the registry's export of the same observations.
            if let Some(SampleValue::Histogram { buckets, overflow, .. }) =
                log.last().and_then(|(_, snap)| {
                    snap.samples().iter().find(|s| s.name == TSDB_HISTO).map(|s| s.value.clone())
                })
            {
                prop_assert_eq!(all.quantile(q), quantile_from_buckets(&buckets, overflow, q));
            } else {
                prop_assert_eq!(all.total(), 0);
            }
        }
    }
}

// ---- flight recorder properties (DESIGN.md §15) ----

mod flight_recorder_props {
    use ks_sim_core::time::SimTime;
    use ks_telemetry::provenance::{DecisionKind, Outcome, SchedProv, SmallStr};
    use ks_telemetry::FlightRecorder;
    use proptest::prelude::*;

    /// Records one synthetic schedule decision for `sp`.
    fn push(rec: &FlightRecorder, sp: u64, considered: usize) {
        let mut prov = SchedProv::for_recorder(rec);
        prov.add_considered(considered);
        prov.choose_append("vgpu-1", "best_fit", 0.5);
        rec.record_scratch(
            SimTime::ZERO,
            sp,
            1000 + sp,
            DecisionKind::Schedule,
            Outcome::Placed {
                target: SmallStr::from("vgpu-1"),
            },
            &mut prov,
        );
    }

    proptest! {
        /// The ring never retains more than `capacity` records no matter
        /// how many are pushed; retained + evicted always equals pushed;
        /// the survivors are exactly the newest `min(n, capacity)` in
        /// oldest-first seq order.
        #[test]
        fn ring_is_bounded_any_capacity(
            capacity in 1usize..48,
            sps in proptest::collection::vec(0u64..6, 0..200),
        ) {
            let rec = FlightRecorder::with_capacity(capacity);
            for (i, sp) in sps.iter().enumerate() {
                push(&rec, *sp, i);
            }
            let n = sps.len();
            let retained = rec.records();
            prop_assert!(retained.len() <= capacity, "ring exceeded capacity");
            prop_assert_eq!(retained.len(), n.min(capacity));
            prop_assert_eq!(rec.recorded(), n as u64);
            prop_assert_eq!(rec.evicted(), (n - n.min(capacity)) as u64);
            for (k, r) in retained.iter().enumerate() {
                prop_assert_eq!(r.seq, (n - retained.len() + k + 1) as u64);
            }
        }

        /// `for_sharepod` preserves per-sharePod record order: it returns
        /// the retained records of that sharePod exactly in submission
        /// (seq) order, and joins the same trace id every time.
        #[test]
        fn per_sharepod_order_preserved(
            capacity in 1usize..48,
            sps in proptest::collection::vec(0u64..6, 0..200),
        ) {
            let rec = FlightRecorder::with_capacity(capacity);
            for (i, sp) in sps.iter().enumerate() {
                push(&rec, *sp, i);
            }
            let retained = rec.records();
            for sp in 0u64..6 {
                let per = rec.for_sharepod(sp);
                let expect: Vec<u64> =
                    retained.iter().filter(|r| r.sp == sp).map(|r| r.seq).collect();
                let got: Vec<u64> = per.iter().map(|r| r.seq).collect();
                prop_assert_eq!(got, expect, "sharePod {} out of order", sp);
                prop_assert!(per.windows(2).all(|w| w[0].seq < w[1].seq));
                prop_assert!(per.iter().all(|r| r.trace == 1000 + sp));
                prop_assert_eq!(rec.for_trace(1000 + sp).len(), per.len());
            }
        }
    }
}
