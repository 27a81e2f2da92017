//! Ring-buffer time-series database over periodic [`MetricsSnapshot`]s.
//!
//! A [`Scraper`] folds snapshots taken on the simulation clock into
//! fixed-capacity per-series rings ([`Tsdb`]), giving the SLO engine
//! ([`crate::slo`]) history to evaluate against: windowed counter
//! [`Tsdb::rate`]s, windowed [`Tsdb::quantile`]s over histogram deltas,
//! and gauge [`Tsdb::gauge_agg`] (min/max/avg). Memory is bounded by
//! `capacity × series`, timestamps are [`SimTime`] (never wall clock), and
//! every query is a pure function of the ingested points — deterministic
//! under the discrete-event simulator by construction.
//!
//! **Windowing rule** (shared by all cumulative queries): for a window
//! `w` ending at `now`, the *head* is the latest point at or before
//! `now`, the *baseline* is the latest point at or before `now − w` (a
//! zero of the head's kind if no such point exists), and the windowed
//! delta is `head − baseline` via [`SampleValue::monotonic_sub`]. Label
//! queries match by subset, and multiple matching series aggregate by
//! summing their deltas.

use std::collections::{BTreeMap, VecDeque};

use ks_sim_core::histogram::quantile_from_buckets;
use ks_sim_core::time::{SimDuration, SimTime};

use crate::snapshot::{Bucket, MetricsSnapshot, SampleValue};
use crate::Telemetry;

/// One retained observation of a series.
#[derive(Debug, Clone)]
pub struct Point {
    pub at: SimTime,
    pub value: SampleValue,
}

#[derive(Debug, Clone)]
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    points: VecDeque<Point>,
    evicted: u64,
}

/// Gauge aggregation over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeAgg {
    pub min: f64,
    pub max: f64,
    pub avg: f64,
    /// Points aggregated.
    pub n: usize,
}

/// Fixed-capacity per-series ring store. See module docs.
#[derive(Debug, Clone)]
pub struct Tsdb {
    capacity: usize,
    series: BTreeMap<String, Series>,
}

impl Tsdb {
    /// Default ring capacity: at a 1 s scrape interval this retains ~17
    /// minutes of history per series — enough for the widest catalogued
    /// SLO window (5 min) with margin.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a store retaining at most `capacity` points per series.
    pub fn new(capacity: usize) -> Self {
        Tsdb {
            capacity: capacity.max(1),
            series: BTreeMap::new(),
        }
    }

    /// Folds one snapshot in, stamped `now`. Each sample appends to its
    /// series ring, evicting the oldest point once at capacity.
    pub fn ingest(&mut self, now: SimTime, snap: &MetricsSnapshot) {
        for s in snap.samples() {
            let id = s.series_id();
            let series = self.series.entry(id).or_insert_with(|| Series {
                name: s.name.clone(),
                labels: s.labels.clone(),
                points: VecDeque::new(),
                evicted: 0,
            });
            if series.points.len() >= self.capacity {
                series.points.pop_front();
                series.evicted += 1;
            }
            series.points.push_back(Point {
                at: now,
                value: s.value.clone(),
            });
        }
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Sorted, deduplicated metric names across all retained series, so
    /// detector rules can be declarative over discovered series instead
    /// of hard-coded name lists.
    pub fn series_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.series.values().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// `(name, labels)` of every retained series, in deterministic
    /// series-id order — enumerates the labelled instances of each
    /// metric (e.g. one entry per `gpu` value of a per-vGPU counter).
    pub fn series_entries(&self) -> Vec<(String, Vec<(String, String)>)> {
        self.series
            .values()
            .map(|s| (s.name.clone(), s.labels.clone()))
            .collect()
    }

    /// Total points evicted by ring caps (memory-bound proof in tests).
    pub fn evicted(&self) -> u64 {
        self.series.values().map(|s| s.evicted).sum()
    }

    /// Retained points of a series, if present.
    pub fn points(&self, name: &str, labels: &[(&str, &str)]) -> Vec<Point> {
        self.matching(name, labels)
            .into_iter()
            .flat_map(|s| s.points.iter().cloned())
            .collect()
    }

    /// Series whose name matches and whose labels contain every queried
    /// pair (subset match; `&[]` matches every labelling of `name`).
    fn matching(&self, name: &str, labels: &[(&str, &str)]) -> Vec<&Series> {
        self.series
            .values()
            .filter(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .collect()
    }

    /// Windowed delta of one series per the module-docs rule; `None` when
    /// the series has no point at or before `now`.
    fn windowed_delta(s: &Series, window: SimDuration, now: SimTime) -> Option<SampleValue> {
        let head = s.points.iter().rev().find(|p| p.at <= now)?;
        // A window reaching before t=0 has no baseline point: the counter
        // was zero before the simulation started.
        let baseline = now
            .as_micros()
            .checked_sub(window.as_micros())
            .map(SimTime::from_micros)
            .and_then(|floor| s.points.iter().rev().find(|p| p.at <= floor));
        match baseline {
            Some(b) => head.value.monotonic_sub(&b.value),
            None => head.value.monotonic_sub(&zero_like(&head.value)),
        }
    }

    /// Per-second increase of the counter(s) matching `name{labels}` over
    /// the window ending at `now`, summed across matching series.
    pub fn rate(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: SimDuration,
        now: SimTime,
    ) -> Option<f64> {
        if window.is_zero() {
            return None;
        }
        let mut total: u64 = 0;
        let mut seen = false;
        for s in self.matching(name, labels) {
            if let Some(SampleValue::Counter(d)) = Self::windowed_delta(s, window, now) {
                total += d;
                seen = true;
            }
        }
        seen.then(|| total as f64 / window.as_secs_f64())
    }

    /// Interpolated quantile of the histogram delta over the window
    /// ending at `now`, summed bucket-wise across matching series, for
    /// display (SLO verdicts count instead, see [`crate::slo`]). `None`
    /// when no matching series has points, layouts disagree, or the
    /// window holds no observations.
    pub fn quantile(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        q: f64,
        window: SimDuration,
        now: SimTime,
    ) -> Option<f64> {
        let (buckets, overflow) = self.windowed_buckets(name, labels, window, now)?;
        quantile_from_buckets(&buckets, overflow, q)
    }

    /// `(cumulative buckets, overflow)` of the histogram delta over the
    /// window ending at `now`, summed bucket-wise across matching series.
    /// `None` when no matching series has points or layouts disagree.
    pub(crate) fn windowed_buckets(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: SimDuration,
        now: SimTime,
    ) -> Option<(Vec<Bucket>, u64)> {
        let mut agg: Option<Vec<Bucket>> = None;
        let mut overflow: u64 = 0;
        for s in self.matching(name, labels) {
            let Some(SampleValue::Histogram {
                buckets,
                overflow: o,
                ..
            }) = Self::windowed_delta(s, window, now)
            else {
                continue;
            };
            overflow += o;
            match &mut agg {
                None => agg = Some(buckets),
                Some(acc) => {
                    if acc.len() != buckets.len()
                        || acc.iter().zip(&buckets).any(|(a, b)| a.le != b.le)
                    {
                        return None;
                    }
                    for (a, b) in acc.iter_mut().zip(&buckets) {
                        a.cumulative += b.cumulative;
                    }
                }
            }
        }
        Some((agg?, overflow))
    }

    /// Min/max/avg of gauge points with `now − window < t ≤ now` across
    /// matching series. `None` when the window holds no gauge points.
    pub fn gauge_agg(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: SimDuration,
        now: SimTime,
    ) -> Option<GaugeAgg> {
        let floor = now.as_micros().checked_sub(window.as_micros());
        let (mut min, mut max, mut sum, mut n) = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0usize);
        for s in self.matching(name, labels) {
            for p in &s.points {
                if p.at <= now && floor.is_none_or(|f| p.at.as_micros() > f) {
                    if let SampleValue::Gauge(v) = p.value {
                        min = min.min(v);
                        max = max.max(v);
                        sum += v;
                        n += 1;
                    }
                }
            }
        }
        (n > 0).then(|| GaugeAgg {
            min,
            max,
            avg: sum / n as f64,
            n,
        })
    }

    /// Latest counter value at or before `now`, summed across matches.
    pub fn counter_at(&self, name: &str, labels: &[(&str, &str)], now: SimTime) -> Option<u64> {
        let mut total = 0;
        let mut seen = false;
        for s in self.matching(name, labels) {
            if let Some(p) = s.points.iter().rev().find(|p| p.at <= now) {
                if let SampleValue::Counter(v) = p.value {
                    total += v;
                    seen = true;
                }
            }
        }
        seen.then_some(total)
    }
}

/// The zero of a sample kind (empty counter/histogram of the same bucket
/// layout) — the baseline for windows reaching before the first scrape.
fn zero_like(v: &SampleValue) -> SampleValue {
    match v {
        SampleValue::Counter(_) => SampleValue::Counter(0),
        SampleValue::Gauge(_) => SampleValue::Gauge(0.0),
        SampleValue::Histogram { buckets, .. } => SampleValue::Histogram {
            buckets: buckets
                .iter()
                .map(|b| Bucket {
                    le: b.le,
                    cumulative: 0,
                })
                .collect(),
            overflow: 0,
            count: 0,
            sum: 0.0,
        },
    }
}

/// Periodic snapshot collector: call [`Scraper::tick`] from the world's
/// sampling event; it scrapes at most once per interval.
#[derive(Debug)]
pub struct Scraper {
    tsdb: Tsdb,
    interval: SimDuration,
    last: Option<SimTime>,
    scrapes: u64,
}

impl Scraper {
    pub fn new(interval: SimDuration, capacity: usize) -> Self {
        assert!(!interval.is_zero(), "scrape interval must be positive");
        Scraper {
            tsdb: Tsdb::new(capacity),
            interval,
            last: None,
            scrapes: 0,
        }
    }

    /// Scrape interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Scrapes `telemetry` into the store if at least one interval passed
    /// since the previous scrape (always scrapes on the first call).
    /// Returns whether a scrape happened.
    pub fn tick(&mut self, now: SimTime, telemetry: &Telemetry) -> bool {
        if let Some(last) = self.last {
            if now.saturating_since(last) < self.interval {
                return false;
            }
        }
        self.force(now, telemetry);
        true
    }

    /// Unconditionally scrapes now.
    pub fn force(&mut self, now: SimTime, telemetry: &Telemetry) {
        self.tsdb.ingest(now, &telemetry.snapshot());
        self.last = Some(now);
        self.scrapes += 1;
    }

    /// Scrapes performed.
    pub fn scrapes(&self) -> u64 {
        self.scrapes
    }

    /// The underlying store.
    pub fn tsdb(&self) -> &Tsdb {
        &self.tsdb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn w(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn rate_uses_baseline_and_head() {
        let t = Telemetry::enabled();
        let c = t.counter("ks_x_total", &[]);
        let mut db = Tsdb::new(64);
        for i in 0..10u64 {
            c.add(3);
            db.ingest(s(i), &t.snapshot());
        }
        // Window [4,9]: head 30 at t=9, baseline 15 at t=4 → 15/5 = 3/s.
        let r = db.rate("ks_x_total", &[], w(5), s(9)).unwrap();
        assert!((r - 3.0).abs() < 1e-9, "{r}");
        // Window reaching before the first scrape: baseline is zero.
        let r = db.rate("ks_x_total", &[], w(100), s(9)).unwrap();
        assert!((r - 30.0 / 100.0).abs() < 1e-9, "{r}");
        assert_eq!(db.rate("ks_nope_total", &[], w(5), s(9)), None);
    }

    #[test]
    fn rate_sums_label_subset_matches() {
        let t = Telemetry::enabled();
        t.counter("ks_f_total", &[("kind", "a")]).add(10);
        t.counter("ks_f_total", &[("kind", "b")]).add(20);
        let mut db = Tsdb::new(8);
        db.ingest(s(10), &t.snapshot());
        let all = db.rate("ks_f_total", &[], w(10), s(10)).unwrap();
        assert!((all - 3.0).abs() < 1e-9, "{all}");
        let only_a = db
            .rate("ks_f_total", &[("kind", "a")], w(10), s(10))
            .unwrap();
        assert!((only_a - 1.0).abs() < 1e-9, "{only_a}");
    }

    #[test]
    fn windowed_quantile_sees_only_recent_observations() {
        let t = Telemetry::enabled();
        let h = t.histogram_linear("ks_v", &[], 0.0, 100.0, 100);
        let mut db = Tsdb::new(64);
        // Old observations: all small.
        for _ in 0..100 {
            h.observe(1.0);
        }
        db.ingest(s(0), &t.snapshot());
        // Recent: all large.
        for _ in 0..10 {
            h.observe(90.0);
        }
        db.ingest(s(10), &t.snapshot());
        // Full history: p50 is small.
        let p50_all = db.quantile("ks_v", &[], 0.5, w(100), s(10)).unwrap();
        assert!(p50_all < 5.0, "{p50_all}");
        // 5s window sees only the 10 large observations.
        let p50_recent = db.quantile("ks_v", &[], 0.5, w(5), s(10)).unwrap();
        assert!(p50_recent > 85.0, "{p50_recent}");
        // Empty window delta → None.
        db.ingest(s(20), &t.snapshot());
        assert_eq!(db.quantile("ks_v", &[], 0.5, w(5), s(20)), None);
    }

    #[test]
    fn gauge_agg_min_max_avg() {
        let t = Telemetry::enabled();
        let g = t.gauge("ks_g", &[]);
        let mut db = Tsdb::new(64);
        for (i, v) in [1.0, 5.0, 3.0].iter().enumerate() {
            g.set(*v);
            db.ingest(s(i as u64 + 1), &t.snapshot());
        }
        let a = db.gauge_agg("ks_g", &[], w(10), s(3)).unwrap();
        assert_eq!((a.min, a.max, a.n), (1.0, 5.0, 3));
        assert!((a.avg - 3.0).abs() < 1e-9);
        // Window excluding the first point.
        let a = db.gauge_agg("ks_g", &[], w(2), s(3)).unwrap();
        assert_eq!((a.min, a.max, a.n), (3.0, 5.0, 2));
    }

    #[test]
    fn ring_capacity_bounds_memory() {
        let t = Telemetry::enabled();
        let c = t.counter("ks_x_total", &[]);
        let mut db = Tsdb::new(4);
        for i in 0..10u64 {
            c.inc();
            db.ingest(s(i), &t.snapshot());
        }
        assert_eq!(db.points("ks_x_total", &[]).len(), 4);
        assert_eq!(db.evicted(), 6);
        // Queries confined to retained history still work.
        let r = db.rate("ks_x_total", &[], w(2), s(9)).unwrap();
        assert!((r - 1.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn series_names_are_sorted_and_deduplicated() {
        let t = Telemetry::enabled();
        t.counter("ks_b_total", &[("kind", "x")]).inc();
        t.counter("ks_b_total", &[("kind", "y")]).inc();
        t.counter("ks_a_total", &[]).inc();
        t.gauge("ks_c", &[]).set(1.0);
        let mut db = Tsdb::new(8);
        db.ingest(s(1), &t.snapshot());
        assert_eq!(db.series_names(), vec!["ks_a_total", "ks_b_total", "ks_c"]);
        // Entries enumerate labelled instances; the two ks_b labellings
        // are distinct entries with their label sets intact.
        let entries = db.series_entries();
        assert_eq!(entries.len(), 4);
        let b_labels: Vec<_> = entries
            .iter()
            .filter(|(n, _)| n == "ks_b_total")
            .map(|(_, l)| l.clone())
            .collect();
        assert_eq!(
            b_labels,
            vec![
                vec![("kind".to_string(), "x".to_string())],
                vec![("kind".to_string(), "y".to_string())],
            ]
        );
    }

    #[test]
    fn scraper_ticks_once_per_interval() {
        let t = Telemetry::enabled();
        t.counter("ks_x_total", &[]).inc();
        let mut sc = Scraper::new(w(5), 16);
        assert!(sc.tick(s(0), &t));
        assert!(!sc.tick(s(3), &t));
        assert!(sc.tick(s(5), &t));
        assert_eq!(sc.scrapes(), 2);
        assert_eq!(sc.tsdb().series_count(), 1);
    }
}
