//! Lock-cheap metrics registry.
//!
//! Metric handles ([`Counter`], [`Gauge`], [`Histo`]) are resolved once
//! through the registry's `RwLock` and then recorded against with atomics
//! (counters/gauges) or a short `parking_lot::Mutex` hold (histograms).
//! Callers on hot paths should resolve the handle up front and keep it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ks_sim_core::histogram::Histogram;
use parking_lot::{Mutex, RwLock};

use crate::snapshot::{MetricsSnapshot, Sample, SampleValue};

/// Bucket bounds of the [`Registry::histogram_seconds`] layout: six
/// log-spaced bounds per decade over 1µs .. 1000s (~1.47x apart, wide
/// enough for token handoffs and multi-minute chaos recoveries alike),
/// plus every `QuantileBelow` threshold of the shipped SLO catalogues:
/// 2s, 5s and 30s (`SloEngine::kubeshare_catalogue`) and 30s, 120s and
/// 900s (the gateway's). On a bound, a threshold splits the windowed
/// observations exactly, so those SLO verdicts are counts, not estimates.
pub fn seconds_bounds() -> Vec<f64> {
    let mut bounds = Histogram::log_spaced(1e-6, 1e3, 54).bounds().to_vec();
    bounds.extend([2.0, 5.0, 30.0, 120.0, 900.0]);
    bounds.sort_by(f64::total_cmp);
    bounds
}

/// Key = metric name + sorted label pairs.
type MetricId = (&'static str, Vec<(&'static str, String)>);

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>), // f64 bits
    Histo(Arc<Mutex<Histogram>>),
}

/// The registry behind an enabled [`crate::Telemetry`] handle.
pub struct Registry {
    slots: RwLock<BTreeMap<MetricId, Slot>>,
}

fn make_id(name: &'static str, labels: &[(&'static str, &str)]) -> MetricId {
    let mut ls: Vec<(&'static str, String)> =
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    ls.sort_unstable();
    (name, ls)
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            slots: RwLock::new(BTreeMap::new()),
        }
    }

    /// Resolves (registering on first use) a counter for `name{labels}`.
    ///
    /// # Panics
    /// Panics if the same id was previously registered as another kind.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let id = make_id(name, labels);
        if let Some(Slot::Counter(c)) = self.slots.read().get(&id) {
            return Counter(Some(c.clone()));
        }
        let mut w = self.slots.write();
        let slot = w
            .entry(id)
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Some(c.clone())),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Resolves (registering on first use) a gauge for `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let id = make_id(name, labels);
        if let Some(Slot::Gauge(g)) = self.slots.read().get(&id) {
            return Gauge(Some(g.clone()));
        }
        let mut w = self.slots.write();
        let slot = w
            .entry(id)
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match slot {
            Slot::Gauge(g) => Gauge(Some(g.clone())),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Histogram over the [`seconds_bounds`] layout.
    pub fn histogram_seconds(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histo {
        self.histogram_with(name, labels, || Histogram::with_bounds(seconds_bounds()))
    }

    /// Histogram with `bins` equal-width buckets from `lo` up to `hi`.
    pub fn histogram_linear(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Histo {
        self.histogram_with(name, labels, || Histogram::new(lo, hi, bins))
    }

    /// Histogram with `bins` log-spaced buckets from `lo` up to `hi` — for
    /// quantities spanning orders of magnitude in units other than
    /// seconds (e.g. per-decision wall-clock nanoseconds).
    pub fn histogram_log(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Histo {
        self.histogram_with(name, labels, || Histogram::log_spaced(lo, hi, bins))
    }

    fn histogram_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Histogram,
    ) -> Histo {
        let id = make_id(name, labels);
        if let Some(Slot::Histo(h)) = self.slots.read().get(&id) {
            return Histo(Some(h.clone()));
        }
        let mut w = self.slots.write();
        let slot = w
            .entry(id)
            .or_insert_with(|| Slot::Histo(Arc::new(Mutex::new(make()))));
        match slot {
            Slot::Histo(h) => Histo(Some(h.clone())),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// A point-in-time copy of every registered metric, ordered by id.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.read();
        let samples = slots
            .iter()
            .map(|((name, labels), slot)| Sample {
                name: name.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                value: match slot {
                    Slot::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => SampleValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Slot::Histo(h) => SampleValue::histogram(&h.lock()),
                },
            })
            .collect();
        MetricsSnapshot::from_samples(samples)
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Monotone counter handle. No-op when obtained from a disabled handle.
#[derive(Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    pub(crate) fn noop() -> Self {
        Counter(None)
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 on no-op handles).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Last-write-wins gauge storing an `f64`. `add` uses a CAS loop so that
/// concurrent deltas from the realtime backend never lose updates.
#[derive(Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    pub(crate) fn noop() -> Self {
        Gauge(None)
    }

    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, delta: f64) {
        if let Some(g) = &self.0 {
            let mut cur = g.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + delta).to_bits();
                match g.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Current value (0.0 on no-op handles).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Histogram handle.
#[derive(Clone)]
pub struct Histo(Option<Arc<Mutex<Histogram>>>);

impl Histo {
    pub(crate) fn noop() -> Self {
        Histo(None)
    }

    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.lock().record(v);
        }
    }

    /// `(count, sum)` over all observations (zeros on no-op handles).
    pub fn count_sum(&self) -> (u64, f64) {
        self.0.as_ref().map_or((0, 0.0), |h| {
            let h = h.lock();
            (h.total(), h.sum())
        })
    }
}

impl std::fmt::Debug for Histo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (count, sum) = self.count_sum();
        f.debug_struct("Histo")
            .field("count", &count)
            .field("sum", &sum)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_labels_address_distinct_series() {
        let r = Registry::new();
        r.counter("ks_t_total", &[("outcome", "a")]).inc();
        r.counter("ks_t_total", &[("outcome", "b")]).add(2);
        let s = r.snapshot();
        assert_eq!(s.counter_value("ks_t_total", &[("outcome", "a")]), Some(1));
        assert_eq!(s.counter_value("ks_t_total", &[("outcome", "b")]), Some(2));
    }

    #[test]
    fn label_order_is_normalized() {
        let r = Registry::new();
        r.counter("ks_t_total", &[("b", "2"), ("a", "1")]).inc();
        r.counter("ks_t_total", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(
            r.snapshot()
                .counter_value("ks_t_total", &[("a", "1"), ("b", "2")]),
            Some(2)
        );
    }

    #[test]
    fn gauge_add_and_set() {
        let r = Registry::new();
        let g = r.gauge("ks_pool", &[]);
        g.set(4.0);
        g.add(-1.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("ks_t", &[]).inc();
        r.gauge("ks_t", &[]).set(1.0);
    }

    #[test]
    fn histogram_snapshot_carries_buckets() {
        let r = Registry::new();
        let h = r.histogram_seconds("ks_lat_seconds", &[]);
        h.observe(0.0015);
        h.observe(0.120);
        let s = r.snapshot();
        let (count, sum) = s.histogram_count_sum("ks_lat_seconds", &[]).unwrap();
        assert_eq!(count, 2);
        assert!((sum - 0.1215).abs() < 1e-9);
    }

    #[test]
    fn decade_bounds_are_exact_literals() {
        let bounds = seconds_bounds();
        for decade in [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3] {
            assert!(bounds.contains(&decade), "{decade} is not a bound");
        }
    }

    #[test]
    fn decade_bounds_split_observations_on_the_decade() {
        let mut h = Histogram::with_bounds(seconds_bounds());
        for x in [0.9999999999999996, 1.0, 9.999999999999998, 10.0, 100.0] {
            h.record(x);
        }
        let buckets = h.cumulative();
        let below = |le: f64| {
            buckets
                .iter()
                .find(|b| b.le == le)
                .unwrap_or_else(|| panic!("no le={le} bucket"))
                .cumulative
        };
        // Each `le` counts the observations strictly below it, so one that
        // lands exactly on a decade counts under every later `le`.
        assert_eq!(below(1.0), 1);
        assert_eq!(below(10.0), 3);
        assert_eq!(below(100.0), 4);
        assert_eq!(below(1e3), 5);
    }
}
