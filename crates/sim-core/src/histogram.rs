//! Fixed-bucket histograms over explicit bucket bounds, and the one
//! interpolating quantile estimator.
//!
//! A histogram is a strictly increasing slice of bucket bounds. Bucket `i`
//! holds `[bounds[i - 1], bounds[i])`: the first bucket also takes every
//! value below `bounds[0]`, and a value at or above the last bound counts
//! as overflow. Exported as cumulative [`Bucket`]s, each `le` therefore
//! counts the observations strictly below that bound, so a threshold that
//! is a bound splits the observations exactly.
//!
//! Counts saturate instead of wrapping: a metric that records billions of
//! observations in a long soak degrades gracefully (the bucket pins at
//! `u64::MAX`) rather than corrupting quantiles through overflow.

use serde::{Deserialize, Serialize};

/// `x`, or the f64 literal `1eN` when `x` is within rounding error of it:
/// `powf` lands a few ulps off a power of ten it meant to hit.
fn snap_to_decade(x: f64) -> f64 {
    let n = x.log10().round() as i32;
    // `10^|n|` is an exact f64 up to 1e22, and one division rounds its
    // reciprocal to the f64 nearest `1e-|n|`, which is the literal.
    let power = (0..n.unsigned_abs()).fold(1.0, |p: f64, _| p * 10.0);
    let decade = if n < 0 { 1.0 / power } else { power };
    if (x - decade).abs() <= decade * 1e-12 {
        decade
    } else {
        x
    }
}

/// One exported cumulative bucket: `cumulative` counts the observations
/// strictly below `le`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// The bucket's upper bound (exclusive).
    pub le: f64,
    /// Observations below `le`, in this bucket and every earlier one.
    pub cumulative: u64,
}

/// A histogram over explicit bucket bounds plus an overflow counter. See
/// the module docs for which bucket a value lands in.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    /// Sum of every recorded observation (including overflow), for
    /// mean/`_sum` style exports.
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with one bucket per bound.
    ///
    /// # Panics
    /// Panics unless `bounds` is non-empty and strictly increasing.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "need at least one bin");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must strictly increase"
        );
        Histogram {
            counts: vec![0; bounds.len()],
            bounds,
            overflow: 0,
            total: 0,
            sum: 0.0,
        }
    }

    /// `bins` equal-width buckets up to `hi`, starting from `lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        Self::spaced(lo, hi, bins, |frac| lo + (hi - lo) * frac)
    }

    /// `bins` buckets of constant ratio `(hi/lo)^(1/bins)` up to `hi`,
    /// starting from `lo`. A bound that lies on a power of ten is that
    /// power's f64 literal (`1.0`, not `0.9999999999999991`), so `le="1"`
    /// counts exactly the observations below 1.
    ///
    /// # Panics
    /// Panics if `lo <= 0`.
    pub fn log_spaced(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0, "log-spaced buckets need lo > 0");
        Self::spaced(lo, hi, bins, |frac| {
            snap_to_decade(lo * (hi / lo).powf(frac))
        })
    }

    /// Bounds `bound(k / bins)` for `k = 1..=bins`.
    fn spaced(lo: f64, hi: f64, bins: usize, bound: impl Fn(f64) -> f64) -> Self {
        assert!(lo < hi, "empty histogram range");
        Self::with_bounds((1..=bins).map(|k| bound(k as f64 / bins as f64)).collect())
    }

    /// Records one observation. Counts saturate at `u64::MAX`.
    pub fn record(&mut self, x: f64) {
        self.total = self.total.saturating_add(1);
        self.sum += x;
        let i = self.bounds.partition_point(|&b| b <= x);
        match self.counts.get_mut(i) {
            Some(c) => *c = c.saturating_add(1),
            None => self.overflow = self.overflow.saturating_add(1),
        }
    }

    /// The bucket bounds, strictly increasing.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, one per bound.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations at or above the last bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of observations (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The export form: one cumulative [`Bucket`] per bound.
    pub fn cumulative(&self) -> Vec<Bucket> {
        let mut cum = 0u64;
        self.bounds
            .iter()
            .zip(&self.counts)
            .map(|(&le, &c)| {
                cum = cum.saturating_add(c);
                Bucket {
                    le,
                    cumulative: cum,
                }
            })
            .collect()
    }

    /// Interpolated `q`-quantile (0 ≤ q ≤ 1) of this histogram's export,
    /// by [`quantile_from_buckets`]. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.cumulative(), self.overflow, q)
    }
}

/// The 1-based rank of the `q`-quantile among `total` observations:
/// `⌈q·total⌉`, at least 1.
pub fn rank(q: f64, total: u64) -> u64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    (q * total as f64).ceil().max(1.0) as u64
}

/// Interpolated quantile over cumulative buckets, for display: the
/// observation of [`rank`] `⌈q·total⌉` (overflow included in `total`),
/// placed linearly within its bucket, from the previous `le` (0 for the
/// first bucket) up to its own. A rank in the overflow answers with the
/// last `le`. `None` when there are no observations.
pub fn quantile_from_buckets(buckets: &[Bucket], overflow: u64, q: f64) -> Option<f64> {
    let in_range = buckets.last().map_or(0, |b| b.cumulative);
    let total = in_range + overflow;
    if total == 0 {
        return None;
    }
    let target = rank(q, total);
    let (mut prev_le, mut prev_cum) = (0.0f64, 0u64);
    for b in buckets {
        if b.cumulative >= target {
            let lo = prev_le.min(b.le);
            let within = (target - prev_cum) as f64 / (b.cumulative - prev_cum) as f64;
            return Some(lo + (b.le - lo) * within);
        }
        (prev_le, prev_cum) = (b.le, b.cumulative);
    }
    buckets.last().map(|b| b.le)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.99);
        h.record(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total(), 3);
        assert!((h.sum() - 15.49).abs() < 1e-9);
    }

    #[test]
    fn overflow_counted_separately() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-1.0); // below the first bound: first bucket
        h.record(1.0); // the last bound is exclusive
        h.record(2.0);
        assert_eq!(h.counts(), &[1, 0, 0, 0]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn median_of_uniform_fill() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() <= 1.0, "median {med}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 98.0, "p99 {p99}");
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    fn quantile_from_buckets_handles_overflow_and_empty() {
        let b = |le: f64, cumulative: u64| Bucket { le, cumulative };
        assert_eq!(quantile_from_buckets(&[b(1.0, 0)], 0, 0.5), None);
        // All mass in overflow → last bound.
        assert_eq!(quantile_from_buckets(&[b(1.0, 0)], 5, 0.5), Some(1.0));
        // Uniform mass: p50 lands mid-range.
        let q = quantile_from_buckets(&[b(1.0, 10), b(2.0, 20)], 0, 0.5).unwrap();
        assert!((0.9..=1.1).contains(&q), "{q}");
    }

    #[test]
    fn log_buckets_resolve_small_and_large_values() {
        // 1µs .. 10s over 70 log buckets: both a 5µs and a 2s observation
        // land in buckets whose bounds tightly bracket them.
        let mut h = Histogram::log_spaced(1e-6, 10.0, 70);
        h.record(5e-6);
        h.record(2.0);
        for (i, &c) in h.counts().iter().enumerate() {
            if c > 0 {
                let lo = if i == 0 { 1e-6 } else { h.bounds()[i - 1] };
                let hi = h.bounds()[i];
                assert!(hi / lo < 1.3, "bucket ratio too coarse: {lo}..{hi}");
            }
        }
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn log_bucket_bounds_are_monotone_and_end_at_hi() {
        let h = Histogram::log_spaced(0.001, 1000.0, 30);
        assert_eq!(h.bounds().len(), 30);
        assert!(h.bounds()[0] > 0.001);
        assert!(h.bounds().windows(2).all(|w| w[0] < w[1]));
        assert!((h.bounds()[29] - 1000.0).abs() / 1000.0 < 1e-9);
    }

    #[test]
    fn log_quantile_interpolates_within_its_bucket() {
        let mut h = Histogram::log_spaced(1.0, 1024.0, 10);
        for _ in 0..100 {
            h.record(32.0); // exactly mid-range in log space
        }
        let med = h.quantile(0.5).unwrap();
        assert!((16.0..64.0).contains(&med), "median {med}");
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let mut h = Histogram::new(0.0, 1.0, 1);
        h.record(0.5);
        // Forge a near-overflow state through repeated recording is
        // infeasible; saturating_add is exercised at the boundary instead.
        assert_eq!(u64::MAX.saturating_add(1), u64::MAX);
        for _ in 0..10 {
            h.record(0.5);
        }
        assert_eq!(h.total(), 11);
    }
}
