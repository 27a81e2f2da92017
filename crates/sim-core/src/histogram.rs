//! Fixed-bucket histograms (linear or log-spaced) with percentile queries.
//!
//! Counts saturate instead of wrapping: a metric that records billions of
//! observations in a long soak degrades gracefully (the bucket pins at
//! `u64::MAX`) rather than corrupting quantiles through overflow.

use serde::Serialize;

/// How bucket boundaries are spaced over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BucketScale {
    /// Equal-width buckets.
    Linear,
    /// Log-spaced buckets: each bucket spans a constant ratio. Requires
    /// `lo > 0`. Suits latency-style metrics spanning orders of magnitude.
    Log,
}

/// A histogram over `[lo, hi)` with `bins` buckets plus underflow/overflow
/// counters. Buckets are equal-width ([`BucketScale::Linear`]) or
/// constant-ratio ([`BucketScale::Log`]).
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    scale: BucketScale,
    /// `ln(hi / lo)` for log buckets (0 for linear), computed once rather
    /// than per record.
    log_span: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
    /// Sum of every recorded observation (including out-of-range), for
    /// mean/`_sum` style exports.
    sum: f64,
}

impl Histogram {
    /// Creates a linear histogram over `[lo, hi)` with `bins` buckets.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        Self::with_scale(lo, hi, bins, BucketScale::Linear)
    }

    /// Creates a log-spaced histogram over `[lo, hi)` with `bins` buckets
    /// of constant ratio `(hi/lo)^(1/bins)`.
    ///
    /// # Panics
    /// Panics if `lo <= 0`.
    pub fn log_spaced(lo: f64, hi: f64, bins: usize) -> Self {
        Self::with_scale(lo, hi, bins, BucketScale::Log)
    }

    /// Creates a histogram with an explicit bucket scale.
    pub fn with_scale(lo: f64, hi: f64, bins: usize, scale: BucketScale) -> Self {
        assert!(lo < hi, "empty histogram range");
        assert!(bins > 0, "need at least one bin");
        if scale == BucketScale::Log {
            assert!(lo > 0.0, "log-spaced buckets need lo > 0");
        }
        Histogram {
            lo,
            hi,
            scale,
            log_span: match scale {
                BucketScale::Linear => 0.0,
                BucketScale::Log => (hi / lo).ln(),
            },
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
            sum: 0.0,
        }
    }

    /// Bucket scale in force.
    pub fn scale(&self) -> BucketScale {
        self.scale
    }

    /// The configured range.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Records one observation. Counts saturate at `u64::MAX`.
    pub fn record(&mut self, x: f64) {
        self.total = self.total.saturating_add(1);
        self.sum += x;
        if x < self.lo {
            self.underflow = self.underflow.saturating_add(1);
        } else if x >= self.hi {
            self.overflow = self.overflow.saturating_add(1);
        } else {
            let idx = self.bucket_index(x);
            self.counts[idx] = self.counts[idx].saturating_add(1);
        }
    }

    fn bucket_index(&self, x: f64) -> usize {
        let bins = self.counts.len() as f64;
        let frac = match self.scale {
            BucketScale::Linear => (x - self.lo) / (self.hi - self.lo),
            BucketScale::Log => (x / self.lo).ln() / self.log_span,
        };
        ((frac * bins) as usize).min(self.counts.len() - 1)
    }

    /// Upper bound of bucket `i` (the `le` boundary Prometheus exports).
    pub fn bucket_upper(&self, i: usize) -> f64 {
        let frac = (i + 1) as f64 / self.counts.len() as f64;
        match self.scale {
            BucketScale::Linear => self.lo + (self.hi - self.lo) * frac,
            BucketScale::Log => self.lo * (self.hi / self.lo).powf(frac),
        }
    }

    fn bucket_lower(&self, i: usize) -> f64 {
        if i == 0 {
            self.lo
        } else {
            self.bucket_upper(i - 1)
        }
    }

    /// Total number of observations (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Observations below `lo` / at-or-above `hi`.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) by interpolation within the
    /// containing bucket (linear in the bucket's native scale). Returns
    /// `None` if no observations are in range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return None;
        }
        let target = (q * in_range as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= target {
                let within = (target - seen) as f64 / c.max(1) as f64;
                let (lo, hi) = (self.bucket_lower(i), self.bucket_upper(i));
                let v = match self.scale {
                    BucketScale::Linear => lo + (hi - lo) * within,
                    BucketScale::Log => lo * (hi / lo).powf(within),
                };
                return Some(v);
            }
            seen += c;
        }
        Some(self.hi)
    }

    /// Interpolated quantiles at each requested point (convenience for
    /// reporting p50/p90/p99 in one call). `None` entries mirror
    /// [`Histogram::quantile`].
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }
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
    fn out_of_range_counted_separately() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-1.0);
        h.record(1.0); // hi is exclusive
        h.record(2.0);
        assert_eq!(h.out_of_range(), (1, 2));
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
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
        assert_eq!(h.quantiles(&[0.5, 0.9]), vec![None, None]);
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
                let (lo, hi) = (
                    if i == 0 { 1e-6 } else { h.bucket_upper(i - 1) },
                    h.bucket_upper(i),
                );
                assert!(hi / lo < 1.3, "bucket ratio too coarse: {lo}..{hi}");
            }
        }
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn log_bucket_bounds_are_monotone_and_end_at_hi() {
        let h = Histogram::log_spaced(0.001, 1000.0, 30);
        let mut prev = 0.001;
        for i in 0..30 {
            let b = h.bucket_upper(i);
            assert!(b > prev, "bounds must increase");
            prev = b;
        }
        assert!((h.bucket_upper(29) - 1000.0).abs() / 1000.0 < 1e-9);
    }

    #[test]
    fn log_quantile_interpolates_in_log_space() {
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
