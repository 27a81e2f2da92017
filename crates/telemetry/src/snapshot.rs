//! Point-in-time, diffable view of a metrics registry.

use ks_sim_core::histogram::Histogram;
use serde::{Deserialize, Serialize};

pub use ks_sim_core::histogram::Bucket;

/// The value of one sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SampleValue {
    Counter(u64),
    Gauge(f64),
    Histogram {
        buckets: Vec<Bucket>,
        /// Observations at or above the last bucket bound.
        overflow: u64,
        count: u64,
        sum: f64,
    },
}

impl SampleValue {
    /// Monotonic difference `self − earlier` for cumulative kinds.
    ///
    /// Counters subtract saturating at zero (a restart that reset the
    /// counter yields 0, not an underflow); histograms subtract per-bucket
    /// cumulative counts, overflow, count, and sum the same way, and
    /// require an identical bucket layout. Gauges are not cumulative, so
    /// any pairing involving a gauge (or mismatched kinds/layouts)
    /// returns `None`. This is the one delta representation shared by
    /// [`MetricsSnapshot::diff`] and the ring-buffer TSDB
    /// ([`crate::tsdb`]).
    pub fn monotonic_sub(&self, earlier: &SampleValue) -> Option<SampleValue> {
        match (self, earlier) {
            (SampleValue::Counter(a), SampleValue::Counter(b)) => {
                Some(SampleValue::Counter(a.saturating_sub(*b)))
            }
            (
                SampleValue::Histogram {
                    buckets: ba,
                    overflow: oa,
                    count: ca,
                    sum: sa,
                },
                SampleValue::Histogram {
                    buckets: bb,
                    overflow: ob,
                    count: cb,
                    sum: sb,
                },
            ) => {
                if ba.len() != bb.len() || ba.iter().zip(bb).any(|(x, y)| x.le != y.le) {
                    return None;
                }
                Some(SampleValue::Histogram {
                    buckets: ba
                        .iter()
                        .zip(bb)
                        .map(|(x, y)| Bucket {
                            le: x.le,
                            cumulative: x.cumulative.saturating_sub(y.cumulative),
                        })
                        .collect(),
                    overflow: oa.saturating_sub(*ob),
                    count: ca.saturating_sub(*cb),
                    sum: (sa - sb).max(0.0),
                })
            }
            _ => None,
        }
    }

    /// Converts a live histogram into its cumulative-bucket export form.
    pub fn histogram(h: &Histogram) -> Self {
        SampleValue::Histogram {
            buckets: h.cumulative(),
            overflow: h.overflow(),
            count: h.total(),
            sum: h.sum(),
        }
    }
}

/// One metric series in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    pub value: SampleValue,
}

impl Sample {
    /// Monotonic increase of this sample since `earlier` (same series).
    /// See [`SampleValue::monotonic_sub`] for the subtraction rules;
    /// additionally returns `None` when the two samples are different
    /// series.
    pub fn delta(&self, earlier: &Sample) -> Option<SampleValue> {
        if self.name != earlier.name || self.labels != earlier.labels {
            return None;
        }
        self.value.monotonic_sub(&earlier.value)
    }

    /// `name{k="v",...}` identity string, used by both exporters and the
    /// TSDB. Label values are escaped so hostile values cannot make two
    /// distinct series collide on one id.
    pub fn series_id(&self) -> String {
        if self.labels.is_empty() {
            self.name.clone()
        } else {
            let labels: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", crate::export::escape_label_value(v)))
                .collect();
            format!("{}{{{}}}", self.name, labels.join(","))
        }
    }
}

/// An ordered set of samples taken from a registry at one instant.
/// `PartialEq` makes snapshots directly assertable in tests, and
/// [`MetricsSnapshot::diff`] reports series-level changes between two runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    samples: Vec<Sample>,
}

impl MetricsSnapshot {
    pub fn empty() -> Self {
        Self::default()
    }

    pub(crate) fn from_samples(samples: Vec<Sample>) -> Self {
        MetricsSnapshot { samples }
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        let mut want: Vec<(&str, &str)> = labels.to_vec();
        want.sort_unstable();
        self.samples.iter().find(|s| {
            s.name == name
                && s.labels.len() == want.len()
                && s.labels
                    .iter()
                    .zip(&want)
                    .all(|((k, v), (wk, wv))| k == wk && v == wv)
        })
    }

    /// Counter value for `name{labels}`, if that series exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            SampleValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Gauge value for `name{labels}`, if that series exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels)?.value {
            SampleValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// `(count, sum)` of a histogram series, if it exists.
    pub fn histogram_count_sum(&self, name: &str, labels: &[(&str, &str)]) -> Option<(u64, f64)> {
        match &self.find(name, labels)?.value {
            SampleValue::Histogram { count, sum, .. } => Some((*count, *sum)),
            _ => None,
        }
    }

    /// Sums every counter series sharing `name` (any labels).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Series-level differences `other` introduces relative to `self`:
    /// one line per added, removed, or changed series. Cumulative kinds
    /// (counters/histograms) annotate the change with their monotonic
    /// increase via [`Sample::delta`].
    pub fn diff(&self, other: &MetricsSnapshot) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.samples {
            match other
                .samples
                .iter()
                .find(|o| o.series_id() == s.series_id())
            {
                None => out.push(format!("- {}", s.series_id())),
                Some(o) if o.value != s.value => {
                    let grew = match o.delta(s) {
                        Some(SampleValue::Counter(d)) => format!(" (+{d})"),
                        Some(SampleValue::Histogram { count, sum, .. }) => {
                            format!(" (+{count} obs, +{sum} sum)")
                        }
                        _ => String::new(),
                    };
                    out.push(format!(
                        "~ {}: {:?} -> {:?}{grew}",
                        s.series_id(),
                        s.value,
                        o.value
                    ));
                }
                Some(_) => {}
            }
        }
        for o in &other.samples {
            if !self.samples.iter().any(|s| s.series_id() == o.series_id()) {
                out.push(format!("+ {}", o.series_id()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(samples: Vec<Sample>) -> MetricsSnapshot {
        MetricsSnapshot::from_samples(samples)
    }

    #[test]
    fn series_id_renders_labels_sorted_in() {
        let s = Sample {
            name: "ks_x_total".into(),
            labels: vec![("a".into(), "1".into()), ("b".into(), "2".into())],
            value: SampleValue::Counter(1),
        };
        assert_eq!(s.series_id(), "ks_x_total{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn diff_reports_added_removed_changed() {
        let a = snap(vec![
            Sample {
                name: "ks_a_total".into(),
                labels: vec![],
                value: SampleValue::Counter(1),
            },
            Sample {
                name: "ks_b".into(),
                labels: vec![],
                value: SampleValue::Gauge(2.0),
            },
        ]);
        let b = snap(vec![
            Sample {
                name: "ks_a_total".into(),
                labels: vec![],
                value: SampleValue::Counter(5),
            },
            Sample {
                name: "ks_c".into(),
                labels: vec![],
                value: SampleValue::Gauge(0.0),
            },
        ]);
        let d = a.diff(&b);
        assert_eq!(d.len(), 3);
        assert!(d.iter().any(|l| l.starts_with("~ ks_a_total")));
        assert!(d.iter().any(|l| l == "- ks_b"));
        assert!(d.iter().any(|l| l == "+ ks_c"));
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn delta_subtracts_counters_and_histograms_monotonically() {
        let mk = |v: SampleValue| Sample {
            name: "ks_x".into(),
            labels: vec![("gpu".into(), "0".into())],
            value: v,
        };
        // Counter: saturating.
        let a = mk(SampleValue::Counter(3));
        let b = mk(SampleValue::Counter(10));
        assert_eq!(b.delta(&a), Some(SampleValue::Counter(7)));
        assert_eq!(a.delta(&b), Some(SampleValue::Counter(0)));
        // Different series never produce a delta.
        let other = Sample {
            name: "ks_y".into(),
            ..b.clone()
        };
        assert_eq!(other.delta(&a), None);
        // Gauges are not cumulative.
        assert_eq!(
            mk(SampleValue::Gauge(2.0)).delta(&mk(SampleValue::Gauge(1.0))),
            None
        );
        // Histogram: per-bucket cumulative subtraction.
        let mut h1 = Histogram::new(0.0, 4.0, 4);
        h1.record(0.5);
        let mut h2 = Histogram::new(0.0, 4.0, 4);
        h2.record(0.5);
        h2.record(1.5);
        h2.record(9.0); // overflow
        let d = mk(SampleValue::histogram(&h2))
            .delta(&mk(SampleValue::histogram(&h1)))
            .unwrap();
        match d {
            SampleValue::Histogram {
                buckets,
                overflow,
                count,
                sum,
            } => {
                assert_eq!(buckets[0].cumulative, 0);
                assert_eq!(buckets[1].cumulative, 1);
                assert_eq!(overflow, 1);
                assert_eq!(count, 2);
                assert!((sum - 10.5).abs() < 1e-9);
            }
            _ => panic!("expected histogram delta"),
        }
        // Mismatched bucket layouts refuse to subtract.
        let h3 = Histogram::new(0.0, 8.0, 4);
        assert_eq!(
            mk(SampleValue::histogram(&h2)).delta(&mk(SampleValue::histogram(&h3))),
            None
        );
    }

    #[test]
    fn diff_annotates_counter_growth() {
        let a = snap(vec![Sample {
            name: "ks_a_total".into(),
            labels: vec![],
            value: SampleValue::Counter(1),
        }]);
        let b = snap(vec![Sample {
            name: "ks_a_total".into(),
            labels: vec![],
            value: SampleValue::Counter(5),
        }]);
        let d = a.diff(&b);
        assert_eq!(d.len(), 1);
        assert!(d[0].ends_with("(+4)"), "{}", d[0]);
    }

    #[test]
    fn histogram_export_folds_underflow_into_first_bucket() {
        let mut h = Histogram::new(1.0, 5.0, 4);
        h.record(0.5); // underflow
        h.record(1.5);
        h.record(10.0); // overflow
        if let SampleValue::Histogram {
            buckets,
            overflow,
            count,
            ..
        } = SampleValue::histogram(&h)
        {
            assert_eq!(buckets[0].cumulative, 2); // underflow + first bin
            assert_eq!(buckets[3].cumulative, 2);
            assert_eq!(overflow, 1);
            assert_eq!(count, 3);
        } else {
            panic!("expected histogram");
        }
    }
}
