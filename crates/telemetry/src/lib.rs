//! Observability substrate for the KubeShare reproduction.
//!
//! The crate provides three pieces:
//!
//! * a **metrics registry** ([`registry`]) of counters, gauges, and
//!   histograms addressed by `name{label="value",...}` keys following the
//!   `ks_<subsystem>_<name>` naming scheme (DESIGN.md §9);
//! * a **tracer** ([`trace`]) of structured events and spans stamped with
//!   [`SimTime`] (discrete-event runs) or wall-clock mapped onto `SimTime`
//!   (the realtime vGPU backend);
//! * **exporters** ([`export`]) rendering the same registry as Prometheus
//!   text exposition and JSON, plus a diffable [`MetricsSnapshot`].
//!
//! Everything hangs off one cheap [`Telemetry`] handle. A disabled handle
//! (the default everywhere) is a `None` — every instrumentation call is a
//! single branch on an `Option` and touches no shared state, so the hot
//! paths benched by `sched_algo` and `token_quota` pay nothing when
//! observability is off.
//!
//! ```
//! use ks_telemetry::Telemetry;
//! use ks_sim_core::time::SimTime;
//!
//! let t = Telemetry::enabled();
//! t.counter("ks_sched_decisions_total", &[("outcome", "assign")]).inc();
//! t.histogram_seconds("ks_sched_latency_seconds", &[]).observe(0.090);
//! t.trace_event(SimTime::from_millis(90), "sched", "decision",
//!               &[("outcome", "assign")]);
//!
//! let snap = t.snapshot();
//! assert_eq!(snap.counter_value("ks_sched_decisions_total",
//!                               &[("outcome", "assign")]), Some(1));
//! let prom = ks_telemetry::export::to_prometheus_text(&snap);
//! let json = ks_telemetry::export::to_json(&snap);
//! ks_telemetry::export::verify_agreement(&prom, &json).unwrap();
//! ```

pub mod causal;
pub mod export;
pub mod log;
pub mod provenance;
pub mod registry;
pub mod slo;
pub mod snapshot;
pub mod trace;
pub mod tsdb;

use std::sync::Arc;

use ks_sim_core::time::SimTime;

pub use causal::TraceTree;
pub use log::{LogEvent, LogLevel, Logger};
pub use provenance::{
    CandidateScore, DecisionKind, DecisionRecord, Explanation, FlightRecorder, Outcome, ReasonCode,
    SchedProv,
};
pub use registry::{Counter, Gauge, Histo, Registry};
pub use slo::{SloCondition, SloEngine, SloRule, SloStatus};
pub use snapshot::{MetricsSnapshot, Sample, SampleValue};
pub use trace::{EventKind, SpanId, TraceCtx, TraceEvent, Tracer};
pub use tsdb::{Scraper, Tsdb};

struct TelemetryInner {
    registry: Registry,
    tracer: Tracer,
}

/// Cheap, cloneable handle to a metrics registry + tracer.
///
/// `Telemetry::disabled()` (also `Default`) carries no allocation at all;
/// every recording method on a disabled handle returns immediately after a
/// single `Option` branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// A live handle: all recordings are stored and exportable.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                registry: Registry::new(),
                tracer: Tracer::new(),
            })),
        }
    }

    /// The no-op handle used by default throughout the stack.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A counter handle for `name{labels}` (registered on first use).
    /// Disabled handles return a no-op counter.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name, labels),
            None => Counter::noop(),
        }
    }

    /// A gauge handle for `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name, labels),
            None => Gauge::noop(),
        }
    }

    /// A histogram handle with the default log-spaced seconds buckets
    /// (1µs .. 1000s), suitable for any latency/duration metric.
    pub fn histogram_seconds(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histo {
        match &self.inner {
            Some(i) => i.registry.histogram_seconds(name, labels),
            None => Histo::noop(),
        }
    }

    /// A histogram handle with explicit linear buckets over `[lo, hi)` —
    /// for non-duration quantities such as fit-residual scores or ratios.
    pub fn histogram_linear(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Histo {
        match &self.inner {
            Some(i) => i.registry.histogram_linear(name, labels, lo, hi, bins),
            None => Histo::noop(),
        }
    }

    /// A histogram handle with explicit log-spaced buckets over
    /// `[lo, hi)` — for order-of-magnitude-spanning quantities in units
    /// other than seconds (e.g. scheduler decision nanoseconds).
    pub fn histogram_log(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Histo {
        match &self.inner {
            Some(i) => i.registry.histogram_log(name, labels, lo, hi, bins),
            None => Histo::noop(),
        }
    }

    /// Records a point event on the trace. Field values are borrowed, as
    /// metric labels are; the tracer copies them only for events it keeps.
    pub fn trace_event(
        &self,
        at: SimTime,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) {
        if let Some(i) = &self.inner {
            i.tracer.event(at, subsystem, name, fields);
        }
    }

    /// Opens a span; close it with [`Telemetry::span_end`]. Returns a
    /// dummy id on disabled handles.
    pub fn span_begin(
        &self,
        at: SimTime,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) -> SpanId {
        match &self.inner {
            Some(i) => i.tracer.span_begin(at, subsystem, name, fields),
            None => SpanId::NONE,
        }
    }

    /// Closes a span opened by [`Telemetry::span_begin`]. No-op for
    /// `SpanId::NONE` or unknown ids.
    pub fn span_end(&self, at: SimTime, id: SpanId, fields: &[(&'static str, &str)]) {
        if let Some(i) = &self.inner {
            i.tracer.span_end(at, id, fields);
        }
    }

    /// Mints a fresh trace with a root span (e.g. one SharePod's life).
    /// Returns [`TraceCtx::NONE`] on disabled handles.
    pub fn trace_root(
        &self,
        at: SimTime,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) -> TraceCtx {
        match &self.inner {
            Some(i) => i.tracer.root_span(at, subsystem, name, fields),
            None => TraceCtx::NONE,
        }
    }

    /// Opens a span as a child of `ctx` (falls back to an uncorrelated
    /// span when `ctx` is [`TraceCtx::NONE`]).
    pub fn span_begin_in(
        &self,
        at: SimTime,
        ctx: TraceCtx,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) -> SpanId {
        match &self.inner {
            Some(i) => i.tracer.span_begin_in(at, ctx, subsystem, name, fields),
            None => SpanId::NONE,
        }
    }

    /// Records a point event causally attached under `ctx`.
    pub fn trace_event_in(
        &self,
        at: SimTime,
        ctx: TraceCtx,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) {
        if let Some(i) = &self.inner {
            i.tracer.event_in(at, ctx, subsystem, name, fields);
        }
    }

    /// Chrome-trace (Perfetto-loadable) JSON of every recorded event.
    pub fn chrome_trace(&self) -> String {
        causal::to_chrome_trace(&self.trace_events())
    }

    /// Snapshot of every registered metric at this instant. Disabled
    /// handles produce an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.registry.snapshot(),
            None => MetricsSnapshot::empty(),
        }
    }

    /// All trace events recorded so far (cloned out).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(i) => i.tracer.events(),
            None => Vec::new(),
        }
    }

    /// Completed `(begin, end)` span pairs.
    pub fn spans(&self) -> Vec<(TraceEvent, TraceEvent)> {
        match &self.inner {
            Some(i) => i.tracer.spans(),
            None => Vec::new(),
        }
    }

    /// Number of trace events dropped after the ring capacity was hit.
    pub fn trace_dropped(&self) -> u64 {
        match &self.inner {
            Some(i) => i.tracer.dropped(),
            None => 0,
        }
    }

    /// Distinct subsystems that produced at least one trace event.
    pub fn trace_subsystems(&self) -> Vec<&'static str> {
        match &self.inner {
            Some(i) => i.tracer.subsystems(),
            None => Vec::new(),
        }
    }

    /// Human-readable rendering of the trace, one event per line.
    pub fn render_trace(&self) -> String {
        match &self.inner {
            Some(i) => i.tracer.render_text(),
            None => String::new(),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.counter("ks_x_total", &[]).inc();
        t.gauge("ks_x", &[]).set(3.0);
        t.histogram_seconds("ks_x_seconds", &[]).observe(1.0);
        let id = t.span_begin(SimTime::ZERO, "x", "y", &[]);
        t.span_end(SimTime::ZERO, id, &[]);
        assert!(!t.is_enabled());
        assert!(t.snapshot().samples().is_empty());
        assert!(t.trace_events().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.counter("ks_x_total", &[]).inc();
        u.counter("ks_x_total", &[]).add(2);
        assert_eq!(t.snapshot().counter_value("ks_x_total", &[]), Some(3));
    }

    #[test]
    fn spans_pair_up() {
        let t = Telemetry::enabled();
        let id = t.span_begin(SimTime::from_millis(1), "chaos", "recovery", &[]);
        t.span_end(SimTime::from_millis(5), id, &[]);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0.at, SimTime::from_millis(1));
        assert_eq!(spans[0].1.at, SimTime::from_millis(5));
    }
}
