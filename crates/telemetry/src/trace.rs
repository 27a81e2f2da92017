//! Structured event/span tracer keyed on [`SimTime`].
//!
//! Discrete-event code stamps events with the engine clock directly; the
//! realtime vGPU backend maps `Instant`s onto `SimTime` via its run-start
//! anchor, so both share one trace format. The buffer is capacity-capped:
//! past [`Tracer::CAPACITY`] events new entries are dropped and counted,
//! never reallocated without bound during long soaks.
//!
//! Events optionally carry a **causal context**: a trace id grouping every
//! span a single SharePod's lifecycle produced, and a parent span id
//! forming the parent→child tree [`crate::causal`] analyzes. Context-free
//! events (the pre-causal API) carry `trace = 0, parent = 0` and keep
//! working unchanged.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ks_sim_core::fxhash::FxHashMap;
use ks_sim_core::time::SimTime;
use parking_lot::Mutex;
use serde::Serialize;

/// Identifier linking a span's begin and end events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The id handed out by disabled handles and for spans whose begin
    /// was dropped at capacity; `span_end` ignores it.
    pub const NONE: SpanId = SpanId(0);

    /// Raw id (0 for [`SpanId::NONE`]).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Causal trace context: which trace an operation belongs to and which
/// span is its parent. Minted by [`Tracer::root_span`] when a SharePod
/// enters the system and threaded by value through every layer that does
/// work on its behalf (scheduling, DevMgr, pod creation, token backend).
///
/// `TraceCtx::NONE` (also what disabled telemetry handles return) makes
/// every context-taking call degrade to the uncorrelated behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TraceCtx {
    /// Trace id; 0 = no causal context.
    pub trace: u64,
    /// The span new children should hang off.
    pub span: SpanId,
}

impl TraceCtx {
    /// The null context carried by disabled handles.
    pub const NONE: TraceCtx = TraceCtx {
        trace: 0,
        span: SpanId::NONE,
    };

    /// True for the null context.
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }

    /// The same trace re-rooted at `span` (for grandchildren).
    pub fn at(self, span: SpanId) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            span,
        }
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::NONE
    }
}

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    Point,
    SpanBegin,
    SpanEnd,
}

/// One trace record.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    pub at: SimTime,
    pub subsystem: &'static str,
    pub name: &'static str,
    pub kind: EventKind,
    /// 0 for point events.
    pub span: u64,
    /// Trace this event belongs to (0 = no causal context).
    pub trace: u64,
    /// Parent span within the trace (0 = root or uncorrelated).
    pub parent: u64,
    pub fields: Vec<(&'static str, String)>,
}

struct TracerState {
    events: Vec<TraceEvent>,
    /// `SpanBegin` buffer index by span id, so `span_end` resolves its
    /// begin in O(1) instead of rescanning the buffer (which turns long
    /// soaks quadratic). Begins dropped at capacity are simply absent.
    open: FxHashMap<u64, usize>,
    next_span: u64,
    next_trace: u64,
}

/// Append-only trace buffer behind an enabled [`crate::Telemetry`].
pub struct Tracer {
    state: Mutex<TracerState>,
    /// Set by the first drop. The buffer never empties, so from then on
    /// point events and span begins are counted as dropped without taking
    /// the lock. `full` and `dropped` publish no other data, so their
    /// accesses are `Relaxed`.
    full: AtomicBool,
    dropped: AtomicU64,
}

impl Tracer {
    /// Maximum retained events; beyond this, events are counted as dropped.
    pub const CAPACITY: usize = 65_536;

    pub fn new() -> Self {
        Tracer {
            state: Mutex::new(TracerState {
                events: Vec::new(),
                open: FxHashMap::default(),
                next_span: 1,
                next_trace: 1,
            }),
            full: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// Counts a drop and returns `true` if the buffer is already full.
    /// Only point events and span begins take this shortcut: a root span
    /// still mints its trace id, and a span end still checks its begin.
    fn dropped_early(&self) -> bool {
        let full = self.full.load(Ordering::Relaxed);
        if full {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        full
    }

    /// Appends the event `build` makes, with `fields` copied into it, if
    /// the buffer has room; otherwise counts a drop. The capacity check
    /// comes first, so a dropped event builds and allocates nothing.
    /// Returns whether the event was kept.
    fn push(
        &self,
        state: &mut TracerState,
        fields: &[(&'static str, &str)],
        build: impl FnOnce() -> TraceEvent,
    ) -> bool {
        if state.events.len() >= Self::CAPACITY {
            self.full.store(true, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut ev = build();
        ev.fields = fields.iter().map(|&(k, v)| (k, v.to_owned())).collect();
        if ev.kind == EventKind::SpanBegin {
            state.open.insert(ev.span, state.events.len());
        }
        state.events.push(ev);
        true
    }

    pub fn event(
        &self,
        at: SimTime,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) {
        self.event_in(at, TraceCtx::NONE, subsystem, name, fields);
    }

    /// Point event stamped with a causal context.
    pub fn event_in(
        &self,
        at: SimTime,
        ctx: TraceCtx,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) {
        if self.dropped_early() {
            return;
        }
        let mut s = self.state.lock();
        self.push(&mut s, fields, || TraceEvent {
            at,
            subsystem,
            name,
            kind: EventKind::Point,
            span: 0,
            trace: ctx.trace,
            parent: ctx.span.0,
            fields: Vec::new(),
        });
    }

    pub fn span_begin(
        &self,
        at: SimTime,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) -> SpanId {
        self.span_begin_in(at, TraceCtx::NONE, subsystem, name, fields)
    }

    /// Mints a fresh trace and opens its root span; the returned context
    /// parents all child spans/events of this trace. If the root begin is
    /// dropped at capacity, the context's span is [`SpanId::NONE`].
    pub fn root_span(
        &self,
        at: SimTime,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) -> TraceCtx {
        let mut s = self.state.lock();
        let trace = s.next_trace;
        s.next_trace += 1;
        let id = s.next_span;
        s.next_span += 1;
        let kept = self.push(&mut s, fields, || TraceEvent {
            at,
            subsystem,
            name,
            kind: EventKind::SpanBegin,
            span: id,
            trace,
            parent: 0,
            fields: Vec::new(),
        });
        TraceCtx {
            trace,
            span: if kept { SpanId(id) } else { SpanId::NONE },
        }
    }

    /// Opens a span as a child of `ctx` (begin time may lie in the past —
    /// the causal analyzer orders by timestamp, not append order). Returns
    /// [`SpanId::NONE`] if the begin is dropped at capacity.
    pub fn span_begin_in(
        &self,
        at: SimTime,
        ctx: TraceCtx,
        subsystem: &'static str,
        name: &'static str,
        fields: &[(&'static str, &str)],
    ) -> SpanId {
        if self.dropped_early() {
            return SpanId::NONE;
        }
        let mut s = self.state.lock();
        let id = s.next_span;
        s.next_span += 1;
        let kept = self.push(&mut s, fields, || TraceEvent {
            at,
            subsystem,
            name,
            kind: EventKind::SpanBegin,
            span: id,
            trace: ctx.trace,
            parent: ctx.span.0,
            fields: Vec::new(),
        });
        // A span whose begin was dropped is inert: its `span_end` returns
        // before taking the lock.
        if kept {
            SpanId(id)
        } else {
            SpanId::NONE
        }
    }

    pub fn span_end(&self, at: SimTime, id: SpanId, fields: &[(&'static str, &str)]) {
        if id == SpanId::NONE {
            return;
        }
        let mut s = self.state.lock();
        let Some(open) = s.open.get(&id.0).map(|&i| &s.events[i]) else {
            return;
        };
        let (subsystem, name) = (open.subsystem, open.name);
        let (trace, parent) = (open.trace, open.parent);
        self.push(&mut s, fields, || TraceEvent {
            at,
            subsystem,
            name,
            kind: EventKind::SpanEnd,
            span: id.0,
            trace,
            parent,
            fields: Vec::new(),
        });
    }

    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.lock().events.clone()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Completed `(begin, end)` pairs, in begin order.
    pub fn spans(&self) -> Vec<(TraceEvent, TraceEvent)> {
        let s = self.state.lock();
        s.events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin)
            .filter_map(|b| {
                s.events
                    .iter()
                    .find(|e| e.kind == EventKind::SpanEnd && e.span == b.span)
                    .map(|e| (b.clone(), e.clone()))
            })
            .collect()
    }

    /// Distinct subsystems present in the trace, in first-seen order.
    pub fn subsystems(&self) -> Vec<&'static str> {
        let s = self.state.lock();
        let mut out: Vec<&'static str> = Vec::new();
        for e in &s.events {
            if !out.contains(&e.subsystem) {
                out.push(e.subsystem);
            }
        }
        out
    }

    /// One line per event: `[  1.234567s] subsystem name key=value ...`.
    pub fn render_text(&self) -> String {
        let s = self.state.lock();
        let mut out = String::new();
        for e in &s.events {
            let marker = match e.kind {
                EventKind::Point => "",
                EventKind::SpanBegin => " [begin]",
                EventKind::SpanEnd => " [end]",
            };
            out.push_str(&format!(
                "[{:>12.6}s] {:<8} {}{}",
                e.at.as_secs_f64(),
                e.subsystem,
                e.name,
                marker
            ));
            if e.trace != 0 {
                out.push_str(&format!(" trace={}", e.trace));
            }
            for (k, v) in &e.fields {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("... {dropped} events dropped (capacity)\n"));
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_events_accumulate_in_order() {
        let t = Tracer::new();
        t.event(SimTime::from_millis(1), "sched", "decision", &[]);
        t.event(SimTime::from_millis(2), "devmgr", "anchor", &[("n", "1")]);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].fields[0].1, "1");
        assert_eq!(evs[0].trace, 0);
        assert_eq!(t.subsystems(), vec!["sched", "devmgr"]);
    }

    #[test]
    fn span_end_inherits_identity_from_begin() {
        let t = Tracer::new();
        let id = t.span_begin(SimTime::ZERO, "chaos", "recovery", &[]);
        t.span_end(SimTime::from_secs(3), id, &[("ok", "true")]);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].1.subsystem, "chaos");
        assert_eq!(spans[0].1.name, "recovery");
    }

    #[test]
    fn unknown_span_end_is_ignored() {
        let t = Tracer::new();
        t.span_end(SimTime::ZERO, SpanId(42), &[]);
        t.span_end(SimTime::ZERO, SpanId::NONE, &[]);
        assert!(t.events().is_empty());
    }

    #[test]
    fn capacity_cap_counts_drops() {
        let t = Tracer::new();
        for _ in 0..Tracer::CAPACITY + 10 {
            t.event(SimTime::ZERO, "x", "y", &[]);
        }
        assert_eq!(t.events().len(), Tracer::CAPACITY);
        assert_eq!(t.dropped(), 10);
        assert!(t.render_text().contains("10 events dropped"));

        // A begin dropped at capacity counts once and hands back an inert
        // span; ending it counts nothing more.
        let span = t.span_begin_in(SimTime::ZERO, TraceCtx::NONE, "x", "s", &[("k", "v")]);
        assert_eq!(span, SpanId::NONE);
        t.span_end(SimTime::ZERO, span, &[("k", "v")]);
        assert_eq!(t.dropped(), 11);
        let root = t.root_span(SimTime::ZERO, "x", "r", &[]);
        assert_eq!(root.span, SpanId::NONE);
        t.span_end(SimTime::ZERO, root.span, &[]);
        assert_eq!(t.dropped(), 12);
        assert_eq!(t.events().len(), Tracer::CAPACITY);

        // A span whose begin was kept still counts its dropped end.
        let u = Tracer::new();
        for _ in 0..Tracer::CAPACITY - 1 {
            u.event(SimTime::ZERO, "x", "y", &[]);
        }
        let kept = u.span_begin(SimTime::ZERO, "x", "s", &[]);
        assert_ne!(kept, SpanId::NONE);
        u.span_end(SimTime::ZERO, kept, &[]);
        assert_eq!(u.dropped(), 1);
    }

    #[test]
    fn root_and_child_share_trace_and_parent_links() {
        let t = Tracer::new();
        let ctx = t.root_span(SimTime::ZERO, "sched", "sharepod", &[]);
        assert!(!ctx.is_none());
        let child = t.span_begin_in(SimTime::from_millis(1), ctx, "sched", "schedule", &[]);
        t.event_in(SimTime::from_millis(2), ctx.at(child), "sched", "mark", &[]);
        t.span_end(SimTime::from_millis(3), child, &[]);
        t.span_end(SimTime::from_millis(9), ctx.span, &[]);
        let evs = t.events();
        assert!(evs.iter().all(|e| e.trace == ctx.trace));
        let child_begin = evs.iter().find(|e| e.span == child.0).unwrap();
        assert_eq!(child_begin.parent, ctx.span.0);
        let point = evs.iter().find(|e| e.kind == EventKind::Point).unwrap();
        assert_eq!(point.parent, child.0);
        // End events inherit the begin's causal links.
        let child_end = evs
            .iter()
            .find(|e| e.span == child.0 && e.kind == EventKind::SpanEnd)
            .unwrap();
        assert_eq!(child_end.parent, ctx.span.0);
        assert_eq!(child_end.trace, ctx.trace);
    }

    #[test]
    fn distinct_roots_get_distinct_traces() {
        let t = Tracer::new();
        let a = t.root_span(SimTime::ZERO, "sched", "sharepod", &[]);
        let b = t.root_span(SimTime::ZERO, "sched", "sharepod", &[]);
        assert_ne!(a.trace, b.trace);
        assert_ne!(a.span, b.span);
    }
}
