//! Causal trace analysis: parent→child span trees, critical-path
//! attribution, and a Chrome-trace (`chrome://tracing` / Perfetto) JSON
//! exporter.
//!
//! The tracer ([`crate::trace`]) records a flat event buffer; this module
//! reconstructs, per trace id, the span tree a SharePod's lifecycle
//! produced (submission → scheduling → vGPU creation → pod creation →
//! token grants → termination) and answers "where did the latency go":
//! [`TraceTree::critical_path`] attributes every instant of the root span
//! to exactly one span (the deepest one active), so the self-times sum to
//! the end-to-end latency exactly.

use std::collections::BTreeMap;

use ks_sim_core::time::{SimDuration, SimTime};

use crate::trace::{EventKind, TraceEvent};

/// One reconstructed span of a trace tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub span: u64,
    /// Parent span id (0 for the root).
    pub parent: u64,
    pub subsystem: &'static str,
    pub name: &'static str,
    pub begin: SimTime,
    /// End timestamp; for spans still open at the end of the run this is
    /// the latest event time seen in the trace.
    pub end: SimTime,
    /// False if no `SpanEnd` was recorded (still open / run ended first).
    pub closed: bool,
    /// Begin fields followed by end fields.
    pub fields: Vec<(&'static str, String)>,
    /// Child span ids, ordered by begin time.
    pub children: Vec<u64>,
}

impl SpanNode {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.begin)
    }

    /// `subsystem/name` label used by renderings and the Chrome export.
    pub fn label(&self) -> String {
        format!("{}/{}", self.subsystem, self.name)
    }
}

/// The span tree of one trace id.
#[derive(Debug, Clone)]
pub struct TraceTree {
    pub trace: u64,
    root: u64,
    nodes: BTreeMap<u64, SpanNode>,
}

impl TraceTree {
    /// Reconstructs the tree for `trace` from a flat event buffer.
    /// Returns `None` if the trace has no spans. Spans whose parent is
    /// missing from the buffer (dropped by the capacity cap) re-attach to
    /// the root so no work disappears from the analysis.
    pub fn build(events: &[TraceEvent], trace: u64) -> Option<TraceTree> {
        let mut nodes: BTreeMap<u64, SpanNode> = BTreeMap::new();
        let mut max_t = SimTime::ZERO;
        for e in events.iter().filter(|e| e.trace == trace) {
            max_t = max_t.max(e.at);
            match e.kind {
                EventKind::SpanBegin => {
                    nodes.insert(
                        e.span,
                        SpanNode {
                            span: e.span,
                            parent: e.parent,
                            subsystem: e.subsystem,
                            name: e.name,
                            begin: e.at,
                            end: e.at,
                            closed: false,
                            fields: e.fields.clone(),
                            children: Vec::new(),
                        },
                    );
                }
                EventKind::SpanEnd => {
                    if let Some(n) = nodes.get_mut(&e.span) {
                        n.end = n.begin.max(e.at);
                        n.closed = true;
                        n.fields.extend(e.fields.iter().cloned());
                    }
                }
                EventKind::Point => {}
            }
        }
        if nodes.is_empty() {
            return None;
        }
        // Root: the earliest-beginning span without a parent in this tree.
        let root = match nodes
            .values()
            .filter(|n| n.parent == 0)
            .min_by_key(|n| (n.begin, n.span))
        {
            Some(n) => n.span,
            // Root begin was dropped: promote the earliest span.
            None => {
                nodes
                    .values()
                    .min_by_key(|n| (n.begin, n.span))
                    .expect("nodes non-empty")
                    .span
            }
        };
        // Open spans extend to the last event of the trace.
        for n in nodes.values_mut() {
            if !n.closed {
                n.end = n.begin.max(max_t);
            }
        }
        // Re-parent orphans (missing or self parents) onto the root, then
        // link children.
        let ids: Vec<u64> = nodes.keys().copied().collect();
        for id in &ids {
            if *id == root {
                continue;
            }
            let parent = nodes[id].parent;
            if parent == 0 || parent == *id || !nodes.contains_key(&parent) {
                nodes.get_mut(id).unwrap().parent = root;
            }
        }
        let mut order: Vec<(u64, SimTime, u64)> = nodes
            .values()
            .map(|n| (n.parent, n.begin, n.span))
            .collect();
        order.sort();
        for (parent, _, id) in order {
            if id != root {
                nodes.get_mut(&parent).unwrap().children.push(id);
            }
        }
        Some(TraceTree { trace, root, nodes })
    }

    /// The root span.
    pub fn root(&self) -> &SpanNode {
        &self.nodes[&self.root]
    }

    /// A span by id.
    pub fn node(&self, span: u64) -> Option<&SpanNode> {
        self.nodes.get(&span)
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Span ids in depth-first (pre-order) traversal, children by begin.
    pub fn depth_first(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.nodes[&id].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// End-to-end latency of the trace (the root span's length).
    pub fn duration(&self) -> SimDuration {
        self.root().duration()
    }

    fn depth(&self, mut span: u64) -> usize {
        let mut d = 0;
        while span != self.root {
            span = self.nodes[&span].parent;
            d += 1;
        }
        d
    }

    /// Critical-path breakdown: every span paired with its **self time**,
    /// in depth-first order. Each instant of the root interval is
    /// attributed to exactly one span — the deepest span covering it
    /// (ties broken towards the later-beginning, then higher-id span) —
    /// so the self-times sum to [`TraceTree::duration`] exactly.
    pub fn critical_path(&self) -> Vec<(u64, SimDuration)> {
        let root = self.root();
        let (lo, hi) = (root.begin, root.end);
        // Elementary intervals between all clipped span boundaries.
        let mut bounds: Vec<SimTime> = Vec::with_capacity(self.nodes.len() * 2);
        for n in self.nodes.values() {
            bounds.push(n.begin.max(lo).min(hi));
            bounds.push(n.end.max(lo).min(hi));
        }
        bounds.sort();
        bounds.dedup();
        let mut self_us: BTreeMap<u64, u64> = self.nodes.keys().map(|&k| (k, 0)).collect();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let len = b.saturating_since(a).as_micros();
            if len == 0 {
                continue;
            }
            // Deepest span covering [a, b); the root covers everything.
            let winner = self
                .nodes
                .values()
                .filter(|n| n.begin.max(lo) <= a && n.end.min(hi) >= b)
                .max_by_key(|n| (self.depth(n.span), n.begin, n.span))
                .map(|n| n.span)
                .unwrap_or(self.root);
            *self_us.get_mut(&winner).unwrap() += len;
        }
        self.depth_first()
            .into_iter()
            .map(|id| (id, SimDuration::from_micros(self_us[&id])))
            .collect()
    }

    /// Human-readable critical-path table (indented by tree depth).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace {} · {} spans · end-to-end {:.6}s\n",
            self.trace,
            self.nodes.len(),
            self.duration().as_secs_f64()
        ));
        for (id, self_time) in self.critical_path() {
            let n = &self.nodes[&id];
            out.push_str(&format!(
                "{:indent$}{} [{:.6}s .. {:.6}s] dur={:.6}s self={:.6}s{}\n",
                "",
                n.label(),
                n.begin.as_secs_f64(),
                n.end.as_secs_f64(),
                n.duration().as_secs_f64(),
                self_time.as_secs_f64(),
                if n.closed { "" } else { " (open)" },
                indent = self.depth(id) * 2,
            ));
        }
        out
    }
}

/// Distinct trace ids present in the buffer, ascending.
pub fn traces(events: &[TraceEvent]) -> Vec<u64> {
    let mut out: Vec<u64> = events.iter().map(|e| e.trace).filter(|&t| t != 0).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The trace whose **root** span begin carries `key=value` (e.g.
/// `("sp", "42")` to find a SharePod's trace by uid).
pub fn find_trace(events: &[TraceEvent], key: &str, value: &str) -> Option<u64> {
    events
        .iter()
        .find(|e| {
            e.trace != 0
                && e.parent == 0
                && e.kind == EventKind::SpanBegin
                && e.fields.iter().any(|(k, v)| *k == key && v == value)
        })
        .map(|e| e.trace)
}

/// Convenience wrapper: `critical_path(trace_id)` over a flat buffer.
pub fn critical_path(events: &[TraceEvent], trace: u64) -> Vec<(u64, SimDuration)> {
    TraceTree::build(events, trace)
        .map(|t| t.critical_path())
        .unwrap_or_default()
}

/// Renders the full buffer as Chrome-trace JSON (the "JSON Array Format"
/// with a `traceEvents` wrapper), loadable in `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev). Spans become complete (`ph:"X"`)
/// events, point events become instants (`ph:"i"`); each trace id gets
/// its own track (`tid`), so one SharePod's lifecycle reads as one row.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let max_t = events.iter().map(|e| e.at).max().unwrap_or(SimTime::ZERO);
    // Pair span begins with their ends without quadratic scanning.
    let mut ends: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::SpanEnd {
            ends.insert(e.span, e);
        }
    }
    use serde_json::Value;
    let str_v = |s: &str| Value::Str(s.to_string());
    let mut out: Vec<Value> = Vec::new();
    for e in events {
        let mut args: Vec<(String, Value)> = e
            .fields
            .iter()
            .map(|(k, v)| (k.to_string(), str_v(v)))
            .collect();
        let upsert = |args: &mut Vec<(String, Value)>, k: String, v: Value| match args
            .iter_mut()
            .find(|(ek, _)| *ek == k)
        {
            Some(entry) => entry.1 = v,
            None => args.push((k, v)),
        };
        let common = |name: &str, cat: &str, ts: u64, tid: u64| {
            vec![
                ("ph".to_string(), Value::Null), // placeholder, set below
                ("name".to_string(), str_v(name)),
                ("cat".to_string(), str_v(cat)),
                ("ts".to_string(), Value::U64(ts)),
                ("pid".to_string(), Value::U64(1)),
                ("tid".to_string(), Value::U64(tid)),
            ]
        };
        match e.kind {
            EventKind::SpanBegin => {
                let end = ends.get(&e.span).map(|x| x.at).unwrap_or(max_t).max(e.at);
                if let Some(endev) = ends.get(&e.span) {
                    for (k, v) in &endev.fields {
                        upsert(&mut args, k.to_string(), str_v(v));
                    }
                }
                upsert(&mut args, "span".to_string(), Value::U64(e.span));
                let mut ev = common(
                    &format!("{}/{}", e.subsystem, e.name),
                    e.subsystem,
                    e.at.as_micros(),
                    e.trace,
                );
                ev[0].1 = str_v("X");
                ev.push((
                    "dur".to_string(),
                    Value::U64(end.saturating_since(e.at).as_micros()),
                ));
                ev.push(("args".to_string(), Value::Map(args)));
                out.push(Value::Map(ev));
            }
            EventKind::Point => {
                let mut ev = common(
                    &format!("{}/{}", e.subsystem, e.name),
                    e.subsystem,
                    e.at.as_micros(),
                    e.trace,
                );
                ev[0].1 = str_v("i");
                ev.push(("s".to_string(), str_v("t")));
                ev.push(("args".to_string(), Value::Map(args)));
                out.push(Value::Map(ev));
            }
            EventKind::SpanEnd => {}
        }
    }
    let doc = Value::Map(vec![("traceEvents".to_string(), Value::Array(out))]);
    serde_json::to_string_pretty(&doc).expect("chrome trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// submit(0) → sched [0,90] → vgpu_create [90,2000] → pod_create
    /// [2000,4000] → grant [4100,4200]; root closes at 5000.
    fn lifecycle() -> (Tracer, u64) {
        let t = Tracer::new();
        let root = t.root_span(ms(0), "sched", "sharepod", &[("sp", "7")]);
        let sched = t.span_begin_in(ms(0), root, "sched", "schedule", &[]);
        t.span_end(ms(90), sched, &[]);
        let vgpu = t.span_begin_in(ms(90), root, "devmgr", "vgpu_create", &[]);
        t.span_end(ms(2000), vgpu, &[]);
        let pod = t.span_begin_in(ms(2000), root, "cluster", "pod_create", &[]);
        t.span_end(ms(4000), pod, &[]);
        let grant = t.span_begin_in(ms(4100), root, "vgpu", "token_grant", &[]);
        t.span_end(ms(4200), grant, &[]);
        t.span_end(ms(5000), root.span, &[]);
        (t, root.trace)
    }

    #[test]
    fn tree_reconstructs_lifecycle() {
        let (t, trace) = lifecycle();
        let tree = TraceTree::build(&t.events(), trace).unwrap();
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.root().name, "sharepod");
        assert_eq!(tree.root().children.len(), 4);
        assert_eq!(tree.duration(), SimDuration::from_secs(5));
        let names: Vec<&str> = tree
            .depth_first()
            .iter()
            .map(|&id| tree.node(id).unwrap().name)
            .collect();
        assert_eq!(
            names,
            vec![
                "sharepod",
                "schedule",
                "vgpu_create",
                "pod_create",
                "token_grant"
            ]
        );
    }

    #[test]
    fn critical_path_self_times_sum_to_end_to_end() {
        let (t, trace) = lifecycle();
        let tree = TraceTree::build(&t.events(), trace).unwrap();
        let cp = tree.critical_path();
        let total: u64 = cp.iter().map(|(_, d)| d.as_micros()).sum();
        assert_eq!(total, tree.duration().as_micros());
        // Root self time = the uncovered stretches: [4000,4100] + [4200,5000].
        let root_self = cp.iter().find(|(id, _)| *id == tree.root().span).unwrap().1;
        assert_eq!(root_self, SimDuration::from_millis(900));
        // The pod_create span dominates: 2000ms self, vs 1910ms for
        // vgpu_create and 900ms for the root.
        let (max_id, _) = cp.iter().max_by_key(|(_, d)| *d).unwrap();
        assert_eq!(tree.node(*max_id).unwrap().name, "pod_create");
    }

    #[test]
    fn overlapping_children_attribute_each_instant_once() {
        let t = Tracer::new();
        let root = t.root_span(ms(0), "sched", "sharepod", &[]);
        let a = t.span_begin_in(ms(0), root, "x", "a", &[]);
        let b = t.span_begin_in(ms(50), root, "x", "b", &[]);
        t.span_end(ms(100), a, &[]);
        t.span_end(ms(150), b, &[]);
        t.span_end(ms(200), root.span, &[]);
        let tree = TraceTree::build(&t.events(), root.trace).unwrap();
        let cp = tree.critical_path();
        let total: u64 = cp.iter().map(|(_, d)| d.as_micros()).sum();
        assert_eq!(total, SimDuration::from_millis(200).as_micros());
    }

    #[test]
    fn open_spans_extend_to_trace_end() {
        let t = Tracer::new();
        let root = t.root_span(ms(0), "sched", "sharepod", &[]);
        let _child = t.span_begin_in(ms(10), root, "x", "open", &[]);
        t.event_in(ms(500), root, "x", "last", &[]);
        let tree = TraceTree::build(&t.events(), root.trace).unwrap();
        assert!(!tree.root().closed);
        assert_eq!(tree.duration(), SimDuration::from_millis(500));
        let total: u64 = tree
            .critical_path()
            .iter()
            .map(|(_, d)| d.as_micros())
            .sum();
        assert_eq!(total, tree.duration().as_micros());
    }

    #[test]
    fn orphan_spans_reattach_to_root() {
        let t = Tracer::new();
        let root = t.root_span(ms(0), "sched", "sharepod", &[]);
        // Parent span 999 never existed (e.g. dropped at capacity).
        let orphan = t.span_begin_in(
            ms(10),
            crate::trace::TraceCtx {
                trace: root.trace,
                span: crate::trace::SpanId(999),
            },
            "vgpu",
            "token_grant",
            &[],
        );
        t.span_end(ms(20), orphan, &[]);
        t.span_end(ms(30), root.span, &[]);
        let tree = TraceTree::build(&t.events(), root.trace).unwrap();
        assert_eq!(tree.node(orphan.raw()).unwrap().parent, tree.root().span);
    }

    #[test]
    fn find_trace_locates_root_by_field() {
        let (t, trace) = lifecycle();
        let evs = t.events();
        assert_eq!(find_trace(&evs, "sp", "7"), Some(trace));
        assert_eq!(find_trace(&evs, "sp", "8"), None);
        assert_eq!(traces(&evs), vec![trace]);
    }

    #[test]
    fn chrome_trace_parses_and_carries_complete_events() {
        let (t, _) = lifecycle();
        let json = to_chrome_trace(&t.events());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 5); // 5 spans, no points
        assert!(evs.iter().all(|e| e["ph"] == "X"));
        let root = evs.iter().find(|e| e["name"] == "sched/sharepod").unwrap();
        assert_eq!(root["dur"].as_u64(), Some(5_000_000));
        assert_eq!(root["args"]["sp"], "7");
    }
}
