//! Prometheus-text and JSON exporters over a [`MetricsSnapshot`], plus a
//! cross-format agreement check used in tests and by `ks-bench --bin
//! metrics`.
//!
//! Both exporters flatten to the same logical sample set (histograms become
//! cumulative `_bucket{le=...}` series plus `_sum`/`_count`), and floats are
//! rendered with Rust's shortest round-trip formatting, so parsing either
//! format back yields bit-identical values — [`verify_agreement`] checks
//! exactly that.

use std::collections::BTreeMap;

use crate::snapshot::{MetricsSnapshot, SampleValue};

/// Renders the snapshot in the Prometheus text exposition format.
pub fn to_prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for s in snap.samples() {
        if s.name != last_name {
            let kind = match s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram { .. } => "histogram",
            };
            out.push_str(&format!("# TYPE {} {}\n", s.name, kind));
            last_name = &s.name;
        }
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!("{} {}\n", series(&s.name, &s.labels, None), v));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!("{} {}\n", series(&s.name, &s.labels, None), v));
            }
            SampleValue::Histogram {
                buckets,
                count,
                sum,
                ..
            } => {
                let bucket_name = format!("{}_bucket", s.name);
                for b in buckets {
                    out.push_str(&format!(
                        "{} {}\n",
                        series(&bucket_name, &s.labels, Some(&fmt_f64(b.le))),
                        b.cumulative
                    ));
                }
                out.push_str(&format!(
                    "{} {}\n",
                    series(&bucket_name, &s.labels, Some("+Inf")),
                    count
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    series(&format!("{}_sum", s.name), &s.labels, None),
                    fmt_f64(*sum)
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    series(&format!("{}_count", s.name), &s.labels, None),
                    count
                ));
            }
        }
    }
    out
}

/// Renders the snapshot as pretty-printed JSON (`{"samples": [...]}`).
pub fn to_json(snap: &MetricsSnapshot) -> String {
    serde_json::to_string_pretty(snap).expect("snapshot serializes")
}

/// Parses the JSON produced by [`to_json`] back into a snapshot.
pub fn from_json(json: &str) -> Result<MetricsSnapshot, String> {
    serde_json::from_str(json).map_err(|e| format!("bad snapshot json: {e}"))
}

/// Escapes a label value for exposition: `\` → `\\`, `"` → `\"`, and
/// newline → `\n`, per the Prometheus text-format rules. Without this,
/// hostile values would corrupt the line- and quote-based framing.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_label_value`]. Rejects dangling or unknown escape
/// sequences so corrupted expositions fail loudly instead of silently
/// collapsing distinct values.
pub fn unescape_label_value(v: &str) -> Result<String, String> {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => return Err(format!("unknown escape \\{other} in label value")),
            None => return Err("dangling backslash in label value".into()),
        }
    }
    Ok(out)
}

fn series(name: &str, labels: &[(String, String)], le: Option<&str>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        name.to_string()
    } else {
        format!("{}{{{}}}", name, parts.join(","))
    }
}

/// Shortest round-trip float rendering (`format!("{}")` on f64 is exact
/// under `str::parse::<f64>`).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Flattens a snapshot to the sample lines both exporters logically emit:
/// `series-id -> numeric value as text`.
fn flatten(snap: &MetricsSnapshot) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for s in snap.samples() {
        match &s.value {
            SampleValue::Counter(v) => {
                out.insert(series(&s.name, &s.labels, None), v.to_string());
            }
            SampleValue::Gauge(v) => {
                out.insert(series(&s.name, &s.labels, None), fmt_f64(*v));
            }
            SampleValue::Histogram {
                buckets,
                count,
                sum,
                ..
            } => {
                let bucket_name = format!("{}_bucket", s.name);
                for b in buckets {
                    out.insert(
                        series(&bucket_name, &s.labels, Some(&fmt_f64(b.le))),
                        b.cumulative.to_string(),
                    );
                }
                out.insert(
                    series(&bucket_name, &s.labels, Some("+Inf")),
                    count.to_string(),
                );
                out.insert(
                    series(&format!("{}_sum", s.name), &s.labels, None),
                    fmt_f64(*sum),
                );
                out.insert(
                    series(&format!("{}_count", s.name), &s.labels, None),
                    count.to_string(),
                );
            }
        }
    }
    out
}

/// Parses a rendered series id back into its name and **unescaped**
/// label pairs — the inverse of the exporters' series rendering, modulo
/// label order.
pub fn parse_series_id(id: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some(brace) = id.find('{') else {
        return Ok((id.to_string(), Vec::new()));
    };
    let name = id[..brace].to_string();
    let body = id[brace + 1..]
        .strip_suffix('}')
        .ok_or_else(|| format!("unterminated label set in {id}"))?;
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err(format!("empty label key in {id}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label value not quoted in {id}"));
        }
        // Consume the quoted, escaped value up to the closing quote.
        let mut raw = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => {
                    raw.push('\\');
                    match chars.next() {
                        Some(e) => raw.push(e),
                        None => return Err(format!("dangling escape in {id}")),
                    }
                }
                c => raw.push(c),
            }
        }
        if !closed {
            return Err(format!("unterminated label value in {id}"));
        }
        labels.push((key, unescape_label_value(&raw)?));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("unexpected {c:?} after label value in {id}")),
        }
    }
    Ok((name, labels))
}

/// Parses Prometheus exposition text into `series-id -> value text`.
/// Only the subset emitted by [`to_prometheus_text`] is understood; each
/// series id is validated (label values must unescape cleanly).
pub fn parse_prometheus_text(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The value is the last whitespace-separated token; everything
        // before it (which may itself contain spaces inside label values)
        // is the series id.
        let (id, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("malformed sample line: {line}"))?;
        parse_series_id(id)?;
        if out.insert(id.to_string(), value.to_string()).is_some() {
            return Err(format!("duplicate series: {id}"));
        }
    }
    Ok(out)
}

/// Verifies that a Prometheus-text export and a JSON export describe the
/// same registry state, sample by sample. Returns the number of agreeing
/// samples, or a description of the first divergence.
pub fn verify_agreement(prometheus_text: &str, json: &str) -> Result<usize, String> {
    let prom = parse_prometheus_text(prometheus_text)?;
    let snap = from_json(json)?;
    let flat = flatten(&snap);
    if prom.len() != flat.len() {
        return Err(format!(
            "sample count mismatch: prometheus has {}, json has {}",
            prom.len(),
            flat.len()
        ));
    }
    for (id, jv) in &flat {
        match prom.get(id) {
            None => return Err(format!("series {id} missing from prometheus export")),
            Some(pv) if !values_equal(pv, jv) => {
                return Err(format!("series {id} disagrees: prometheus={pv} json={jv}"));
            }
            Some(_) => {}
        }
    }
    Ok(flat.len())
}

fn values_equal(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    // Fall back to exact f64 equality: both sides use round-trip
    // formatting, so parse-compare tolerates e.g. "5" vs "5.0" only.
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn populated() -> Telemetry {
        let t = Telemetry::enabled();
        t.counter("ks_sched_decisions_total", &[("outcome", "assign")])
            .add(7);
        t.counter("ks_sched_decisions_total", &[("outcome", "reject")])
            .inc();
        t.gauge("ks_devmgr_vgpu_pool", &[("phase", "active")])
            .set(3.0);
        let h = t.histogram_seconds("ks_vgpu_handoff_wait_seconds", &[("gpu", "GPU-0")]);
        h.observe(0.0015);
        h.observe(0.0016);
        h.observe(2.0);
        t
    }

    #[test]
    fn prometheus_text_shape() {
        let text = to_prometheus_text(&populated().snapshot());
        assert!(text.contains("# TYPE ks_sched_decisions_total counter"));
        assert!(text.contains("ks_sched_decisions_total{outcome=\"assign\"} 7"));
        assert!(text.contains("# TYPE ks_vgpu_handoff_wait_seconds histogram"));
        assert!(text.contains("ks_vgpu_handoff_wait_seconds_bucket{gpu=\"GPU-0\",le=\"+Inf\"} 3"));
        assert!(text.contains("ks_vgpu_handoff_wait_seconds_count{gpu=\"GPU-0\"} 3"));
    }

    #[test]
    fn json_round_trips() {
        let snap = populated().snapshot();
        let parsed = from_json(&to_json(&snap)).unwrap();
        assert_eq!(snap, parsed);
    }

    #[test]
    fn exports_agree() {
        let snap = populated().snapshot();
        let n = verify_agreement(&to_prometheus_text(&snap), &to_json(&snap)).unwrap();
        // 2 counters + 1 gauge + (59 buckets + Inf + sum + count).
        assert_eq!(n, 3 + crate::registry::seconds_bounds().len() + 3);
    }

    #[test]
    fn an_observation_on_a_bound_counts_only_under_the_next_le() {
        // A bucket holds `[previous bound, le)`, so the `le="30"` line
        // counts observations strictly below 30 s.
        let t = Telemetry::enabled();
        t.histogram_seconds("ks_x_seconds", &[]).observe(30.0);
        let text = to_prometheus_text(&t.snapshot());
        let bounds = crate::registry::seconds_bounds();
        let i = bounds.iter().position(|&b| b == 30.0).unwrap();
        assert!(
            text.contains("ks_x_seconds_bucket{le=\"30\"} 0\n"),
            "{text}"
        );
        let next = format!(
            "ks_x_seconds_bucket{{le=\"{}\"}} 1\n",
            fmt_f64(bounds[i + 1])
        );
        assert!(text.contains(&next), "{text}");
    }

    #[test]
    fn hostile_label_values_escape_and_agree() {
        let t = Telemetry::enabled();
        let hostile = "a\"b\\c\nd";
        t.counter("ks_node_events_total", &[("node", hostile)])
            .add(2);
        let h = t.histogram_seconds("ks_node_lat_seconds", &[("node", hostile)]);
        h.observe(0.5);
        let snap = t.snapshot();
        let text = to_prometheus_text(&snap);
        // The raw quote/backslash/newline never reach the wire unescaped.
        assert!(text.contains(r#"node="a\"b\\c\nd""#), "{text}");
        assert!(!text.contains("a\"b\\c\nd"));
        let n = verify_agreement(&text, &to_json(&snap)).unwrap();
        assert_eq!(n, 1 + crate::registry::seconds_bounds().len() + 3);
        // Parsing recovers the original value exactly.
        let parsed = parse_prometheus_text(&text).unwrap();
        let id = parsed
            .keys()
            .find(|k| k.starts_with("ks_node_events_total"))
            .unwrap();
        let (name, labels) = parse_series_id(id).unwrap();
        assert_eq!(name, "ks_node_events_total");
        assert_eq!(labels, vec![("node".to_string(), hostile.to_string())]);
    }

    #[test]
    fn label_escape_round_trips() {
        for v in ["", "plain", "a\"b", "tr\\ail\\", "line\nbreak", "\\n"] {
            assert_eq!(unescape_label_value(&escape_label_value(v)).unwrap(), v);
        }
        assert!(unescape_label_value("dangling\\").is_err());
        assert!(unescape_label_value("bad\\q").is_err());
    }

    #[test]
    fn divergence_is_detected() {
        let snap = populated().snapshot();
        let json = to_json(&snap);
        let tampered = to_prometheus_text(&snap).replace(
            "ks_sched_decisions_total{outcome=\"assign\"} 7",
            "ks_sched_decisions_total{outcome=\"assign\"} 8",
        );
        let err = verify_agreement(&tampered, &json).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn empty_snapshot_agrees_trivially() {
        let t = Telemetry::disabled();
        let snap = t.snapshot();
        assert_eq!(
            verify_agreement(&to_prometheus_text(&snap), &to_json(&snap)).unwrap(),
            0
        );
    }
}
