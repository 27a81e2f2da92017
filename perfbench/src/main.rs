//! Full-stack performance ledger for the KubeShare reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on the seed's inputs, repeating it until `--seconds`
//! of measurement have passed, checks every output outside the timed
//! phase, prints a readable report, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ledger, and every timed call is written out as a span.
//! See `perfbench/README.md`.

mod gateway_churn;
mod ledger;
mod rep;
mod rt_handoff;
mod sched;
mod token_share;

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use ledger::{median, quantile, Ledger, Site};
use rep::{value, Rep, Value};

/// Every workload the benchmark runs; `BENCHMARK.json` gates those whose
/// checks pass on the current program.
const WORKLOADS: [&str; 5] = [
    "gateway_churn",
    "token_share",
    "sched_small_pool",
    "sched_large_pool",
    "rt_handoff",
];

/// Repetitions of each kind measured at least, however long they take
/// (one at [`Size::Tiny`]).
const MIN_REPS: usize = 5;

/// Input size: `Full` is the benchmark; `Tiny` keeps the unit tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    Tiny,
}

/// One workload's configuration.
enum Workload {
    GatewayChurn(gateway_churn::Config),
    TokenShare(token_share::Config),
    Sched(sched::Config),
    RtHandoff(rt_handoff::Config),
}

fn workload(name: &str, seed: u64, size: Size) -> Option<Workload> {
    let tiny = size == Size::Tiny;
    Some(match name {
        "gateway_churn" => Workload::GatewayChurn(gateway_churn::Config {
            secs: if tiny { 60 } else { 26 },
            hot_per_tier: if tiny { 8 } else { 32 },
            rate: if tiny {
                34
            } else {
                gateway_churn::ARRIVALS_PER_SEC
            },
            seed,
        }),
        "token_share" => Workload::TokenShare(token_share::Config {
            jobs: if tiny { 30 } else { 1_000 },
            factor: 6.0,
            nodes: if tiny { 2 } else { 8 },
            gpus_per_node: if tiny { 2 } else { 4 },
            seed,
        }),
        "sched_small_pool" => Workload::Sched(sched::Config {
            gpus: if tiny { 40 } else { 1_000 },
            pods: if tiny { 200 } else { 5_000 },
            seed,
        }),
        "sched_large_pool" => Workload::Sched(sched::Config {
            gpus: if tiny { 3_000 } else { 10_000 },
            pods: if tiny { 300 } else { 20_000 },
            seed,
        }),
        "rt_handoff" => Workload::RtHandoff(rt_handoff::Config {
            threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            cycles: if tiny { 50 } else { 2_000 },
            kernel_us: (150.0, 250.0),
            seed,
        }),
        _ => return None,
    })
}

/// What one benchmark invocation produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Value>,
    /// Readable report lines.
    report: Vec<String>,
    /// The latest traced repetition's ledger (traced runs only).
    spans: Option<Ledger>,
}

/// The repetitions of one run, by kind.
#[derive(Default)]
struct Reps {
    /// Untraced, default configuration: the end-to-end numbers.
    plain: Vec<Rep>,
    /// Traced: the per-layer numbers.
    traced: Vec<Rep>,
    /// `token_share` with telemetry disabled (traced runs only).
    no_telemetry: Vec<Rep>,
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_ns as f64).collect()
}

/// Runs the workload and checks it. `seconds` bounds the measured
/// repetitions (at least [`MIN_REPS`] of each kind run regardless).
fn run(name: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> Option<Outcome> {
    let w = workload(name, seed, size)?;
    let mut sched_decisions = Vec::new();
    let mut one = |traced: bool, telemetry: bool| -> Rep {
        match &w {
            Workload::GatewayChurn(c) => gateway_churn::rep(c, traced),
            Workload::TokenShare(c) => token_share::rep(c, telemetry, traced),
            Workload::Sched(c) => {
                let (rep, decisions) = sched::rep(c, traced);
                sched_decisions = decisions;
                rep
            }
            Workload::RtHandoff(c) => rt_handoff::rep(c, traced),
        }
    };

    // Repetitions alternate between the kinds this run needs, so slow
    // phases of a shared host hit every kind alike.
    let mut kinds = vec![(false, true)];
    if trace {
        kinds.push((true, true));
        if matches!(w, Workload::TokenShare(_)) {
            kinds.push((false, false));
        }
    }
    // One warm-up repetition fills caches and the allocator's pools; it
    // is checked with the others but not timed.
    let warmup = one(false, true);
    // Measured here, the high-water mark covers one whole repetition and
    // does not depend on how many repetitions the host's speed allows.
    let peak_rss = rep::peak_rss_mib();
    let mut reps = Reps::default();
    let start = Instant::now();
    let mut i = 0;
    loop {
        let (traced, telemetry) = kinds[i % kinds.len()];
        if traced {
            // Only the latest traced repetition keeps its spans; drop the
            // previous one's before recording more.
            if let Some(prev) = reps.traced.last_mut() {
                prev.ledger.clear_spans();
            }
        }
        // The host's speed, measured next to every repetition.
        let calib_ns = rep::calibrate();
        let mut rep = one(traced, telemetry);
        rep.calib_ns = calib_ns;
        match (traced, telemetry) {
            (false, true) => reps.plain.push(rep),
            (true, _) => reps.traced.push(rep),
            (false, false) => reps.no_telemetry.push(rep),
        }
        i += 1;
        let min_reps = if size == Size::Tiny { 1 } else { MIN_REPS };
        if i >= min_reps * kinds.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Checks, outside the timed phase.
    let first = &warmup;
    let mut failures: Vec<String> = Vec::new();
    for r in reps
        .plain
        .iter()
        .chain(&reps.traced)
        .chain(&reps.no_telemetry)
        .chain([&warmup])
    {
        failures.extend(r.failures.iter().cloned());
        if r.sim != first.sim {
            failures.push("sim_* metrics differ between repetitions of one seed".into());
        }
    }
    for r in reps.plain.iter().chain(&reps.traced).chain([&warmup]) {
        if r.ledger.fingerprint() != first.ledger.fingerprint() {
            failures.push("per-layer counts differ between repetitions of one seed".into());
        }
    }
    failures.dedup();
    let mut check_failed = 0u64;
    match &w {
        Workload::GatewayChurn(c) => {
            let errs = gateway_churn::check_against_reference(c, first);
            check_failed += errs.len() as u64;
            failures.extend(errs);
        }
        Workload::TokenShare(c) => {
            let errs = token_share::check_against_reference(c, first);
            check_failed += errs.len() as u64;
            failures.extend(errs);
        }
        Workload::Sched(c) => {
            let divergent = sched::check_against_reference(&sched::inputs(c), &sched_decisions);
            if divergent > 0 {
                check_failed += divergent as u64;
                failures.push(format!(
                    "{divergent} decisions differ from the Reference/Indexed drains"
                ));
            }
        }
        Workload::RtHandoff(_) => {}
    }
    let all = || {
        reps.plain
            .iter()
            .chain(&reps.traced)
            .chain(&reps.no_telemetry)
            .chain([&warmup])
    };
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum::<u64>() + check_failed;
    let correct = failures.is_empty() && failed == 0;

    let mut report = Vec::new();
    report.push(format!(
        "== {name}, seed {seed}: {} untraced + {} traced + {} telemetry-off repetitions ==",
        reps.plain.len(),
        reps.traced.len(),
        reps.no_telemetry.len()
    ));
    let mut sorted = walls(&reps.plain);
    sorted.sort_by(f64::total_cmp);
    report.push(format!(
        "  untraced repetition wall: min {:.4} s, median {:.4} s, max {:.4} s",
        sorted[0] / 1e9,
        median(&sorted) / 1e9,
        sorted[sorted.len() - 1] / 1e9
    ));
    let calibs: Vec<f64> = reps.plain.iter().map(|r| r.calib_ns as f64).collect();
    let speed = rep::CALIBRATION_REF_NS as f64 / median(&calibs);
    report.push(format!(
        "  calibration median {:.3} ms: host speed {speed:.4} of reference",
        median(&calibs) / 1e6
    ));
    let raw = end_to_end(&reps.plain, peak_rss.unwrap_or(0.0), 1.0);
    let end_to_end = end_to_end(&reps.plain, peak_rss.unwrap_or(0.0), speed);
    let named_figures = named_figures(name, &reps.plain);
    for v in &raw {
        if v.unit != "MiB" {
            let name = format!("raw_{}", v.name);
            report.push(format!("  {name:<32} {:>16.6} {}", v.value, v.unit));
        }
    }
    for v in end_to_end.iter().chain(&named_figures).chain(&first.sim) {
        report.push(format!("  {:<32} {:>16.6} {}", v.name, v.value, v.unit));
    }
    report.push(format!(
        "  {:<32} {:>16.6} ratio ({failed} of {attempted})",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    ));
    for f in &failures {
        report.push(format!("  CHECK FAILED: {f}"));
    }

    let (metrics, spans) = if trace {
        let (metrics, ledger_lines, spans) = per_layer(&mut reps);
        report.extend(ledger_lines);
        (metrics, Some(spans))
    } else {
        (end_to_end, None)
    };
    Some(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
        spans,
    })
}

/// The gated end-to-end metrics, the same set for every workload. Host
/// times are multiplied by `speed`, the host's speed relative to the
/// reference measured by [`rep::calibrate`], so they read as times on
/// the reference host.
fn end_to_end(plain: &[Rep], peak_rss_mib: f64, speed: f64) -> Vec<Value> {
    let setups: Vec<f64> = plain.iter().map(|r| r.setup_ns as f64).collect();
    vec![
        value("wall_s", "s", median(&walls(plain)) * speed / 1e9),
        value("setup_s", "s", median(&setups) * speed / 1e9),
        value("peak_rss_mib", "MiB", peak_rss_mib),
        value("op_us_p50", "us", op_quantile(plain, 0.50) * speed),
        value("op_us_p90", "us", op_quantile(plain, 0.90) * speed),
    ]
}

/// The median over repetitions of each repetition's `q`-quantile of its
/// unit-operation times, in microseconds. A host stall lands in one
/// repetition's tail; the median across repetitions discards it, where
/// a quantile of the pooled samples would not.
fn op_quantile(reps: &[Rep], q: f64) -> f64 {
    let per_rep: Vec<f64> = reps
        .iter()
        .filter(|r| !r.op_ns.is_empty())
        .map(|r| quantile(&r.op_ns, q) as f64)
        .collect();
    median(&per_rep) / 1e3
}

/// The workload-specific end-to-end figures under their usual names
/// (printed, not gated: the gated set is [`end_to_end`]).
fn named_figures(name: &str, plain: &[Rep]) -> Vec<Value> {
    let host = |n: &str| {
        let v: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.host.iter().filter(|h| h.name == n).map(|h| h.value))
            .collect();
        median(&v)
    };
    match name {
        "sched_small_pool" | "sched_large_pool" => vec![
            value("decision_us_p50", "us", op_quantile(plain, 0.50)),
            value("decision_us_p90", "us", op_quantile(plain, 0.90)),
            value("decision_us_p99", "us", op_quantile(plain, 0.99)),
            value("decisions_per_s", "1/s", host("decisions_per_s")),
        ],
        "rt_handoff" => vec![
            value("handoff_us_p50", "us", op_quantile(plain, 0.50)),
            value("handoff_us_p90", "us", op_quantile(plain, 0.90)),
            value("rt_grants_per_s", "1/s", host("rt_grants_per_s")),
        ],
        _ => vec![
            value("sim_window_us_p50", "us", op_quantile(plain, 0.50)),
            value("sim_window_us_p90", "us", op_quantile(plain, 0.90)),
            value("sim_window_us_p99", "us", op_quantile(plain, 0.99)),
            value("events_per_s", "1/s", host("events_per_s")),
        ],
    }
}

/// The per-layer ledger of the median traced repetition: metrics,
/// readable lines, and the latest traced repetition's ledger, whose spans
/// are written out.
fn per_layer(reps: &mut Reps) -> (Vec<Value>, Vec<String>, Ledger) {
    let mut order: Vec<usize> = (0..reps.traced.len()).collect();
    order.sort_by_key(|&i| reps.traced[i].wall_ns);
    let mid = order[order.len() / 2];
    let rep = &reps.traced[mid];
    let lg = &rep.ledger;
    let wall_ns = rep.wall_ns;
    // Thread time: each thread's timed calls never overlap each other.
    let budget_ns = wall_ns * rep.threads;
    let untimed = budget_ns as i128 - lg.timed_ns() as i128;

    let mut m = Vec::new();
    for s in Site::ALL {
        m.push(value(
            leak(format!("{}.calls", s.name())),
            "count",
            lg.calls(s) as f64,
        ));
        m.push(value(
            leak(format!("{}.ns", s.name())),
            "ns",
            lg.ns(s) as f64,
        ));
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let count = |n: &'static str| value(n, "count", lg.count(n) as f64);
    let host = |n: &str| {
        rep.host
            .iter()
            .find(|h| h.name == n)
            .map_or(0.0, |h| h.value)
    };
    let plain_wall = median(&walls(&reps.plain));
    let telemetry_cost = if reps.no_telemetry.is_empty() {
        0.0
    } else {
        1.0 - median(&walls(&reps.no_telemetry)) / plain_wall
    };
    m.extend([
        value(
            "cluster.attempts_per_bind",
            "ratio",
            ratio(
                lg.calls(Site::ClusterScheduleAttempt),
                lg.calls(Site::ClusterBindArrived),
            ),
        ),
        value(
            "gateway.pump.ns_max",
            "ns",
            lg.max_ns(Site::GatewayPump) as f64,
        ),
        count("gateway.admitted"),
        count("gateway.queued"),
        count("gateway.refused"),
        count("gateway.preemptions"),
        count("algorithm.assign"),
        count("algorithm.new_device"),
        count("algorithm.reject"),
        count("vgpu.grants"),
        value(
            "vgpu.grants_per_burst",
            "ratio",
            ratio(lg.count("vgpu.grants"), lg.calls(Site::VgpuSubmitBurst)),
        ),
        value("telemetry.cost_frac", "ratio", telemetry_cost),
        count("sim_core.events"),
        count("sim_core.queue_peak"),
        value("vgpu_rt.acquire.ns_p99", "ns", host("acquire_ns_p99")),
        value(
            "vgpu_rt.self_regrant_frac",
            "ratio",
            host("self_regrant_frac"),
        ),
        value("bench.wall.ns", "ns", wall_ns as f64),
        value("bench.untimed.ns", "ns", untimed as f64),
        value(
            "trace.overhead_frac",
            "ratio",
            median(&walls(&reps.traced)) / plain_wall - 1.0,
        ),
    ]);

    // Readable ledger: per layer, then the residual and the top layer.
    let mut lines = vec![format!(
        "  -- per-layer ledger (median traced repetition, wall {:.3} s x {} thread(s)) --",
        wall_ns as f64 / 1e9,
        rep.threads
    )];
    let mut layers: Vec<(&str, u64, u64)> = Vec::new();
    for s in Site::ALL {
        match layers.iter_mut().find(|(l, _, _)| *l == s.layer()) {
            Some(e) => {
                e.1 += lg.calls(s);
                e.2 += lg.ns(s);
            }
            None => layers.push((s.layer(), lg.calls(s), lg.ns(s))),
        }
    }
    let share = |ns: i128| 100.0 * ns as f64 / budget_ns.max(1) as f64;
    for (layer, calls, ns) in &layers {
        if *calls == 0 {
            continue;
        }
        let mut line = format!(
            "  {layer:<10} {calls:>10} calls {:>10.1} ms {:>6.1}% of wall",
            *ns as f64 / 1e6,
            share(*ns as i128)
        );
        for s in Site::ALL
            .iter()
            .filter(|s| s.layer() == *layer && lg.calls(**s) > 0)
        {
            let _ = write!(line, " | {} {:.1}%", s.name(), share(lg.ns(*s) as i128));
        }
        lines.push(line);
    }
    lines.push(format!(
        "  {:<10} {:>16} {:>10.1} ms {:>6.1}% of wall",
        "untimed",
        "",
        untimed as f64 / 1e6,
        share(untimed)
    ));
    if let Some((layer, _, ns)) = layers.iter().max_by_key(|l| l.2) {
        lines.push(format!(
            "  top layer: {layer} ({:.1}% of wall)",
            share(*ns as i128)
        ));
    }
    for v in m
        .iter()
        .filter(|v| !v.name.ends_with(".calls") && !v.name.ends_with(".ns"))
    {
        lines.push(format!("  {:<32} {:>16.6} {}", v.name, v.value, v.unit));
    }
    let latest = reps
        .traced
        .last_mut()
        .expect("a traced run has traced repetitions");
    let spans = std::mem::replace(&mut latest.ledger, Ledger::new(false));
    (m, lines, spans)
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Writes spans as CSV: `name,start_ns,end_ns,seq,uid`.
fn write_spans(path: &std::path::Path, lg: &Ledger) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name,start_ns,end_ns,seq,uid")?;
    for s in lg.spans() {
        writeln!(
            w,
            "{},{},{},{},{}",
            s.site.name(),
            s.start_ns,
            s.end_ns,
            s.seq,
            s.uid
        )?;
    }
    w.flush()
}

/// The result line.
fn json_line(o: &Outcome) -> String {
    use serde_json::Value as J;
    let metrics = o
        .metrics
        .iter()
        .map(|v| {
            let entry = J::Map(vec![
                ("value".into(), J::F64(v.value)),
                ("unit".into(), J::Str(v.unit.into())),
            ]);
            (v.name.to_string(), entry)
        })
        .collect();
    let line = J::Map(vec![
        ("correct".into(), J::Bool(o.correct)),
        ("attempted".into(), J::U64(o.attempted)),
        ("failed".into(), J::U64(o.failed)),
        ("metrics".into(), J::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("a JSON tree serializes")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    )
    .expect("workload name was validated");
    for line in &outcome.report {
        println!("{line}");
    }
    if let Some(spans) = &outcome.spans {
        let path = std::path::PathBuf::from(format!("perfbench/out/{}.spans.csv", args.workload));
        match write_spans(&path, spans) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => println!("  spans: not written ({e})"),
        }
    }
    println!("{}", json_line(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value as J;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn benchmark() -> J {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every metric in one of BENCHMARK.json's lists.
    fn listed(key: &str) -> Vec<(String, String)> {
        benchmark()
            .field(key)
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.field(k).as_str().expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn emitted(o: &Outcome) -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|v| (v.name.to_string(), v.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_round_trips() {
        let v = benchmark();
        let again: J = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(v, again);
        for w in v.field("workloads").as_array().unwrap() {
            let name = w.field("name").as_str().unwrap();
            assert!(WORKLOADS.contains(&name), "{name} is a workload");
        }
        let command: Vec<&str> = v
            .field("command")
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.as_str().unwrap())
            .collect();
        assert!(command.contains(&"perfbench/Cargo.toml"));
    }

    /// Every workload, at a tiny size, emits exactly the listed metrics
    /// with their units, untraced and traced; the gated ones pass their
    /// checks; and the untimed residual is never negative.
    #[test]
    fn tiny_workloads_emit_every_listed_metric() {
        let gated: Vec<String> = benchmark()
            .field("workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.field("name").as_str().unwrap().to_string())
            .collect();
        for name in WORKLOADS {
            let plain = run(name, 3, 0.0, false, Size::Tiny).unwrap();
            assert_eq!(emitted(&plain), listed("end_to_end"), "{name} untraced");
            assert!(plain.metrics.iter().all(|m| m.value.is_finite()));
            assert!(plain.attempted > 0);
            let traced = run(name, 3, 0.0, true, Size::Tiny).unwrap();
            assert_eq!(emitted(&traced), listed("per_layer"), "{name} traced");
            let untimed = traced
                .metrics
                .iter()
                .find(|m| m.name == "bench.untimed.ns")
                .unwrap();
            assert!(untimed.value >= 0.0, "{name}: untimed {}", untimed.value);
            assert!(!traced.spans.as_ref().unwrap().spans().is_empty());
            if gated.iter().any(|g| g == name) {
                assert!(plain.correct, "{name}: {:?}", plain.report);
                assert!(traced.correct, "{name}: {:?}", traced.report);
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![value("wall_s", "s", 1.25)],
            report: Vec::new(),
            spans: None,
        };
        let v: J = serde_json::from_str(&json_line(&o)).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.field("metrics").field("wall_s").field("value").as_f64(),
            Some(1.25)
        );
        assert_eq!(
            v.field("metrics").field("wall_s").field("unit").as_str(),
            Some("s")
        );
    }
}
