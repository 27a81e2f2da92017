//! Scheduler scaling benchmark: drains a pending SharePod queue through
//! Algorithm 1 in `Reference` and `Indexed` modes on identical seeded
//! pools, reports decisions/sec (including a lane with the flight
//! recorder capturing full provenance), and appends the sweep to the
//! `BENCH_sched.json` trajectory, stamped with the git revision and the
//! host. Exits non-zero if the modes ever
//! diverge, if the recorder changes any decision, or if provenance
//! capture costs more than 5 % throughput at the largest sweep point.
//!
//! Usage: `cargo run -p ks-bench --release --bin sched_scale --
//! [--gpus N] [--pods N] [--seed N] [--out PATH]`. Without `--gpus` the
//! default sweep covers 1k–10k GPUs. Each point also records the median
//! and interquartile range of repeated plain indexed drains.

use ks_bench::report::{f1, Table};
use ks_bench::sched_scale::{run, sweep_json, SchedScaleConfig};
use ks_bench::trajectory::append_to_file;

fn main() {
    let mut cfg = SchedScaleConfig::default();
    let mut out = String::from("BENCH_sched.json");
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let val = |j: usize| {
            args.get(j)
                .unwrap_or_else(|| panic!("{} needs a value", args[j - 1]))
        };
        match args[i].as_str() {
            "--gpus" => {
                cfg.gpu_sweep = vec![val(i + 1).parse().expect("--gpus: integer")];
                i += 2;
            }
            "--pods" => {
                cfg.pods = val(i + 1).parse().expect("--pods: integer");
                i += 2;
            }
            "--seed" => {
                cfg.seed = val(i + 1).parse().expect("--seed: integer");
                i += 2;
            }
            "--out" => {
                out = val(i + 1).clone();
                i += 2;
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let points = run(&cfg);

    let mut table = Table::new(
        format!("sched_scale: {} pending pods, seed {}", cfg.pods, cfg.seed),
        &[
            "gpus",
            "reference dec/s",
            "indexed dec/s",
            "indexed median [IQR]",
            "recorded dec/s",
            "rec cost",
            "rec ns/dec",
            "speedup",
            "divergences",
            "final devices",
        ],
    );
    for p in &points {
        table.row(vec![
            p.gpus.to_string(),
            format!("{:.0}", p.reference_dps),
            format!("{:.0}", p.indexed_dps),
            format!(
                "{:.0} [{:.0}, {:.0}]",
                p.indexed_dps_median, p.indexed_dps_iqr.0, p.indexed_dps_iqr.1
            ),
            format!("{:.0}", p.recorded_dps),
            format!("{:.1}%", p.recorder_overhead * 100.0),
            format!("{:.0}", p.recorder_ns_per_decision),
            format!("{}x", f1(p.speedup)),
            (p.divergences + p.recorder_divergences).to_string(),
            p.final_devices.to_string(),
        ]);
    }
    println!("{}", table.render());

    append_to_file(&out, "sched_scale", &sweep_json(&cfg, &points));

    let divergences: usize = points.iter().map(|p| p.divergences).sum();
    if divergences > 0 {
        eprintln!("FAIL: {divergences} decision divergences between Reference and Indexed modes");
        std::process::exit(1);
    }
    let rec_divergences: usize = points.iter().map(|p| p.recorder_divergences).sum();
    if rec_divergences > 0 {
        eprintln!("FAIL: {rec_divergences} decisions changed with the flight recorder enabled");
        std::process::exit(1);
    }
    // The overhead bound is enforced at the largest sweep point, where a
    // single drain runs long enough for the timing to be stable.
    if let Some(p) = points.iter().max_by_key(|p| p.gpus) {
        if p.recorder_overhead > ks_bench::sched_scale::OVERHEAD_BOUND {
            eprintln!(
                "FAIL: provenance capture cost {:.1}% throughput ({:.0} ns/decision) at {} GPUs (bound 5%)",
                p.recorder_overhead * 100.0,
                p.recorder_ns_per_decision,
                p.gpus
            );
            std::process::exit(1);
        }
    }
}
