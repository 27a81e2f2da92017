//! Substrate comparison benchmark: time-slicing vs spatial partitioning
//! vs hybrid on packing efficiency, isolation, and reconfiguration
//! overhead. Appends a run to the `BENCH_partition.json` trajectory
//! ([`ks_bench::trajectory`]) and exits non-zero unless
//! spatial and hybrid each beat pure time-slicing on at least one axis.
//!
//! Usage: `cargo run -p ks-bench --release --bin partition --
//! [--tenants N] [--churn-ops N] [--seed N] [--out PATH]`.

use ks_bench::partition::{run, to_json, PartitionBenchConfig};
use ks_bench::report::{f1, f3, Table};
use ks_bench::trajectory::append_to_file;

fn main() {
    let mut cfg = PartitionBenchConfig::default();
    let mut out = String::from("BENCH_partition.json");
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let val = |j: usize| {
            args.get(j)
                .unwrap_or_else(|| panic!("{} needs a value", args[j - 1]))
        };
        match args[i].as_str() {
            "--tenants" => {
                cfg.tenants = val(i + 1).parse().expect("--tenants: integer");
                i += 2;
            }
            "--churn-ops" => {
                cfg.churn_ops = val(i + 1).parse().expect("--churn-ops: integer");
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

    let result = run(&cfg);

    let mut packing = Table::new(
        format!(
            "packing: {} isolation-demanding tenants, seed {}",
            cfg.tenants, cfg.seed
        ),
        &[
            "substrate",
            "gpus",
            "Σdemand",
            "efficiency",
            "frag",
            "rejected",
        ],
    );
    for p in &result.packing {
        packing.row(vec![
            p.substrate.clone(),
            p.gpus.to_string(),
            f1(p.demand_total),
            f3(p.efficiency),
            f3(p.fragmentation),
            p.rejected.to_string(),
        ]);
    }
    println!("{}", packing.render());

    let iso = &result.isolation;
    let mut isolation = Table::new(
        "isolation: victim contended/uncontended, real backends".to_string(),
        &["substrate", "alone s", "contended s", "slowdown"],
    );
    isolation.row(vec![
        "time_slice".to_string(),
        f3(iso.time_slice_alone_secs),
        f3(iso.time_slice_contended_secs),
        format!("{}x", f3(iso.time_slice_slowdown)),
    ]);
    isolation.row(vec![
        "spatial".to_string(),
        f3(iso.spatial_alone_secs),
        f3(iso.spatial_contended_secs),
        format!("{}x", f3(iso.spatial_slowdown)),
    ]);
    println!("{}", isolation.render());
    println!(
        "slice price while alone: {}x the full device\n",
        f3(iso.spatial_alone_cost)
    );

    let rc = &result.reconfig;
    println!(
        "reconfig: {} reshapes over {} churn ops, {} tenants displaced, \
         {}s downtime ({} of makespan), max fragmentation {}",
        rc.reconfigs,
        rc.ops,
        rc.displaced,
        f1(rc.downtime_secs),
        f3(rc.downtime_frac),
        f3(rc.frag_max),
    );
    println!(
        "verdict: spatial beats time-slicing on {:?}, hybrid on {:?}",
        result.verdict.spatial_beats, result.verdict.hybrid_beats
    );

    append_to_file(&out, "partition", &to_json(&cfg, &result));

    if !result.verdict.ok {
        eprintln!("FAIL: a substrate failed to beat pure time-slicing on any axis");
        std::process::exit(1);
    }
}
