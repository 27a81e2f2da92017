//! Multi-tenant gateway load generator: drives the auth → rate-limit →
//! quota → preemption → metering pipeline with a distinct-tenant fleet
//! (80/15/5 tier split) and appends a run to the `BENCH_gateway.json`
//! trajectory ([`ks_bench::trajectory`]). Exits non-zero
//! if any invariant breaks: conservation, the zero-violation tripwires,
//! downward-only preemption, fairness SLOs, or the 0.1% billing/TSDB
//! reconciliation bound.
//!
//! Usage: `cargo run -p ks-bench --release --bin gateway --
//! [--tenants N] [--secs N] [--nodes N] [--hot N] [--seed N] [--out PATH]`.
//! Defaults to a 1M-tenant fleet; CI smoke runs `--tenants 10000`.

use ks_bench::gateway_load::{run, to_json, GatewayLoadConfig};
use ks_bench::report::{f1, Table};
use ks_bench::trajectory::append_to_file;

fn main() {
    let mut cfg = GatewayLoadConfig::default();
    let mut out = String::from("BENCH_gateway.json");
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
                // Keep the arrival phase proportional so small fleets
                // don't trickle and huge ones don't stampede.
                cfg.secs = (cfg.tenants / 500).clamp(60, 7_200);
                i += 2;
            }
            "--secs" => {
                cfg.secs = val(i + 1).parse().expect("--secs: integer");
                i += 2;
            }
            "--nodes" => {
                cfg.nodes = val(i + 1).parse().expect("--nodes: integer");
                i += 2;
            }
            "--hot" => {
                cfg.hot_per_tier = val(i + 1).parse().expect("--hot: integer");
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

    let report = run(&cfg);

    let mut table = Table::new(
        format!(
            "gateway load: {} tenants over {}s on {} GPUs, seed {}",
            report.tenants_requested, cfg.secs, report.gpus, cfg.seed
        ),
        &[
            "tier",
            "admitted",
            "rate-limited",
            "preempted",
            "GPU-s (ledger)",
            "GPU-s (tsdb)",
            "wait p99 s",
        ],
    );
    for t in &report.tiers {
        table.row(vec![
            t.tier.clone(),
            t.admitted.to_string(),
            t.rejected_rate_limited.to_string(),
            t.preempted_as_victim.to_string(),
            f1(t.gpu_seconds),
            f1(t.gpu_seconds_tsdb),
            f1(t.admission_wait_p99),
        ]);
    }
    println!("{}", table.render());
    println!(
        "tenants touched: {} | submitted {} = admitted {} + rejected {} (auth {} / rate {} / full {}) + queued",
        report.tenants_touched,
        report.submitted,
        report.admitted,
        report.rejected_auth + report.rejected_rate + report.rejected_queue_full,
        report.rejected_auth,
        report.rejected_rate,
        report.rejected_queue_full,
    );
    println!(
        "queue peak {} | re-admitted {} | preemptions {} | billed tenants {} | {} events in {}s wall",
        report.queued_peak,
        report.admitted_from_queue,
        report.preemptions,
        report.billing_tenants,
        report.events,
        f1(report.wall_secs),
    );

    append_to_file(&out, "gateway", &to_json(&report));

    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("all gateway invariants held");
}
