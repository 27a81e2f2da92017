//! Self-healing chaos soak: node crashes and degraded-vGPU faults against
//! the closed detection → remediation loop. Appends a run to the
//! `BENCH_remediation.json` trajectory ([`ks_bench::trajectory`]) and
//! exits non-zero if any acceptance bound fails: detection latency,
//! closed-vs-observe work, fault-free silence, decision identity with the
//! loop disabled, replay identity, or the flap-guard action budget.
//!
//! Usage: `remediation [--seed N] [--out PATH]` (default seed 7).

fn main() {
    let mut seed = 7u64;
    let mut out = String::from("BENCH_remediation.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--out" => {
                out = args.next().expect("--out takes a path");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let report = ks_bench::remediation::run(seed);
    println!("{}", ks_bench::remediation::report(&report).render());
    let payload = ks_bench::remediation::to_json(&report);
    ks_bench::trajectory::append_to_file(&out, "remediation", &payload);
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("all self-healing bounds held");
}
