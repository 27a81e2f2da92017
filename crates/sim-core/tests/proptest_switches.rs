//! The vendored proptest's debugging switches, checked by running this
//! test binary's `probe` property in a child process:
//!
//! * `PROPTEST_VERBOSE=1` prints each case's number and inputs to stderr
//!   before the case runs, past the harness's output capture (the child
//!   runs without `--nocapture`), so a case that aborts the process (a
//!   stack overflow does not unwind) is still named;
//! * `PROPTEST_CASE=n` runs case `n` alone, numbered from 1 as the
//!   failure message counts, with the inputs it has in a full run.

use std::process::Command;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The property the switch tests run in a child process; on its own
    /// it runs five cases that always pass.
    #[test]
    fn probe(x in 0u64..1_000_000) {
        prop_assert!(x < 1_000_000);
    }
}

/// Runs `probe` alone in a child process under `envs` (and none of the
/// switches otherwise) and returns its stderr.
fn run_probe(envs: &[(&str, &str)]) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "probe", "--test-threads=1"])
        .env_remove("PROPTEST_CASES")
        .env_remove("PROPTEST_CASE")
        .env_remove("PROPTEST_VERBOSE")
        .envs(envs.iter().copied())
        .output()
        .expect("child test process");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "probe failed:\n{stderr}");
    stderr
}

/// The `(header, inputs)` pair printed for each case, in run order.
fn announced(stderr: &str) -> Vec<(&str, &str)> {
    let lines: Vec<&str> = stderr.lines().collect();
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.ends_with("running with inputs:"))
        .map(|(i, l)| (*l, lines[i + 1]))
        .collect()
}

#[test]
fn default_run_prints_no_case() {
    assert!(!run_probe(&[]).contains("proptest case"));
}

#[test]
fn verbose_announces_every_case_before_it_runs() {
    let stderr = run_probe(&[("PROPTEST_VERBOSE", "1")]);
    let cases = announced(&stderr);
    let headers: Vec<&str> = cases.iter().map(|(h, _)| *h).collect();
    let want: Vec<String> = (1..=5)
        .map(|n| format!("proptest case {n}/5 of probe running with inputs:"))
        .collect();
    assert_eq!(headers, want);
    assert!(cases.iter().all(|(_, inputs)| inputs.starts_with("  x = ")));
}

#[test]
fn single_case_runs_alone_with_its_full_run_inputs() {
    let full = run_probe(&[("PROPTEST_VERBOSE", "1")]);
    let one = run_probe(&[("PROPTEST_VERBOSE", "1"), ("PROPTEST_CASE", "3")]);
    assert_eq!(announced(&one), [announced(&full)[2]]);
}
