//! Append-only benchmark trajectories. Every `BENCH_*.json` file is one
//! document, `{"bench": <name>, "trajectory": [<run>, ...]}`. A bench
//! binary appends one run — its [`Stamp`] (`rev`, `host`) followed by the
//! bench's own payload fields — and keeps every earlier run as it is, so a
//! new measurement never overwrites an old one.

use std::path::{Path, PathBuf};

use serde::Serialize;
use serde_json::Value;

/// Where a trajectory point was measured: the source revision and the
/// host it ran on.
#[derive(Debug, Clone, Serialize)]
pub struct Stamp {
    /// `git rev-parse --short HEAD` of the working directory, with
    /// `-dirty` appended when tracked files other than the trajectory
    /// file differ from it; `"unknown"` outside a git checkout.
    pub rev: String,
    /// The measuring host.
    pub host: Host,
}

/// The host a trajectory point was measured on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Logical cores available to the process.
    pub cores: usize,
    /// CPU model name (`/proc/cpuinfo`), or `"unknown"`.
    pub cpu: String,
}

impl Stamp {
    /// Stamps a measurement taken now, from the current directory, whose
    /// run is appended to the trajectory file `out`.
    pub fn current(out: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            });
        Stamp {
            rev: revision(Path::new("."), out),
            host: Host {
                cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
                cpu: cpu.unwrap_or_else(|| "unknown".to_string()),
            },
        }
    }
}

/// The short revision of the git checkout at `dir`, `-dirty` when a
/// tracked file differs from `HEAD`. The trajectory file `out` does not
/// count: an earlier run in the same checkout appended to it, which
/// changes no measured code.
fn revision(dir: &Path, out: &Path) -> String {
    let git = |args: &[&str]| {
        let o = std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()?;
        o.status
            .success()
            .then(|| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    let top = PathBuf::from(git(&["rev-parse", "--show-toplevel"]).unwrap_or_default());
    let out = std::fs::canonicalize(out).ok();
    let changed = git(&["diff", "--name-only", "HEAD"]).unwrap_or_default();
    let dirty = changed.lines().any(|f| Some(top.join(f)) != out);
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// Appends one run to the `bench` trajectory and returns the new
/// document. The run is the stamp's `rev` and `host` followed by the
/// fields of `payload`, the text of a JSON object. `existing` is the
/// file's current text (`None` starts a new trajectory); earlier runs are
/// kept as they are. Errors if the text is not a `bench` trajectory.
pub fn append_json(
    existing: Option<&str>,
    bench: &str,
    stamp: &Stamp,
    payload: &str,
) -> Result<String, String> {
    let mut runs = match existing {
        None => Vec::new(),
        Some(text) => {
            let doc: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e:?}"))?;
            match (
                doc.field("bench").as_str(),
                doc.field("trajectory").as_array(),
            ) {
                (Some(name), Some(runs)) if name == bench => runs.to_vec(),
                _ => return Err(format!("not a {bench} trajectory")),
            }
        }
    };
    let Ok(Value::Map(fields)) = serde_json::from_str(payload) else {
        return Err("the payload is not a JSON object".to_string());
    };
    let mut run = vec![
        ("rev".to_string(), stamp.rev.to_value()),
        ("host".to_string(), stamp.host.to_value()),
    ];
    run.extend(fields);
    runs.push(Value::Map(run));
    let doc = Value::Map(vec![
        ("bench".to_string(), bench.to_value()),
        ("trajectory".to_string(), Value::Array(runs)),
    ]);
    Ok(serde_json::to_string_pretty(&doc).expect("serializable"))
}

/// Appends `payload` as one run to the `bench` trajectory in the file
/// `out` (created if missing), stamped from the current directory.
///
/// # Panics
/// Panics if `out` holds something other than a `bench` trajectory, or
/// cannot be written.
pub fn append_to_file(out: &str, bench: &str, payload: &str) {
    let existing = std::fs::read_to_string(out).ok();
    let stamp = Stamp::current(Path::new(out));
    let json = append_json(existing.as_deref(), bench, &stamp, payload)
        .unwrap_or_else(|e| panic!("appending to {out}: {e}"));
    std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("appended to {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> Stamp {
        Stamp {
            rev: "abc1234".to_string(),
            host: Host {
                cores: 2,
                cpu: "test cpu".to_string(),
            },
        }
    }

    #[test]
    fn runs_are_stamped_payloads_appended_in_order() {
        let first = append_json(None, "demo", &stamp(), "{\"n\": 1, \"x\": 0.5}").unwrap();
        let second = append_json(Some(&first), "demo", &stamp(), "{\"n\": 2}").unwrap();
        let doc: Value = serde_json::from_str(&second).unwrap();
        assert_eq!(doc.field("bench").as_str(), Some("demo"));
        let runs = doc.field("trajectory").as_array().unwrap();
        assert_eq!(runs.len(), 2);
        let first: Value = serde_json::from_str(&first).unwrap();
        assert_eq!(runs[0], first.field("trajectory")[0]);
        assert_eq!(runs[1].field("rev").as_str(), Some("abc1234"));
        assert_eq!(runs[1].field("host").field("cores").as_u64(), Some(2));
        assert_eq!(runs[1].field("n").as_u64(), Some(2));
        // Another bench's trajectory, a bare payload and a non-object
        // payload are refused.
        assert!(append_json(Some(&second), "other", &stamp(), "{}").is_err());
        assert!(append_json(Some("{\"n\": 1}"), "demo", &stamp(), "{}").is_err());
        assert!(append_json(None, "demo", &stamp(), "3").is_err());
    }

    #[test]
    fn appending_to_the_trajectory_keeps_the_stamp_clean() {
        let dir = std::env::temp_dir().join(format!("ks-stamp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            let ok = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(["-c", "user.name=t", "-c", "user.email=t@t"])
                .args(args)
                .status()
                .unwrap()
                .success();
            assert!(ok, "git {args:?}");
        };
        let (out, src) = (dir.join("BENCH_sched.json"), dir.join("src.rs"));
        std::fs::write(&out, "{}\n").unwrap();
        std::fs::write(&src, "fn main() {}\n").unwrap();
        git(&["init", "-q"]);
        git(&["add", "."]);
        git(&["commit", "-q", "-m", "init"]);
        let clean = revision(&dir, &out);
        assert!(!clean.ends_with("-dirty") && clean != "unknown", "{clean}");
        std::fs::write(&out, "{\"appended\": true}\n").unwrap();
        assert_eq!(revision(&dir, &out), clean);
        std::fs::write(&src, "fn main() { println!(); }\n").unwrap();
        assert_eq!(revision(&dir, &out), format!("{clean}-dirty"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
