//! Fig. 8: system throughput of KubeShare vs native Kubernetes under
//! varied workload patterns (§5.3) on the 8-node / 32-GPU testbed.
//!
//! Workloads are TF-Serving inference jobs with Poisson arrivals and
//! normally distributed GPU demand. Three sweeps:
//!
//! * **(a)** job frequency factor — Kubernetes saturates near 50 jobs/min
//!   (32 GPUs / 40 s per job) around factor 3; KubeShare keeps scaling to
//!   ≈2–3× that;
//! * **(b)** demand mean 10–60 % — Kubernetes is agnostic; KubeShare's
//!   advantage shrinks as demand grows (no pairs fit past 50 %);
//! * **(c)** demand variance — neither system is sensitive.

use ks_sim_core::rng::SimRng;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_vgpu::VgpuConfig;
use ks_workloads::generator::{generate, GeneratedJob, JobSizing, WorkloadParams};
use kubeshare::locality::Locality;
use kubeshare::system::KsConfig;

use crate::harness::jobs::JobSpec;
use crate::harness::ks_world::KsHarness;
use crate::harness::native_world::NativeHarness;
use crate::report::{f1, f3, Table};

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Jobs per run.
    pub jobs: u32,
    /// Standalone wall duration of every job.
    pub duration: SimDuration,
    /// Base mean inter-arrival time (frequency factor 1).
    pub base_interarrival: SimDuration,
    /// Independent runs averaged per point (the paper uses 5).
    pub runs: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Cluster shape.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: u32,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            // Enough jobs that the saturated steady state dominates the
            // pipeline fill/drain phases in the makespan.
            jobs: 500,
            duration: SimDuration::from_secs(40),
            base_interarrival: SimDuration::from_secs_f64(3.6),
            runs: 3,
            seed: 42,
            nodes: 8,
            gpus_per_node: 4,
        }
    }
}

impl Fig8Config {
    /// A small configuration for fast tests.
    pub fn small() -> Self {
        Fig8Config {
            jobs: 40,
            duration: SimDuration::from_secs(20),
            base_interarrival: SimDuration::from_secs_f64(3.6),
            runs: 1,
            seed: 42,
            nodes: 2,
            gpus_per_node: 2,
        }
    }
}

/// One sweep point: throughput of both systems in jobs/minute.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Sweep variable value.
    pub x: f64,
    /// Native Kubernetes throughput.
    pub kubernetes: f64,
    /// KubeShare throughput.
    pub kubeshare: f64,
}

impl Point {
    /// KubeShare's improvement factor.
    pub fn speedup(&self) -> f64 {
        self.kubeshare / self.kubernetes
    }
}

fn workload(
    cfg: &Fig8Config,
    interarrival: SimDuration,
    mean: f64,
    std: f64,
    seed: u64,
) -> Vec<GeneratedJob> {
    generate(&WorkloadParams {
        jobs: cfg.jobs,
        mean_interarrival: interarrival,
        demand_mean: mean,
        demand_std: std,
        sizing: JobSizing::FixedDuration(cfg.duration),
        kernel: SimDuration::from_millis(20),
        seed,
    })
}

fn to_spec(j: &GeneratedJob) -> JobSpec {
    JobSpec {
        name: format!("inf-{}", j.index),
        kind: j.kind.clone(),
        share: j.share,
        locality: Locality::none(),
        arrival: j.arrival,
    }
}

/// Runs one workload on native Kubernetes; returns jobs/minute.
pub fn run_native(cfg: &Fig8Config, jobs: &[GeneratedJob], seed: u64) -> f64 {
    let mut h = NativeHarness::new(crate::harness::cluster_config(cfg.nodes, cfg.gpus_per_node));
    let mut rng = SimRng::seed_from_u64(seed ^ 0x6e61_7469_7665);
    for j in jobs {
        h.add_job(to_spec(j), rng.fork());
    }
    let outcome = h.run(200_000_000);
    assert_eq!(outcome, ks_sim_core::engine::RunOutcome::Drained);
    h.summary().jobs_per_minute.expect("all jobs complete")
}

/// Runs one workload on KubeShare; returns jobs/minute.
pub fn run_kubeshare(cfg: &Fig8Config, jobs: &[GeneratedJob], seed: u64) -> f64 {
    kubeshare_harness(cfg, jobs, seed)
        .summary()
        .jobs_per_minute
        .expect("all jobs complete")
}

/// Runs one workload on KubeShare to completion and returns the drained
/// harness: per-job start and finish times, and each GPU's token backend.
pub fn kubeshare_harness(cfg: &Fig8Config, jobs: &[GeneratedJob], seed: u64) -> KsHarness {
    let mut h = KsHarness::new(
        crate::harness::cluster_config(cfg.nodes, cfg.gpus_per_node),
        KsConfig::default(),
        VgpuConfig::default(),
    );
    let mut rng = SimRng::seed_from_u64(seed ^ 0x6b75_6265);
    for j in jobs {
        h.add_job(to_spec(j), rng.fork());
    }
    let outcome = h.run(200_000_000);
    assert_eq!(outcome, ks_sim_core::engine::RunOutcome::Drained);
    h
}

fn averaged_point(
    cfg: &Fig8Config,
    x: f64,
    interarrival: SimDuration,
    mean: f64,
    std: f64,
) -> Point {
    let mut k8s = 0.0;
    let mut ks = 0.0;
    for r in 0..cfg.runs {
        let seed = cfg.seed + r as u64 * 7919;
        let jobs = workload(cfg, interarrival, mean, std, seed);
        k8s += run_native(cfg, &jobs, seed);
        ks += run_kubeshare(cfg, &jobs, seed);
    }
    Point {
        x,
        kubernetes: k8s / cfg.runs as f64,
        kubeshare: ks / cfg.runs as f64,
    }
}

/// Fig. 8a — sweep the job-frequency factor.
pub fn sweep_frequency(cfg: &Fig8Config, factors: &[f64]) -> Vec<Point> {
    factors
        .iter()
        .map(|&f| {
            let interarrival = cfg.base_interarrival.mul_f64(1.0 / f);
            averaged_point(cfg, f, interarrival, 0.30, 0.10)
        })
        .collect()
}

/// Fig. 8b — sweep the mean of the demand distribution (at a load high
/// enough to saturate native Kubernetes; the paper uses a heavy workload).
pub fn sweep_mean(cfg: &Fig8Config, means: &[f64], frequency_factor: f64) -> Vec<Point> {
    let interarrival = cfg.base_interarrival.mul_f64(1.0 / frequency_factor);
    means
        .iter()
        .map(|&m| averaged_point(cfg, m, interarrival, m, 0.10))
        .collect()
}

/// Fig. 8c — sweep the demand standard deviation.
pub fn sweep_variance(cfg: &Fig8Config, stds: &[f64], frequency_factor: f64) -> Vec<Point> {
    let interarrival = cfg.base_interarrival.mul_f64(1.0 / frequency_factor);
    stds.iter()
        .map(|&s| averaged_point(cfg, s, interarrival, 0.30, s))
        .collect()
}

/// Renders one sweep.
pub fn report(title: &str, x_label: &str, points: &[Point]) -> Table {
    let mut t = Table::new(
        title,
        &[
            x_label,
            "Kubernetes (jobs/min)",
            "KubeShare (jobs/min)",
            "speedup",
        ],
    );
    for p in points {
        t.row(vec![
            f3(p.x),
            f1(p.kubernetes),
            f1(p.kubeshare),
            f3(p.speedup()),
        ]);
    }
    t
}

/// Sanity helper: arrival span of a workload (for throughput reasoning).
pub fn arrival_span(jobs: &[GeneratedJob]) -> SimTime {
    jobs.last().map(|j| j.arrival).unwrap_or(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The core Fig. 8 claim at test scale: under heavy load KubeShare
    /// clearly out-throughputs native Kubernetes; under light load they
    /// match.
    #[test]
    fn kubeshare_wins_under_heavy_load() {
        let cfg = Fig8Config::small();
        // Heavy: factor 8 on a 4-GPU cluster.
        let heavy = sweep_frequency(&cfg, &[8.0]).remove(0);
        assert!(
            heavy.speedup() > 1.5,
            "expected >1.5x speedup, got {} ({} vs {})",
            heavy.speedup(),
            heavy.kubeshare,
            heavy.kubernetes
        );
    }

    #[test]
    fn systems_match_under_light_load() {
        let cfg = Fig8Config::small();
        let light = sweep_frequency(&cfg, &[0.3]).remove(0);
        let ratio = light.speedup();
        assert!(
            (0.9..1.2).contains(&ratio),
            "light load should be arrival-limited for both: {ratio}"
        );
    }

    #[test]
    fn high_demand_erases_the_advantage() {
        let cfg = Fig8Config::small();
        let pts = sweep_mean(&cfg, &[0.2, 0.65], 6.0);
        assert!(
            pts[0].speedup() > pts[1].speedup(),
            "advantage must shrink with demand: {pts:?}"
        );
        assert!(
            pts[1].speedup() < 1.35,
            "at 65% demand there is little sharing: {}",
            pts[1].speedup()
        );
    }
}
