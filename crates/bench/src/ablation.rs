//! Ablations of KubeShare's design choices (beyond the paper's figures).
//!
//! * **Placement rule** (paper §4.3 chooses best-fit on label-free devices
//!   and worst-fit on affinity devices): compare best-fit vs worst-fit vs
//!   first-fit packing on a demand stream — best-fit should hold fewer
//!   GPUs.
//! * **Pool policy** (paper §4.4 chooses on-demand): compare on-demand vs
//!   reservation on a bursty workload — reservation trades held-idle GPU
//!   time for much faster second-wave creation.

use std::cmp::Reverse;

use ks_cluster::api::Uid;
use ks_sim_core::rng::SimRng;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_vgpu::{ShareSpec, VgpuConfig};
use ks_workloads::job::JobKind;
use kubeshare::locality::Locality;
use kubeshare::pool::{units, VgpuPool};
use kubeshare::system::{KsConfig, PoolPolicy};

use crate::harness::jobs::JobSpec;
use crate::harness::ks_world::KsHarness;
use crate::report::{f3, Table};

/// A pure-packing placement rule under ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementRule {
    /// Tightest remaining fit (KubeShare's rule for label-free devices).
    BestFit,
    /// Loosest remaining fit.
    WorstFit,
    /// First device that fits, in id order.
    FirstFit,
}

/// Packs a demand stream into vGPUs with the given rule; returns the
/// number of devices used.
pub fn pack(rule: PlacementRule, demands: &[f64]) -> usize {
    let mut pool = VgpuPool::new();
    for (i, &d) in demands.iter().enumerate() {
        let need = units(d);
        let candidates: Vec<_> = pool
            .devices()
            .filter(|dev| dev.fits((need, need)))
            .map(|dev| (dev.id.clone(), dev.util_free))
            .collect();
        let chosen = match rule {
            PlacementRule::BestFit => candidates
                .iter()
                .min_by_key(|(id, free)| (free, id))
                .map(|(id, _)| id.clone()),
            PlacementRule::WorstFit => candidates
                .iter()
                .max_by_key(|(id, free)| (free, Reverse(id)))
                .map(|(id, _)| id.clone()),
            PlacementRule::FirstFit => candidates.first().map(|(id, _)| id.clone()),
        };
        let id = chosen.unwrap_or_else(|| {
            let id = pool.fresh_id();
            pool.insert_creating(id.clone());
            pool.mark_ready(&id, "n".into(), format!("GPU-{i}"));
            id
        });
        pool.attach(&id, Uid(i as u64 + 1), d, d, None, None, None);
    }
    pool.len()
}

/// Placement ablation over a reproducible demand stream.
pub fn placement_ablation(jobs: usize, seed: u64) -> Vec<(PlacementRule, usize)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let demands: Vec<f64> = (0..jobs)
        .map(|_| rng.normal_clamped(0.3, 0.15, 0.05, 0.9))
        .collect();
    [
        PlacementRule::BestFit,
        PlacementRule::WorstFit,
        PlacementRule::FirstFit,
    ]
    .into_iter()
    .map(|r| (r, pack(r, &demands)))
    .collect()
}

/// Pool-policy ablation result.
#[derive(Debug, Clone, Copy)]
pub struct PoolAblation {
    /// Mean creation latency of the second wave (s).
    pub second_wave_creation: f64,
    /// GPUs still held by KubeShare between the waves.
    pub held_between_waves: usize,
}

/// Runs two waves of whole-GPU sharePods separated by an idle gap and
/// measures the reservation-vs-on-demand tradeoff (paper §4.4).
pub fn pool_policy_ablation(policy: PoolPolicy, wave: u32) -> PoolAblation {
    let mut h = KsHarness::new(
        crate::harness::cluster_config(2, 2),
        KsConfig {
            pool_policy: policy,
            ..KsConfig::default()
        },
        VgpuConfig::default(),
    );
    let mut rng = SimRng::seed_from_u64(17);
    let tiny = |name: String, arrival: SimTime| JobSpec {
        name,
        kind: JobKind::Training {
            steps: 1,
            kernel: SimDuration::from_millis(10),
            duty: 1.0,
        },
        share: ShareSpec::exclusive(),
        locality: Locality::none(),
        arrival,
    };
    for i in 0..wave {
        h.add_job(tiny(format!("w1-{i}"), SimTime::ZERO), rng.fork());
    }
    // Wave 1 finishes well before 60 s; check held GPUs at 60 s.
    h.run_until(SimTime::from_secs(60));
    let held_between_waves = h.eng.world.ks.pool().len();
    let second_at = SimTime::from_secs(90);
    for i in 0..wave {
        h.add_job(tiny(format!("w2-{i}"), second_at), rng.fork());
    }
    h.run(100_000_000);
    let creation: Vec<f64> = h
        .eng
        .world
        .jobs
        .iter()
        .filter(|j| j.spec.arrival == second_at)
        .map(|j| j.started.unwrap().saturating_since(second_at).as_secs_f64())
        .collect();
    PoolAblation {
        second_wave_creation: creation.iter().sum::<f64>() / creation.len() as f64,
        held_between_waves,
    }
}

/// Renders both ablations.
pub fn report() -> Table {
    let mut t = Table::new(
        "Ablations — placement rule (devices used) & pool policy (2nd-wave creation)",
        &["experiment", "variant", "value"],
    );
    for (rule, used) in placement_ablation(200, 3) {
        t.row(vec![
            "placement (200 jobs)".into(),
            format!("{rule:?}"),
            used.to_string(),
        ]);
    }
    for (name, policy) in [
        ("OnDemand", PoolPolicy::OnDemand),
        ("Reservation(4)", PoolPolicy::Reservation { max_idle: 4 }),
        (
            "Hybrid(4, 60s)",
            PoolPolicy::Hybrid {
                max_idle: 4,
                idle_ttl: SimDuration::from_secs(60),
            },
        ),
    ] {
        let r = pool_policy_ablation(policy, 4);
        t.row(vec![
            "pool policy: 2nd-wave creation (s)".into(),
            name.into(),
            f3(r.second_wave_creation),
        ]);
        t.row(vec![
            "pool policy: GPUs held while idle".into(),
            name.into(),
            r.held_between_waves.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_fit_uses_fewest_devices() {
        let results = placement_ablation(300, 11);
        let by_rule = |r: PlacementRule| results.iter().find(|(x, _)| *x == r).unwrap().1;
        assert!(by_rule(PlacementRule::BestFit) <= by_rule(PlacementRule::FirstFit));
        assert!(by_rule(PlacementRule::BestFit) < by_rule(PlacementRule::WorstFit));
    }

    #[test]
    fn hybrid_interpolates_between_the_extremes() {
        // The first wave goes idle a few seconds in; the second arrives at
        // t = 90 s. A TTL longer than that gap behaves like reservation…
        let long_ttl = pool_policy_ablation(
            PoolPolicy::Hybrid {
                max_idle: 4,
                idle_ttl: SimDuration::from_secs(120),
            },
            3,
        );
        let reservation = pool_policy_ablation(PoolPolicy::Reservation { max_idle: 4 }, 3);
        assert!(
            (long_ttl.second_wave_creation - reservation.second_wave_creation).abs() < 0.2,
            "hybrid within TTL ≈ reservation: {} vs {}",
            long_ttl.second_wave_creation,
            reservation.second_wave_creation
        );
        assert!(long_ttl.held_between_waves >= 3);

        // …while a TTL shorter than the gap behaves like on-demand.
        let short_ttl = pool_policy_ablation(
            PoolPolicy::Hybrid {
                max_idle: 4,
                idle_ttl: SimDuration::from_secs(20),
            },
            3,
        );
        let on_demand = pool_policy_ablation(PoolPolicy::OnDemand, 3);
        assert!(
            (short_ttl.second_wave_creation - on_demand.second_wave_creation).abs() < 0.2,
            "hybrid past TTL ≈ on-demand: {} vs {}",
            short_ttl.second_wave_creation,
            on_demand.second_wave_creation
        );
    }

    #[test]
    fn reservation_speeds_up_second_wave_but_holds_gpus() {
        let on_demand = pool_policy_ablation(PoolPolicy::OnDemand, 3);
        let reservation = pool_policy_ablation(PoolPolicy::Reservation { max_idle: 4 }, 3);
        assert_eq!(on_demand.held_between_waves, 0, "on-demand releases");
        assert!(reservation.held_between_waves >= 3, "reservation holds");
        assert!(
            reservation.second_wave_creation < 0.7 * on_demand.second_wave_creation,
            "reservation must be much faster: {} vs {}",
            reservation.second_wave_creation,
            on_demand.second_wave_creation
        );
    }
}
