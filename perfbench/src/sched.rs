//! `sched_small_pool` / `sched_large_pool`: Algorithm 1 and `VgpuPool`
//! alone. A seeded, pre-loaded pool (the `sched_scale` shape) and its
//! locality-labelled pending queue; one closed-loop caller drains the
//! queue one entry per `schedule_batch` call in the default `SchedMode`.

use std::time::Instant;

use ks_cluster::api::Uid;
use ks_sim_core::rng::SimRng;
use kubeshare::algorithm::{schedule_batch, BatchEntry, Decision, SchedMode, SchedRequest};
use kubeshare::locality::Locality;
use kubeshare::pool::VgpuPool;

use crate::ledger::{Ledger, Site};
use crate::rep::{ns_since, value, Rep};

/// The run shape.
#[derive(Debug, Clone)]
pub struct Config {
    /// Physical GPUs in the pre-built pool.
    pub gpus: usize,
    /// Pending sharePods in the queue.
    pub pods: usize,
    pub seed: u64,
}

/// The generated inputs: the pre-loaded pool and the pending queue.
pub struct Inputs {
    pub pool: VgpuPool,
    pub entries: Vec<BatchEntry>,
}

/// The `sched_scale` pool: devices 4 per node, 40% pre-loaded with one
/// to four tenants carrying affinity, anti-affinity and exclusion labels.
fn build_pool(gpus: usize, rng: &mut SimRng) -> VgpuPool {
    let mut pool = VgpuPool::new();
    let aff_groups = gpus / 20 + 1;
    let mut uid = 1_000_000_000u64;
    for i in 0..gpus {
        let id = pool.fresh_id();
        pool.insert_creating(id.clone());
        pool.mark_ready(&id, format!("node-{}", i / 4), format!("GPU-{i:05}"));
        if !rng.bernoulli(0.4) {
            continue;
        }
        let excl = rng
            .bernoulli(0.1)
            .then(|| format!("tenant-{}", rng.index(6)));
        for _ in 0..=rng.index(3) {
            let aff = rng
                .bernoulli(0.2)
                .then(|| format!("grp-{}", rng.index(aff_groups)));
            let anti = rng
                .bernoulli(0.15)
                .then(|| format!("class-{}", rng.index(8)));
            uid += 1;
            pool.attach(
                &id,
                Uid(uid),
                rng.uniform_range(0.02, 0.3),
                rng.uniform_range(0.02, 0.3),
                aff.as_deref(),
                anti.as_deref(),
                excl.as_deref(),
            );
        }
    }
    pool
}

/// The `sched_scale` queue, demands sized so it roughly packs the pool.
fn gen_entries(gpus: usize, pods: usize, rng: &mut SimRng) -> Vec<BatchEntry> {
    let aff_groups = gpus / 20 + 1;
    let cap = (2.4 * gpus as f64 / pods as f64).clamp(0.02, 0.45);
    (0..pods)
        .map(|i| {
            let mut loc = Locality::none();
            if rng.bernoulli(0.15) {
                loc = loc.with_affinity(format!("grp-{}", rng.index(aff_groups)));
            }
            if rng.bernoulli(0.15) {
                loc = loc.with_anti_affinity(format!("class-{}", rng.index(8)));
            }
            if rng.bernoulli(0.1) {
                loc = loc.with_exclusion(format!("tenant-{}", rng.index(6)));
            }
            BatchEntry {
                uid: Uid(i as u64 + 1),
                req: SchedRequest {
                    util: rng.uniform_range(0.0, cap),
                    mem: rng.uniform_range(0.0, cap),
                    locality: loc,
                },
            }
        })
        .collect()
}

/// Generates the inputs from the seed.
pub fn inputs(cfg: &Config) -> Inputs {
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ (cfg.gpus as u64).rotate_left(17));
    let pool = build_pool(cfg.gpus, &mut rng);
    let entries = gen_entries(cfg.gpus, cfg.pods, &mut rng);
    Inputs { pool, entries }
}

/// One repetition: generate the pool and queue (set-up), then drain the
/// queue one entry per call, timing each decision including its pool
/// update.
pub fn rep(cfg: &Config, traced: bool) -> (Rep, Vec<(Uid, Decision)>) {
    let mut lg = Ledger::new(traced);
    let setup = Instant::now();
    let inputs = inputs(cfg);
    let mut pool = inputs.pool.clone();
    let mut decisions = Vec::with_capacity(inputs.entries.len());
    let mut op_ns = Vec::with_capacity(inputs.entries.len());
    let setup_ns = ns_since(setup);

    let wall = Instant::now();
    for (i, e) in inputs.entries.iter().enumerate() {
        lg.seq = i as u64 + 1;
        let start = Instant::now();
        let mut d = schedule_batch(SchedMode::default(), std::slice::from_ref(e), &mut pool);
        let end = Instant::now();
        lg.count_call(Site::AlgorithmDecide);
        if lg.traced() {
            lg.record(Site::AlgorithmDecide, e.uid.0, start, end);
        }
        op_ns.push(end.duration_since(start).as_nanos() as u64);
        decisions.push(d.pop().expect("one decision per entry"));
    }
    let wall_ns = ns_since(wall);

    let mut rep = Rep::new(lg);
    rep.setup_ns = setup_ns;
    rep.wall_ns = wall_ns;
    rep.op_ns = op_ns;
    rep.attempted = decisions.len() as u64;
    let (mut assign, mut new_device, mut reject) = (0, 0, 0);
    for (_, d) in &decisions {
        match d {
            Decision::Assign(_) => assign += 1,
            Decision::NewDevice(_) => new_device += 1,
            Decision::Reject(_) | Decision::Reconfigure(_) => reject += 1,
        }
    }
    rep.ledger.set_count("algorithm.assign", assign);
    rep.ledger.set_count("algorithm.new_device", new_device);
    rep.ledger.set_count("algorithm.reject", reject);
    rep.sim = vec![
        value(
            "sim_reject_frac",
            "ratio",
            reject as f64 / decisions.len() as f64,
        ),
        value("sim_final_devices", "count", pool.len() as f64),
    ];
    rep.host.push(value(
        "decisions_per_s",
        "1/s",
        decisions.len() as f64 / (wall_ns as f64 / 1e9),
    ));
    (rep, decisions)
}

/// Entries where `ours` differs from either fixed implementation's
/// decision; a length mismatch counts every missing entry.
pub fn divergences(
    ours: &[(Uid, Decision)],
    reference: &[(Uid, Decision)],
    indexed: &[(Uid, Decision)],
) -> usize {
    let differing = ours
        .iter()
        .zip(reference)
        .zip(indexed)
        .filter(|((a, r), i)| a != r || a != i)
        .count();
    let longest = ours.len().max(reference.len()).max(indexed.len());
    let shortest = ours.len().min(reference.len()).min(indexed.len());
    differing + (longest - shortest)
}

/// Drains the whole queue with `Reference` and with `Indexed` on clones
/// of the pool, and counts the entries where `ours` differs.
pub fn check_against_reference(inputs: &Inputs, ours: &[(Uid, Decision)]) -> usize {
    let reference = schedule_batch(
        SchedMode::Reference,
        &inputs.entries,
        &mut inputs.pool.clone(),
    );
    let indexed = schedule_batch(
        SchedMode::Indexed,
        &inputs.entries,
        &mut inputs.pool.clone(),
    );
    divergences(ours, &reference, &indexed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kubeshare::gpuid::GpuId;

    #[test]
    fn a_flipped_decision_is_counted_as_failed() {
        let cfg = Config {
            gpus: 32,
            pods: 120,
            seed: 5,
        };
        let inputs = inputs(&cfg);
        let (_, mut ours) = rep(&cfg, false);
        assert_eq!(check_against_reference(&inputs, &ours), 0);
        let k = ours
            .iter()
            .position(|(_, d)| matches!(d, Decision::Assign(_)))
            .expect("some entry is assigned");
        ours[k].1 = Decision::NewDevice(GpuId::named("flipped"));
        assert_eq!(check_against_reference(&inputs, &ours), 1);
        ours.pop();
        assert_eq!(check_against_reference(&inputs, &ours), 2);
    }
}
