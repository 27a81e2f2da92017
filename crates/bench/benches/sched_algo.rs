//! Criterion bench for paper Fig. 11: Algorithm 1 scheduling time as a
//! function of the number of SharePods tracked in the vGPU pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ks_cluster::api::Uid;
use ks_sim_core::rng::SimRng;
use kubeshare::algorithm::{schedule, SchedRequest};
use kubeshare::locality::Locality;
use kubeshare::pool::{frac, VgpuPool};

fn build_pool(n: usize, seed: u64) -> VgpuPool {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pool = VgpuPool::new();
    let devices = n / 3 + 1;
    let ids: Vec<_> = (0..devices)
        .map(|i| {
            let id = pool.fresh_id();
            pool.insert_creating(id.clone());
            pool.mark_ready(&id, format!("node-{}", i % 8), format!("GPU-{i}"));
            id
        })
        .collect();
    for s in 0..n {
        let dev = &ids[s % devices];
        let request = 0.05 + 0.2 * rng.uniform();
        if frac(pool.get(dev).unwrap().util_free) < request + 0.05 {
            continue;
        }
        let aff = (s % 7 == 0).then(|| format!("grp-{}", s % 5));
        let anti = (s % 5 == 0).then(|| format!("noisy-{}", s % 3));
        pool.attach(
            dev,
            Uid(s as u64 + 1),
            request,
            request,
            aff.as_deref(),
            anti.as_deref(),
            None,
        );
    }
    pool
}

fn bench_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_scheduling_time");
    for &n in &[10usize, 50, 100, 500, 1000] {
        let mut pool = build_pool(n, 42);
        let req = SchedRequest {
            util: 0.15,
            mem: 0.15,
            locality: Locality::none().with_anti_affinity("noisy-1"),
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(schedule(std::hint::black_box(&req), &mut pool)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedule);
criterion_main!(benches);
