//! Property test: the pool's capacity indexes against brute force.
//!
//! Random op streams over every pool mutator — time-sliced and spatial
//! inserts, `mark_ready`, labelled `attach`, `attach_slice`, `detach`
//! (including the detach that leaves a device idle), `mark_releasing` and
//! `remove` — with demands drawn from a small set of fractions so equal
//! fit keys are common. After every op the maintained indexes must equal
//! a from-scratch rebuild (`verify_indexes`), and every index-backed query
//! must equal a filter-and-sort of `devices()`:
//!
//! * `plain_fit_range(x)`: unlabelled time-sliced devices with fit key
//!   `>= x`, by (key ascending, id ascending);
//! * `labeled_fit_range_desc(x)`: labelled ones, by (key descending, id
//!   ascending);
//! * `first_unattached`, `idle_devices` and `affinity_target`.
//!
//! The probe `x` is often an existing device's exact fit key, so the
//! inclusive bound is exercised. Runs the default case count;
//! `PROPTEST_CASES` overrides it.

mod pool_ops;

use kubeshare::gpuid::GpuId;
use kubeshare::pool::{PoolDevice, VgpuPhase, VgpuPool, FULL};
use pool_ops::{apply, gen_op, pick};
use proptest::prelude::*;

/// A probe bound in share units: an existing device's exact fit key
/// (picked by index) or a free value in `[0, 2.1]` GPUs.
fn gen_probe() -> impl Strategy<Value = (bool, usize, u32)> {
    (any::<bool>(), 0usize..64, 0..=2 * FULL + FULL / 10)
}

/// Time-sliced, schedulable devices with fit key `>= x` and the given
/// labelled-ness, in id order.
fn fit_candidates(pool: &VgpuPool, x: u32, labeled: bool) -> Vec<&PoolDevice> {
    pool.devices()
        .filter(|d| !d.releasing && !d.is_spatial())
        .filter(|d| d.aff.is_empty() != labeled && d.fit_key() >= x)
        .collect()
}

fn ids<'a>(devs: impl IntoIterator<Item = &'a PoolDevice>) -> Vec<GpuId> {
    devs.into_iter().map(|d| d.id.clone()).collect()
}

/// Every index-backed query against brute force over `devices()`.
fn check(pool: &VgpuPool, (exact, which, free): (bool, usize, u32)) {
    pool.verify_indexes().unwrap();
    let x = match pick(pool, which) {
        Some(id) if exact => pool.get(&id).unwrap().fit_key(),
        _ => free,
    };

    let mut asc = fit_candidates(pool, x, false);
    asc.sort_by(|a, b| a.fit_key().cmp(&b.fit_key()).then(a.id.cmp(&b.id)));
    assert_eq!(
        ids(pool.plain_fit_range(x)),
        ids(asc),
        "plain_fit_range({x})"
    );

    let mut desc = fit_candidates(pool, x, true);
    desc.sort_by(|a, b| b.fit_key().cmp(&a.fit_key()).then(a.id.cmp(&b.id)));
    assert_eq!(
        ids(pool.labeled_fit_range_desc(x)),
        ids(desc),
        "labeled_fit_range_desc({x})"
    );

    let time_sliced = || pool.devices().filter(|d| !d.releasing && !d.is_spatial());
    assert_eq!(
        pool.first_unattached(),
        time_sliced().find(|d| d.is_idle()).map(|d| &d.id)
    );
    let idle: Vec<&GpuId> = time_sliced()
        .filter(|d| d.phase == VgpuPhase::Idle)
        .map(|d| &d.id)
        .collect();
    assert_eq!(pool.idle_devices().collect::<Vec<_>>(), idle);
    for l in 0..3 {
        let label = format!("aff-{l}");
        assert_eq!(
            pool.affinity_target(&label),
            time_sliced()
                .find(|d| d.aff.contains(&label))
                .map(|d| &d.id),
            "affinity_target({label})"
        );
    }
}

proptest! {
    /// After every op of any stream, the indexes equal a rebuild and
    /// every index-backed query equals brute force.
    #[test]
    fn indexes_match_brute_force(
        ops in proptest::collection::vec((gen_op(), gen_probe()), 1..120),
    ) {
        let mut pool = VgpuPool::new();
        let mut next_uid = 0u64;
        for (op, probe) in &ops {
            apply(&mut pool, op, &mut next_uid);
            check(&pool, *probe);
        }
    }
}
