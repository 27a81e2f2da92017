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

use ks_cluster::api::Uid;
use ks_partition::Profile;
use kubeshare::gpuid::GpuId;
use kubeshare::pool::{PoolDevice, VgpuPhase, VgpuPool};
use proptest::prelude::*;

/// Demand fractions: few and dyadic, so fit keys collide exactly.
const FRACTIONS: [f64; 4] = [0.0, 0.125, 0.25, 0.5];

#[derive(Debug, Clone)]
enum Op {
    Insert {
        spatial: bool,
    },
    MarkReady {
        dev: usize,
        node: u8,
    },
    Attach {
        dev: usize,
        util: usize,
        mem: usize,
        aff: Option<u8>,
        anti: Option<u8>,
        excl: Option<u8>,
    },
    AttachSlice {
        dev: usize,
        profile: usize,
        aff: Option<u8>,
    },
    Detach {
        dev: usize,
        tenant: usize,
    },
    /// Detaches every tenant, so the last detach leaves the device idle.
    DetachAll {
        dev: usize,
    },
    Release {
        dev: usize,
    },
    Remove {
        dev: usize,
    },
}

fn label() -> impl Strategy<Value = Option<u8>> {
    proptest::option::weighted(0.4, 0u8..3)
}

fn gen_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<bool>().prop_map(|spatial| Op::Insert { spatial }),
        3 => (0usize..64, 0u8..3).prop_map(|(dev, node)| Op::MarkReady { dev, node }),
        8 => (0usize..64, 0usize..4, 0usize..4, label(), label(), label()).prop_map(
            |(dev, util, mem, aff, anti, excl)| Op::Attach {
                dev,
                util,
                mem,
                aff,
                anti,
                excl,
            }
        ),
        2 => (0usize..64, 0usize..Profile::ALL.len(), label())
            .prop_map(|(dev, profile, aff)| Op::AttachSlice { dev, profile, aff }),
        4 => (0usize..64, 0usize..8).prop_map(|(dev, tenant)| Op::Detach { dev, tenant }),
        1 => (0usize..64).prop_map(|dev| Op::DetachAll { dev }),
        1 => (0usize..64).prop_map(|dev| Op::Release { dev }),
        1 => (0usize..64).prop_map(|dev| Op::Remove { dev }),
    ]
}

/// A probe bound: an existing device's exact fit key (picked by index)
/// or a free value in `[0, 2.1]`.
fn gen_probe() -> impl Strategy<Value = (bool, usize, f64)> {
    (any::<bool>(), 0usize..64, 0.0f64..2.1)
}

fn lbl(prefix: &str, l: Option<u8>) -> Option<String> {
    l.map(|l| format!("{prefix}-{l}"))
}

/// The `n`-th device (mod pool size), if any.
fn pick(pool: &VgpuPool, n: usize) -> Option<GpuId> {
    let len = pool.len();
    (len > 0).then(|| pool.devices().nth(n % len).unwrap().id.clone())
}

fn apply(pool: &mut VgpuPool, op: &Op, next_uid: &mut u64) {
    match *op {
        Op::Insert { spatial } => {
            let id = pool.fresh_id();
            if spatial {
                pool.insert_creating_spatial(id);
            } else {
                pool.insert_creating(id);
            }
        }
        Op::MarkReady { dev, node } => {
            let Some(id) = pick(pool, dev) else { return };
            if pool.get(&id).unwrap().phase == VgpuPhase::Creating {
                pool.mark_ready(&id, format!("node-{node}"), format!("GPU-{id}"));
            }
        }
        Op::Attach {
            dev,
            util,
            mem,
            aff,
            anti,
            excl,
        } => {
            let Some(id) = pick(pool, dev) else { return };
            let d = pool.get(&id).unwrap();
            let (util, mem) = (FRACTIONS[util], FRACTIONS[mem]);
            if d.is_spatial() || d.releasing || d.util_free < util || d.mem_free < mem {
                return;
            }
            *next_uid += 1;
            pool.attach(
                &id,
                Uid(*next_uid),
                util,
                mem,
                lbl("aff", aff).as_deref(),
                lbl("anti", anti).as_deref(),
                lbl("excl", excl).as_deref(),
            );
        }
        Op::AttachSlice { dev, profile, aff } => {
            let Some(id) = pick(pool, dev) else { return };
            let d = pool.get(&id).unwrap();
            if !d.is_spatial() || d.releasing {
                return;
            }
            *next_uid += 1;
            // NoFit is a legal outcome; the indexes must not move then.
            let _ = pool.attach_slice(
                &id,
                Uid(*next_uid),
                Profile::ALL[profile],
                0.1,
                0.1,
                lbl("aff", aff).as_deref(),
                None,
                None,
            );
        }
        Op::Detach { dev, tenant } => {
            let Some(id) = pick(pool, dev) else { return };
            let d = pool.get(&id).unwrap();
            if d.attached.is_empty() {
                return;
            }
            let uid = *d.attached.keys().nth(tenant % d.attached.len()).unwrap();
            pool.detach(&id, uid);
        }
        Op::DetachAll { dev } => {
            let Some(id) = pick(pool, dev) else { return };
            let uids: Vec<Uid> = pool.get(&id).unwrap().attached.keys().copied().collect();
            for (i, uid) in uids.iter().enumerate() {
                assert_eq!(pool.detach(&id, *uid), i + 1 == uids.len());
            }
        }
        Op::Release { dev } => {
            let Some(id) = pick(pool, dev) else { return };
            let d = pool.get(&id).unwrap();
            if d.attached.is_empty() && !d.releasing {
                pool.mark_releasing(&id);
            }
        }
        Op::Remove { dev } => {
            let Some(id) = pick(pool, dev) else { return };
            if pool.get(&id).unwrap().attached.is_empty() {
                pool.remove(&id);
            }
        }
    }
}

/// Time-sliced, schedulable devices with fit key `>= x` and the given
/// labelled-ness, in id order.
fn fit_candidates(pool: &VgpuPool, x: f64, labeled: bool) -> Vec<&PoolDevice> {
    pool.devices()
        .filter(|d| !d.releasing && !d.is_spatial())
        .filter(|d| d.aff.is_empty() != labeled && d.fit_key() >= x)
        .collect()
}

fn ids<'a>(devs: impl IntoIterator<Item = &'a PoolDevice>) -> Vec<GpuId> {
    devs.into_iter().map(|d| d.id.clone()).collect()
}

/// Every index-backed query against brute force over `devices()`.
fn check(pool: &VgpuPool, (exact, which, free): (bool, usize, f64)) {
    pool.verify_indexes().unwrap();
    let x = match pick(pool, which) {
        Some(id) if exact => pool.get(&id).unwrap().fit_key(),
        _ => free,
    };

    let mut asc = fit_candidates(pool, x, false);
    asc.sort_by(|a, b| a.fit_key().total_cmp(&b.fit_key()).then(a.id.cmp(&b.id)));
    assert_eq!(
        ids(pool.plain_fit_range(x)),
        ids(asc),
        "plain_fit_range({x})"
    );

    let mut desc = fit_candidates(pool, x, true);
    desc.sort_by(|a, b| b.fit_key().total_cmp(&a.fit_key()).then(a.id.cmp(&b.id)));
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
