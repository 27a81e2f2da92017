//! The pool-op alphabet shared by the pool property tests: a random
//! stream over every `VgpuPool` mutator — time-sliced and spatial
//! inserts, `mark_ready`, labelled `attach`, `attach_slice`, `detach`
//! (including the detach that leaves a device idle), `mark_releasing` and
//! `remove` — with demands drawn from a small set of fractions so equal
//! fit keys are common.

use ks_cluster::api::Uid;
use ks_partition::Profile;
use kubeshare::gpuid::GpuId;
use kubeshare::pool::{units, VgpuPhase, VgpuPool};
use proptest::prelude::*;

/// Demand fractions: few and dyadic, so fit keys collide exactly.
pub const FRACTIONS: [f64; 4] = [0.0, 0.125, 0.25, 0.5];

/// One pool mutation; `dev` picks a device by position (mod pool size).
#[derive(Debug, Clone)]
pub enum Op {
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

/// A label from a three-label alphabet, present 40% of the time.
pub fn label() -> impl Strategy<Value = Option<u8>> {
    proptest::option::weighted(0.4, 0u8..3)
}

/// Any pool op, weighted toward labelled attaches.
pub fn gen_op() -> impl Strategy<Value = Op> {
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

/// The label `{prefix}-{l}`, if any.
pub fn lbl(prefix: &str, l: Option<u8>) -> Option<String> {
    l.map(|l| format!("{prefix}-{l}"))
}

/// The `n`-th device (mod pool size), if any.
pub fn pick(pool: &VgpuPool, n: usize) -> Option<GpuId> {
    let len = pool.len();
    (len > 0).then(|| pool.devices().nth(n % len).unwrap().id.clone())
}

/// Applies `op`, skipping it when the pool state cannot take it (no such
/// device, no room, wrong substrate); uids come from `next_uid`.
pub fn apply(pool: &mut VgpuPool, op: &Op, next_uid: &mut u64) {
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
            if d.is_spatial() || d.releasing || !d.fits((units(util), units(mem))) {
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
