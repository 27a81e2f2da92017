//! Differential oracle for the substrate axis (DESIGN.md §14): a
//! `Substrate::TimeSlice` workload routed through [`schedule_substrate`]
//! must be **decision-identical** to the pre-substrate scheduler
//! ([`schedule_with`]) on any pool state and request stream — adding the
//! spatial subsystem cannot perturb a single time-slice placement.
//!
//! Two layers:
//!
//! 1. proptest streams — interleavings of schedule/attach/detach/
//!    mark_ready/mark_releasing/remove driven through both entry points,
//!    asserting per-step decision equality and final pool-bit equality;
//! 2. a fixed-seed LCG oracle (same cases on every CI run) that
//!    additionally seeds the pool with *populated spatial devices* —
//!    including one carrying a colliding affinity label — and checks the
//!    time-slice decision stream cannot see them.

use ks_cluster::api::Uid;
use kubeshare::algorithm::{schedule_substrate, schedule_with, Decision, SchedMode, SchedRequest};
use kubeshare::gpuid::GpuId;
use kubeshare::locality::Locality;
use kubeshare::pool::{VgpuPhase, VgpuPool};
use kubeshare::{Profile, Substrate};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GenReq {
    util: f64,
    mem: f64,
    aff: Option<u8>,
    anti: Option<u8>,
    excl: Option<u8>,
}

fn frac() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (0usize..7).prop_map(|i| [0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9][i]),
        1 => 0.0f64..0.95,
    ]
}

fn gen_req() -> impl Strategy<Value = GenReq> {
    (
        frac(),
        frac(),
        proptest::option::weighted(0.25, 0u8..3),
        proptest::option::weighted(0.25, 0u8..3),
        proptest::option::weighted(0.25, 0u8..2),
    )
        .prop_map(|(util, mem, aff, anti, excl)| GenReq {
            util,
            mem,
            aff,
            anti,
            excl,
        })
}

#[derive(Debug, Clone)]
enum Op {
    Submit(GenReq),
    Detach(u8),
    Ready(u8),
    Release(u8),
    Remove(u8),
}

fn gen_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => gen_req().prop_map(Op::Submit),
        2 => any::<u8>().prop_map(Op::Detach),
        1 => any::<u8>().prop_map(Op::Ready),
        1 => any::<u8>().prop_map(Op::Release),
        1 => any::<u8>().prop_map(Op::Remove),
    ]
}

fn locality(r: &GenReq) -> Locality {
    let mut loc = Locality::none();
    if let Some(a) = r.aff {
        loc = loc.with_affinity(format!("aff-{a}"));
    }
    if let Some(a) = r.anti {
        loc = loc.with_anti_affinity(format!("anti-{a}"));
    }
    if let Some(e) = r.excl {
        loc = loc.with_exclusion(format!("excl-{e}"));
    }
    loc
}

fn sched_request(r: &GenReq) -> SchedRequest {
    SchedRequest {
        util: r.util,
        mem: r.mem,
        locality: locality(r),
    }
}

/// Which entry point schedules `Submit` ops: the pre-substrate scheduler,
/// or the substrate dispatcher pinned to `TimeSlice`.
#[derive(Clone, Copy)]
enum Path {
    Plain(SchedMode),
    TimeSliceSubstrate(SchedMode),
}

fn apply(pool: &mut VgpuPool, uid: Uid, r: &GenReq, decision: &Decision) {
    let loc = locality(r);
    let id = match decision {
        Decision::Assign(id) => id.clone(),
        Decision::NewDevice(id) => {
            pool.insert_creating(id.clone());
            id.clone()
        }
        Decision::Reject(_) => return,
        Decision::Reconfigure(_) => unreachable!("time-slice path proposed a reconfigure"),
    };
    pool.attach(
        &id,
        uid,
        r.util,
        r.mem,
        loc.affinity.as_deref(),
        loc.anti_affinity.as_deref(),
        loc.exclusion.as_deref(),
    );
}

/// Drives one op against a pool via the given path. Victim selection for
/// the non-submit ops filters spatial devices out explicitly, so a pool
/// seeded with spatial devices sees the same mutation stream as one
/// without them.
fn step(
    pool: &mut VgpuPool,
    live: &mut Vec<(Uid, GpuId)>,
    next_uid: &mut u64,
    path: Path,
    op: &Op,
) -> Option<Decision> {
    match op {
        Op::Submit(r) => {
            let req = sched_request(r);
            let decision = match path {
                Path::Plain(mode) => schedule_with(mode, &req, pool),
                Path::TimeSliceSubstrate(mode) => {
                    schedule_substrate(mode, Substrate::TimeSlice, &req, pool)
                }
            };
            *next_uid += 1;
            let uid = Uid(*next_uid);
            apply(pool, uid, r, &decision);
            if let Decision::Assign(id) | Decision::NewDevice(id) = &decision {
                live.push((uid, id.clone()));
            }
            Some(decision)
        }
        Op::Detach(k) => {
            if !live.is_empty() {
                let (uid, id) = live.remove(*k as usize % live.len());
                pool.detach(&id, uid);
            }
            None
        }
        Op::Ready(k) => {
            let creating: Vec<GpuId> = pool
                .devices()
                .filter(|d| d.phase == VgpuPhase::Creating && !d.releasing && !d.is_spatial())
                .map(|d| d.id.clone())
                .collect();
            if !creating.is_empty() {
                let id = creating[*k as usize % creating.len()].clone();
                pool.mark_ready(&id, format!("node-{}", k % 4), format!("GPU-{id}"));
            }
            None
        }
        Op::Release(k) => {
            let idle: Vec<GpuId> = pool
                .devices()
                .filter(|d| d.attached.is_empty() && !d.releasing && !d.is_spatial())
                .map(|d| d.id.clone())
                .collect();
            if !idle.is_empty() {
                let id = idle[*k as usize % idle.len()].clone();
                pool.mark_releasing(&id);
            }
            None
        }
        Op::Remove(k) => {
            let releasing: Vec<GpuId> = pool
                .devices()
                .filter(|d| d.releasing)
                .map(|d| d.id.clone())
                .collect();
            if !releasing.is_empty() {
                let id = releasing[*k as usize % releasing.len()].clone();
                pool.remove(&id);
            }
            None
        }
    }
}

/// Asserts the time-slice devices of two pools are bit-identical
/// (spatial devices, present in at most one pool, are skipped).
fn assert_time_slice_devices_identical(a: &VgpuPool, b: &VgpuPool) {
    let da: Vec<_> = a.devices().filter(|d| !d.is_spatial()).collect();
    let db: Vec<_> = b.devices().filter(|d| !d.is_spatial()).collect();
    assert_eq!(da.len(), db.len(), "pool sizes diverged");
    for (x, y) in da.iter().zip(&db) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.util_free, y.util_free, "{}", x.id);
        assert_eq!(x.mem_free, y.mem_free, "{}", x.id);
        assert_eq!(x.aff, y.aff);
        assert_eq!(x.anti_aff, y.anti_aff);
        assert_eq!(x.excl, y.excl);
        assert_eq!(x.attached, y.attached);
        assert_eq!(x.phase, y.phase);
        assert_eq!(x.releasing, y.releasing);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The oracle: over any interleaving and both fixed scheduler modes,
    /// `schedule_substrate(TimeSlice)` equals `schedule_with` per step.
    #[test]
    fn time_slice_substrate_matches_plain_per_step(
        ops in proptest::collection::vec(gen_op(), 1..80),
    ) {
        for mode in [SchedMode::Reference, SchedMode::Indexed] {
            let mut plain_pool = VgpuPool::new();
            let mut sub_pool = VgpuPool::new();
            let (mut plain_live, mut sub_live) = (Vec::new(), Vec::new());
            let (mut plain_uid, mut sub_uid) = (0u64, 0u64);
            for (i, op) in ops.iter().enumerate() {
                let d_plain =
                    step(&mut plain_pool, &mut plain_live, &mut plain_uid, Path::Plain(mode), op);
                let d_sub = step(
                    &mut sub_pool,
                    &mut sub_live,
                    &mut sub_uid,
                    Path::TimeSliceSubstrate(mode),
                    op,
                );
                prop_assert_eq!(&d_plain, &d_sub, "divergence at op {} ({:?})", i, op);
            }
            assert_time_slice_devices_identical(&plain_pool, &sub_pool);
            sub_pool.verify_indexes().unwrap();
        }
    }
}

// ---- fixed-seed oracle ----

/// Deterministic LCG (Knuth MMIX constants): same cases forever, no
/// proptest seed plumbing.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn frac(&mut self) -> f64 {
        const CHOICES: [f64; 7] = [0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9];
        if self.next().is_multiple_of(5) {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 0.95
        } else {
            CHOICES[self.next() as usize % CHOICES.len()]
        }
    }

    fn label(&mut self, p_num: u64, p_den: u64, alphabet: u8) -> Option<u8> {
        (self.next() % p_den < p_num).then(|| (self.next() % alphabet as u64) as u8)
    }

    fn op(&mut self) -> Op {
        match self.next() % 10 {
            0..=4 => Op::Submit(GenReq {
                util: self.frac(),
                mem: self.frac(),
                aff: self.label(1, 4, 3),
                anti: self.label(1, 4, 3),
                excl: self.label(1, 4, 2),
            }),
            5 | 6 => Op::Detach((self.next() % 256) as u8),
            7 => Op::Ready((self.next() % 256) as u8),
            8 => Op::Release((self.next() % 256) as u8),
            _ => Op::Remove((self.next() % 256) as u8),
        }
    }
}

/// Seeds `pool` with populated spatial devices under explicit names (so
/// the shared `next_id` counter — and with it every `NewDevice` id — is
/// untouched). One tenant carries the affinity label `aff-0`, straight
/// from the generator's alphabet: if the time-slice affinity step could
/// see spatial devices, this collision would reroute whole groups.
fn seed_spatial(pool: &mut VgpuPool) {
    let specs: [(&str, Profile, Option<&str>); 3] = [
        ("mig-a", Profile::P4, Some("aff-0")),
        ("mig-b", Profile::P2, None),
        ("mig-c", Profile::P7, None),
    ];
    for (i, (name, profile, aff)) in specs.iter().enumerate() {
        let id = GpuId::named(*name);
        pool.insert_creating_spatial(id.clone());
        pool.mark_ready(&id, format!("node-{}", i % 2), format!("GPU-{id}"));
        pool.attach_slice(
            &id,
            Uid(9_000 + i as u64),
            *profile,
            profile.frac(),
            profile.frac(),
            *aff,
            None,
            None,
        )
        .expect("fresh table places its profile");
    }
    assert_eq!(pool.spatial_count(), 3);
}

/// 500 fixed cases per mode; the substrate pool additionally carries live
/// spatial devices the whole way through. Zero divergence tolerated.
#[test]
fn fixed_seed_oracle_spatial_devices_invisible_to_time_slice() {
    let mut rng = Lcg(0x4b756265_53686172 ^ 0x14); // §14
    for mode in [SchedMode::Reference, SchedMode::Indexed] {
        for case in 0..500 {
            let n_ops = 10 + (rng.next() % 50) as usize;
            let ops: Vec<Op> = (0..n_ops).map(|_| rng.op()).collect();
            let mut plain_pool = VgpuPool::new();
            let mut sub_pool = VgpuPool::new();
            seed_spatial(&mut sub_pool);
            let (mut plain_live, mut sub_live) = (Vec::new(), Vec::new());
            let (mut plain_uid, mut sub_uid) = (0u64, 0u64);
            for (i, op) in ops.iter().enumerate() {
                let d_plain = step(
                    &mut plain_pool,
                    &mut plain_live,
                    &mut plain_uid,
                    Path::Plain(mode),
                    op,
                );
                let d_sub = step(
                    &mut sub_pool,
                    &mut sub_live,
                    &mut sub_uid,
                    Path::TimeSliceSubstrate(mode),
                    op,
                );
                assert_eq!(
                    d_plain, d_sub,
                    "mode {mode:?} case {case} diverged at op {i} ({op:?})"
                );
            }
            assert_time_slice_devices_identical(&plain_pool, &sub_pool);
            sub_pool.verify_indexes().unwrap();
            // The spatial tenants never moved.
            for name in ["mig-a", "mig-b", "mig-c"] {
                let d = sub_pool.get(&GpuId::named(name)).expect("still resident");
                assert_eq!(d.attached.len(), 1, "{name} lost or gained a tenant");
            }
        }
    }
}

// ---- provenance mode axis (DESIGN.md §15) ----
//
// The substrate dispatcher must also be recorder-transparent: routing
// TimeSlice work through `schedule_substrate_prov` with a live flight
// recorder is decision- and pool-bit-identical to the uninstrumented
// dispatcher, even with populated spatial devices in the pool.

mod recorder_axis {
    use super::*;
    use ks_sim_core::time::SimTime;
    use ks_telemetry::provenance::{DecisionKind, SchedProv};
    use ks_telemetry::FlightRecorder;
    use kubeshare::algorithm::{outcome_of, schedule_substrate_prov};

    /// `step` for the substrate path with provenance capture wired in.
    fn step_recorded(
        pool: &mut VgpuPool,
        live: &mut Vec<(Uid, GpuId)>,
        next_uid: &mut u64,
        mode: SchedMode,
        rec: &FlightRecorder,
        prov: &mut SchedProv,
        op: &Op,
    ) -> Option<Decision> {
        let Op::Submit(r) = op else {
            return step(pool, live, next_uid, Path::TimeSliceSubstrate(mode), op);
        };
        let req = sched_request(r);
        let decision = schedule_substrate_prov(mode, Substrate::TimeSlice, &req, pool, prov);
        *next_uid += 1;
        let uid = Uid(*next_uid);
        apply(pool, uid, r, &decision);
        let outcome = outcome_of(&decision, prov);
        rec.record_scratch(
            SimTime::ZERO,
            uid.0,
            0,
            DecisionKind::Schedule,
            outcome,
            prov,
        );
        if let Decision::Assign(id) | Decision::NewDevice(id) = &decision {
            live.push((uid, id.clone()));
        }
        Some(decision)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Recorder-on substrate scheduling equals recorder-off per step
        /// in both modes; final time-slice devices are bit-identical.
        #[test]
        fn substrate_recorder_on_matches_off(
            ops in proptest::collection::vec(gen_op(), 1..80),
        ) {
            for mode in [SchedMode::Reference, SchedMode::Indexed] {
                let mut off_pool = VgpuPool::new();
                let mut on_pool = VgpuPool::new();
                let (mut off_live, mut on_live) = (Vec::new(), Vec::new());
                let (mut off_uid, mut on_uid) = (0u64, 0u64);
                let rec = FlightRecorder::with_capacity(128);
                let mut prov = SchedProv::for_recorder(&rec);
                for (i, op) in ops.iter().enumerate() {
                    let d_off = step(
                        &mut off_pool,
                        &mut off_live,
                        &mut off_uid,
                        Path::TimeSliceSubstrate(mode),
                        op,
                    );
                    let d_on = step_recorded(
                        &mut on_pool,
                        &mut on_live,
                        &mut on_uid,
                        mode,
                        &rec,
                        &mut prov,
                        op,
                    );
                    prop_assert_eq!(&d_off, &d_on, "divergence at op {} ({:?})", i, op);
                }
                assert_time_slice_devices_identical(&off_pool, &on_pool);
                on_pool.verify_indexes().unwrap();
                let submits = ops.iter().filter(|o| matches!(o, Op::Submit(_))).count();
                prop_assert_eq!(rec.recorded(), submits as u64);
            }
        }
    }
}
