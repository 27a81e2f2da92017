//! Differential test oracle: `SchedMode::Indexed` must make byte-identical
//! decisions to the paper-faithful `SchedMode::Reference` on any pool
//! state and request stream (DESIGN.md §10), and the pool's capacity
//! indexes must always equal a from-scratch rebuild.
//!
//! Three layers:
//!
//! 1. proptest streams — interleavings of schedule/attach/detach/
//!    mark_ready/mark_releasing/remove, asserting per-step decision
//!    equality and index consistency;
//! 2. batch oracle — `schedule_batch` decision vectors match across modes;
//! 3. a fixed-seed 1000-case oracle (no proptest shrink machinery, a
//!    plain LCG) so CI exercises the same cases on every run and fails on
//!    the first divergence.

use ks_cluster::api::Uid;
use kubeshare::algorithm::{
    schedule, schedule_batch, schedule_indexed, BatchEntry, Decision, SchedMode, SchedRequest,
};
use kubeshare::gpuid::GpuId;
use kubeshare::locality::Locality;
use kubeshare::pool::{VgpuPhase, VgpuPool};
use proptest::prelude::*;

/// A generated request. Demands are drawn mostly from a small discrete
/// set so fit-key ties actually happen (ties are where best-fit /
/// worst-fit tie-breaking can diverge); labels come from tiny alphabets
/// so affinity groups, anti-affinity conflicts, and tenant exclusions all
/// collide. `util == 0.0` with `mem > 0` is explicitly in range, and so
/// is a whole GPU (`1.0`), the most a device can hold.
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
        4 => (0usize..8).prop_map(|i| [0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0][i]),
        1 => 0.0f64..0.95,
    ]
}

/// A demand for a decision-only probe: `frac()`'s values plus one above
/// a whole GPU, which no device can hold.
fn probe_frac() -> impl Strategy<Value = f64> {
    prop_oneof![4 => frac(), 1 => Just(1.5)]
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

/// [`gen_req`] with [`probe_frac`] demands.
fn gen_probe() -> impl Strategy<Value = GenReq> {
    (probe_frac(), probe_frac(), gen_req()).prop_map(|(util, mem, r)| GenReq { util, mem, ..r })
}

/// One step of a pool-state interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a request through both modes; attach on success.
    Submit(GenReq),
    /// Detach the k-th (mod live count) attachment.
    Detach(u8),
    /// Mark the k-th creating device ready on node `node-{k % 4}`.
    Ready(u8),
    /// Mark the k-th unattached device releasing.
    Release(u8),
    /// Remove the k-th releasing device from the pool.
    Remove(u8),
    /// Decide a request through both modes without applying it, so its
    /// demand may exceed what any device can hold.
    Probe(GenReq),
}

fn gen_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => gen_req().prop_map(Op::Submit),
        2 => any::<u8>().prop_map(Op::Detach),
        1 => any::<u8>().prop_map(Op::Ready),
        1 => any::<u8>().prop_map(Op::Release),
        1 => any::<u8>().prop_map(Op::Remove),
        1 => gen_probe().prop_map(Op::Probe),
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

/// Applies a decision the way KubeShare-Sched binds it.
fn apply(pool: &mut VgpuPool, uid: Uid, r: &GenReq, decision: &Decision) {
    let loc = locality(r);
    let id = match decision {
        Decision::Assign(id) => id.clone(),
        Decision::NewDevice(id) => {
            pool.insert_creating(id.clone());
            id.clone()
        }
        Decision::Reject(_) => return,
        // Time-slice-only differential: neither mode reconfigures.
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

/// Runs Algorithm 1 for `r` in one mode.
fn decide(pool: &mut VgpuPool, mode: SchedMode, r: &GenReq) -> Decision {
    let req = sched_request(r);
    match mode {
        SchedMode::Reference => schedule(&req, pool),
        SchedMode::Indexed => schedule_indexed(&req, pool),
    }
}

/// Drives one op against a pool in a given mode. Returns the decision for
/// `Submit` and `Probe` ops so the caller can compare across modes. Non-submit ops
/// mutate deterministically from the pool's current state, so two pools
/// that have made identical decisions stay identical.
fn step(
    pool: &mut VgpuPool,
    live: &mut Vec<(Uid, GpuId)>,
    next_uid: &mut u64,
    mode: SchedMode,
    op: &Op,
) -> Option<Decision> {
    match op {
        Op::Submit(r) => {
            let decision = decide(pool, mode, r);
            *next_uid += 1;
            let uid = Uid(*next_uid);
            apply(pool, uid, r, &decision);
            if !matches!(decision, Decision::Reject(_)) {
                let id = match &decision {
                    Decision::Assign(id) | Decision::NewDevice(id) => id.clone(),
                    Decision::Reject(_) | Decision::Reconfigure(_) => unreachable!(),
                };
                live.push((uid, id));
            }
            Some(decision)
        }
        Op::Probe(r) => Some(decide(pool, mode, r)),
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
                .filter(|d| d.phase == VgpuPhase::Creating && !d.releasing)
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
                .filter(|d| d.attached.is_empty() && !d.releasing)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The oracle: over any interleaving, every decision the indexed
    /// scheduler makes equals the reference's, and both pools stay
    /// structurally identical.
    #[test]
    fn indexed_matches_reference_per_step(ops in proptest::collection::vec(gen_op(), 1..80)) {
        let mut ref_pool = VgpuPool::new();
        let mut idx_pool = VgpuPool::new();
        let (mut ref_live, mut idx_live) = (Vec::new(), Vec::new());
        let (mut ref_uid, mut idx_uid) = (0u64, 0u64);
        for (i, op) in ops.iter().enumerate() {
            let d_ref = step(&mut ref_pool, &mut ref_live, &mut ref_uid, SchedMode::Reference, op);
            let d_idx = step(&mut idx_pool, &mut idx_live, &mut idx_uid, SchedMode::Indexed, op);
            prop_assert_eq!(&d_ref, &d_idx, "divergence at op {} ({:?})", i, op);
        }
        // Identical decision streams must leave identical pools.
        prop_assert_eq!(ref_pool.len(), idx_pool.len());
        for (a, b) in ref_pool.devices().zip(idx_pool.devices()) {
            prop_assert_eq!(&a.id, &b.id);
            prop_assert_eq!(a.util_free, b.util_free);
            prop_assert_eq!(a.mem_free, b.mem_free);
            prop_assert_eq!(&a.aff, &b.aff);
        }
    }

    /// Index consistency: after any interleaving, the incrementally
    /// maintained capacity indexes equal a from-scratch rebuild.
    #[test]
    fn indexes_match_scratch_rebuild(ops in proptest::collection::vec(gen_op(), 1..80)) {
        let mut pool = VgpuPool::new();
        let mut live = Vec::new();
        let mut uid = 0u64;
        for op in &ops {
            step(&mut pool, &mut live, &mut uid, SchedMode::Indexed, op);
            if let Err(e) = pool.verify_indexes() {
                prop_assert!(false, "after {:?}: {}", op, e);
            }
        }
    }

    /// Batch oracle: draining a pending queue produces identical decision
    /// vectors in both modes.
    #[test]
    fn batch_decisions_match(reqs in proptest::collection::vec(gen_req(), 1..60)) {
        let entries: Vec<BatchEntry> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| BatchEntry { uid: Uid(i as u64 + 1), req: sched_request(r) })
            .collect();
        let mut ref_pool = VgpuPool::new();
        let mut idx_pool = VgpuPool::new();
        let ref_out = schedule_batch(SchedMode::Reference, &entries, &mut ref_pool);
        let idx_out = schedule_batch(SchedMode::Indexed, &entries, &mut idx_pool);
        prop_assert_eq!(ref_out, idx_out);
        idx_pool.verify_indexes().unwrap();
    }
}

// ---- fixed-seed oracle (runs the same 1000 cases on every CI run) ----

/// Deterministic LCG (Knuth MMIX constants) so the CI oracle needs no
/// proptest seed plumbing: same binary, same cases, forever.
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
        const CHOICES: [f64; 8] = [0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0];
        if self.next().is_multiple_of(5) {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 0.95
        } else {
            CHOICES[self.next() as usize % CHOICES.len()]
        }
    }

    /// [`probe_frac`]'s distribution.
    fn probe_frac(&mut self) -> f64 {
        if self.next().is_multiple_of(5) {
            1.5
        } else {
            self.frac()
        }
    }

    fn label(&mut self, p_num: u64, p_den: u64, alphabet: u8) -> Option<u8> {
        (self.next() % p_den < p_num).then(|| (self.next() % alphabet as u64) as u8)
    }

    fn op(&mut self) -> Op {
        match self.next() % 11 {
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
            9 => Op::Remove((self.next() % 256) as u8),
            _ => Op::Probe(GenReq {
                util: self.probe_frac(),
                mem: self.probe_frac(),
                aff: self.label(1, 4, 3),
                anti: self.label(1, 4, 3),
                excl: self.label(1, 4, 2),
            }),
        }
    }
}

#[test]
fn fixed_seed_oracle_1000_cases_zero_divergence() {
    let mut rng = Lcg(0x4b756265_53686172); // "KubeShar"
    let mut divergences = 0u32;
    for case in 0..1000 {
        let n_ops = 10 + (rng.next() % 60) as usize;
        let ops: Vec<Op> = (0..n_ops).map(|_| rng.op()).collect();
        let mut ref_pool = VgpuPool::new();
        let mut idx_pool = VgpuPool::new();
        let (mut ref_live, mut idx_live) = (Vec::new(), Vec::new());
        let (mut ref_uid, mut idx_uid) = (0u64, 0u64);
        for (i, op) in ops.iter().enumerate() {
            let d_ref = step(
                &mut ref_pool,
                &mut ref_live,
                &mut ref_uid,
                SchedMode::Reference,
                op,
            );
            let d_idx = step(
                &mut idx_pool,
                &mut idx_live,
                &mut idx_uid,
                SchedMode::Indexed,
                op,
            );
            if d_ref != d_idx {
                divergences += 1;
                eprintln!("case {case} op {i}: reference={d_ref:?} indexed={d_idx:?} ({op:?})");
                break;
            }
        }
        idx_pool
            .verify_indexes()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
    assert_eq!(divergences, 0, "indexed scheduler diverged from reference");
}

// ---- provenance mode axis (DESIGN.md §15) ----
//
// The flight recorder must be a pure observer: scheduling with a live
// recorder attached is decision- and pool-bit-identical to scheduling
// without one.

mod recorder_axis {
    use super::*;
    use ks_sim_core::time::SimTime;
    use ks_telemetry::provenance::{DecisionKind, SchedProv};
    use ks_telemetry::FlightRecorder;
    use kubeshare::algorithm::{outcome_of, schedule_with_prov};

    /// `step` with the decision path instrumented: a hoisted scratch
    /// collector feeding a live flight recorder, exactly as
    /// `schedule_batch_recorded` wires it. Non-submit ops are shared with
    /// the uninstrumented driver.
    fn step_recorded(
        pool: &mut VgpuPool,
        live: &mut Vec<(Uid, GpuId)>,
        next_uid: &mut u64,
        rec: &FlightRecorder,
        prov: &mut SchedProv,
        op: &Op,
    ) -> Option<Decision> {
        let Op::Submit(r) = op else {
            return step(pool, live, next_uid, SchedMode::Indexed, op);
        };
        let req = sched_request(r);
        let decision = schedule_with_prov(SchedMode::Indexed, &req, pool, prov);
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

    /// Asserts two pools are bit-identical, field by field.
    fn assert_pools_identical(a: &VgpuPool, b: &VgpuPool) {
        assert_eq!(a.len(), b.len(), "pool sizes diverged");
        for (x, y) in a.devices().zip(b.devices()) {
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

        /// Over any interleaving, recorder-on scheduling equals
        /// recorder-off per step, the final pools are bit-identical, and
        /// every submit left exactly one record.
        #[test]
        fn recorder_on_matches_recorder_off(
            ops in proptest::collection::vec(gen_op(), 1..80),
        ) {
            let mut off_pool = VgpuPool::new();
            let mut on_pool = VgpuPool::new();
            let (mut off_live, mut on_live) = (Vec::new(), Vec::new());
            let (mut off_uid, mut on_uid) = (0u64, 0u64);
            let rec = FlightRecorder::with_capacity(256);
            let mut prov = SchedProv::for_recorder(&rec);
            for (i, op) in ops.iter().enumerate() {
                let d_off =
                    step(&mut off_pool, &mut off_live, &mut off_uid, SchedMode::Indexed, op);
                let d_on =
                    step_recorded(&mut on_pool, &mut on_live, &mut on_uid, &rec, &mut prov, op);
                prop_assert_eq!(&d_off, &d_on, "divergence at op {} ({:?})", i, op);
            }
            assert_pools_identical(&off_pool, &on_pool);
            on_pool.verify_indexes().unwrap();
            let submits = ops.iter().filter(|o| matches!(o, Op::Submit(_))).count();
            prop_assert_eq!(rec.recorded(), submits as u64);
        }
    }

    /// Fixed-seed lane of the same axis: the CI-pinned cases replay with
    /// a live recorder and must not perturb a single decision.
    #[test]
    fn fixed_seed_oracle_recorder_axis_zero_divergence() {
        let mut rng = Lcg(0x4b756265_53686172 ^ 0x15); // §15
        for case in 0..300 {
            let n_ops = 10 + (rng.next() % 60) as usize;
            let ops: Vec<Op> = (0..n_ops).map(|_| rng.op()).collect();
            let mut off_pool = VgpuPool::new();
            let mut on_pool = VgpuPool::new();
            let (mut off_live, mut on_live) = (Vec::new(), Vec::new());
            let (mut off_uid, mut on_uid) = (0u64, 0u64);
            let rec = FlightRecorder::with_capacity(64);
            let mut prov = SchedProv::for_recorder(&rec);
            for (i, op) in ops.iter().enumerate() {
                let d_off = step(
                    &mut off_pool,
                    &mut off_live,
                    &mut off_uid,
                    SchedMode::Indexed,
                    op,
                );
                let d_on =
                    step_recorded(&mut on_pool, &mut on_live, &mut on_uid, &rec, &mut prov, op);
                assert_eq!(d_off, d_on, "case {case} diverged at op {i} ({op:?})");
            }
            assert_pools_identical(&off_pool, &on_pool);
        }
    }
}
