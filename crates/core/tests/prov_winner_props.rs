//! Property test: a decision's provenance record marks its winner.
//!
//! Random streams of the pool ops `pool_index_props.rs` uses, interleaved
//! with time-slice requests whose demands come from the same dyadic
//! fractions and whose exclusion, anti-affinity and affinity labels come
//! from the same tiny alphabets. Every request is decided under
//! `Reference` and under `Indexed` with a capturing collector, and each
//! record must agree with its decision:
//!
//! * `Assign(id)`: exactly one candidate is `chosen`, its target is `id`
//!   and its score is `id`'s fit key;
//! * `NewDevice` and `Reject`: no candidate is `chosen`.
//!
//! The `Reference` decision is then applied to the pool, so later
//! requests meet the groups and tenants earlier ones formed. Runs the
//! default case count; `PROPTEST_CASES` overrides it.

mod pool_ops;

use ks_cluster::api::Uid;
use ks_telemetry::provenance::SchedProv;
use kubeshare::algorithm::{schedule_with_prov, Decision, SchedMode, SchedRequest};
use kubeshare::locality::Locality;
use kubeshare::pool::{frac, VgpuPool};
use pool_ops::{apply, gen_op, label, lbl, Op, FRACTIONS};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    Pool(Op),
    Request(SchedRequest),
}

fn gen_request() -> impl Strategy<Value = SchedRequest> {
    (0usize..4, 0usize..4, label(), label(), label()).prop_map(|(util, mem, aff, anti, excl)| {
        SchedRequest {
            util: FRACTIONS[util],
            mem: FRACTIONS[mem],
            locality: Locality {
                affinity: lbl("aff", aff),
                anti_affinity: lbl("anti", anti),
                exclusion: lbl("excl", excl),
            },
        }
    })
}

fn gen_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => gen_op().prop_map(Step::Pool),
        2 => gen_request().prop_map(Step::Request),
    ]
}

/// Decides `req` under `mode` with a capturing collector and checks the
/// record's chosen candidate against the decision.
fn decide_checked(mode: SchedMode, req: &SchedRequest, pool: &mut VgpuPool) -> Decision {
    let mut prov = SchedProv::on();
    let decision = schedule_with_prov(mode, req, pool, &mut prov);
    let chosen: Vec<_> = prov.candidates().iter().filter(|c| c.chosen).collect();
    let context = format!("{mode:?} {decision:?}: {:?}", prov.candidates());
    match &decision {
        Decision::Assign(id) => {
            assert_eq!(chosen.len(), 1, "{context}");
            assert!(chosen[0].target == id.as_str(), "{context}");
            assert_eq!(
                chosen[0].score,
                frac(pool.get(id).unwrap().fit_key()),
                "{context}"
            );
        }
        _ => assert!(chosen.is_empty(), "{context}"),
    }
    decision
}

/// Attaches `req` where `decision` put it, as `schedule_batch` does.
fn bind(pool: &mut VgpuPool, uid: Uid, req: &SchedRequest, decision: &Decision) {
    let id = match decision {
        Decision::Assign(id) => id,
        Decision::NewDevice(id) => {
            pool.insert_creating(id.clone());
            id
        }
        Decision::Reconfigure(_) | Decision::Reject(_) => return,
    };
    let loc = &req.locality;
    pool.attach(
        id,
        uid,
        req.util,
        req.mem,
        loc.affinity.as_deref(),
        loc.anti_affinity.as_deref(),
        loc.exclusion.as_deref(),
    );
}

proptest! {
    /// After every request of any stream, both implementations' records
    /// mark exactly the device they chose.
    #[test]
    fn chosen_candidate_is_the_decision(
        steps in proptest::collection::vec(gen_step(), 1..120),
    ) {
        let mut pool = VgpuPool::new();
        let mut next_uid = 0u64;
        for step in &steps {
            match step {
                Step::Pool(op) => apply(&mut pool, op, &mut next_uid),
                Step::Request(req) => {
                    decide_checked(SchedMode::Indexed, req, &mut pool.clone());
                    let decision = decide_checked(SchedMode::Reference, req, &mut pool);
                    next_uid += 1;
                    bind(&mut pool, Uid(next_uid), req, &decision);
                }
            }
        }
    }
}
