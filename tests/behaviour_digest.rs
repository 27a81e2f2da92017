//! Behaviour digests: fixed-seed runs of the system's main streams, each
//! reduced to one hash and compared with a committed value.
//!
//! Each test drives one stream through its library entry point, feeds a
//! canonical byte stream of the result into the in-tree Fx hasher (every
//! `f64` as its bit pattern, every string length-prefixed), and asserts
//! the hash. A change that alters any decision, placement or exported
//! figure of these streams moves its digest. Such a change updates the
//! constant here in the same commit and says in CHANGES.md which stream
//! moved and why.
//!
//! Run with `cargo test --release --test behaviour_digest`; a failing
//! test prints the new digest.

use std::hash::Hasher;

use ks_bench::fig8::{self, Fig8Config};
use ks_bench::metrics_demo::{self, MetricsDemoConfig};
use ks_bench::{chaos, explain, gateway_load, partition, remediation, sched_scale};
use ks_sim_core::fxhash::FxHasher;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_workloads::generator::{generate, JobSizing, WorkloadParams};
use kubeshare::algorithm::{schedule_batch, SchedMode};

/// The canonical byte stream of one run.
#[derive(Default)]
struct Digest(FxHasher);

impl Digest {
    fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.write(s.as_bytes());
    }

    fn strs<S: AsRef<str>>(&mut self, items: &[S]) {
        self.usize(items.len());
        for s in items {
            self.str(s.as_ref());
        }
    }

    /// Asserts the digest, printing the new value if it moved.
    fn check(self, stream: &str, want: u64) {
        let got = self.0.finish();
        assert_eq!(
            got, want,
            "behaviour digest of `{stream}` moved: {got:#018x} (committed {want:#018x})"
        );
    }
}

#[test]
fn explain_seed_7() {
    let r = explain::run(&explain::ExplainConfig::default());
    let mut h = Digest::default();
    for v in [
        r.decisions,
        r.schedule_records,
        r.placed,
        r.rejected,
        r.held,
        r.reconfigures,
        r.remediation_actions,
    ] {
        h.u64(v);
    }
    h.usize(r.rejection_reasons.len());
    for c in &r.rejection_reasons {
        h.str(&c.reason);
        h.u64(c.count);
    }
    h.usize(r.samples.len());
    for s in &r.samples {
        h.str(&s.class);
        h.str(&s.scenario);
        h.u64(s.sp);
        h.usize(s.records);
        h.str(&s.json);
        h.str(&s.text);
    }
    h.bool(r.identical_without_recorder);
    h.strs(&r.failures);
    h.check("explain --seed 7", EXPLAIN);
}

#[test]
fn chaos_seed_7() {
    let r = chaos::run(7);
    let mut h = Digest::default();
    for v in [
        r.baseline_running,
        r.node_failures,
        r.container_crashes,
        r.leaked_vgpus,
        r.final_running,
        r.restart_lost_bursts,
    ] {
        h.usize(v);
    }
    h.usize(r.recoveries.len());
    for &s in &r.recoveries {
        h.f64(s);
    }
    h.bool(r.replay_identical);
    h.f64(r.reclamation_ms);
    h.f64(r.reclamation_bound_ms);
    for v in [r.baseline_alerts, r.outage_alerts, r.guarantee_alerts] {
        h.u64(v);
    }
    h.check("chaos --seed 7", CHAOS);
}

#[test]
fn partition_seed_7() {
    let r = partition::run(&partition::PartitionBenchConfig::default());
    let mut h = Digest::default();
    for p in &r.packing {
        h.str(&p.substrate);
        h.usize(p.tenants);
        h.usize(p.rejected);
        h.usize(p.gpus);
        h.f64(p.demand_total);
        h.f64(p.efficiency);
        h.f64(p.fragmentation);
    }
    let i = &r.isolation;
    for v in [
        i.time_slice_alone_secs,
        i.time_slice_contended_secs,
        i.time_slice_slowdown,
        i.spatial_alone_secs,
        i.spatial_contended_secs,
        i.spatial_slowdown,
        i.spatial_alone_cost,
    ] {
        h.f64(v);
    }
    let c = &r.reconfig;
    for v in [c.ops, c.reconfigs, c.displaced, c.gpus] {
        h.usize(v);
    }
    for v in [
        c.cost_per_reconfig_secs,
        c.downtime_secs,
        c.makespan_secs,
        c.downtime_frac,
        c.frag_max,
    ] {
        h.f64(v);
    }
    h.strs(&r.verdict.spatial_beats);
    h.strs(&r.verdict.hybrid_beats);
    h.bool(r.verdict.ok);
    h.check("partition --seed 7", PARTITION);
}

/// The `sched_scale --gpus 256 --pods 2000 --seed 7` stream, drained by
/// both implementations of Algorithm 1: every decision and the tenants
/// each device ends with.
#[test]
fn sched_scale_256_gpus_seed_7() {
    let (pool, entries) = sched_scale::inputs(256, 2_000, 7);
    let mut h = Digest::default();
    for mode in [SchedMode::Reference, SchedMode::Indexed] {
        let mut p = pool.clone();
        let decisions = schedule_batch(mode, &entries, &mut p);
        h.usize(decisions.len());
        for (uid, d) in &decisions {
            h.u64(uid.0);
            h.str(&format!("{d:?}"));
        }
        h.usize(p.len());
        for d in p.devices() {
            h.str(d.id.as_str());
            h.usize(d.attached.len());
            for uid in d.attached.keys() {
                h.u64(uid.0);
            }
        }
    }
    h.check("sched_scale --gpus 256 --pods 2000 --seed 7", SCHED_SCALE);
}

/// The `sched_scale --gpus 2500 --pods 10000 --seed 7` stream drained by
/// the Indexed path alone: at this size most fit-range scans pass over
/// several devices before their winner, so the digest pins which devices
/// the scan skips. Every decision and the tenants each device ends with.
#[test]
fn sched_scale_indexed_2500_gpus_seed_7() {
    let (mut pool, entries) = sched_scale::inputs(2_500, 10_000, 7);
    let decisions = schedule_batch(SchedMode::Indexed, &entries, &mut pool);
    let mut h = Digest::default();
    h.usize(decisions.len());
    for (uid, d) in &decisions {
        h.u64(uid.0);
        h.str(&format!("{d:?}"));
    }
    h.usize(pool.len());
    for d in pool.devices() {
        h.str(d.id.as_str());
        h.usize(d.attached.len());
        for uid in d.attached.keys() {
            h.u64(uid.0);
        }
    }
    h.check(
        "sched_scale --gpus 2500 --pods 10000 --seed 7, Indexed",
        SCHED_SCALE_INDEXED,
    );
}

/// The closed-loop remediation soak at seed 7: every figure of its
/// report. Its drains run `drain_vgpu` against live tenants.
#[test]
fn remediation_seed_7() {
    let r = remediation::run(7);
    let mut h = Digest::default();
    h.u64(r.seed);
    h.f64(r.scrape_interval_s);
    for v in [r.detect_k, r.ideal_work, r.observe_work, r.closed_work] {
        h.u64(v);
    }
    h.f64(r.reattain_observe_pct);
    h.f64(r.reattain_closed_pct);
    for v in [
        r.faults_injected,
        r.eligible_node_faults,
        r.eligible_degrade_faults,
    ] {
        h.usize(v);
    }
    h.f64(r.detection_latency_mean_s);
    h.f64(r.detection_latency_max_s);
    for v in [
        r.faultfree_actions,
        r.closed_actions,
        r.cordons,
        r.uncordons,
        r.drains,
        r.closed_verdicts,
    ] {
        h.u64(v);
    }
    h.bool(r.decision_identity);
    h.bool(r.replay_identical);
    h.u64(u64::from(r.final_running_closed));
    h.strs(&r.failures);
    h.check("remediation --seed 7", REMEDIATION);
}

/// The gateway load generator at 1,000 tenants (the bin's
/// `--tenants 1000 --seed 7`: a 60 s arrival phase), which preempts
/// hundreds of sharePods. Wall time is left out.
#[test]
fn gateway_1000_tenants_seed_7() {
    let r = gateway_load::run(&gateway_load::GatewayLoadConfig {
        tenants: 1_000,
        secs: 60,
        seed: 7,
        ..gateway_load::GatewayLoadConfig::default()
    });
    let mut h = Digest::default();
    h.u64(r.tenants_requested);
    h.u64(r.tenants_touched);
    h.usize(r.nodes);
    h.usize(r.gpus);
    h.f64(r.sim_secs);
    for v in [
        r.submitted,
        r.admitted,
        r.rejected_auth,
        r.rejected_rate,
        r.rejected_queue_full,
        r.admitted_from_queue,
    ] {
        h.u64(v);
    }
    h.usize(r.queued_peak);
    h.u64(r.preemptions);
    h.strs(&r.slo_alerts);
    h.usize(r.tiers.len());
    for t in &r.tiers {
        h.str(&t.tier);
        h.u64(t.admitted);
        h.u64(t.rejected_rate_limited);
        h.u64(t.preempted_as_victim);
        h.f64(t.gpu_seconds);
        h.f64(t.gpu_seconds_tsdb);
        h.f64(t.admission_wait_p99);
    }
    h.usize(r.billing_tenants);
    h.strs(&r.failures);
    h.u64(r.events);
    h.check("gateway --tenants 1000 --seed 7", GATEWAY);
}

/// Fig 8a traffic through the vGPU token path: `fig8::run_kubeshare` on
/// the small testbed (2 nodes x 2 GPUs, 40 jobs of 20 s in 20 ms kernels)
/// at frequency factor 3. Every job's start and finish time and every
/// GPU's token grant count.
#[test]
fn fig8a_token_path_factor_3() {
    let cfg = Fig8Config::small();
    let jobs = generate(&WorkloadParams {
        jobs: cfg.jobs,
        mean_interarrival: cfg.base_interarrival.mul_f64(1.0 / 3.0),
        demand_mean: 0.3,
        demand_std: 0.1,
        sizing: JobSizing::FixedDuration(cfg.duration),
        kernel: SimDuration::from_millis(20),
        seed: cfg.seed,
    });
    let h = fig8::kubeshare_harness(&cfg, &jobs, cfg.seed);
    let mut d = Digest::default();
    let jpm = h.summary().jobs_per_minute.expect("all jobs complete");
    assert_eq!(jpm, fig8::run_kubeshare(&cfg, &jobs, cfg.seed));
    d.f64(jpm);
    let micros = |t: Option<SimTime>| t.expect("job ran").as_micros();
    d.usize(h.eng.world.jobs.len());
    for j in &h.eng.world.jobs {
        d.str(&j.spec.name);
        d.u64(micros(j.started));
        d.u64(micros(j.finished));
    }
    d.usize(h.eng.world.gpus.len());
    for (name, gpu) in &h.eng.world.gpus {
        d.str(name);
        d.u64(gpu.grant_count());
    }
    d.check("fig8a small, factor 3", FIG8A);
}

/// The `metrics --jobs 6 --steps 80` demo's exports: the Prometheus text,
/// the rendered trace, the sharePod causal trace and the Chrome-trace
/// JSON that `--trace-out` writes. Token grants, handoff waits and
/// `vgpu/token_grant` spans all land in these.
#[test]
fn metrics_demo_6_jobs_80_steps() {
    let demo = metrics_demo::run(&MetricsDemoConfig {
        jobs: 6,
        steps: 80,
        ..MetricsDemoConfig::default()
    });
    let mut d = Digest::default();
    d.str(&demo.prometheus);
    d.str(&demo.trace);
    d.str(&demo.sharepod_trace);
    d.str(&demo.chrome_trace);
    d.str(&demo.slo_report);
    d.u64(demo.alerts_fired);
    d.u64(demo.scrapes);
    d.check("metrics --jobs 6 --steps 80", METRICS_DEMO);
}

const EXPLAIN: u64 = 0xbe78_08f9_a272_9150;
const CHAOS: u64 = 0x67a1_88f5_ccb2_d513;
const PARTITION: u64 = 0xdccf_0903_6413_972d;
const SCHED_SCALE: u64 = 0xeb92_1998_0ce5_bc3c;
const SCHED_SCALE_INDEXED: u64 = 0x942f_7229_470f_cabb;
const REMEDIATION: u64 = 0x1ede_73af_4b0f_b802;
const GATEWAY: u64 = 0xefb8_3fd4_74a2_8408;
const FIG8A: u64 = 0x1764_1a6e_eca1_2eca;
const METRICS_DEMO: u64 = 0x82b6_16f8_9602_32dc;
