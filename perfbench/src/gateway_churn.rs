//! `gateway_churn`: the `gateway_load` traffic driven from the
//! benchmark's own event loop, so every call into the gateway, the
//! control plane and telemetry can be timed from outside.
//!
//! The loop mirrors `ks_bench::gateway_load` event for event and draw for
//! draw (same tick schedule, same RNG order, same queue insertion order),
//! and [`check_against_reference`] proves it: the reference run on the
//! same config must report the same submitted, admitted and preemption
//! counts.

use std::collections::BTreeSet;
use std::time::Instant;

use ks_bench::gateway_load::{self, GatewayLoadConfig};
use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{NodeConfig, ResourceList, Uid};
use ks_cluster::device_plugin::UnitAssignPolicy;
use ks_cluster::latency::LatencyModel;
use ks_cluster::scheduler::{SchedMode, ScorePolicy};
use ks_cluster::sim::{ClusterConfig, GpuPluginKind};
use ks_gateway::{
    gateway_catalogue, DerivedTokenAuth, Gateway, GatewayConfig, SubmitOutcome, Tier,
};
use ks_sim_core::prelude::*;
use ks_telemetry::{Scraper, SloEngine, Telemetry};
use ks_vgpu::ShareSpec;
use kubeshare::sharepod::SharePodSpec;
use kubeshare::system::{KsConfig, KsEvent, KsNotice, KubeShareSystem, PoolPolicy};

use crate::ledger::{quantile, Ledger, Site};
use crate::rep::{ns_since, value, Rep, WindowClock};

/// Arrivals per simulated second; with 10–30 s jobs the cluster
/// auto-sizes to about 1,400 GPUs.
pub const ARRIVALS_PER_SEC: u64 = 500;

/// Mean GPU-seconds per arrival under the 80/15/5 tier mix (the
/// `gateway_load` sizing constant).
const MEAN_GPU_SECONDS_PER_ARRIVAL: f64 = 0.12 * 20.0;

/// The run shape.
#[derive(Debug, Clone)]
pub struct Config {
    /// Arrival phase in simulated seconds (a 300 s drain follows).
    pub secs: u64,
    /// Hot tenants per tier re-submitting every second.
    pub hot_per_tier: usize,
    /// Arrivals per simulated second.
    pub rate: u64,
    pub seed: u64,
}

impl Config {
    /// The `gateway_load` configuration this run reproduces.
    pub fn load(&self) -> GatewayLoadConfig {
        GatewayLoadConfig {
            tenants: self.rate * self.secs,
            secs: self.secs,
            nodes: 0,
            gpus_per_node: 4,
            hot_per_tier: self.hot_per_tier,
            seed: self.seed,
        }
    }
}

/// `gateway_load`'s auto-sizing: ~85% steady-state utilization.
fn sized_nodes(cfg: &GatewayLoadConfig) -> usize {
    let rate = cfg.tenants as f64 / cfg.secs.max(1) as f64;
    let demand = rate * MEAN_GPU_SECONDS_PER_ARRIVAL;
    ((demand / 0.85 / cfg.gpus_per_node as f64).ceil() as usize).max(2)
}

enum Ev {
    Ks(KsEvent),
    Tick(u64),
    Finish(Uid),
}

struct World {
    gw: Gateway<DerivedTokenAuth>,
    auth: DerivedTokenAuth,
    telemetry: Telemetry,
    scraper: Scraper,
    slo: SloEngine,
    rng: SimRng,
    cfg: GatewayLoadConfig,
    next_tenant: u64,
    alerts: Vec<String>,
    submitted: u64,
    queued: u64,
    rejected: u64,
    /// Submission-to-Running, microseconds, one per Running notice.
    startup_us: Vec<u64>,
    finished: BTreeSet<Uid>,
    preempted: BTreeSet<Uid>,
}

fn tier_of(i: u64) -> Tier {
    match i % 100 {
        0..=79 => Tier::Free,
        80..=94 => Tier::Standard,
        _ => Tier::Premium,
    }
}

fn spec(request: f64, mem: f64) -> SharePodSpec {
    SharePodSpec::new(
        PodSpec::new("tf:2.1", ResourceList::cpu_mem(500, 1 << 30)),
        ShareSpec::new(request, 1.0, mem).expect("valid share"),
    )
}

impl World {
    fn count(&mut self, outcome: &SubmitOutcome) {
        self.submitted += 1;
        if let SubmitOutcome::Queued { .. } = outcome {
            self.queued += 1;
        }
    }

    fn absorb(
        &mut self,
        now: SimTime,
        notices: Vec<KsNotice>,
        q: &mut EventQueue<Ev>,
        lg: &mut Ledger,
    ) {
        for n in notices {
            match n {
                KsNotice::SharePodRunning { sp, .. } => {
                    if let Some(s) = self.gw.system().sharepod(sp) {
                        self.startup_us
                            .push(now.saturating_since(s.meta.created_at).as_micros());
                    }
                    let dur =
                        SimDuration::from_millis(self.rng.uniform_range(10_000.0, 30_000.0) as u64);
                    lg.schedule(q, now + dur, Ev::Finish(sp));
                }
                KsNotice::SharePodPreempted { sp, .. } => {
                    self.preempted.insert(sp);
                }
                KsNotice::SharePodRejected { .. } => self.rejected += 1,
                _ => {}
            }
        }
    }

    fn submit_fresh(&mut self, now: SimTime, out: &mut Vec<(SimTime, KsEvent)>, lg: &mut Ledger) {
        let i = self.next_tenant;
        self.next_tenant += 1;
        let tier = tier_of(i);
        let request = match tier {
            Tier::Premium => self.rng.uniform_range(0.3, 0.7),
            _ => self.rng.uniform_range(0.05, 0.15),
        };
        let mem = self.rng.uniform_range(0.02, 0.1);
        let token = self.auth.token_for(&format!("t{i}"), tier);
        let (name, spec) = (format!("job-{i}"), spec(request, mem));
        let outcome = lg.call(Site::GatewaySubmit, 0, || {
            self.gw.submit(now, &token, name, spec, out)
        });
        self.count(&outcome);
    }

    fn submit_hot(&mut self, now: SimTime, out: &mut Vec<(SimTime, KsEvent)>, lg: &mut Ledger) {
        for tier in Tier::ALL {
            for k in 0..self.cfg.hot_per_tier {
                if !self.rng.bernoulli(0.5) {
                    continue;
                }
                let tenant = format!("hot-{}-{k}", tier.label());
                let token = self.auth.token_for(&tenant, tier);
                let request = self.rng.uniform_range(0.05, 0.1);
                let name = format!("hot-job-{}-{}", tenant, now.as_micros());
                let spec = spec(request, 0.05);
                let outcome = lg.call(Site::GatewaySubmit, 0, || {
                    self.gw.submit(now, &token, name, spec, out)
                });
                self.count(&outcome);
            }
        }
    }

    fn fire(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>, lg: &mut Ledger) {
        let mut out = Vec::new();
        let mut notices = Vec::new();
        match ev {
            Ev::Ks(ev) => {
                let (site, uid) = Site::of(&ev);
                lg.call(site, uid, || {
                    self.gw.handle(now, ev, &mut out, &mut notices)
                });
            }
            Ev::Finish(sp) => {
                self.finished.insert(sp);
                lg.call(Site::GatewayDelete, sp.0, || {
                    self.gw.delete(now, sp, &mut out, &mut notices)
                });
            }
            Ev::Tick(sec) => {
                if sec < self.cfg.secs {
                    let target = self.cfg.tenants * (sec + 1) / self.cfg.secs;
                    while self.next_tenant < target {
                        self.submit_fresh(now, &mut out, lg);
                    }
                    self.submit_hot(now, &mut out, lg);
                }
                lg.call(Site::GatewayPump, 0, || {
                    self.gw.pump(now, &mut out, &mut notices)
                });
                lg.call(Site::TelemetryScrape, 0, || {
                    self.scraper.tick(now, &self.telemetry)
                });
                if sec > 0 && sec % 60 == 0 {
                    let statuses = lg.call(Site::TelemetrySloEval, 0, || {
                        self.slo.evaluate(now, self.scraper.tsdb(), &self.telemetry)
                    });
                    for s in statuses {
                        if s.breaching {
                            self.alerts.push(format!("{} @ {sec}s", s.rule));
                        }
                    }
                }
                if sec < self.cfg.secs + 300 {
                    lg.schedule(q, now + SimDuration::from_secs(1), Ev::Tick(sec + 1));
                }
            }
        }
        self.absorb(now, notices, q, lg);
        for (at, e) in out {
            lg.schedule(q, at, Ev::Ks(e));
        }
    }
}

fn build(cfg: &GatewayLoadConfig) -> World {
    let nodes = sized_nodes(cfg);
    let cluster_cfg = ClusterConfig {
        nodes: (0..nodes)
            .map(|i| NodeConfig {
                name: format!("node-{i}"),
                cpu_millis: 64_000,
                memory_bytes: 244 << 30,
                gpus: cfg.gpus_per_node,
                gpu_memory_bytes: 16 << 30,
            })
            .collect(),
        latency: LatencyModel::default(),
        gpu_plugin: GpuPluginKind::WholeDevice,
        assign_policy: UnitAssignPolicy::Sequential,
        score: ScorePolicy::LeastAllocated,
    };
    let ks_cfg = KsConfig {
        pool_policy: PoolPolicy::Reservation {
            max_idle: nodes * cfg.gpus_per_node as usize,
        },
        sched_mode: SchedMode::Indexed,
        ..KsConfig::default()
    };
    let telemetry = Telemetry::enabled();
    let mut gw = Gateway::new(
        KubeShareSystem::new(cluster_cfg, ks_cfg),
        DerivedTokenAuth::new(cfg.seed ^ 0x6a7e_aa7e),
        GatewayConfig::default(),
    );
    gw.set_telemetry(telemetry.clone());
    World {
        gw,
        auth: DerivedTokenAuth::new(cfg.seed ^ 0x6a7e_aa7e),
        telemetry,
        scraper: Scraper::new(SimDuration::from_secs(15), 4096),
        slo: gateway_catalogue(),
        rng: SimRng::seed_from_u64(cfg.seed),
        cfg: cfg.clone(),
        next_tenant: 0,
        alerts: Vec::new(),
        submitted: 0,
        queued: 0,
        rejected: 0,
        startup_us: Vec::new(),
        finished: BTreeSet::new(),
        preempted: BTreeSet::new(),
    }
}

/// One repetition: build the world, run the traffic to drain, check.
pub fn rep(cfg: &Config, traced: bool) -> Rep {
    let load = cfg.load();
    let mut lg = Ledger::new(traced);

    let setup = Instant::now();
    let mut w = build(&load);
    let mut q = EventQueue::new();
    let setup_ns = ns_since(setup);

    let wall = Instant::now();
    let mut clock = WindowClock::start();
    lg.schedule(&mut q, SimTime::ZERO, Ev::Tick(0));
    let mut peak = 0usize;
    while let Some((now, ev)) = lg.call(Site::SimCoreQueue, 0, || q.pop()) {
        lg.seq += 1;
        clock.at(now);
        w.fire(now, ev, &mut q, &mut lg);
        peak = peak.max(q.len());
    }
    let end = q.now();
    w.gw.meter_mut().finalize(end);
    w.scraper.force(end, &w.telemetry);
    let wall_ns = ns_since(wall);
    let op_ns = clock.finish();

    let mut rep = Rep::new(lg);
    rep.setup_ns = setup_ns;
    rep.wall_ns = wall_ns;
    rep.op_ns = op_ns;
    verify(&mut rep, &w, &load, end);
    let events = rep.ledger.seq;
    let stats = w.gw.stats();
    let lg = &mut rep.ledger;
    lg.set_count("gateway.submitted", stats.submitted);
    lg.set_count("gateway.admitted", stats.admitted());
    lg.set_count("gateway.queued", w.queued);
    lg.set_count("gateway.refused", stats.rejected());
    lg.set_count("gateway.preemptions", stats.preemptions);
    lg.set_count("sim_core.events", events);
    lg.set_count("sim_core.queue_peak", peak as u64);
    rep.host.push(value(
        "events_per_s",
        "1/s",
        events as f64 / (wall_ns as f64 / 1e9),
    ));
    rep
}

/// `gateway_load`'s self-checks, on this loop's world, plus the metrics.
fn verify(rep: &mut Rep, w: &World, cfg: &GatewayLoadConfig, end: SimTime) {
    let stats = w.gw.stats();
    if !w.gw.conservation_holds() {
        rep.fail(
            1,
            format!(
                "conservation: submitted {} != admitted {} + rejected {} + queued {}",
                stats.submitted,
                stats.admitted(),
                stats.rejected(),
                w.gw.queue_len()
            ),
        );
    }
    if w.submitted != stats.submitted {
        rep.fail(
            1,
            format!(
                "loop counted {} submissions, gateway {}",
                w.submitted, stats.submitted
            ),
        );
    }
    for name in [
        "ks_gw_limit_violations_total",
        "ks_gw_quota_violations_total",
        "ks_gw_preempt_inversions_total",
    ] {
        let v = w.telemetry.counter(name, &[]).get();
        if v != 0 {
            rep.fail(1, format!("tripwire {name} = {v}"));
        }
    }
    if w.telemetry
        .counter("ks_gw_preemptions_total", &[("victim_tier", "premium")])
        .get()
        != 0
    {
        rep.fail(1, "premium tenants were preempted".to_string());
    }
    if !w.alerts.is_empty() {
        rep.fail(1, format!("SLO alerts fired: {}", w.alerts.join(", ")));
    }
    if let Err(e) = w.gw.meter().reconcile(w.scraper.tsdb(), end) {
        rep.fail(1, format!("billing/TSDB reconciliation: {e}"));
    }

    // Failed: admitted sharePods that neither ran to completion nor were
    // preempted by a higher tier. Gateway refusals are policy.
    let done = w.finished.union(&w.preempted).count() as u64;
    rep.attempted = stats.admitted();
    let lost = stats.admitted().saturating_sub(done);
    if lost > 0 {
        let mut phases = std::collections::BTreeMap::new();
        for (_, sp) in w.gw.system().sharepods().iter() {
            *phases
                .entry(format!("{:?}", sp.status.phase))
                .or_insert(0u64) += 1;
        }
        rep.fail(
            lost,
            format!(
                "{lost} admitted sharePods never completed ({} rejected by Algorithm 1; \
             still in the store at the end, by phase: {phases:?})",
                w.rejected
            ),
        );
    }

    let whole_run = SimDuration::from_secs(cfg.secs + 600);
    let wait_p99 = |tier: Tier| {
        w.scraper
            .tsdb()
            .quantile(
                "ks_gw_admission_wait_seconds",
                &[("tier", tier.label())],
                0.99,
                whole_run,
                end,
            )
            .unwrap_or(0.0)
    };
    let gpu_usec: u64 = Tier::ALL
        .iter()
        .map(|&t| w.gw.meter().tier_gpu_usec(t))
        .sum();
    rep.sim = vec![
        value(
            "sim_startup_s_p99",
            "s",
            quantile(&w.startup_us, 0.99) as f64 / 1e6,
        ),
        value("sim_admit_wait_s_p99_premium", "s", wait_p99(Tier::Premium)),
        value(
            "sim_admit_wait_s_p99_standard",
            "s",
            wait_p99(Tier::Standard),
        ),
        value("sim_gpu_s", "GPU*s", gpu_usec as f64 / 1e6),
        value("sim_preemptions", "count", stats.preemptions as f64),
        value(
            "sim_gpus",
            "count",
            (sized_nodes(cfg) * cfg.gpus_per_node as usize) as f64,
        ),
    ];
}

/// Runs `gateway_load::run` on the same config and compares the counts
/// the two loops must share. Returns the mismatches.
pub fn check_against_reference(cfg: &Config, rep: &Rep) -> Vec<String> {
    let reference = gateway_load::run(&cfg.load());
    let mut errs: Vec<String> = reference
        .failures
        .iter()
        .map(|f| format!("gateway_load self-check: {f}"))
        .collect();
    let lg = &rep.ledger;
    let ours = [
        ("submitted", lg.count("gateway.submitted")),
        ("admitted", lg.count("gateway.admitted")),
        ("preemptions", lg.count("gateway.preemptions")),
    ];
    let theirs = [
        reference.submitted,
        reference.admitted,
        reference.preemptions,
    ];
    for ((name, a), b) in ours.iter().zip(theirs) {
        if *a != b {
            errs.push(format!("{name}: benchmark loop {a}, gateway_load {b}"));
        }
    }
    errs
}
