//! `token_share`: Fig 8a traffic on the paper's 8-node × 4-V100 testbed,
//! driven from the benchmark's own event loop with telemetry on.
//!
//! The loop mirrors `ks_bench::harness::KsWorld` (control plane, one
//! `SharedGpu` per GPU, `ks_workloads` job drivers) and adds the scrape
//! and SLO tick. [`check_against_reference`] proves it simulates the same
//! system: `fig8::run_kubeshare` on the same generated jobs must report
//! the same jobs per minute.

use std::collections::BTreeMap;
use std::time::Instant;

use ks_bench::fig8::{self, Fig8Config};
use ks_bench::harness::{cluster_config, summarize, JobRecord, JobSpec};
use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{ResourceList, Uid};
use ks_gpu::device::{GpuDevice, GpuSpec};
use ks_sim_core::prelude::*;
use ks_telemetry::{Scraper, SloEngine, Telemetry};
use ks_vgpu::{ClientId, IsolationMode, SharedGpu, VgpuConfig, VgpuEvent, VgpuNotice};
use ks_workloads::generator::{generate, GeneratedJob, JobSizing, WorkloadParams};
use ks_workloads::job::{JobCmd, JobInput};
use kubeshare::locality::Locality;
use kubeshare::sharepod::SharePodSpec;
use kubeshare::system::{KsConfig, KsEmit, KsEvent, KsNotice, KubeShareSystem};

use crate::ledger::{quantile, Ledger, Site};
use crate::rep::{ns_since, value, Rep, WindowClock};

/// The run shape.
#[derive(Debug, Clone)]
pub struct Config {
    /// Jobs in the Poisson stream.
    pub jobs: u32,
    /// Fig 8a frequency factor (mean inter-arrival 3.6 s / factor).
    pub factor: f64,
    pub nodes: usize,
    pub gpus_per_node: u32,
    pub seed: u64,
}

impl Config {
    /// The figure harness's configuration for the same traffic.
    pub fn fig8(&self) -> Fig8Config {
        Fig8Config {
            jobs: self.jobs,
            duration: SimDuration::from_secs(40),
            base_interarrival: SimDuration::from_secs_f64(3.6),
            runs: 1,
            seed: self.seed,
            nodes: self.nodes,
            gpus_per_node: self.gpus_per_node,
        }
    }

    /// The generated jobs: TF-Serving, 40 s standalone, 20 ms kernels,
    /// demand N(0.30, 0.10).
    pub fn jobs(&self) -> Vec<GeneratedJob> {
        let f = self.fig8();
        generate(&WorkloadParams {
            jobs: f.jobs,
            mean_interarrival: f.base_interarrival.mul_f64(1.0 / self.factor),
            demand_mean: 0.30,
            demand_std: 0.10,
            sizing: JobSizing::FixedDuration(f.duration),
            kernel: SimDuration::from_millis(20),
            seed: self.seed,
        })
    }
}

/// Scrape + SLO tick period (the figure harness's sample period).
const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(5);

enum Ev {
    Ks(KsEvent),
    Gpu(usize, VgpuEvent),
    Submit(usize),
    Wake(usize),
    Sample,
}

struct Obs {
    telemetry: Telemetry,
    scraper: Scraper,
    slo: SloEngine,
}

struct World {
    ks: KubeShareSystem,
    gpus: Vec<SharedGpu>,
    gpu_index: BTreeMap<String, usize>,
    jobs: Vec<JobRecord>,
    job_sp: Vec<Option<Uid>>,
    sp_job: BTreeMap<Uid, usize>,
    client_job: BTreeMap<(usize, ClientId), usize>,
    binding: Vec<Option<(usize, ClientId)>>,
    rejected: u64,
    obs: Option<Obs>,
}

fn push_ks(lg: &mut Ledger, q: &mut EventQueue<Ev>, out: KsEmit) {
    for (at, ev) in out {
        lg.schedule(q, at, Ev::Ks(ev));
    }
}

fn push_gpu(lg: &mut Ledger, q: &mut EventQueue<Ev>, gpu: usize, out: ks_vgpu::VgpuEmit) {
    for (at, ev) in out {
        lg.schedule(q, at, Ev::Gpu(gpu, ev));
    }
}

impl World {
    fn new(cfg: &Config, telemetry: Option<Telemetry>) -> Self {
        let cluster_cfg = cluster_config(cfg.nodes, cfg.gpus_per_node);
        let mut gpus = Vec::new();
        let mut gpu_index = BTreeMap::new();
        for node in &cluster_cfg.nodes {
            for i in 0..node.gpus {
                let device = GpuDevice::new(
                    &node.name,
                    i,
                    GpuSpec {
                        name: "Tesla V100-SXM2-16GB".into(),
                        memory_bytes: node.gpu_memory_bytes,
                    },
                );
                gpu_index.insert(device.uuid().to_string(), gpus.len());
                gpus.push(SharedGpu::new(
                    device,
                    VgpuConfig::default(),
                    IsolationMode::FULL,
                ));
            }
        }
        let mut ks = KubeShareSystem::new(cluster_cfg, KsConfig::default());
        let obs = telemetry.map(|telemetry| {
            ks.set_telemetry(telemetry.clone());
            for gpu in &mut gpus {
                gpu.set_telemetry(telemetry.clone());
            }
            Obs {
                telemetry,
                scraper: Scraper::new(SimDuration::from_secs(15), 4096),
                slo: SloEngine::kubeshare_catalogue(),
            }
        });
        World {
            ks,
            gpus,
            gpu_index,
            jobs: Vec::new(),
            job_sp: Vec::new(),
            sp_job: BTreeMap::new(),
            client_job: BTreeMap::new(),
            binding: Vec::new(),
            rejected: 0,
            obs,
        }
    }

    fn on_notice(&mut self, now: SimTime, n: KsNotice, q: &mut EventQueue<Ev>, lg: &mut Ledger) {
        match n {
            KsNotice::SharePodRunning {
                sp, uuid, share, ..
            } => {
                let Some(&j) = self.sp_job.get(&sp) else {
                    return;
                };
                let g = self.gpu_index[&uuid];
                let ctx = lg.call(Site::CoreOther, sp.0, || self.ks.sharepod_trace(sp));
                let gpu = &mut self.gpus[g];
                let client = lg.call(Site::VgpuAttach, sp.0, || {
                    let client = gpu.attach(share);
                    if let Some(ctx) = ctx {
                        gpu.set_client_trace(client, ctx);
                    }
                    let quota = (share.mem * gpu.device().memory().capacity() as f64) as u64;
                    if quota > 0 {
                        gpu.mem_alloc(client, (quota as f64 * 0.8) as u64)
                            .expect("within quota");
                    }
                    client
                });
                self.client_job.insert((g, client), j);
                self.binding[j] = Some((g, client));
                self.jobs[j].started = Some(now);
                let driver = &mut self.jobs[j].driver;
                let cmds = lg.call(Site::WorkloadsStep, sp.0, || {
                    driver.step(now, JobInput::Start)
                });
                self.exec(now, j, cmds, q, lg);
            }
            KsNotice::SharePodStopped { sp, .. } => {
                let Some(&j) = self.sp_job.get(&sp) else {
                    return;
                };
                if let Some((g, client)) = self.binding[j] {
                    let mut out = Vec::new();
                    let gpu = &mut self.gpus[g];
                    lg.call(Site::VgpuDetach, sp.0, || gpu.detach(now, client, &mut out));
                    push_gpu(lg, q, g, out);
                }
            }
            KsNotice::SharePodRejected { sp, .. } if self.sp_job.contains_key(&sp) => {
                self.rejected += 1;
            }
            _ => {}
        }
    }

    fn exec(
        &mut self,
        now: SimTime,
        j: usize,
        cmds: Vec<JobCmd>,
        q: &mut EventQueue<Ev>,
        lg: &mut Ledger,
    ) {
        for cmd in cmds {
            match cmd {
                JobCmd::Submit { dur, tag } => {
                    let (g, client) = self.binding[j].expect("job bound");
                    let mut out = Vec::new();
                    let gpu = &mut self.gpus[g];
                    lg.call(Site::VgpuSubmitBurst, 0, || {
                        gpu.submit_burst(now, client, dur, tag, &mut out)
                    });
                    push_gpu(lg, q, g, out);
                }
                JobCmd::WakeAt(at) => lg.schedule(q, at, Ev::Wake(j)),
                JobCmd::Finished => {
                    self.jobs[j].finished = Some(now);
                    let sp = self.job_sp[j].expect("sharePod known");
                    let mut out = Vec::new();
                    let mut notes = Vec::new();
                    lg.call(Site::CoreDeleteSharepod, sp.0, || {
                        self.ks.delete_sharepod(now, sp, &mut out, &mut notes)
                    });
                    push_ks(lg, q, out);
                    for n in notes {
                        self.on_notice(now, n, q, lg);
                    }
                }
            }
        }
    }

    fn fire(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>, lg: &mut Ledger) {
        match ev {
            Ev::Submit(j) => {
                let spec = &self.jobs[j].spec;
                let sp_spec = SharePodSpec {
                    pod: PodSpec::new("workload:latest", ResourceList::cpu_mem(1000, 1 << 30)),
                    share: spec.share,
                    gpuid: None,
                    node_name: None,
                    locality: spec.locality.clone(),
                    tenant: None,
                    priority: 0,
                    substrate: ks_partition::Substrate::TimeSlice,
                };
                let name = spec.name.clone();
                let mut out = Vec::new();
                let sp = lg.call(Site::CoreSubmitSharepod, 0, || {
                    self.ks.submit_sharepod(now, name, sp_spec, &mut out)
                });
                self.sp_job.insert(sp, j);
                self.job_sp[j] = Some(sp);
                push_ks(lg, q, out);
            }
            Ev::Ks(ev) => {
                let mut out = Vec::new();
                let mut notes = Vec::new();
                let (site, uid) = Site::of(&ev);
                lg.call(site, uid, || self.ks.handle(now, ev, &mut out, &mut notes));
                push_ks(lg, q, out);
                for n in notes {
                    self.on_notice(now, n, q, lg);
                }
            }
            Ev::Gpu(g, ev) => {
                let mut out = Vec::new();
                let mut notes = Vec::new();
                let gpu = &mut self.gpus[g];
                lg.call(Site::VgpuHandle, 0, || {
                    gpu.handle(now, ev, &mut out, &mut notes)
                });
                push_gpu(lg, q, g, out);
                for n in notes {
                    let VgpuNotice::BurstDone { client, tag } = n;
                    if let Some(&j) = self.client_job.get(&(g, client)) {
                        if self.jobs[j].finished.is_none() {
                            let driver = &mut self.jobs[j].driver;
                            let cmds = lg.call(Site::WorkloadsStep, 0, || {
                                driver.step(now, JobInput::BurstDone { tag })
                            });
                            self.exec(now, j, cmds, q, lg);
                        }
                    }
                }
            }
            Ev::Wake(j) => {
                if self.jobs[j].finished.is_none() && self.binding[j].is_some() {
                    let driver = &mut self.jobs[j].driver;
                    let cmds = lg.call(Site::WorkloadsStep, 0, || driver.step(now, JobInput::Wake));
                    self.exec(now, j, cmds, q, lg);
                }
            }
            Ev::Sample => {
                if let Some(obs) = &mut self.obs {
                    let Obs {
                        telemetry,
                        scraper,
                        slo,
                    } = obs;
                    let scraped =
                        lg.call(Site::TelemetryScrape, 0, || scraper.tick(now, telemetry));
                    if scraped {
                        lg.call(Site::TelemetrySloEval, 0, || {
                            slo.evaluate(now, scraper.tsdb(), telemetry)
                        });
                    }
                }
                if self.jobs.iter().any(|j| j.finished.is_none()) {
                    lg.schedule(q, now + SAMPLE_PERIOD, Ev::Sample);
                }
            }
        }
    }
}

fn to_spec(j: &GeneratedJob) -> JobSpec {
    JobSpec {
        name: format!("inf-{}", j.index),
        kind: j.kind.clone(),
        share: j.share,
        locality: Locality::none(),
        arrival: j.arrival,
    }
}

/// One repetition. `telemetry` turns the metrics/trace handle and the
/// scrape + SLO tick on.
pub fn rep(cfg: &Config, telemetry: bool, traced: bool) -> Rep {
    let mut lg = Ledger::new(traced);

    let setup = Instant::now();
    let jobs = cfg.jobs();
    let mut w = World::new(cfg, telemetry.then(Telemetry::enabled));
    let mut q = EventQueue::new();
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x6b75_6265);
    for (i, j) in jobs.iter().enumerate() {
        let spec = to_spec(j);
        q.schedule_at(spec.arrival, Ev::Submit(i));
        w.jobs.push(JobRecord::new(spec, rng.fork()));
    }
    w.job_sp = vec![None; jobs.len()];
    w.binding = vec![None; jobs.len()];
    if telemetry {
        q.schedule_at(SimTime::ZERO + SAMPLE_PERIOD, Ev::Sample);
    }
    let setup_ns = ns_since(setup);

    let wall = Instant::now();
    let mut clock = WindowClock::start();
    let mut peak = q.len();
    while let Some((now, ev)) = lg.call(Site::SimCoreQueue, 0, || q.pop()) {
        lg.seq += 1;
        clock.at(now);
        w.fire(now, ev, &mut q, &mut lg);
        peak = peak.max(q.len());
    }
    let wall_ns = ns_since(wall);
    let op_ns = clock.finish();

    let mut rep = Rep::new(lg);
    rep.setup_ns = setup_ns;
    rep.wall_ns = wall_ns;
    rep.op_ns = op_ns;
    let summary = summarize(&w.jobs);
    rep.attempted = jobs.len() as u64;
    let unfinished = (summary.total - summary.completed) as u64;
    if w.rejected + unfinished > 0 {
        rep.fail(
            w.rejected + unfinished,
            format!("{} jobs rejected, {unfinished} unfinished", w.rejected),
        );
    }
    let startup_us: Vec<u64> = w
        .jobs
        .iter()
        .filter_map(|j| {
            j.started
                .map(|s| s.saturating_since(j.spec.arrival).as_micros())
        })
        .collect();
    rep.sim = vec![
        value(
            "sim_jobs_per_min",
            "jobs/min",
            summary.jobs_per_minute.unwrap_or(0.0),
        ),
        value(
            "sim_startup_s_p99",
            "s",
            quantile(&startup_us, 0.99) as f64 / 1e6,
        ),
    ];
    let events = rep.ledger.seq;
    let grants: u64 = w.gpus.iter().map(|g| g.grant_count()).sum();
    let lg = &mut rep.ledger;
    lg.set_count("vgpu.grants", grants);
    lg.set_count("sim_core.events", events);
    lg.set_count("sim_core.queue_peak", peak as u64);
    rep.host.push(value(
        "events_per_s",
        "1/s",
        events as f64 / (wall_ns as f64 / 1e9),
    ));
    rep
}

/// `fig8::run_kubeshare` on the same jobs must give the same throughput.
pub fn check_against_reference(cfg: &Config, rep: &Rep) -> Vec<String> {
    let reference = fig8::run_kubeshare(&cfg.fig8(), &cfg.jobs(), cfg.seed);
    let ours = rep.sim("sim_jobs_per_min").unwrap_or(f64::NAN);
    if ours.to_bits() == reference.to_bits() {
        Vec::new()
    } else {
        vec![format!(
            "sim_jobs_per_min: benchmark loop {ours}, fig8::run_kubeshare {reference}"
        )]
    }
}
