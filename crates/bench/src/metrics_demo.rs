//! Telemetry demo: a Fig-9-style shared workload on the fully
//! instrumented stack, exporting the metrics registry in both formats
//! (Prometheus text and JSON) plus the structured decision trace.
//!
//! Every layer records through one [`Telemetry`] handle: KubeShare-Sched
//! (Algorithm 1 decisions), DevMgr (pool phases, anchor launches), the
//! token backends (grants, handoff waits, quota utilization), the cluster
//! substrate (pod lifecycle, store revisions) and the chaos injector (fault
//! counts, outage spans). The demo run therefore exercises at least five
//! distinct trace subsystems, and the two export formats are verified to
//! agree sample-by-sample before anything is returned.

use ks_chaos::{ChaosConfig, ChaosEvent, ChaosInjector};
use ks_sim_core::rng::SimRng;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::causal::TraceTree;
use ks_telemetry::export::{to_json, to_prometheus_text, verify_agreement};
use ks_telemetry::{MetricsSnapshot, Scraper, SloEngine, Telemetry};
use ks_vgpu::{ShareSpec, VgpuConfig};
use ks_workloads::job::JobKind;
use kubeshare::locality::Locality;
use kubeshare::system::KsConfig;

use crate::harness::jobs::JobSpec;
use crate::harness::ks_world::KsHarness;

/// Demo workload knobs (`--jobs`, `--steps`, `--seed` on the binary).
#[derive(Debug, Clone)]
pub struct MetricsDemoConfig {
    /// Number of sharePods submitted.
    pub jobs: usize,
    /// Training steps per job (20 ms kernels).
    pub steps: u32,
    /// Seed for job drivers and the chaos injector.
    pub seed: u64,
    /// Inject chaos (anchor coin flips during the run, then a full node
    /// outage). Off by default: a healthy run must raise zero SLO alerts,
    /// which the metrics binary and the CI smoke step assert.
    pub outage: bool,
}

impl Default for MetricsDemoConfig {
    fn default() -> Self {
        MetricsDemoConfig {
            jobs: 24,
            steps: 400,
            seed: 7,
            outage: false,
        }
    }
}

/// Everything the demo produced.
pub struct MetricsDemo {
    /// The live handle (for further inspection in tests).
    pub telemetry: Telemetry,
    /// Snapshot the exports were rendered from.
    pub snapshot: MetricsSnapshot,
    /// Prometheus text exposition of the snapshot.
    pub prometheus: String,
    /// Pretty-printed JSON export of the same snapshot.
    pub json: String,
    /// Number of series on which the two exports were verified to agree.
    pub agreed_series: usize,
    /// Rendered event/span trace.
    pub trace: String,
    /// Distinct trace subsystems, in first-seen order.
    pub subsystems: Vec<&'static str>,
    /// Rendered span tree + critical path of one sharePod's causal trace.
    pub sharepod_trace: String,
    /// Chrome-trace JSON of the full buffer (Perfetto-loadable).
    pub chrome_trace: String,
    /// SLO rule report after the final evaluation.
    pub slo_report: String,
    /// Total SLO alert firings across the run.
    pub alerts_fired: u64,
    /// Whether the `node_outage_burn` burn-rate alert fired (only expected
    /// when [`MetricsDemoConfig::outage`] is set).
    pub outage_alert_fired: bool,
    /// Snapshots folded into the ring-buffer TSDB.
    pub scrapes: u64,
    /// Distinct series the TSDB retains.
    pub tsdb_series: usize,
}

/// Runs the demo: instrumented workload, a short chaos burst, exports.
///
/// # Panics
/// Panics if the Prometheus and JSON exports disagree on any sample —
/// that agreement is the demo's contract, not a best-effort property.
pub fn run(cfg: &MetricsDemoConfig) -> MetricsDemo {
    let telemetry = Telemetry::enabled();
    let mut h = KsHarness::new(
        crate::harness::cluster_config(2, 2),
        KsConfig::default(),
        VgpuConfig::default(),
    );
    h.enable_observability(
        telemetry.clone(),
        Scraper::new(SimDuration::from_secs(1), 2048),
        SloEngine::kubeshare_catalogue(),
    );
    if cfg.outage {
        // Anchor-launch coin flips during the workload exercise DevMgr's
        // backoff path; the time-based streams are pumped after the run.
        h.eng
            .world
            .ks
            .set_chaos(ChaosInjector::new(ChaosConfig::preset(cfg.seed), 2));
    }

    let mut rng = SimRng::seed_from_u64(cfg.seed);
    for i in 0..cfg.jobs {
        // Demands cycle over 0.2..0.65 so GPUs are genuinely shared and
        // Algorithm 1 sees both tight and roomy fits (Fig. 9's regime).
        let request = 0.2 + 0.15 * ((i % 4) as f64);
        h.add_job(
            JobSpec {
                name: format!("inf-{i}"),
                kind: JobKind::Training {
                    steps: cfg.steps,
                    kernel: SimDuration::from_millis(20),
                    duty: 1.0,
                },
                share: ShareSpec::new(request, 1.0, 0.2).expect("valid share"),
                locality: Locality::none(),
                arrival: SimTime::from_millis(500 * i as u64),
            },
            rng.fork(),
        );
    }
    h.enable_sampling(SimDuration::from_secs(1));
    h.run(200_000_000);

    let end = if cfg.outage {
        pump_chaos(&mut h)
    } else {
        h.eng.now()
    };

    // Final scrape + SLO evaluation covering anything that happened after
    // the last periodic sample tick (the post-run chaos pump in particular).
    let (slo_report, alerts_fired, outage_alert_fired, scrapes, tsdb_series) = {
        let obs = h.eng.world.obs.as_mut().expect("observability enabled");
        obs.scraper.force(end, &telemetry);
        obs.slo.evaluate(end, obs.scraper.tsdb(), &telemetry);
        (
            obs.slo.render(),
            obs.slo.fired_total(),
            obs.slo.fired("node_outage_burn") > 0,
            obs.scraper.scrapes(),
            obs.scraper.tsdb().series_count(),
        )
    };

    let snapshot = telemetry.snapshot();
    let prometheus = to_prometheus_text(&snapshot);
    let json = to_json(&snapshot);
    let agreed_series =
        verify_agreement(&prometheus, &json).expect("prometheus and json exports must agree");
    let trace = telemetry.render_trace();
    let subsystems = telemetry.trace_subsystems();
    let events = telemetry.trace_events();
    let chrome_trace = telemetry.chrome_trace();
    let sharepod_trace = events
        .iter()
        .find(|e| e.parent == 0 && e.name == "sharepod")
        .and_then(|e| TraceTree::build(&events, e.trace))
        .map(|tree| {
            let mut s = tree.render();
            s.push_str("critical path:\n");
            for (span, dur) in tree.critical_path() {
                let label = tree.node(span).map(|n| n.label()).unwrap_or_default();
                s.push_str(&format!("  {:<24} {:.6}s\n", label, dur.as_secs_f64()));
            }
            s
        })
        .unwrap_or_default();
    MetricsDemo {
        telemetry,
        snapshot,
        prometheus,
        json,
        agreed_series,
        trace,
        subsystems,
        sharepod_trace,
        chrome_trace,
        slo_report,
        alerts_fired,
        outage_alert_fired,
        scrapes,
        tsdb_series,
    }
}

/// Drives the injector's time-based streams through the control plane
/// until at least one full node outage (crash + recovery) completed, so
/// the trace contains a closed `chaos/node_outage` span. Returns the time
/// of the last fault processed (for the final scrape).
fn pump_chaos(h: &mut KsHarness) -> SimTime {
    let base = h.eng.now();
    let mut last = base;
    let names = h.eng.world.ks.cluster.node_names();
    let mut pending = h
        .eng
        .world
        .ks
        .chaos_mut()
        .map(|c| c.initial_events())
        .unwrap_or_default();
    let mut recoveries = 0;
    for _ in 0..100 {
        if pending.is_empty() || recoveries >= 1 {
            break;
        }
        pending.sort_by_key(|(t, _)| *t);
        let (t, ev) = pending.remove(0);
        let at = base + t.saturating_since(SimTime::ZERO);
        last = last.max(at);
        let mut out = Vec::new();
        let mut notes = Vec::new();
        match ev {
            ChaosEvent::NodeCrash { node } => {
                h.eng
                    .world
                    .ks
                    .fail_node(at, &names[node % names.len()], &mut out, &mut notes);
            }
            ChaosEvent::NodeRecover { node } => {
                h.eng
                    .world
                    .ks
                    .recover_node(at, &names[node % names.len()], &mut out);
                recoveries += 1;
            }
            // Counted by the injector; the chaos soak routes these fully.
            ChaosEvent::ContainerCrash
            | ChaosEvent::BackendRestart
            | ChaosEvent::VgpuDegrade { .. }
            | ChaosEvent::VgpuRestore => {}
        }
        if let Some(next) = h
            .eng
            .world
            .ks
            .chaos_mut()
            .and_then(|c| c.next_after(at, ev))
        {
            pending.push(next);
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_covers_five_subsystems_and_exports_agree() {
        let demo = run(&MetricsDemoConfig {
            jobs: 8,
            steps: 100,
            seed: 3,
            outage: true,
        });
        for sub in ["sched", "devmgr", "vgpu", "cluster", "chaos"] {
            assert!(
                demo.subsystems.contains(&sub),
                "missing subsystem {sub}: {:?}",
                demo.subsystems
            );
        }
        assert!(demo.agreed_series > 20, "series: {}", demo.agreed_series);
        assert!(
            demo.snapshot
                .counter_value("ks_sched_decisions_total", &[("outcome", "assign")])
                .unwrap_or(0)
                > 0
        );
        assert!(demo.trace.contains("decision"));
        // The injected outage must trip the multi-window burn-rate rule.
        assert!(demo.outage_alert_fired, "slo report:\n{}", demo.slo_report);
    }

    #[test]
    fn healthy_demo_raises_no_alerts_and_traces_a_sharepod() {
        let demo = run(&MetricsDemoConfig {
            jobs: 6,
            steps: 80,
            seed: 5,
            outage: false,
        });
        assert_eq!(
            demo.alerts_fired, 0,
            "healthy run must stay quiet:\n{}",
            demo.slo_report
        );
        assert!(demo.scrapes >= 5, "scrapes: {}", demo.scrapes);
        assert!(demo.tsdb_series > 10, "series: {}", demo.tsdb_series);
        // One sharePod's causal trace runs from submission through the
        // device layer: the tree must contain a token grant and a
        // critical-path section.
        assert!(
            demo.sharepod_trace.contains("vgpu/token_grant"),
            "trace:\n{}",
            demo.sharepod_trace
        );
        assert!(demo.sharepod_trace.contains("critical path:"));
        // The Chrome export is non-trivial and structurally a JSON object.
        assert!(demo.chrome_trace.starts_with('{'));
        assert!(demo.chrome_trace.contains("traceEvents"));
    }
}
