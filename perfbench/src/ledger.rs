//! Outside-in per-layer timing.
//!
//! Every call the benchmark makes into a layer's public functions goes
//! through [`Ledger::call`] with the [`Site`] it belongs to. The call is
//! always counted; when the ledger is traced it is also timed and
//! recorded as one [`Span`]. The benchmark's calls never nest, so a
//! site's time is its layer's self time, and wall time minus all site
//! time is the benchmark's own untimed residual.

use std::time::Instant;

use ks_cluster::sim::ClusterEvent;
use ks_sim_core::prelude::{EventQueue, SimTime};
use kubeshare::system::KsEvent;

/// One timed call site: a public function of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    ClusterScheduleAttempt,
    ClusterBindArrived,
    ClusterContainerStarted,
    ClusterPodStopped,
    GatewaySubmit,
    GatewayPump,
    GatewayDelete,
    CoreSchedDecide,
    CoreCreatePod,
    CoreSubmitSharepod,
    CoreDeleteSharepod,
    CoreOther,
    AlgorithmDecide,
    VgpuHandle,
    VgpuSubmitBurst,
    VgpuAttach,
    VgpuDetach,
    WorkloadsStep,
    TelemetryScrape,
    TelemetrySloEval,
    SimCoreQueue,
    VgpuRtAcquire,
}

impl Site {
    /// Every site, in ledger order.
    pub const ALL: [Site; 22] = [
        Site::ClusterScheduleAttempt,
        Site::ClusterBindArrived,
        Site::ClusterContainerStarted,
        Site::ClusterPodStopped,
        Site::GatewaySubmit,
        Site::GatewayPump,
        Site::GatewayDelete,
        Site::CoreSchedDecide,
        Site::CoreCreatePod,
        Site::CoreSubmitSharepod,
        Site::CoreDeleteSharepod,
        Site::CoreOther,
        Site::AlgorithmDecide,
        Site::VgpuHandle,
        Site::VgpuSubmitBurst,
        Site::VgpuAttach,
        Site::VgpuDetach,
        Site::WorkloadsStep,
        Site::TelemetryScrape,
        Site::TelemetrySloEval,
        Site::SimCoreQueue,
        Site::VgpuRtAcquire,
    ];

    /// The metric prefix, `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Site::ClusterScheduleAttempt => "cluster.schedule_attempt",
            Site::ClusterBindArrived => "cluster.bind_arrived",
            Site::ClusterContainerStarted => "cluster.container_started",
            Site::ClusterPodStopped => "cluster.pod_stopped",
            Site::GatewaySubmit => "gateway.submit",
            Site::GatewayPump => "gateway.pump",
            Site::GatewayDelete => "gateway.delete",
            Site::CoreSchedDecide => "core.sched_decide",
            Site::CoreCreatePod => "core.create_pod",
            Site::CoreSubmitSharepod => "core.submit_sharepod",
            Site::CoreDeleteSharepod => "core.delete_sharepod",
            Site::CoreOther => "core.other",
            Site::AlgorithmDecide => "algorithm.decide",
            Site::VgpuHandle => "vgpu.handle",
            Site::VgpuSubmitBurst => "vgpu.submit_burst",
            Site::VgpuAttach => "vgpu.attach",
            Site::VgpuDetach => "vgpu.detach",
            Site::WorkloadsStep => "workloads.step",
            Site::TelemetryScrape => "telemetry.scrape",
            Site::TelemetrySloEval => "telemetry.slo_eval",
            Site::SimCoreQueue => "sim_core.queue",
            Site::VgpuRtAcquire => "vgpu_rt.acquire",
        }
    }

    /// The site a control-plane event is handled at, and the pod or
    /// sharePod it acts on (0 if none).
    pub fn of(ev: &KsEvent) -> (Site, u64) {
        match ev {
            KsEvent::Cluster(c) => match c {
                ClusterEvent::ScheduleAttempt { pod } => (Site::ClusterScheduleAttempt, pod.0),
                ClusterEvent::BindArrived { pod } => (Site::ClusterBindArrived, pod.0),
                ClusterEvent::ContainerStarted { pod } => (Site::ClusterContainerStarted, pod.0),
                ClusterEvent::PodStopped { pod } => (Site::ClusterPodStopped, pod.0),
            },
            KsEvent::SchedDecide { sp } => (Site::CoreSchedDecide, sp.0),
            KsEvent::CreatePod { sp } => (Site::CoreCreatePod, sp.0),
            _ => (Site::CoreOther, 0),
        }
    }

    /// The layer, the part of the name before the dot.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("site names are <layer>.<call>")]
    }
}

/// One timed call. `seq` is the DES event that caused it (0 outside a
/// DES loop); `uid` is the sharePod or pod the call acts on (0 if none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub site: Site,
    pub start_ns: u64,
    pub end_ns: u64,
    pub seq: u64,
    pub uid: u64,
}

/// Per-site call counts, and, when traced, times and spans.
#[derive(Debug)]
pub struct Ledger {
    traced: bool,
    base: Instant,
    /// The DES event sequence number current spans are attributed to.
    pub seq: u64,
    calls: [u64; Site::ALL.len()],
    ns: [u64; Site::ALL.len()],
    max_ns: [u64; Site::ALL.len()],
    spans: Vec<Span>,
    /// Whole-number per-layer counts (`gateway.admitted`, ...). They must
    /// repeat exactly between runs of one seed.
    pub counts: Vec<(&'static str, u64)>,
}

impl Ledger {
    /// An empty ledger; `traced` turns timing and span capture on.
    pub fn new(traced: bool) -> Self {
        Ledger {
            traced,
            base: Instant::now(),
            seq: 0,
            calls: [0; Site::ALL.len()],
            ns: [0; Site::ALL.len()],
            max_ns: [0; Site::ALL.len()],
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Whether calls are timed.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs `f` as one call at `site` acting on `uid`.
    #[inline]
    pub fn call<R>(&mut self, site: Site, uid: u64, f: impl FnOnce() -> R) -> R {
        self.calls[site as usize] += 1;
        if !self.traced {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(site, uid, start, end);
        r
    }

    /// Records a call timed by the caller (the caller counts it too).
    pub fn record(&mut self, site: Site, uid: u64, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        let i = site as usize;
        self.ns[i] += ns;
        self.max_ns[i] = self.max_ns[i].max(ns);
        self.spans.push(Span {
            site,
            start_ns: start.duration_since(self.base).as_nanos() as u64,
            end_ns: end.duration_since(self.base).as_nanos() as u64,
            seq: self.seq,
            uid,
        });
    }

    /// Schedules `ev` on the DES queue as one `sim_core.queue` call.
    pub fn schedule<E>(&mut self, q: &mut EventQueue<E>, at: SimTime, ev: E) {
        self.call(Site::SimCoreQueue, 0, || q.schedule_at(at, ev));
    }

    /// Counts one call at `site` without timing it.
    pub fn count_call(&mut self, site: Site) {
        self.calls[site as usize] += 1;
    }

    /// Sets a whole-number per-layer count.
    pub fn set_count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }

    /// A per-layer count set by [`Ledger::set_count`], or 0.
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Calls made at `site`.
    pub fn calls(&self, site: Site) -> u64 {
        self.calls[site as usize]
    }

    /// Host nanoseconds spent in `site` (0 unless traced).
    pub fn ns(&self, site: Site) -> u64 {
        self.ns[site as usize]
    }

    /// Longest single call at `site`, in nanoseconds (0 unless traced).
    pub fn max_ns(&self, site: Site) -> u64 {
        self.max_ns[site as usize]
    }

    /// Host nanoseconds spent in all timed calls.
    pub fn timed_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Every whole-number outcome that must repeat exactly for one seed:
    /// the call counts and the per-layer counts.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut v = self.calls.to_vec();
        v.extend(self.counts.iter().map(|&(_, c)| c));
        v
    }

    /// Merges another ledger (a worker thread's) into this one.
    pub fn absorb(&mut self, other: Ledger) {
        for i in 0..Site::ALL.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
            self.max_ns[i] = self.max_ns[i].max(other.max_ns[i]);
        }
        let shift = other.base.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
        self.counts.extend(other.counts);
    }

    /// Span durations at `site`, in nanoseconds.
    pub fn span_ns(&self, site: Site) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.site == site)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Drops the recorded spans, keeping the totals.
    pub fn clear_spans(&mut self) {
        self.spans = Vec::new();
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The `q`-quantile of `v` by the nearest-rank rule (`v` need not be
/// sorted); 0 for an empty slice.
pub fn quantile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The median of `v` (mean of the middle pair for even lengths); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_ledger_counts_without_timing() {
        let mut lg = Ledger::new(false);
        let r = lg.call(Site::GatewayPump, 7, || 41 + 1);
        assert_eq!(r, 42);
        assert_eq!(lg.calls(Site::GatewayPump), 1);
        assert_eq!(lg.ns(Site::GatewayPump), 0);
        assert!(lg.spans().is_empty());
    }

    #[test]
    fn traced_ledger_records_spans_with_cause() {
        let mut lg = Ledger::new(true);
        lg.seq = 9;
        lg.call(Site::VgpuHandle, 3, || std::hint::black_box(0u64));
        let s = lg.spans()[0];
        assert_eq!((s.seq, s.uid, s.site), (9, 3, Site::VgpuHandle));
        assert!(s.end_ns >= s.start_ns);
        assert_eq!(lg.ns(Site::VgpuHandle), s.end_ns - s.start_ns);
    }

    #[test]
    fn site_names_are_unique_and_layered() {
        let mut names: Vec<_> = Site::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Site::ALL.len());
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "ALL is in declaration order");
            assert!(!s.layer().is_empty());
        }
    }

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(quantile(&[5, 1, 3, 2, 4], 0.5), 3);
        assert_eq!(quantile(&(1..=100).collect::<Vec<_>>(), 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
