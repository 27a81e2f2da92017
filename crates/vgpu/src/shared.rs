//! A GPU wrapped by the vGPU device library: device + backend daemon +
//! per-container frontends.
//!
//! [`SharedGpu`] is the unit KubeShare installs on every device it manages.
//! Containers interact with it exactly where LD_PRELOAD interposes in the
//! paper: memory calls go through [`SharedGpu::mem_alloc`] (the memory
//! guard) and kernel launches through [`SharedGpu::submit_burst`] (blocked
//! until the container holds a valid token).
//!
//! Isolation is configurable so the baselines can be expressed on the same
//! substrate:
//!
//! | system            | compute isolation | memory isolation |
//! |-------------------|-------------------|------------------|
//! | native Kubernetes | —  (exclusive)    | — (exclusive)    |
//! | Deepomatic        | no                | no               |
//! | Aliyun gpushare   | no                | yes              |
//! | GaiaGPU, KubeShare| yes               | yes              |

use std::cell::OnceCell;
use std::collections::VecDeque;

use ks_gpu::device::GpuDevice;
use ks_gpu::engine::KernelTag;
use ks_gpu::types::{ContextId, CudaError, DevicePtr};
use ks_sim_core::dense::DenseMap;
use ks_sim_core::fxhash::FxHashMap;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::{Counter, Gauge, Telemetry};

use crate::backend::{BackendTimer, TokenBackend, VgpuConfig};
use crate::spec::ShareSpec;
use crate::swap::SwapPolicy;
use crate::window::ClientId;

/// Which interception features are active on a shared device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsolationMode {
    /// Gate kernel launches behind the token (compute time isolation).
    pub compute: bool,
    /// Enforce per-container memory quotas (memory space isolation).
    pub memory: bool,
}

impl IsolationMode {
    /// Full KubeShare/GaiaGPU-style isolation.
    pub const FULL: IsolationMode = IsolationMode {
        compute: true,
        memory: true,
    };
    /// Aliyun gpushare-style: memory only.
    pub const MEMORY_ONLY: IsolationMode = IsolationMode {
        compute: false,
        memory: true,
    };
    /// Deepomatic-style: no isolation at all.
    pub const NONE: IsolationMode = IsolationMode {
        compute: false,
        memory: false,
    };
}

/// Events the embedding simulation schedules and routes back into
/// [`SharedGpu::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VgpuEvent {
    /// A device kernel completes now.
    KernelDone,
    /// A token grant becomes effective (handoff finished).
    GrantEffective {
        /// Epoch guard from the backend.
        epoch: u64,
    },
    /// A token quota expires.
    QuotaExpiry {
        /// Epoch guard from the backend.
        epoch: u64,
    },
    /// Re-run the dispatch loop (usage decay polling).
    RetryDispatch,
    /// A frontend's idle grace ran out; release its cached token if it is
    /// still idle.
    IdleRelease {
        /// The frontend.
        client: ClientId,
        /// Idle-period stamp: stale if the client ran again meanwhile.
        since: SimTime,
    },
}

/// Completion notices surfaced to the embedding simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VgpuNotice {
    /// A previously submitted burst finished on the device.
    BurstDone {
        /// Submitting container.
        client: ClientId,
        /// Caller-supplied correlation tag.
        tag: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Burst {
    dur: SimDuration,
    tag: u64,
}

/// A burst handed to the device (running or queued there).
#[derive(Debug, Clone, Copy)]
struct Launch {
    dev_tag: KernelTag,
    client: ClientId,
    /// The caller's tag, echoed in the completion notice.
    tag: u64,
}

#[derive(Debug)]
struct Frontend {
    ctx: ContextId,
    /// Share spec the container attached with; replayed to the backend
    /// when re-registering after a backend restart.
    spec: ShareSpec,
    mem_quota: u64,
    mem_used: u64,
    queue: VecDeque<Burst>,
    inflight: bool,
    /// Set while the frontend idles with a cached token.
    idle_since: Option<SimTime>,
    /// Bytes living in the host-memory swap region (over-commitment
    /// extension; always 0 under [`SwapPolicy::Disabled`]).
    host_swapped: u64,
    /// Synthetic pointers backing host-swapped allocations.
    swapped_ptrs: FxHashMap<DevicePtr, u64>,
}

impl Frontend {
    /// Share of the memory quota living in the host swap region.
    fn swapped_fraction(&self) -> f64 {
        if self.host_swapped > 0 {
            self.host_swapped as f64 / self.mem_quota.max(1) as f64
        } else {
            0.0
        }
    }
}

/// Metric handles, each resolved on first use (so a series appears with
/// its first sample, not at attach time) and kept until the telemetry
/// handle changes.
#[derive(Debug, Default)]
struct Metrics {
    bursts_submitted: OnceCell<Counter>,
    bursts_completed: OnceCell<Counter>,
    degradation: OnceCell<Gauge>,
    window_usage: DenseMap<ClientId, Gauge>,
}

/// A device under vGPU management. See module docs.
#[derive(Debug)]
pub struct SharedGpu {
    device: GpuDevice,
    backend: TokenBackend,
    mode: IsolationMode,
    swap: SwapPolicy,
    /// Attached containers. Client ids are minted from 1 upward.
    fronts: DenseMap<ClientId, Frontend>,
    /// Bursts on the device, in submission order (device tags increase
    /// along it). The device runs kernels FIFO and a detach drops the
    /// client's entries with its queued kernels, so a finished kernel is
    /// always the front entry, unless its client detached while it ran.
    tags: VecDeque<Launch>,
    next_client: u64,
    next_tag: u64,
    next_swap_ptr: u64,
    /// Multiplier applied to every kernel burst's duration (≥ 1.0).
    /// 1.0 = healthy; a degraded physical GPU (thermal throttling, ECC
    /// retirement) stretches kernels by this factor. Set by the chaos
    /// layer's `VgpuDegrade` fault; composes with the swap penalty.
    degraded_factor: f64,
    telemetry: Telemetry,
    metrics: Metrics,
    /// Scratch buffer the backend appends its timers to; drained into the
    /// caller's emit vector after every backend call.
    timers: Vec<BackendTimer>,
}

/// Scheduled events produced by a [`SharedGpu`] call: `(fire_at, event)`.
pub type VgpuEmit = Vec<(SimTime, VgpuEvent)>;

impl SharedGpu {
    /// Wraps a device with the library in the given isolation mode.
    pub fn new(device: GpuDevice, cfg: VgpuConfig, mode: IsolationMode) -> Self {
        SharedGpu {
            device,
            backend: TokenBackend::new(cfg),
            mode,
            swap: SwapPolicy::Disabled,
            fronts: DenseMap::new(),
            tags: VecDeque::new(),
            next_client: 1,
            next_tag: 1,
            next_swap_ptr: 0,
            degraded_factor: 1.0,
            telemetry: Telemetry::disabled(),
            metrics: Metrics::default(),
            timers: Vec::new(),
        }
    }

    /// Sets the degradation multiplier (≥ 1.0; 1.0 restores full speed).
    /// Kernels already on the device finish at their submitted duration;
    /// only subsequent submissions stretch. Mirrored into the
    /// `ks_vgpu_degradation_factor{gpu}` gauge so detectors can verify
    /// their inference against ground truth in tests.
    pub fn set_degraded(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "degradation factor must be >= 1.0, got {factor}"
        );
        self.degraded_factor = factor;
        if self.telemetry.is_enabled() {
            self.metrics
                .degradation
                .get_or_init(|| {
                    self.telemetry.gauge(
                        "ks_vgpu_degradation_factor",
                        &[("gpu", self.backend.gpu_label())],
                    )
                })
                .set(factor);
        }
    }

    /// The degradation multiplier in force (1.0 = healthy).
    pub fn degraded_factor(&self) -> f64 {
        self.degraded_factor
    }

    /// Attaches a telemetry handle. Metrics from this device (and its
    /// token backend) carry a `gpu` label equal to the device UUID.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        let uuid = self.device.uuid().to_string();
        self.backend.set_telemetry(telemetry.clone(), &uuid);
        self.telemetry = telemetry;
        self.metrics = Metrics::default();
    }

    /// Associates a container with the causal trace of the sharePod it
    /// serves; subsequent token grants/reclaims for it join that trace.
    pub fn set_client_trace(&mut self, client: ClientId, ctx: ks_telemetry::TraceCtx) {
        self.backend.set_client_ctx(client, ctx);
    }

    /// Enables a memory over-commitment policy (builder style). See
    /// [`crate::swap`].
    pub fn with_swap(mut self, swap: SwapPolicy) -> Self {
        self.swap = swap;
        self
    }

    /// The over-commitment policy in force.
    pub fn swap_policy(&self) -> SwapPolicy {
        self.swap
    }

    /// The wrapped device (for NVML sampling etc.).
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Isolation mode in force.
    pub fn mode(&self) -> IsolationMode {
        self.mode
    }

    /// Number of attached containers.
    pub fn client_count(&self) -> usize {
        self.fronts.len()
    }

    /// Total token grants performed (overhead accounting, Fig. 7).
    pub fn grant_count(&self) -> u64 {
        self.backend.grant_count()
    }

    /// Attaches a container with the given share spec; installs the
    /// frontend (device library) into it.
    pub fn attach(&mut self, spec: ShareSpec) -> ClientId {
        spec.validate().expect("invalid share spec");
        let client = ClientId(self.next_client);
        self.next_client += 1;
        let ctx = self.device.attach();
        let mem_quota = (spec.mem * self.device.memory().capacity() as f64) as u64;
        self.fronts.insert(
            client,
            Frontend {
                ctx,
                spec,
                mem_quota,
                mem_used: 0,
                queue: VecDeque::new(),
                inflight: false,
                idle_since: None,
                host_swapped: 0,
                swapped_ptrs: FxHashMap::default(),
            },
        );
        self.backend
            .register(client, spec)
            .expect("client ids are never reused");
        client
    }

    /// Simulates the backend daemon dying and coming back (tentpole fault
    /// (d)): all token/queue state is lost, then every attached frontend
    /// re-registers over IPC and re-requests the token if it has pending
    /// work. In-flight kernels keep running on the device; their completion
    /// re-enters the dispatch loop normally.
    pub fn restart_backend(&mut self, now: SimTime, out: &mut VgpuEmit) {
        self.backend.restart(now);
        let clients: Vec<ClientId> = self.fronts.keys().collect();
        for client in clients {
            let fe = self.fronts.get_mut(client).expect("listed above");
            fe.idle_since = None; // any cached token died with the daemon
            let spec = fe.spec;
            let pending = !fe.queue.is_empty() && !fe.inflight;
            self.backend
                .register(client, spec)
                .expect("restart cleared all registrations");
            if pending {
                let _ = self.backend.request(now, client, &mut self.timers);
            }
        }
        self.flush_timers(out);
    }

    /// Detaches a container: frees its memory, drops queued kernels and
    /// releases the token if held. An in-flight kernel finishes silently.
    pub fn detach(&mut self, now: SimTime, client: ClientId, out: &mut VgpuEmit) {
        let Some(fe) = self.fronts.remove(client) else {
            return;
        };
        self.tags.retain(|l| l.client != client);
        self.metrics.window_usage.remove(client);
        self.backend.deregister(now, client, &mut self.timers);
        self.flush_timers(out);
        self.device.detach(fe.ctx);
    }

    /// `cuMemAlloc` through the frontend's memory guard.
    pub fn mem_alloc(&mut self, client: ClientId, bytes: u64) -> Result<DevicePtr, CudaError> {
        let swap = self.swap;
        let fe = self
            .fronts
            .get_mut(client)
            .ok_or(CudaError::InvalidContext)?;
        if self.mode.memory && fe.mem_used.saturating_add(bytes) > fe.mem_quota {
            if let SwapPolicy::HostSwap { .. } = swap {
                // Over-commitment extension: back the allocation with host
                // memory instead of failing; kernels will pay for paging.
                return Ok(Self::swap_alloc(fe, &mut self.next_swap_ptr, bytes));
            }
            // Paper §4.5: the frontend "simply throws out of memory
            // exceptions when a container attempts to allocate more space
            // than it requests".
            return Err(CudaError::OutOfMemory {
                requested: bytes,
                available: fe.mem_quota - fe.mem_used,
            });
        }
        match self.device.mem_alloc(fe.ctx, bytes) {
            Ok(ptr) => {
                fe.mem_used += bytes;
                Ok(ptr)
            }
            Err(CudaError::OutOfMemory { .. }) if matches!(swap, SwapPolicy::HostSwap { .. }) => {
                // Physical memory exhausted (e.g. unguarded co-tenants):
                // spill to host as well.
                Ok(Self::swap_alloc(fe, &mut self.next_swap_ptr, bytes))
            }
            Err(e) => Err(e),
        }
    }

    fn swap_alloc(fe: &mut Frontend, next_swap_ptr: &mut u64, bytes: u64) -> DevicePtr {
        *next_swap_ptr += 1;
        let ptr = DevicePtr(0xffff_0000_0000_0000 | *next_swap_ptr);
        fe.host_swapped += bytes;
        fe.swapped_ptrs.insert(ptr, bytes);
        ptr
    }

    /// Bytes of `client`'s data currently living in the host swap region.
    pub fn mem_swapped(&self, client: ClientId) -> u64 {
        self.fronts.get(client).map_or(0, |f| f.host_swapped)
    }

    /// `cuMemFree` through the frontend.
    pub fn mem_free(&mut self, client: ClientId, ptr: DevicePtr) -> Result<(), CudaError> {
        let fe = self
            .fronts
            .get_mut(client)
            .ok_or(CudaError::InvalidContext)?;
        if let Some(bytes) = fe.swapped_ptrs.remove(&ptr) {
            fe.host_swapped -= bytes;
            return Ok(());
        }
        let bytes = self.device.mem_free(fe.ctx, ptr)?;
        fe.mem_used -= bytes;
        Ok(())
    }

    /// Device-memory bytes currently allocated by `client`.
    pub fn mem_used(&self, client: ClientId) -> u64 {
        self.fronts.get(client).map_or(0, |f| f.mem_used)
    }

    /// Submits a kernel burst (`cuLaunchKernel` through the frontend).
    /// Under compute isolation the burst waits until the container holds a
    /// valid token. `tag` is echoed in the completion notice.
    pub fn submit_burst(
        &mut self,
        now: SimTime,
        client: ClientId,
        dur: SimDuration,
        tag: u64,
        out: &mut VgpuEmit,
    ) {
        let fe = self
            .fronts
            .get_mut(client)
            .unwrap_or_else(|| panic!("{client} not attached"));
        fe.queue.push_back(Burst { dur, tag });
        fe.idle_since = None;
        if self.telemetry.is_enabled() {
            self.metrics
                .bursts_submitted
                .get_or_init(|| {
                    self.telemetry.counter(
                        "ks_vgpu_bursts_submitted_total",
                        &[("gpu", self.backend.gpu_label())],
                    )
                })
                .inc();
        }
        if self.mode.compute {
            self.pump(now, client, out);
        } else {
            self.pump_passthrough(now, client, out);
        }
    }

    /// Sliding-window usage of a container, as the device library reports
    /// it (the per-container curves in the paper's Fig. 6).
    pub fn client_usage(&mut self, now: SimTime, client: ClientId) -> f64 {
        let usage = self.backend.usage(now, client);
        if self.telemetry.is_enabled() {
            let (telemetry, gpu) = (&self.telemetry, self.backend.gpu_label());
            self.metrics
                .window_usage
                .get_or_insert_with(client, || {
                    telemetry.gauge(
                        "ks_vgpu_window_usage",
                        &[("gpu", gpu), ("client", client.label().as_str())],
                    )
                })
                .set(usage);
        }
        usage
    }

    /// Routes a previously emitted event back into the library.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: VgpuEvent,
        out: &mut VgpuEmit,
        notices: &mut Vec<VgpuNotice>,
    ) {
        match ev {
            VgpuEvent::KernelDone => self.on_kernel_done(now, out, notices),
            VgpuEvent::GrantEffective { epoch } => {
                let granted = self
                    .backend
                    .on_grant_effective(now, epoch, &mut self.timers);
                self.flush_timers(out);
                if let Some(client) = granted {
                    self.pump(now, client, out);
                }
            }
            VgpuEvent::QuotaExpiry { epoch } => {
                self.backend.on_expiry(now, epoch, &mut self.timers);
                self.flush_timers(out);
            }
            VgpuEvent::RetryDispatch => {
                self.backend.on_retry(now, &mut self.timers);
                self.flush_timers(out);
            }
            VgpuEvent::IdleRelease { client, since } => {
                let Some(fe) = self.fronts.get_mut(client) else {
                    return;
                };
                if fe.idle_since == Some(since) && fe.queue.is_empty() && !fe.inflight {
                    fe.idle_since = None;
                    self.backend.release(now, client, &mut self.timers);
                    self.flush_timers(out);
                }
            }
        }
    }

    fn on_kernel_done(&mut self, now: SimTime, out: &mut VgpuEmit, notices: &mut Vec<VgpuNotice>) {
        let (finished, next_started) = self.device.complete(now);
        if let Some(n) = next_started {
            out.push((n.end, VgpuEvent::KernelDone));
        }
        debug_assert!(self
            .tags
            .front()
            .is_none_or(|l| l.dev_tag.0 >= finished.tag.0));
        let Some(&Launch { client, tag, .. }) =
            self.tags.front().filter(|l| l.dev_tag == finished.tag)
        else {
            return; // its client detached while the kernel ran
        };
        self.tags.pop_front();
        let fe = self
            .fronts
            .get_mut(client)
            .expect("a launch leaves with its client");
        fe.inflight = false;
        notices.push(VgpuNotice::BurstDone { client, tag });
        if self.telemetry.is_enabled() {
            self.metrics
                .bursts_completed
                .get_or_init(|| {
                    self.telemetry.counter(
                        "ks_vgpu_bursts_completed_total",
                        &[("gpu", self.backend.gpu_label())],
                    )
                })
                .inc();
        }
        if !self.mode.compute {
            return; // passthrough: everything is already on the device queue
        }
        if fe.queue.is_empty() {
            // No more queued work. Keep a still-valid token cached for the
            // idle-grace period (an immediately following launch then needs
            // no handoff — Fig. 7's overhead model depends on paying one
            // handoff per *quota*, not per kernel), but withdraw from the
            // request queue. If the grace elapses idle, the token is
            // released for others; if the token was already lost to
            // expiry, fully release right away.
            if self.backend.holds_valid_token(now, client) {
                let kept = self.backend.retract(now, client, &mut self.timers);
                if kept {
                    fe.idle_since = Some(now);
                }
                self.flush_timers(out);
                if kept {
                    let grace = self.backend.config().idle_grace;
                    out.push((now + grace, VgpuEvent::IdleRelease { client, since: now }));
                }
            } else {
                self.backend.release(now, client, &mut self.timers);
                self.flush_timers(out);
            }
        } else {
            self.pump(now, client, out);
        }
    }

    /// Makes progress for `client` under compute isolation: submit the next
    /// queued burst if the token is valid, request the token otherwise,
    /// release it if there is nothing to run.
    fn pump(&mut self, now: SimTime, client: ClientId, out: &mut VgpuEmit) {
        let fe = self.fronts.get_mut(client).expect("client attached");
        if fe.inflight {
            return;
        }
        if fe.queue.is_empty() {
            if self.backend.holds_valid_token(now, client) {
                self.backend.release(now, client, &mut self.timers);
                self.flush_timers(out);
            }
            return;
        }
        if self.backend.holds_valid_token(now, client) {
            fe.inflight = true;
            let burst = fe.queue.pop_front().expect("checked non-empty");
            let (ctx, swapped) = (fe.ctx, fe.swapped_fraction());
            self.device_submit(now, client, ctx, swapped, burst, out);
        } else {
            let holds = match self.backend.request(now, client, &mut self.timers) {
                Ok(h) => h,
                Err(_) => {
                    // The frontend raced a backend restart: transparently
                    // re-register (the real library re-attaches over IPC)
                    // and retry once.
                    let spec = self.fronts[client].spec;
                    let _ = self.backend.register(client, spec);
                    self.backend
                        .request(now, client, &mut self.timers)
                        .unwrap_or(false)
                }
            };
            // If an *idle* frontend is caching the token, it yields to the
            // new requester right away (mirrors the retract-time yield).
            if !holds {
                if let Some(h) = self.backend.holder(now) {
                    let holder = self.fronts.get_mut(h);
                    if let Some(fe) = holder.filter(|fe| fe.idle_since.is_some()) {
                        fe.idle_since = None;
                        self.backend.release(now, h, &mut self.timers);
                    }
                }
            }
            self.flush_timers(out);
            if holds {
                // Grant completed synchronously (cannot happen with a
                // nonzero handoff, but keep the machine total).
                self.pump(now, client, out);
            }
        }
    }

    /// Passthrough submission: no token gating, device FIFO arbitrates.
    fn pump_passthrough(&mut self, now: SimTime, client: ClientId, out: &mut VgpuEmit) {
        let fe = &self.fronts[client];
        let (ctx, swapped) = (fe.ctx, fe.swapped_fraction());
        while let Some(burst) = self
            .fronts
            .get_mut(client)
            .and_then(|fe| fe.queue.pop_front())
        {
            self.device_submit(now, client, ctx, swapped, burst, out);
        }
    }

    /// Hands `burst` to the device under `client`'s context `ctx`;
    /// `swapped` is the client's share of memory in host swap.
    fn device_submit(
        &mut self,
        now: SimTime,
        client: ClientId,
        ctx: ContextId,
        swapped: f64,
        burst: Burst,
        out: &mut VgpuEmit,
    ) {
        // Over-commitment extension: a swapping container pages data over
        // PCIe during its kernels.
        let dur = burst
            .dur
            .mul_f64(self.swap.kernel_factor(swapped) * self.degraded_factor);
        let dev_tag = KernelTag(self.next_tag);
        self.next_tag += 1;
        self.tags.push_back(Launch {
            dev_tag,
            client,
            tag: burst.tag,
        });
        let started = self
            .device
            .submit(now, ctx, dur, dev_tag)
            .expect("context attached");
        if let Some(s) = started {
            out.push((s.end, VgpuEvent::KernelDone));
        }
        // If not started, the device is finishing another context's kernel;
        // its completion will start this one and emit the event then.
    }

    /// Moves the backend timers collected in `self.timers` into `out` as
    /// vGPU events, keeping the scratch buffer's capacity.
    fn flush_timers(&mut self, out: &mut VgpuEmit) {
        for t in self.timers.drain(..) {
            match t {
                BackendTimer::GrantEffective { at, epoch } => {
                    out.push((at, VgpuEvent::GrantEffective { epoch }));
                }
                BackendTimer::Expiry { at, epoch } => {
                    out.push((at, VgpuEvent::QuotaExpiry { epoch }));
                }
                BackendTimer::Retry { at } => out.push((at, VgpuEvent::RetryDispatch)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_gpu::device::GpuSpec;
    use ks_sim_core::prelude::*;

    /// A tiny harness that runs one SharedGpu to completion with sim-core.
    struct Harness {
        gpu: SharedGpu,
        notices: Vec<(SimTime, VgpuNotice)>,
    }

    struct Ev(VgpuEvent);

    impl SimEvent<Harness> for Ev {
        fn fire(self, now: SimTime, w: &mut Harness, q: &mut EventQueue<Self>) {
            let mut out = Vec::new();
            let mut notes = Vec::new();
            w.gpu.handle(now, self.0, &mut out, &mut notes);
            for n in notes {
                w.notices.push((now, n));
            }
            for (at, ev) in out {
                q.schedule_at(at, Ev(ev));
            }
        }
    }

    fn cfg(quota_ms: u64) -> VgpuConfig {
        VgpuConfig {
            quota: SimDuration::from_millis(quota_ms),
            handoff: SimDuration::from_millis(1),
            window: SimDuration::from_secs(2),
            idle_grace: SimDuration::from_millis(2),
        }
    }

    fn new_harness(mode: IsolationMode, quota_ms: u64) -> Engine<Harness, Ev> {
        let device = GpuDevice::new("n", 0, GpuSpec::test_gpu(1000));
        Engine::new(Harness {
            gpu: SharedGpu::new(device, cfg(quota_ms), mode),
            notices: Vec::new(),
        })
    }

    fn seed(eng: &mut Engine<Harness, Ev>, out: VgpuEmit) {
        for (at, ev) in out {
            eng.queue.schedule_at(at, Ev(ev));
        }
    }

    #[test]
    fn passthrough_burst_completes() {
        let mut eng = new_harness(IsolationMode::NONE, 100);
        let c = eng.world.gpu.attach(ShareSpec::exclusive());
        let mut out = Vec::new();
        eng.world
            .gpu
            .submit_burst(SimTime::ZERO, c, SimDuration::from_millis(50), 7, &mut out);
        seed(&mut eng, out);
        assert_eq!(eng.run_to_completion(100), RunOutcome::Drained);
        assert_eq!(
            eng.world.notices,
            vec![(
                SimTime::from_millis(50),
                VgpuNotice::BurstDone { client: c, tag: 7 }
            )]
        );
    }

    #[test]
    fn degraded_gpu_stretches_kernels_until_restored() {
        let mut eng = new_harness(IsolationMode::NONE, 100);
        let c = eng.world.gpu.attach(ShareSpec::exclusive());
        assert_eq!(eng.world.gpu.degraded_factor(), 1.0);
        eng.world.gpu.set_degraded(3.0);
        let mut out = Vec::new();
        eng.world
            .gpu
            .submit_burst(SimTime::ZERO, c, SimDuration::from_millis(50), 1, &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        // 50ms burst stretched 3× by the degradation.
        assert_eq!(
            eng.world.notices,
            vec![(
                SimTime::from_millis(150),
                VgpuNotice::BurstDone { client: c, tag: 1 }
            )]
        );
        // Restore: subsequent bursts run at full speed again.
        eng.world.gpu.set_degraded(1.0);
        let now = eng.now();
        let mut out = Vec::new();
        eng.world
            .gpu
            .submit_burst(now, c, SimDuration::from_millis(50), 2, &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(1000);
        let (done_at, _) = *eng.world.notices.last().unwrap();
        assert_eq!(done_at.saturating_since(now), SimDuration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "degradation factor")]
    fn degraded_factor_below_one_is_rejected() {
        let mut eng = new_harness(IsolationMode::NONE, 100);
        eng.world.gpu.set_degraded(0.5);
    }

    #[test]
    fn isolated_burst_pays_handoff() {
        let mut eng = new_harness(IsolationMode::FULL, 100);
        let c = eng.world.gpu.attach(ShareSpec::exclusive());
        let mut out = Vec::new();
        eng.world
            .gpu
            .submit_burst(SimTime::ZERO, c, SimDuration::from_millis(50), 1, &mut out);
        seed(&mut eng, out);
        eng.run_to_completion(100);
        // 1ms handoff + 50ms kernel.
        assert_eq!(
            eng.world.notices,
            vec![(
                SimTime::from_millis(51),
                VgpuNotice::BurstDone { client: c, tag: 1 }
            )]
        );
        assert_eq!(eng.world.gpu.grant_count(), 1);
    }

    #[test]
    fn token_reacquired_after_each_quota() {
        // One job, kernels of 10ms, quota 40ms: roughly every 4 kernels the
        // token expires and must be re-acquired (costing 1ms).
        let mut eng = new_harness(IsolationMode::FULL, 40);
        let c = eng.world.gpu.attach(ShareSpec::exclusive());
        let mut out = Vec::new();
        for i in 0..12 {
            eng.world
                .gpu
                .submit_burst(SimTime::ZERO, c, SimDuration::from_millis(10), i, &mut out);
        }
        seed(&mut eng, out);
        assert_eq!(eng.run_to_completion(10_000), RunOutcome::Drained);
        assert_eq!(eng.world.notices.len(), 12);
        let grants = eng.world.gpu.grant_count();
        assert!(
            (3..=5).contains(&grants),
            "expected ~120ms/40ms ≈ 3 grants, got {grants}"
        );
        // Total time ≈ 120ms of kernels + one 1ms handoff per re-acquisition
        // that actually preceded a kernel (a trailing expiry re-grant may
        // add one bookkeeping grant after the last kernel).
        let end = eng.world.notices.last().unwrap().0;
        let end_ms = end.saturating_since(SimTime::ZERO).as_millis_f64();
        assert!(
            (123.0..=125.0).contains(&end_ms),
            "expected ~123ms end, got {end_ms}ms"
        );
    }

    #[test]
    fn two_clients_share_via_token() {
        let mut eng = new_harness(IsolationMode::FULL, 20);
        let a = eng.world.gpu.attach(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        let b = eng.world.gpu.attach(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        let mut out = Vec::new();
        // Both want 100ms of kernels in 10ms bursts.
        for i in 0..10 {
            eng.world
                .gpu
                .submit_burst(SimTime::ZERO, a, SimDuration::from_millis(10), i, &mut out);
            eng.world.gpu.submit_burst(
                SimTime::ZERO,
                b,
                SimDuration::from_millis(10),
                100 + i,
                &mut out,
            );
        }
        seed(&mut eng, out);
        assert_eq!(eng.run_to_completion(100_000), RunOutcome::Drained);
        assert_eq!(eng.world.notices.len(), 20);
        // Both clients' work completed; the device executed 200ms of kernels.
        let done_a = eng
            .world
            .notices
            .iter()
            .filter(|(_, n)| matches!(n, VgpuNotice::BurstDone { client, .. } if *client == a))
            .count();
        assert_eq!(done_a, 10);
        // Token alternated: more than 2 grants happened.
        assert!(eng.world.gpu.grant_count() >= 4);
    }

    #[test]
    fn memory_guard_enforces_quota() {
        let device = GpuDevice::new("n", 0, GpuSpec::test_gpu(1000));
        let mut gpu = SharedGpu::new(device, cfg(100), IsolationMode::FULL);
        let c = gpu.attach(ShareSpec::new(0.5, 0.5, 0.5).unwrap());
        // Quota = 500 bytes.
        let p = gpu.mem_alloc(c, 400).unwrap();
        let err = gpu.mem_alloc(c, 200).unwrap_err();
        assert_eq!(
            err,
            CudaError::OutOfMemory {
                requested: 200,
                available: 100
            }
        );
        gpu.mem_free(c, p).unwrap();
        gpu.mem_alloc(c, 500).unwrap();
        assert_eq!(gpu.mem_used(c), 500);
    }

    #[test]
    fn no_memory_guard_allows_device_level_overcommit_crash() {
        // Deepomatic-style: two containers each "promised" half the device
        // but nothing enforces it; the second allocation OOMs at device
        // level once the first hog ate everything.
        let device = GpuDevice::new("n", 0, GpuSpec::test_gpu(1000));
        let mut gpu = SharedGpu::new(device, cfg(100), IsolationMode::NONE);
        let hog = gpu.attach(ShareSpec::new(0.5, 0.5, 0.5).unwrap());
        let victim = gpu.attach(ShareSpec::new(0.5, 0.5, 0.5).unwrap());
        gpu.mem_alloc(hog, 900).unwrap(); // guard off: exceeds its 0.5 share
        let err = gpu.mem_alloc(victim, 400).unwrap_err();
        assert!(matches!(err, CudaError::OutOfMemory { .. }));
    }

    #[test]
    fn limit_throttles_lone_client() {
        // A single client with limit 0.5 gets throttled to ~half duty even
        // though the device is otherwise idle (Fig. 6 behaviour).
        let mut eng = new_harness(IsolationMode::FULL, 50);
        let c = eng
            .world
            .gpu
            .attach(ShareSpec::new(0.25, 0.5, 1.0).unwrap());
        let mut out = Vec::new();
        for i in 0..40 {
            eng.world
                .gpu
                .submit_burst(SimTime::ZERO, c, SimDuration::from_millis(25), i, &mut out);
        }
        seed(&mut eng, out);
        assert_eq!(eng.run_to_completion(1_000_000), RunOutcome::Drained);
        // 40 * 25ms = 1000ms of work at 50% duty ⇒ ≈ 2000ms wall clock.
        let end = eng.world.notices.last().unwrap().0.as_secs_f64();
        assert!(
            (1.7..=2.6).contains(&end),
            "expected ~2s at 50% duty, got {end}s"
        );
    }

    #[test]
    fn backend_restart_mid_workload_loses_no_bursts() {
        // The backend daemon dies and restarts while one client holds the
        // token and another waits for it. Frontends re-register and
        // re-request; every submitted burst still completes.
        enum ChaosEv {
            V(VgpuEvent),
            Restart,
        }
        impl SimEvent<Harness> for ChaosEv {
            fn fire(self, now: SimTime, w: &mut Harness, q: &mut EventQueue<Self>) {
                let mut out = Vec::new();
                match self {
                    ChaosEv::V(ev) => {
                        let mut notes = Vec::new();
                        w.gpu.handle(now, ev, &mut out, &mut notes);
                        for n in notes {
                            w.notices.push((now, n));
                        }
                    }
                    ChaosEv::Restart => w.gpu.restart_backend(now, &mut out),
                }
                for (at, ev) in out {
                    q.schedule_at(at, ChaosEv::V(ev));
                }
            }
        }
        let device = GpuDevice::new("n", 0, GpuSpec::test_gpu(1000));
        let mut eng: Engine<Harness, ChaosEv> = Engine::new(Harness {
            gpu: SharedGpu::new(device, cfg(40), IsolationMode::FULL),
            notices: Vec::new(),
        });
        let a = eng.world.gpu.attach(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        let b = eng.world.gpu.attach(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        let mut out = Vec::new();
        for i in 0..6 {
            eng.world
                .gpu
                .submit_burst(SimTime::ZERO, a, SimDuration::from_millis(15), i, &mut out);
            eng.world.gpu.submit_burst(
                SimTime::ZERO,
                b,
                SimDuration::from_millis(15),
                100 + i,
                &mut out,
            );
        }
        for (at, ev) in out {
            eng.queue.schedule_at(at, ChaosEv::V(ev));
        }
        // Kill the daemon mid-run — the token is held or in transit here.
        eng.queue
            .schedule_at(SimTime::from_millis(33), ChaosEv::Restart);
        assert_eq!(eng.run_to_completion(1_000_000), RunOutcome::Drained);
        assert_eq!(eng.world.notices.len(), 12, "no burst may be lost");
        let done_a = eng
            .world
            .notices
            .iter()
            .filter(|(_, n)| matches!(n, VgpuNotice::BurstDone { client, .. } if *client == a))
            .count();
        assert_eq!(done_a, 6);
    }

    #[test]
    fn detach_releases_resources() {
        let mut eng = new_harness(IsolationMode::FULL, 100);
        let c = eng.world.gpu.attach(ShareSpec::exclusive());
        eng.world.gpu.mem_alloc(c, 500).unwrap();
        let mut out = Vec::new();
        eng.world
            .gpu
            .submit_burst(SimTime::ZERO, c, SimDuration::from_millis(10), 0, &mut out);
        seed(&mut eng, out);
        let mut out2 = Vec::new();
        eng.world.gpu.detach(SimTime::ZERO, c, &mut out2);
        seed(&mut eng, out2);
        eng.run_to_completion(1000);
        assert_eq!(eng.world.gpu.client_count(), 0);
        assert_eq!(eng.world.gpu.device().memory().used(), 0);
        // The in-flight kernel completed silently: no notice.
        assert!(eng.world.notices.is_empty());
    }

    #[test]
    fn detach_forgets_kernels_dropped_from_the_device_queue() {
        // A runs one 50 ms burst; B queues three behind it on the device
        // and detaches, which drops them from the device queue. No launch
        // record of B's may outlive the run.
        let mut eng = new_harness(IsolationMode::NONE, 100);
        let a = eng.world.gpu.attach(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        let b = eng.world.gpu.attach(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        let mut out = Vec::new();
        let gpu = &mut eng.world.gpu;
        gpu.submit_burst(SimTime::ZERO, a, SimDuration::from_millis(50), 1, &mut out);
        for tag in 10..13 {
            gpu.submit_burst(
                SimTime::ZERO,
                b,
                SimDuration::from_millis(50),
                tag,
                &mut out,
            );
        }
        gpu.detach(SimTime::ZERO, b, &mut out);
        assert_eq!(gpu.device().queue_len(), 0);
        seed(&mut eng, out);
        assert_eq!(eng.run_to_completion(1000), RunOutcome::Drained);
        assert_eq!(
            eng.world.notices,
            vec![(
                SimTime::from_millis(50),
                VgpuNotice::BurstDone { client: a, tag: 1 }
            )]
        );
        assert!(eng.world.gpu.tags.is_empty(), "{:?}", eng.world.gpu.tags);
    }

    #[test]
    fn kernel_of_a_detached_client_finishes_silently_before_the_next() {
        // B's kernel is running when B detaches; A's queued kernel runs
        // after it and is the only one reported.
        let mut eng = new_harness(IsolationMode::NONE, 100);
        let b = eng.world.gpu.attach(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        let a = eng.world.gpu.attach(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        let mut out = Vec::new();
        let gpu = &mut eng.world.gpu;
        gpu.submit_burst(SimTime::ZERO, b, SimDuration::from_millis(30), 5, &mut out);
        gpu.submit_burst(SimTime::ZERO, a, SimDuration::from_millis(20), 6, &mut out);
        gpu.detach(SimTime::from_millis(10), b, &mut out);
        seed(&mut eng, out);
        assert_eq!(eng.run_to_completion(1000), RunOutcome::Drained);
        assert_eq!(
            eng.world.notices,
            vec![(
                SimTime::from_millis(50),
                VgpuNotice::BurstDone { client: a, tag: 6 }
            )]
        );
        assert!(eng.world.gpu.tags.is_empty());
    }

    #[test]
    fn kernel_done_at_the_expiry_instant_waits_for_the_expiry() {
        // Two 40 ms bursts under a 40 ms quota: the first kernel ends at
        // the instant the quota expires. Delivered before the expiry timer,
        // its completion finds the hold no longer valid, so the next burst
        // waits for the regrant instead of launching under a dead token.
        let mut eng = new_harness(IsolationMode::FULL, 40);
        let c = eng.world.gpu.attach(ShareSpec::exclusive());
        let mut out = Vec::new();
        for tag in 0..2 {
            eng.world.gpu.submit_burst(
                SimTime::ZERO,
                c,
                SimDuration::from_millis(40),
                tag,
                &mut out,
            );
        }
        let grant = out.pop().expect("grant in flight");
        assert!(out.is_empty());
        let mut notes = Vec::new();
        eng.world.gpu.handle(grant.0, grant.1, &mut out, &mut notes);
        let [expiry, done] = out[..] else {
            panic!("expected expiry + kernel done, got {out:?}")
        };
        assert_eq!(expiry.0, done.0);
        let mut later = Vec::new();
        eng.world.gpu.handle(done.0, done.1, &mut later, &mut notes);
        assert_eq!(notes, vec![VgpuNotice::BurstDone { client: c, tag: 0 }]);
        assert_eq!(eng.world.gpu.device().queue_len(), 0);
        assert!(
            !eng.world.gpu.device().is_busy(),
            "no launch under a dead token"
        );
        seed(&mut eng, vec![expiry]);
        seed(&mut eng, later);
        assert_eq!(eng.run_to_completion(1000), RunOutcome::Drained);
        let (at, last) = *eng.world.notices.last().unwrap();
        assert_eq!(last, VgpuNotice::BurstDone { client: c, tag: 1 });
        assert_eq!(at, done.0 + SimDuration::from_millis(41), "regrant + 40 ms");
    }

    /// Submits `n` back-to-back bursts for `c` and runs them to completion.
    fn run_bursts(eng: &mut Engine<Harness, Ev>, c: ClientId, n: u64) {
        let now = eng.now();
        let mut out = Vec::new();
        for tag in 0..n {
            eng.world
                .gpu
                .submit_burst(now, c, SimDuration::from_millis(30), tag, &mut out);
        }
        seed(eng, out);
        assert_eq!(eng.run_to_completion(100_000), RunOutcome::Drained);
    }

    #[test]
    fn metric_handles_register_lazily_and_follow_set_telemetry() {
        let mut eng = new_harness(IsolationMode::FULL, 100);
        let first = Telemetry::enabled();
        eng.world.gpu.set_telemetry(first.clone());
        let c = eng.world.gpu.attach(ShareSpec::exclusive());
        let uuid = eng.world.gpu.device().uuid().to_string();
        let gpu = [("gpu", uuid.as_str())];
        let count = |t: &Telemetry, name: &str| t.snapshot().counter_value(name, &gpu);

        // Attaching resolves nothing: no zero-valued series appear early.
        for name in [
            "ks_vgpu_bursts_submitted_total",
            "ks_vgpu_bursts_completed_total",
            "ks_vgpu_token_grants_total",
        ] {
            assert_eq!(count(&first, name), None, "{name} registered before use");
        }

        run_bursts(&mut eng, c, 7);
        assert_eq!(count(&first, "ks_vgpu_bursts_submitted_total"), Some(7));
        assert_eq!(count(&first, "ks_vgpu_bursts_completed_total"), Some(7));
        let grants = eng.world.gpu.grant_count();
        assert!(grants >= 1);
        assert_eq!(count(&first, "ks_vgpu_token_grants_total"), Some(grants));

        // A new handle gets the increments from here on; the old one keeps
        // what it had.
        let second = Telemetry::enabled();
        eng.world.gpu.set_telemetry(second.clone());
        run_bursts(&mut eng, c, 4);
        assert_eq!(count(&second, "ks_vgpu_bursts_submitted_total"), Some(4));
        assert_eq!(count(&second, "ks_vgpu_bursts_completed_total"), Some(4));
        assert_eq!(
            count(&second, "ks_vgpu_token_grants_total"),
            Some(eng.world.gpu.grant_count() - grants)
        );
        assert_eq!(count(&first, "ks_vgpu_bursts_submitted_total"), Some(7));
        assert_eq!(count(&first, "ks_vgpu_bursts_completed_total"), Some(7));
        assert_eq!(count(&first, "ks_vgpu_token_grants_total"), Some(grants));
    }
}
