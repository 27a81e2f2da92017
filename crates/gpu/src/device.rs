//! A simulated GPU device: execution engine + memory + usage accounting.

use ks_sim_core::dense::DenseMap;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_sim_core::timeseries::BusyIntegrator;

use crate::engine::{ExecEngine, FinishedKernel, KernelTag, StartedKernel};
use crate::memory::MemoryPool;
use crate::types::{ContextId, CudaError, DevicePtr, GIB};
use crate::uuid::GpuUuid;

/// Static description of a GPU model.
#[derive(Debug, Clone)]
pub struct GpuSpec {
    /// Marketing name, e.g. "Tesla V100-SXM2-16GB".
    pub name: String,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
}

impl GpuSpec {
    /// The paper's testbed GPU: NVIDIA Tesla V100 with 16 GB (§5.1).
    pub fn v100_16gb() -> Self {
        GpuSpec {
            name: "Tesla V100-SXM2-16GB".to_string(),
            memory_bytes: 16 * GIB,
        }
    }

    /// A small GPU useful in tests.
    pub fn test_gpu(memory_bytes: u64) -> Self {
        GpuSpec {
            name: "TestGPU".to_string(),
            memory_bytes,
        }
    }
}

/// A simulated physical GPU.
///
/// The device does not schedule itself: callers submit kernel bursts and
/// are handed [`StartedKernel`] records whose `end` times they must turn
/// into completion events (calling [`GpuDevice::complete`]). This keeps the
/// device usable from any event loop.
#[derive(Debug)]
pub struct GpuDevice {
    uuid: GpuUuid,
    index: u32,
    spec: GpuSpec,
    mem: MemoryPool,
    engine: ExecEngine,
    busy: BusyIntegrator,
    /// Attached contexts and the engine time each has consumed in
    /// completed kernels. Context ids are minted from 1 upward.
    contexts: DenseMap<ContextId, SimDuration>,
    next_ctx: u64,
}

impl GpuDevice {
    /// Creates device `index` on node `node`.
    pub fn new(node: &str, index: u32, spec: GpuSpec) -> Self {
        GpuDevice {
            uuid: GpuUuid::derive(node, index),
            index,
            mem: MemoryPool::new(spec.memory_bytes),
            spec,
            engine: ExecEngine::new(),
            busy: BusyIntegrator::new(SimTime::ZERO, 0.0),
            contexts: DenseMap::new(),
            next_ctx: 1,
        }
    }

    /// Driver-reported UUID.
    pub fn uuid(&self) -> &GpuUuid {
        &self.uuid
    }

    /// Index of the device on its node.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Static spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Read access to the memory pool.
    pub fn memory(&self) -> &MemoryPool {
        &self.mem
    }

    /// Attaches a new CUDA context (a container starting to use the GPU).
    pub fn attach(&mut self) -> ContextId {
        let ctx = ContextId(self.next_ctx);
        self.next_ctx += 1;
        self.contexts.insert(ctx, SimDuration::ZERO);
        ctx
    }

    /// Detaches a context: frees its memory and drops its queued kernels.
    /// A kernel currently running is allowed to finish (non-preemptive).
    pub fn detach(&mut self, ctx: ContextId) {
        self.contexts.remove(ctx);
        self.mem.release_context(ctx);
        self.engine.drop_queued(ctx);
    }

    /// True while `ctx` is attached.
    pub fn is_attached(&self, ctx: ContextId) -> bool {
        self.contexts.contains_key(ctx)
    }

    /// Number of attached contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// `cuMemAlloc` against the raw device (no quota — quotas are the vGPU
    /// device library's job).
    pub fn mem_alloc(&mut self, ctx: ContextId, bytes: u64) -> Result<DevicePtr, CudaError> {
        if !self.contexts.contains_key(ctx) {
            return Err(CudaError::InvalidContext);
        }
        self.mem.alloc(ctx, bytes)
    }

    /// `cuMemFree`.
    pub fn mem_free(&mut self, ctx: ContextId, ptr: DevicePtr) -> Result<u64, CudaError> {
        if !self.contexts.contains_key(ctx) {
            return Err(CudaError::InvalidContext);
        }
        self.mem.free(ctx, ptr)
    }

    /// Submits a kernel burst for execution. See [`ExecEngine::submit`].
    pub fn submit(
        &mut self,
        now: SimTime,
        ctx: ContextId,
        dur: SimDuration,
        tag: KernelTag,
    ) -> Result<Option<StartedKernel>, CudaError> {
        if !self.contexts.contains_key(ctx) {
            return Err(CudaError::InvalidContext);
        }
        let started = self.engine.submit(now, ctx, dur, tag);
        if started.is_some() {
            self.busy.set_level(now, 1.0);
        }
        Ok(started)
    }

    /// Completes the running kernel at its end time; returns the finished
    /// kernel and the next one started from the queue (if any).
    pub fn complete(&mut self, now: SimTime) -> (FinishedKernel, Option<StartedKernel>) {
        let (finished, next) = self.engine.complete(now);
        if let Some(busy) = self.contexts.get_mut(finished.ctx) {
            *busy += finished.ran_for;
        }
        if next.is_none() {
            self.busy.set_level(now, 0.0);
        }
        (finished, next)
    }

    /// True while a kernel occupies the engine.
    pub fn is_busy(&self) -> bool {
        self.engine.is_busy()
    }

    /// Context currently occupying the engine, if any.
    pub fn running_ctx(&self) -> Option<ContextId> {
        self.engine.running_ctx()
    }

    /// Queued (not yet started) kernel count.
    pub fn queue_len(&self) -> usize {
        self.engine.queue_len()
    }

    /// Total busy seconds since t = 0 up to `now` (what NVML integrates).
    pub fn busy_seconds(&self, now: SimTime) -> f64 {
        self.busy.integral_until(now)
    }

    /// Cumulative engine time consumed by `ctx` in *completed* kernels
    /// while attached; zero once it detaches.
    pub fn ctx_busy_total(&self, ctx: ContextId) -> SimDuration {
        self.contexts.get(ctx).copied().unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn dev() -> GpuDevice {
        GpuDevice::new("node-0", 0, GpuSpec::test_gpu(1000))
    }

    #[test]
    fn attach_detach_lifecycle() {
        let mut g = dev();
        let c = g.attach();
        assert!(g.is_attached(c));
        assert_eq!(g.context_count(), 1);
        g.mem_alloc(c, 500).unwrap();
        g.detach(c);
        assert!(!g.is_attached(c));
        assert_eq!(g.memory().used(), 0, "detach releases memory");
    }

    #[test]
    fn unattached_context_rejected() {
        let mut g = dev();
        let bad = ContextId(99);
        assert_eq!(g.mem_alloc(bad, 10).unwrap_err(), CudaError::InvalidContext);
        assert_eq!(
            g.submit(t(0), bad, d(1), KernelTag(0)).unwrap_err(),
            CudaError::InvalidContext
        );
    }

    #[test]
    fn busy_accounting() {
        let mut g = dev();
        let c = g.attach();
        let s = g.submit(t(0), c, d(4), KernelTag(1)).unwrap().unwrap();
        assert!(g.is_busy());
        g.complete(s.end);
        assert!(!g.is_busy());
        assert_eq!(g.busy_seconds(t(8)), 4.0);
        assert_eq!(g.ctx_busy_total(c), d(4));
    }

    #[test]
    fn serialized_contexts_share_engine() {
        let mut g = dev();
        let c1 = g.attach();
        let c2 = g.attach();
        let s1 = g.submit(t(0), c1, d(2), KernelTag(1)).unwrap().unwrap();
        assert!(g.submit(t(0), c2, d(2), KernelTag(2)).unwrap().is_none());
        let (f1, s2) = g.complete(s1.end);
        assert_eq!(f1.ctx, c1);
        let s2 = s2.unwrap();
        assert_eq!(s2.ctx, c2);
        g.complete(s2.end);
        assert_eq!(g.busy_seconds(t(4)), 4.0);
        assert_eq!(g.ctx_busy_total(c1), d(2));
        assert_eq!(g.ctx_busy_total(c2), d(2));
    }

    #[test]
    fn v100_spec() {
        let s = GpuSpec::v100_16gb();
        assert_eq!(s.memory_bytes, 16 * GIB);
        let g = GpuDevice::new("aws-node", 3, s);
        assert_eq!(g.index(), 3);
        assert!(g.uuid().as_str().starts_with("GPU-"));
    }
}
