//! Device memory: a bump-pointer address space with per-context accounting.
//!
//! The paper shares GPU memory *by space* (§4.2): each container may use up
//! to `gpu_mem` of the device. The pool tracks per-context usage so the
//! vGPU device library's memory guard can enforce quotas, and the physical
//! capacity so native (unguarded) allocation still fails realistically when
//! the device itself is exhausted.

use ks_sim_core::fxhash::FxHashMap;

use crate::types::{ContextId, CudaError, DevicePtr};

/// One live allocation.
#[derive(Debug, Clone, Copy)]
struct Allocation {
    ctx: ContextId,
    bytes: u64,
}

/// The device's memory space.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    capacity: u64,
    used: u64,
    next_ptr: u64,
    allocations: FxHashMap<DevicePtr, Allocation>,
    per_ctx: FxHashMap<ContextId, u64>,
}

impl MemoryPool {
    /// Creates a pool with the given physical capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryPool {
            capacity,
            used: 0,
            next_ptr: 0x7f00_0000_0000, // decorative; real pointers look like this
            allocations: FxHashMap::default(),
            per_ctx: FxHashMap::default(),
        }
    }

    /// Physical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated across all contexts.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free on the device.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Bytes currently allocated by one context.
    pub fn used_by(&self, ctx: ContextId) -> u64 {
        self.per_ctx.get(&ctx).copied().unwrap_or(0)
    }

    /// Allocates `bytes` for `ctx`. Fails with `OutOfMemory` when the device
    /// is exhausted, `InvalidValue` for zero-byte requests.
    pub fn alloc(&mut self, ctx: ContextId, bytes: u64) -> Result<DevicePtr, CudaError> {
        if bytes == 0 {
            return Err(CudaError::InvalidValue);
        }
        if self.used + bytes > self.capacity {
            return Err(CudaError::OutOfMemory {
                requested: bytes,
                available: self.free_bytes(),
            });
        }
        let ptr = DevicePtr(self.next_ptr);
        self.next_ptr += bytes.max(256); // 256-byte minimum granularity
        self.used += bytes;
        *self.per_ctx.entry(ctx).or_insert(0) += bytes;
        self.allocations.insert(ptr, Allocation { ctx, bytes });
        Ok(ptr)
    }

    /// Frees a pointer. The context must match the allocating context.
    pub fn free(&mut self, ctx: ContextId, ptr: DevicePtr) -> Result<u64, CudaError> {
        match self.allocations.get(&ptr) {
            Some(a) if a.ctx == ctx => {
                let bytes = a.bytes;
                self.allocations.remove(&ptr);
                self.used -= bytes;
                let e = self.per_ctx.get_mut(&ctx).expect("ctx accounted");
                *e -= bytes;
                if *e == 0 {
                    self.per_ctx.remove(&ctx);
                }
                Ok(bytes)
            }
            Some(_) => Err(CudaError::InvalidContext),
            None => Err(CudaError::InvalidValue),
        }
    }

    /// Releases every allocation owned by `ctx` (container teardown).
    /// Returns the number of bytes released.
    pub fn release_context(&mut self, ctx: ContextId) -> u64 {
        let released = self.used_by(ctx);
        self.allocations.retain(|_, a| a.ctx != ctx);
        self.per_ctx.remove(&ctx);
        self.used -= released;
        released
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.allocations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: ContextId = ContextId(1);
    const C2: ContextId = ContextId(2);

    #[test]
    fn alloc_and_free_round_trip() {
        let mut m = MemoryPool::new(1000);
        let p = m.alloc(C1, 400).unwrap();
        assert_eq!(m.used(), 400);
        assert_eq!(m.used_by(C1), 400);
        assert_eq!(m.free(C1, p).unwrap(), 400);
        assert_eq!(m.used(), 0);
        assert_eq!(m.used_by(C1), 0);
    }

    #[test]
    fn oom_when_device_full() {
        let mut m = MemoryPool::new(1000);
        m.alloc(C1, 800).unwrap();
        let err = m.alloc(C2, 300).unwrap_err();
        assert_eq!(
            err,
            CudaError::OutOfMemory {
                requested: 300,
                available: 200
            }
        );
        // Exact fit succeeds.
        m.alloc(C2, 200).unwrap();
        assert_eq!(m.free_bytes(), 0);
    }

    #[test]
    fn zero_byte_alloc_rejected() {
        let mut m = MemoryPool::new(1000);
        assert_eq!(m.alloc(C1, 0).unwrap_err(), CudaError::InvalidValue);
    }

    #[test]
    fn free_wrong_context_rejected() {
        let mut m = MemoryPool::new(1000);
        let p = m.alloc(C1, 100).unwrap();
        assert_eq!(m.free(C2, p).unwrap_err(), CudaError::InvalidContext);
        assert_eq!(m.used(), 100, "failed free must not change state");
    }

    #[test]
    fn double_free_rejected() {
        let mut m = MemoryPool::new(1000);
        let p = m.alloc(C1, 100).unwrap();
        m.free(C1, p).unwrap();
        assert_eq!(m.free(C1, p).unwrap_err(), CudaError::InvalidValue);
    }

    #[test]
    fn release_context_frees_everything() {
        let mut m = MemoryPool::new(1000);
        m.alloc(C1, 100).unwrap();
        m.alloc(C1, 200).unwrap();
        m.alloc(C2, 300).unwrap();
        assert_eq!(m.release_context(C1), 300);
        assert_eq!(m.used(), 300);
        assert_eq!(m.used_by(C1), 0);
        assert_eq!(m.used_by(C2), 300);
        assert_eq!(m.allocation_count(), 1);
    }

    #[test]
    fn pointers_are_unique() {
        let mut m = MemoryPool::new(10_000);
        let p1 = m.alloc(C1, 100).unwrap();
        let p2 = m.alloc(C1, 100).unwrap();
        assert_ne!(p1, p2);
    }
}
