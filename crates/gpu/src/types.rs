//! Shared identifier and error types for the simulated GPU stack.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A CUDA context: one per container/process attached to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContextId(pub u64);

impl ks_sim_core::dense::DenseKey for ContextId {
    #[inline]
    fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx-{}", self.0)
    }
}

/// A device memory pointer returned by `cuMemAlloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DevicePtr(pub u64);

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

/// Errors surfaced by the simulated CUDA layer.
///
/// Mirrors the CUDA driver error codes the paper's device library interacts
/// with: memory over-allocation must fail with an out-of-memory error
/// (paper §4.5 — the frontend "simply throws out of memory exceptions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CudaError {
    /// `CUDA_ERROR_OUT_OF_MEMORY`: the device (or the container's memory
    /// quota) cannot satisfy the allocation.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes still available under the binding limit.
        available: u64,
    },
    /// `CUDA_ERROR_INVALID_CONTEXT`: the context is not attached.
    InvalidContext,
    /// `CUDA_ERROR_INVALID_VALUE`: bad pointer or zero-byte request.
    InvalidValue,
}

impl fmt::Display for CudaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CudaError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "CUDA_ERROR_OUT_OF_MEMORY: requested {requested} bytes, {available} available"
            ),
            CudaError::InvalidContext => write!(f, "CUDA_ERROR_INVALID_CONTEXT"),
            CudaError::InvalidValue => write!(f, "CUDA_ERROR_INVALID_VALUE"),
        }
    }
}

impl std::error::Error for CudaError {}

/// Number of bytes in one gibibyte, for readable device specs.
pub const GIB: u64 = 1024 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ContextId(3).to_string(), "ctx-3");
        assert_eq!(DevicePtr(0xdead).to_string(), "0x00000000dead");
        let e = CudaError::OutOfMemory {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("OUT_OF_MEMORY"));
    }

    #[test]
    fn gib_constant() {
        assert_eq!(16 * GIB, 17_179_869_184);
    }
}
