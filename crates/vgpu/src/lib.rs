//! `ks-vgpu` — the vGPU device library of KubeShare (paper §4.5).
//!
//! The library isolates GPU usage among containers sharing one device:
//!
//! * a per-container **frontend** intercepts the CUDA API (memory calls hit
//!   a quota guard; kernel launches block until the container holds a valid
//!   **token**),
//! * a per-node **backend** daemon owns one token per device, tracks usage
//!   in a sliding window, and schedules the token with the paper's
//!   three-step elastic policy (filter at `gpu_limit` → farthest below
//!   `gpu_request` → lowest usage),
//! * each token carries a **time quota** (default 100 ms); re-acquisition
//!   costs a handoff round trip, which is the overhead Fig. 7 measures.
//!
//! [`shared::SharedGpu`] packages a simulated device with the library for
//! discrete-event experiments; [`realtime`] drives the same
//! [`TokenBackend`] state machine from OS threads (frontends in application
//! threads blocking on a backend daemon), demonstrating that the protocol
//! is not simulation-bound.

#![warn(missing_docs)]

pub mod backend;
pub mod cuda;
pub mod policy;
pub mod realtime;
pub mod shared;
pub mod slice;
pub mod spec;
pub mod swap;
pub mod window;

pub use backend::{BackendError, BackendTimer, TokenBackend, TokenState, VgpuConfig};
pub use shared::{IsolationMode, SharedGpu, VgpuEmit, VgpuEvent, VgpuNotice};
pub use slice::{SliceBackend, SliceError};
pub use spec::{ShareSpec, SpecError};
pub use swap::SwapPolicy;
pub use window::{ClientId, UsageWindow};
