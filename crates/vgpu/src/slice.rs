//! The per-node backend for a *spatially partitioned* device: the
//! MIG-style sibling of [`crate::backend::TokenBackend`].
//!
//! Where the token backend multiplexes one device in **time** — one token,
//! quota'd holds, a handoff on every re-acquisition — a partitioned device
//! gives each container a dedicated hardware slice. The consequences the
//! backend models:
//!
//! * **no handoff**: a slice tenant launches kernels the moment they
//!   arrive; there is no token to wait for, so the Fig. 7 overhead is 0;
//! * **hard isolation**: tenants on different slices never delay each
//!   other — a neighbour's kernel storm cannot move a tenant's completion
//!   time by a microsecond (the property `tests` pin down);
//! * **throughput scaling**: a slice has `profile.frac()` of the device's
//!   compute, so work sized for the whole device runs `1/frac` slower.
//!   This is the price spatial sharing pays where time-slicing would have
//!   given an alone-on-the-device container the full GPU.
//!
//! Like the token backend, this is a passive state machine with no timers
//! of its own: `launch` returns the completion time and the embedding
//! simulation schedules it.

use std::cell::OnceCell;

use ks_partition::{Profile, SLOTS_PER_GPU};
use ks_sim_core::fxhash::FxHashMap;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::{Counter, Histo, Telemetry};

use crate::window::ClientId;

/// Client-facing failures of the slice backend (values, not panics, for
/// the same containment reasons as [`crate::backend::BackendError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceError {
    /// The client is already bound to a slice on this device.
    AlreadyBound(ClientId),
    /// The client has no slice on this device.
    UnknownClient(ClientId),
    /// The requested placement overlaps a resident slice.
    Overlap {
        /// Requested start slot.
        start: u8,
    },
    /// The start slot is not a legal boundary for the profile, or the
    /// slice would run off the end of the device.
    IllegalStart {
        /// Requested start slot.
        start: u8,
    },
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::AlreadyBound(c) => write!(f, "{c} already bound to a slice"),
            SliceError::UnknownClient(c) => write!(f, "{c} has no slice"),
            SliceError::Overlap { start } => write!(f, "slice at slot {start} overlaps"),
            SliceError::IllegalStart { start } => write!(f, "illegal slice start {start}"),
        }
    }
}

impl std::error::Error for SliceError {}

/// One tenant's slice binding and launch state.
#[derive(Debug, Clone, Copy)]
struct SliceState {
    profile: Profile,
    start: u8,
    /// The tenant's own launch queue drains at its slice's rate; kernels
    /// serialize *within* the slice only.
    busy_until: SimTime,
    /// Cumulative busy time on the slice (metering).
    busy_total: SimDuration,
}

/// Per-launch metric handles, resolved on first use and kept until the
/// telemetry handle changes.
#[derive(Debug, Default)]
struct Metrics {
    launches: OnceCell<Counter>,
    queue_wait: OnceCell<Histo>,
}

/// The slice manager for one partitioned device.
#[derive(Debug)]
pub struct SliceBackend {
    tenants: FxHashMap<ClientId, SliceState>,
    /// Occupied-slot bitmask (low [`SLOTS_PER_GPU`] bits).
    occupied: u8,
    launches: u64,
    telemetry: Telemetry,
    gpu_label: String,
    metrics: Metrics,
}

impl SliceBackend {
    /// Creates an empty slice backend.
    pub fn new() -> Self {
        SliceBackend {
            tenants: FxHashMap::default(),
            occupied: 0,
            launches: 0,
            telemetry: Telemetry::disabled(),
            gpu_label: String::new(),
            metrics: Metrics::default(),
        }
    }

    /// Attaches a telemetry handle; `gpu` becomes the `gpu` label on every
    /// metric this backend exports.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, gpu: &str) {
        self.telemetry = telemetry;
        self.gpu_label = gpu.to_string();
        self.metrics = Metrics::default();
    }

    fn span_mask(start: u8, slots: u8) -> u8 {
        (((1u16 << slots) - 1) << start) as u8
    }

    /// Binds a container to the slice `[start, start + profile.slots())`.
    /// The control plane's partition table made the placement decision;
    /// the backend re-validates geometry so a control-plane/daemon race
    /// degrades one client instead of corrupting the device.
    pub fn bind(
        &mut self,
        client: ClientId,
        profile: Profile,
        start: u8,
    ) -> Result<(), SliceError> {
        if self.tenants.contains_key(&client) {
            return Err(SliceError::AlreadyBound(client));
        }
        if !profile.allowed_starts().contains(&start) || start + profile.slots() > SLOTS_PER_GPU {
            return Err(SliceError::IllegalStart { start });
        }
        let mask = Self::span_mask(start, profile.slots());
        if self.occupied & mask != 0 {
            return Err(SliceError::Overlap { start });
        }
        self.occupied |= mask;
        self.tenants.insert(
            client,
            SliceState {
                profile,
                start,
                busy_until: SimTime::ZERO,
                busy_total: SimDuration::ZERO,
            },
        );
        Ok(())
    }

    /// Unbinds a departing container, freeing its slots. Unknown clients
    /// are a no-op (teardown paths are allowed to race).
    pub fn unbind(&mut self, client: ClientId) {
        if let Some(s) = self.tenants.remove(&client) {
            self.occupied &= !Self::span_mask(s.start, s.profile.slots());
        }
    }

    /// Launches a kernel batch of `work` device-seconds (time the work
    /// would take on the *whole* GPU). It starts immediately if the slice
    /// is free, or queues behind the tenant's own earlier launches — never
    /// behind another tenant's — and runs at the slice's fraction of
    /// device throughput. Returns the completion time.
    pub fn launch(
        &mut self,
        now: SimTime,
        client: ClientId,
        work: SimDuration,
    ) -> Result<SimTime, SliceError> {
        let Some(s) = self.tenants.get_mut(&client) else {
            return Err(SliceError::UnknownClient(client));
        };
        let scaled =
            SimDuration::from_micros((work.as_secs_f64() / s.profile.frac() * 1e6).round() as u64);
        let begin = s.busy_until.max(now);
        let done = begin + scaled;
        s.busy_until = done;
        s.busy_total += scaled;
        self.launches += 1;
        if self.telemetry.is_enabled() {
            self.metrics
                .launches
                .get_or_init(|| {
                    self.telemetry
                        .counter("ks_vgpu_slice_launches_total", &[("gpu", &self.gpu_label)])
                })
                .inc();
            // Queueing inside the tenant's own slice; cross-tenant wait is
            // structurally zero, which is the isolation argument in one
            // histogram.
            self.metrics
                .queue_wait
                .get_or_init(|| {
                    self.telemetry.histogram_seconds(
                        "ks_vgpu_slice_queue_wait_seconds",
                        &[("gpu", &self.gpu_label)],
                    )
                })
                .observe(begin.saturating_since(now).as_secs_f64());
        }
        Ok(done)
    }

    /// The tenant's slice profile and start slot.
    pub fn slice_of(&self, client: ClientId) -> Option<(Profile, u8)> {
        self.tenants.get(&client).map(|s| (s.profile, s.start))
    }

    /// When the tenant's launch queue drains (≤ `now` means idle).
    pub fn busy_until(&self, client: ClientId) -> Option<SimTime> {
        self.tenants.get(&client).map(|s| s.busy_until)
    }

    /// Cumulative busy time billed to the tenant's slice.
    pub fn busy_total(&self, client: ClientId) -> Option<SimDuration> {
        self.tenants.get(&client).map(|s| s.busy_total)
    }

    /// Total kernel launches admitted (all tenants).
    pub fn launch_count(&self) -> u64 {
        self.launches
    }

    /// Occupied slots out of [`SLOTS_PER_GPU`].
    pub fn occupied_slots(&self) -> u8 {
        self.occupied.count_ones() as u8
    }

    /// Bound tenants in deterministic id order.
    pub fn bound(&self) -> Vec<(ClientId, Profile, u8)> {
        let mut v: Vec<(ClientId, Profile, u8)> = self
            .tenants
            .iter()
            .map(|(&c, s)| (c, s.profile, s.start))
            .collect();
        v.sort_by_key(|&(c, _, _)| c);
        v
    }
}

impl Default for SliceBackend {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ClientId = ClientId(1);
    const B: ClientId = ClientId(2);

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn launch_is_immediate_no_handoff() {
        let mut b = SliceBackend::new();
        b.bind(A, Profile::P7, 0).unwrap();
        // 70ms of whole-device work on a full-device slice: done at +70ms.
        assert_eq!(b.launch(t(0), A, d(70)).unwrap(), t(70));
    }

    #[test]
    fn slice_fraction_scales_throughput() {
        let mut b = SliceBackend::new();
        b.bind(A, Profile::P1, 0).unwrap();
        // 10ms of whole-device work on a 1/7 slice takes 70ms.
        assert_eq!(b.launch(t(0), A, d(10)).unwrap(), t(70));
    }

    #[test]
    fn tenants_are_isolated() {
        let mut b = SliceBackend::new();
        b.bind(A, Profile::P4, 0).unwrap();
        b.bind(B, Profile::P3, 4).unwrap();
        // B floods its slice with work...
        for _ in 0..100 {
            b.launch(t(0), B, d(100)).unwrap();
        }
        // ...and A's completion time is exactly what it would be alone:
        // 40ms of device work on a 4/7 slice = 70ms.
        assert_eq!(b.launch(t(0), A, d(40)).unwrap(), t(70));
    }

    #[test]
    fn launches_serialize_within_a_slice() {
        let mut b = SliceBackend::new();
        b.bind(A, Profile::P7, 0).unwrap();
        assert_eq!(b.launch(t(0), A, d(50)).unwrap(), t(50));
        // Second launch at t=10 queues behind the first.
        assert_eq!(b.launch(t(10), A, d(50)).unwrap(), t(100));
        // After the queue drains, launches start immediately again.
        assert_eq!(b.launch(t(200), A, d(10)).unwrap(), t(210));
    }

    #[test]
    fn geometry_is_revalidated() {
        let mut b = SliceBackend::new();
        b.bind(A, Profile::P4, 0).unwrap();
        assert_eq!(
            b.bind(B, Profile::P4, 0),
            Err(SliceError::Overlap { start: 0 })
        );
        assert_eq!(
            b.bind(B, Profile::P2, 1),
            Err(SliceError::IllegalStart { start: 1 })
        );
        assert_eq!(b.bind(B, Profile::P3, 4), Ok(()));
        assert_eq!(b.occupied_slots(), 7);
    }

    #[test]
    fn unbind_frees_slots_for_rebinding() {
        let mut b = SliceBackend::new();
        b.bind(A, Profile::P4, 0).unwrap();
        b.unbind(A);
        assert_eq!(b.occupied_slots(), 0);
        assert_eq!(b.bind(B, Profile::P7, 0), Ok(()));
        assert_eq!(b.launch(t(0), A, d(1)), Err(SliceError::UnknownClient(A)));
    }

    #[test]
    fn metering_accumulates_scaled_time() {
        let mut b = SliceBackend::new();
        b.bind(A, Profile::P1, 0).unwrap();
        b.launch(t(0), A, d(10)).unwrap();
        b.launch(t(0), A, d(10)).unwrap();
        assert_eq!(b.busy_total(A), Some(d(140)));
        assert_eq!(b.launch_count(), 2);
    }
}
