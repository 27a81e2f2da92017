//! A real, multi-threaded implementation of the token protocol.
//!
//! The discrete-event model in [`crate::shared`] drives the paper's
//! experiments; this module demonstrates the same frontend/backend protocol
//! with actual OS threads: application threads (the "containers") block in
//! [`RtFrontend::acquire`] until the backend's policy grants them the
//! token, exactly as the paper's LD_PRELOAD frontend blocks intercepted
//! CUDA calls. Synchronization uses `parking_lot` mutex + condvar.
//!
//! Expiry is enforced the way the paper's is: cooperatively at the API
//! boundary. A holder's lease turns invalid when its deadline passes, and
//! any waiter can then reap the hold and trigger a re-grant; the previous
//! holder's next launch re-enters `acquire`.
//!
//! On top of the cooperative path, the backend runs a **reaper daemon
//! thread** (the fault-tolerance layer): every quarter quota it reaps any
//! hold whose deadline has passed and wakes all waiters. This is what
//! reclaims the token when a frontend is killed outright (`kill -9` — its
//! [`TokenLease`] destructor never runs): the lease times out and the next
//! waiter is granted within one quota, even if no waiter happens to be
//! polling. The thread holds only a [`std::sync::Weak`] reference and
//! exits once the backend and all its frontends are gone.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::policy::{select_next, Candidate};
use crate::spec::ShareSpec;
use crate::window::{ClientId, UsageWindow};
use ks_sim_core::fxhash::FxHashMap;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::{Counter, Histo, Telemetry, TraceCtx};

/// Tunables for the realtime backend.
#[derive(Debug, Clone, Copy)]
pub struct RtConfig {
    /// Token time quota.
    pub quota: Duration,
    /// Sliding usage window.
    pub window: Duration,
    /// Device memory capacity in bytes (for the memory guard).
    pub memory_bytes: u64,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            quota: Duration::from_millis(100),
            window: Duration::from_secs(10),
            memory_bytes: 16 << 30,
        }
    }
}

struct Holder {
    id: ClientId,
    gen: u64,
    deadline: Instant,
}

struct State {
    holder: Option<Holder>,
    waiting: std::collections::BTreeSet<ClientId>,
    window: UsageWindow,
    specs: FxHashMap<ClientId, ShareSpec>,
    /// Causal trace context per client, so realtime grants and reaps land
    /// in the same sharePod span trees as the discrete-event backend's.
    ctxs: FxHashMap<ClientId, TraceCtx>,
    /// Device-memory bytes allocated per client (the memory guard).
    mem_used: FxHashMap<ClientId, u64>,
    next_id: u64,
    next_gen: u64,
    grants: u64,
}

struct Inner {
    mu: Mutex<State>,
    cv: Condvar,
    start: Instant,
    cfg: RtConfig,
    /// Wall-clock instants are mapped onto `SimTime` through `start`, so
    /// realtime traces share the discrete-event trace format.
    telemetry: Telemetry,
    /// Metric handles, resolved on first use (under the state lock, once)
    /// and then recorded against without touching the registry.
    grants_total: OnceLock<Counter>,
    acquire_wait: OnceLock<Histo>,
    lease_reaps: OnceLock<Counter>,
}

impl Inner {
    fn sim_now(&self, at: Instant) -> SimTime {
        SimTime::from_micros(at.duration_since(self.start).as_micros() as u64)
    }

    /// Ends the current hold if its deadline has passed. Must hold the lock.
    fn reap_expired(&self, st: &mut State, now: Instant) {
        if let Some(h) = &st.holder {
            if now >= h.deadline {
                let end = self.sim_now(h.deadline);
                let id = h.id;
                st.holder = None;
                st.window.end_hold(end, id);
                if self.telemetry.is_enabled() {
                    self.lease_reaps
                        .get_or_init(|| self.telemetry.counter("ks_vgpu_rt_lease_reaps_total", &[]))
                        .inc();
                    let ctx = st.ctxs.get(&id).copied().unwrap_or(TraceCtx::NONE);
                    self.telemetry.trace_event_in(
                        end,
                        ctx,
                        "vgpu",
                        "rt_lease_reaped",
                        &[("client", id.label().as_str())],
                    );
                }
            }
        }
    }
}

/// The per-node backend daemon (realtime flavor).
#[derive(Clone)]
pub struct RtBackend {
    inner: Arc<Inner>,
}

impl RtBackend {
    /// Creates a backend and starts its lease-reaper daemon thread.
    pub fn new(cfg: RtConfig) -> Self {
        Self::new_with_telemetry(cfg, Telemetry::disabled())
    }

    /// Like [`RtBackend::new`], with metrics/traces recorded to `telemetry`
    /// (wall-clock stamps mapped onto `SimTime` from the backend's start).
    pub fn new_with_telemetry(cfg: RtConfig, telemetry: Telemetry) -> Self {
        let inner = Arc::new(Inner {
            mu: Mutex::new(State {
                holder: None,
                waiting: Default::default(),
                window: UsageWindow::new(SimDuration::from_micros(cfg.window.as_micros() as u64)),
                specs: Default::default(),
                ctxs: Default::default(),
                mem_used: Default::default(),
                next_id: 1,
                next_gen: 1,
                grants: 0,
            }),
            cv: Condvar::new(),
            start: Instant::now(),
            cfg,
            telemetry,
            grants_total: OnceLock::new(),
            acquire_wait: OnceLock::new(),
            lease_reaps: OnceLock::new(),
        });
        let weak = Arc::downgrade(&inner);
        let interval = (cfg.quota / 4).max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("ks-vgpu-lease-reaper".into())
            .spawn(move || {
                // Weak: the reaper must not keep a dead backend alive.
                while let Some(inner) = weak.upgrade() {
                    {
                        let mut st = inner.mu.lock();
                        inner.reap_expired(&mut st, Instant::now());
                    }
                    inner.cv.notify_all();
                    drop(inner);
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn lease reaper");
        RtBackend { inner }
    }

    /// Registers a container; returns its frontend handle.
    pub fn register(&self, spec: ShareSpec) -> RtFrontend {
        spec.validate().expect("invalid share spec");
        let mut st = self.inner.mu.lock();
        let id = ClientId(st.next_id);
        st.next_id += 1;
        st.specs.insert(id, spec);
        RtFrontend {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Total grants performed.
    pub fn grant_count(&self) -> u64 {
        self.inner.mu.lock().grants
    }
}

/// A container-side handle (the interposed device library).
pub struct RtFrontend {
    inner: Arc<Inner>,
    id: ClientId,
}

impl RtFrontend {
    /// This container's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Attaches a causal trace context to this container: subsequent
    /// grant spans and lease reaps are parented under `ctx`, mirroring the
    /// discrete-event backend's `set_client_ctx`. Passing
    /// [`TraceCtx::NONE`] detaches.
    pub fn set_trace_ctx(&self, ctx: TraceCtx) {
        let mut st = self.inner.mu.lock();
        if ctx.is_none() {
            st.ctxs.remove(&self.id);
        } else {
            st.ctxs.insert(self.id, ctx);
        }
    }

    /// Sliding-window usage of this container.
    pub fn usage(&self) -> f64 {
        let mut st = self.inner.mu.lock();
        let now = self.inner.sim_now(Instant::now());
        st.window.usage(now, self.id)
    }

    /// `cuMemAlloc` through the memory guard: fails once the container
    /// would exceed its `gpu_mem` share of the device.
    pub fn mem_alloc(&self, bytes: u64) -> Result<(), ks_gpu::types::CudaError> {
        let mut st = self.inner.mu.lock();
        let quota = (st.specs[&self.id].mem * self.inner.cfg.memory_bytes as f64) as u64;
        let used = st.mem_used.get(&self.id).copied().unwrap_or(0);
        if used.saturating_add(bytes) > quota {
            return Err(ks_gpu::types::CudaError::OutOfMemory {
                requested: bytes,
                available: quota - used,
            });
        }
        *st.mem_used.entry(self.id).or_insert(0) += bytes;
        Ok(())
    }

    /// `cuMemFree` counterpart of [`RtFrontend::mem_alloc`].
    pub fn mem_free(&self, bytes: u64) {
        let mut st = self.inner.mu.lock();
        let e = st.mem_used.entry(self.id).or_insert(0);
        *e = e.saturating_sub(bytes);
    }

    /// Bytes currently allocated by this container.
    pub fn mem_used(&self) -> u64 {
        self.inner
            .mu
            .lock()
            .mem_used
            .get(&self.id)
            .copied()
            .unwrap_or(0)
    }

    /// Blocks until this container holds a valid token. Returns the lease;
    /// kernel launches are legal until [`TokenLease::expired`].
    pub fn acquire(&self) -> TokenLease {
        let wait_start = Instant::now();
        let mut st = self.inner.mu.lock();
        st.waiting.insert(self.id);
        loop {
            let now = Instant::now();
            self.inner.reap_expired(&mut st, now);
            if st.holder.is_none() {
                let sim_now = self.inner.sim_now(now);
                let waiting: Vec<ClientId> = st.waiting.iter().copied().collect();
                let cands: Vec<Candidate> = waiting
                    .into_iter()
                    .map(|c| Candidate {
                        client: c,
                        spec: st.specs[&c],
                        usage: st.window.usage(sim_now, c),
                    })
                    .collect();
                match select_next(&cands) {
                    Some(winner) if winner == self.id => {
                        let gen = st.next_gen;
                        st.next_gen += 1;
                        let deadline = now + self.inner.cfg.quota;
                        st.holder = Some(Holder {
                            id: self.id,
                            gen,
                            deadline,
                        });
                        st.grants += 1;
                        st.window.begin_hold(sim_now, self.id);
                        st.waiting.remove(&self.id);
                        let inner = &*self.inner;
                        let telemetry = &inner.telemetry;
                        if telemetry.is_enabled() {
                            inner
                                .grants_total
                                .get_or_init(|| telemetry.counter("ks_vgpu_rt_grants_total", &[]))
                                .inc();
                            inner
                                .acquire_wait
                                .get_or_init(|| {
                                    telemetry
                                        .histogram_seconds("ks_vgpu_rt_acquire_wait_seconds", &[])
                                })
                                .observe(now.duration_since(wait_start).as_secs_f64());
                            // Retroactive span covering the acquire wait,
                            // parented into the client's causal trace (if
                            // one was attached via `set_trace_ctx`).
                            let ctx = st.ctxs.get(&self.id).copied().unwrap_or(TraceCtx::NONE);
                            let begin = self.inner.sim_now(wait_start).min(sim_now);
                            let span = telemetry.span_begin_in(
                                begin,
                                ctx,
                                "vgpu",
                                "rt_token_grant",
                                &[("client", self.id.label().as_str())],
                            );
                            telemetry.span_end(sim_now, span, &[]);
                        }
                        return TokenLease {
                            inner: Arc::clone(&self.inner),
                            id: self.id,
                            gen,
                            deadline,
                        };
                    }
                    Some(_) => {
                        // Someone else should take it; wake them.
                        self.inner.cv.notify_all();
                    }
                    None => {
                        // Everyone at their limit; poll as usage decays.
                    }
                }
            }
            // Sleep until the holder's deadline or a short poll interval.
            let wake_at = st
                .holder
                .as_ref()
                .map(|h| h.deadline)
                .unwrap_or_else(|| Instant::now() + self.inner.cfg.quota / 10);
            self.inner.cv.wait_until(&mut st, wake_at);
        }
    }
}

/// Proof of token ownership; dropping it releases the token voluntarily.
pub struct TokenLease {
    inner: Arc<Inner>,
    id: ClientId,
    gen: u64,
    deadline: Instant,
}

impl TokenLease {
    /// True once the quota has run out — stop launching kernels and
    /// re-acquire.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Time left on the quota.
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }
}

impl Drop for TokenLease {
    fn drop(&mut self) {
        let mut st = self.inner.mu.lock();
        if let Some(h) = &st.holder {
            if h.id == self.id && h.gen == self.gen {
                let now = Instant::now().min(self.deadline);
                let end = self.inner.sim_now(now);
                st.holder = None;
                st.window.end_hold(end, self.id);
            }
        }
        self.inner.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn cfg(quota_ms: u64, window_ms: u64) -> RtConfig {
        RtConfig {
            quota: Duration::from_millis(quota_ms),
            window: Duration::from_millis(window_ms),
            memory_bytes: 1_000,
        }
    }

    #[test]
    fn lone_client_acquires_immediately() {
        let be = RtBackend::new(cfg(50, 1000));
        let fe = be.register(ShareSpec::exclusive());
        let lease = fe.acquire();
        assert!(!lease.expired());
        assert!(lease.remaining() <= Duration::from_millis(50));
        drop(lease);
        assert_eq!(be.grant_count(), 1);
    }

    #[test]
    fn release_lets_waiter_in() {
        let be = RtBackend::new(cfg(500, 5000));
        let a = be.register(ShareSpec::new(0.5, 1.0, 1.0).unwrap());
        let b = be.register(ShareSpec::new(0.5, 1.0, 1.0).unwrap());
        let lease_a = a.acquire();
        let t = thread::spawn(move || {
            let lease_b = b.acquire();
            assert!(!lease_b.expired());
        });
        thread::sleep(Duration::from_millis(20));
        drop(lease_a); // voluntary release
        t.join().unwrap();
        assert_eq!(be.grant_count(), 2);
    }

    #[test]
    fn expiry_lets_waiter_steal() {
        let be = RtBackend::new(cfg(30, 5000));
        let a = be.register(ShareSpec::new(0.5, 1.0, 1.0).unwrap());
        let b = be.register(ShareSpec::new(0.5, 1.0, 1.0).unwrap());
        let lease_a = a.acquire();
        // b blocks; a never releases voluntarily but the quota expires.
        let start = Instant::now();
        let t = thread::spawn(move || {
            let _lease_b = b.acquire();
            Instant::now()
        });
        let got_at = t.join().unwrap();
        assert!(
            got_at.duration_since(start) >= Duration::from_millis(25),
            "b must wait for a's quota"
        );
        assert!(lease_a.expired());
    }

    #[test]
    fn contended_shares_approach_requests() {
        // Two greedy threads, requests 0.3 / 0.7 — hold time should split
        // roughly by request under full subscription.
        let be = RtBackend::new(cfg(5, 200));
        let specs = [(0.3, 0.35), (0.7, 0.75)];
        let mut handles = Vec::new();
        let stop_at = Instant::now() + Duration::from_millis(400);
        for &(req, lim) in &specs {
            let fe = be.register(ShareSpec::new(req, lim, 1.0).unwrap());
            handles.push(thread::spawn(move || {
                let mut held = Duration::ZERO;
                while Instant::now() < stop_at {
                    let lease = fe.acquire();
                    let t0 = Instant::now();
                    // "Run kernels" until the quota runs out.
                    while !lease.expired() && Instant::now() < stop_at {
                        thread::sleep(Duration::from_millis(1));
                    }
                    held += t0.elapsed().min(lease.remaining() + t0.elapsed());
                    drop(lease);
                }
                held
            }));
        }
        let held: Vec<Duration> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let total = held[0] + held[1];
        assert!(total > Duration::from_millis(100), "threads made progress");
        let frac0 = held[0].as_secs_f64() / total.as_secs_f64();
        // Limits are 0.35/0.75 ⇒ thread 0 can't exceed ~0.35 of the window;
        // allow generous slack for scheduling noise.
        assert!(
            frac0 < 0.5,
            "thread with request 0.3 must hold less than half: {frac0}"
        );
    }

    #[test]
    fn memory_guard_enforces_quota_across_threads() {
        let be = RtBackend::new(cfg(50, 1000));
        let fe = be.register(ShareSpec::new(0.5, 1.0, 0.5).unwrap());
        // Quota = 500 of the 1000-byte device.
        fe.mem_alloc(400).unwrap();
        assert!(fe.mem_alloc(200).is_err());
        fe.mem_free(400);
        fe.mem_alloc(500).unwrap();
        assert_eq!(fe.mem_used(), 500);
    }

    #[test]
    fn grants_join_the_attached_causal_trace() {
        let telemetry = Telemetry::enabled();
        let be = RtBackend::new_with_telemetry(cfg(50, 1000), telemetry.clone());
        let fe = be.register(ShareSpec::exclusive());
        let root = telemetry.trace_root(SimTime::ZERO, "sched", "sharepod", &[]);
        fe.set_trace_ctx(root);
        let lease = fe.acquire();
        drop(lease);
        telemetry.span_end(SimTime::from_secs(1), root.span, &[]);
        let events = telemetry.trace_events();
        let grant = events
            .iter()
            .find(|e| e.name == "rt_token_grant")
            .expect("grant span recorded");
        assert_eq!(grant.trace, root.trace, "grant joins the sharePod trace");
        assert_ne!(grant.parent, 0, "grant is parented, not an orphan");
    }

    #[test]
    fn usage_reflects_holds() {
        let be = RtBackend::new(cfg(50, 1000));
        let fe = be.register(ShareSpec::exclusive());
        assert_eq!(fe.usage(), 0.0);
        let lease = fe.acquire();
        thread::sleep(Duration::from_millis(20));
        drop(lease);
        thread::sleep(Duration::from_millis(20));
        let u = fe.usage();
        assert!(u > 0.1 && u < 0.95, "usage {u} should be ~0.5");
    }
}
