//! The token protocol on real OS threads: a thin driver around the same
//! [`TokenBackend`] state machine the discrete-event model runs.
//! Application threads (the "containers") block in [`RtFrontend::acquire`]
//! until the machine grants them the token, exactly as the paper's
//! LD_PRELOAD frontend blocks intercepted CUDA calls.
//!
//! A `parking_lot` mutex guards the machine and the memory guard, and each
//! frontend has its own condvar, so a grant wakes only the thread it went
//! to; wall-clock instants map onto `SimTime` from the backend's start.
//! The handoff is zero and each grant takes effect at once, under the
//! lock. Dropping a [`TokenLease`] releases the token to the policy's
//! winner among the frontends waiting at that moment, so a releaser cannot
//! barge back in.
//!
//! Expiry is cooperative, as in the paper: a lease turns
//! [`TokenLease::expired`] at its deadline and the holder drops it. The
//! **reaper daemon thread** takes the token only from a holder that cannot
//! hand it back. A holder whose [`RtFrontend`] was dropped (`kill -9`: its
//! lease destructor never runs) is reaped at its lease deadline, so the
//! next waiter gets the token within about one quota. A live holder is
//! reaped only a crash timeout past its deadline, so an OS preemption
//! inside a critical section is not mistaken for a crash. The reaper
//! removes a dropped frontend's registration, usage history and memory
//! entry once it no longer holds the token. It also fires the machine's
//! retry timer; it holds only a [`std::sync::Weak`] reference and exits
//! once the backend and its frontends are gone.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::backend::{BackendTimer, TokenBackend, TokenState, VgpuConfig};
use crate::spec::ShareSpec;
use crate::window::ClientId;
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

/// How long past its deadline a live holder may keep the token before the
/// reaper presumes it crashed: ten quotas, and never under a second.
fn crash_timeout(quota: Duration) -> SimDuration {
    sim_duration((quota * 10).max(Duration::from_secs(1)))
}

fn sim_duration(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

struct State {
    machine: TokenBackend,
    /// When the machine's pending retry timer fires.
    retry_at: Option<SimTime>,
    /// Clients whose frontend was dropped; the reaper deregisters each
    /// once it no longer holds the token.
    gone: Vec<ClientId>,
    /// Each client's wake-up, signalled when it is granted the token.
    wakers: FxHashMap<ClientId, Arc<Condvar>>,
    /// Device-memory bytes allocated per client (the memory guard).
    mem_used: FxHashMap<ClientId, u64>,
    next_id: u64,
}

struct Inner {
    mu: Mutex<State>,
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

    /// Runs one machine call, then applies the timers it emitted: a grant
    /// takes effect at once and wakes its client, a retry waits for the
    /// reaper, and quota expiry is the reaper's rule. The clock is read
    /// under the lock, so the machine sees time run forward across threads.
    fn drive<R>(
        &self,
        st: &mut State,
        call: impl FnOnce(&mut TokenBackend, SimTime, &mut Vec<BackendTimer>) -> R,
    ) -> R {
        let now = self.sim_now(Instant::now());
        let mut timers = Vec::new();
        let result = call(&mut st.machine, now, &mut timers);
        while let Some(timer) = timers.pop() {
            match timer {
                BackendTimer::GrantEffective { epoch, .. } => {
                    let to = st.machine.on_grant_effective(now, epoch, &mut timers);
                    if self.telemetry.is_enabled() {
                        self.grants_total
                            .get_or_init(|| self.telemetry.counter("ks_vgpu_rt_grants_total", &[]))
                            .inc();
                    }
                    if let Some(wake) = to.and_then(|id| st.wakers.get(&id)) {
                        wake.notify_one();
                    }
                }
                BackendTimer::Retry { at } => st.retry_at = Some(at),
                BackendTimer::Expiry { .. } => {}
            }
        }
        result
    }

    /// One reaper tick: releases a holder that is gone and past its
    /// deadline, or live and past the crash timeout; deregisters the gone
    /// clients that no longer hold; fires a due retry.
    fn reap(&self, st: &mut State) {
        let now = self.sim_now(Instant::now());
        if let TokenState::Held { by, expires, .. } = st.machine.state() {
            let gone = st.gone.contains(&by);
            if now >= expires && (gone || now >= expires + crash_timeout(self.cfg.quota)) {
                if self.telemetry.is_enabled() {
                    self.lease_reaps
                        .get_or_init(|| self.telemetry.counter("ks_vgpu_rt_lease_reaps_total", &[]))
                        .inc();
                    let ctx = st.machine.client_ctx(by);
                    let client = by.label();
                    let fields = [("client", client.as_str())];
                    self.telemetry
                        .trace_event_in(now, ctx, "vgpu", "rt_lease_reaped", &fields);
                }
                self.drive(st, |m, now, out| m.release(now, by, out));
            }
        }
        for id in std::mem::take(&mut st.gone) {
            if matches!(st.machine.state(), TokenState::Held { by, .. } if by == id) {
                st.gone.push(id);
            } else {
                self.drive(st, |m, now, out| m.deregister(now, id, out));
                st.wakers.remove(&id);
                st.mem_used.remove(&id);
            }
        }
        if st.retry_at.is_some_and(|at| now >= at) {
            st.retry_at = None;
            self.drive(st, |m, now, out| m.on_retry(now, out));
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
        let machine = TokenBackend::new(VgpuConfig {
            quota: sim_duration(cfg.quota),
            handoff: SimDuration::ZERO,
            window: sim_duration(cfg.window),
            ..VgpuConfig::default()
        });
        let inner = Arc::new(Inner {
            mu: Mutex::new(State {
                machine,
                retry_at: None,
                gone: Vec::new(),
                wakers: Default::default(),
                mem_used: Default::default(),
                next_id: 1,
            }),
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
                    inner.reap(&mut inner.mu.lock());
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
        st.machine.register(id, spec).expect("fresh client id");
        let wake = Arc::new(Condvar::new());
        st.wakers.insert(id, Arc::clone(&wake));
        RtFrontend {
            inner: Arc::clone(&self.inner),
            id,
            wake,
        }
    }

    /// Total grants performed.
    pub fn grant_count(&self) -> u64 {
        self.inner.mu.lock().machine.grant_count()
    }
}

/// A container-side handle (the interposed device library).
pub struct RtFrontend {
    inner: Arc<Inner>,
    id: ClientId,
    wake: Arc<Condvar>,
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
        self.inner.mu.lock().machine.set_client_ctx(self.id, ctx);
    }

    /// Sliding-window usage of this container.
    pub fn usage(&self) -> f64 {
        let mut st = self.inner.mu.lock();
        let now = self.inner.sim_now(Instant::now());
        st.machine.usage(now, self.id)
    }

    /// `cuMemAlloc` through the memory guard: fails once the container
    /// would exceed its `gpu_mem` share of the device.
    pub fn mem_alloc(&self, bytes: u64) -> Result<(), ks_gpu::types::CudaError> {
        let mut st = self.inner.mu.lock();
        let spec = st.machine.spec(self.id).expect("frontend is registered");
        let quota = (spec.mem * self.inner.cfg.memory_bytes as f64) as u64;
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

    /// Blocks until this container holds the token. Returns the lease;
    /// kernel launches are legal until [`TokenLease::expired`].
    pub fn acquire(&self) -> TokenLease {
        let inner = &*self.inner;
        let wait_start = Instant::now();
        let mut st = inner.mu.lock();
        let expires = loop {
            // Re-requesting is idempotent, and re-queues a waiter whose
            // grant the reaper took back before its thread woke.
            let requested = inner.drive(&mut st, |m, now, out| m.request(now, self.id, out));
            requested.expect("frontend is registered");
            match st.machine.state() {
                TokenState::Held { by, expires, .. } if by == self.id => break expires,
                _ => self.wake.wait(&mut st),
            }
        };
        let telemetry = &inner.telemetry;
        if telemetry.is_enabled() {
            let now = Instant::now();
            inner
                .acquire_wait
                .get_or_init(|| telemetry.histogram_seconds("ks_vgpu_rt_acquire_wait_seconds", &[]))
                .observe(now.duration_since(wait_start).as_secs_f64());
            // Retroactive span covering the acquire wait, parented into the
            // client's causal trace (if one was attached via `set_trace_ctx`).
            let ctx = st.machine.client_ctx(self.id);
            let end = inner.sim_now(now);
            let begin = inner.sim_now(wait_start).min(end);
            let client = self.id.label();
            let fields = [("client", client.as_str())];
            let span = telemetry.span_begin_in(begin, ctx, "vgpu", "rt_token_grant", &fields);
            telemetry.span_end(end, span, &[]);
        }
        TokenLease {
            inner: Arc::clone(&self.inner),
            id: self.id,
            deadline: inner.start + Duration::from_micros(expires.as_micros()),
        }
    }
}

impl Drop for RtFrontend {
    fn drop(&mut self) {
        // Its lease may still run, or was leaked by a killed container, so
        // the reaper deregisters it once it no longer holds the token.
        self.inner.mu.lock().gone.push(self.id);
    }
}

/// Proof of token ownership; dropping it releases the token voluntarily.
pub struct TokenLease {
    inner: Arc<Inner>,
    id: ClientId,
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
        let inner = &*self.inner;
        inner.drive(&mut inner.mu.lock(), |m, now, out| {
            m.release(now, self.id, out)
        });
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
    fn release_hands_the_token_to_a_waiter_before_the_releaser_returns() {
        let be = RtBackend::new(cfg(500, 5000));
        // A asks for far more than B, so the policy prefers A whenever
        // both are waiting: A's small usage leaves it farther below its
        // request than B is below its own.
        let a = be.register(ShareSpec::new(0.9, 1.0, 0.5).unwrap());
        let b = be.register(ShareSpec::new(0.1, 1.0, 0.5).unwrap());
        let b_id = b.id();
        // Let the window age first, so A's short hold keeps its usage small.
        thread::sleep(Duration::from_millis(100));
        let lease_a = a.acquire();
        let order = Arc::new(Mutex::new(Vec::new()));
        let t = thread::spawn({
            let order = Arc::clone(&order);
            move || {
                let lease_b = b.acquire();
                order.lock().push("b");
                drop(lease_b);
            }
        });
        while !be.inner.mu.lock().machine.waiters().contains(&b_id) {
            thread::sleep(Duration::from_millis(1));
        }
        // A releases and re-acquires at once; B was already waiting, so
        // the release hands B the token before A can ask again.
        drop(lease_a);
        let lease_a = a.acquire();
        order.lock().push("a");
        drop(lease_a);
        t.join().unwrap();
        assert_eq!(*order.lock(), ["b", "a"], "the releaser barged ahead");
        assert_eq!(be.grant_count(), 3);
    }

    #[test]
    fn live_holder_keeps_the_token_until_the_crash_timeout() {
        let quota = Duration::from_millis(20);
        let be = RtBackend::new(cfg(20, 5000));
        let a = be.register(ShareSpec::new(0.5, 1.0, 1.0).unwrap());
        let b = be.register(ShareSpec::new(0.5, 1.0, 1.0).unwrap());
        let start = Instant::now();
        // A's frontend stays alive, so overrunning its quota is a stall,
        // not a crash: the reaper leaves it the token until the timeout.
        let lease_a = a.acquire();
        let t = thread::spawn(move || {
            let _lease_b = b.acquire();
            Instant::now()
        });
        let waited = t.join().unwrap().duration_since(start);
        let timeout = Duration::from_micros(crash_timeout(quota).as_micros());
        assert!(
            waited >= quota + timeout,
            "reaped a live holder after {waited:?}"
        );
        assert!(
            waited <= quota + timeout + Duration::from_millis(500),
            "reaper took {waited:?} to take the token back"
        );
        assert!(lease_a.expired());
        drop(lease_a);
        assert_eq!(be.grant_count(), 2, "the late release grants nothing");
    }

    #[test]
    fn dropped_frontends_are_deregistered() {
        let be = RtBackend::new(cfg(200, 5000));
        let registered = |id| {
            let st = be.inner.mu.lock();
            st.machine.spec(id).is_some()
                || st.wakers.contains_key(&id)
                || st.mem_used.contains_key(&id)
        };
        let a = be.register(ShareSpec::new(0.3, 1.0, 0.3).unwrap());
        let b = be.register(ShareSpec::new(0.3, 1.0, 0.3).unwrap());
        let c = be.register(ShareSpec::new(0.3, 1.0, 0.3).unwrap());
        let (a_id, b_id, c_id) = (a.id(), b.id(), c.id());
        a.mem_alloc(100).unwrap();
        b.mem_alloc(100).unwrap();
        c.mem_alloc(100).unwrap();
        // A's frontend goes while A holds; its lease ends later and B takes
        // the token. Then B's frontend goes while B holds and its lease is
        // leaked (a killed container), all within one reaper interval.
        let lease_a = a.acquire();
        drop(a);
        drop(lease_a);
        let lease_b = b.acquire();
        drop(b);
        std::mem::forget(lease_b);
        // B is reaped at its deadline; both are then deregistered.
        let lease_c = c.acquire();
        drop(lease_c);
        let deadline = Instant::now() + Duration::from_secs(2);
        while (registered(a_id) || registered(b_id)) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(!registered(a_id), "A's registration outlived its frontend");
        assert!(!registered(b_id), "B's registration outlived its frontend");
        assert!(registered(c_id));
        assert_eq!(c.mem_used(), 100);
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
