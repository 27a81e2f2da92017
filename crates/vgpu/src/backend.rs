//! The per-node backend daemon's token state machine (paper §4.5).
//!
//! One token exists per device. A container may execute kernels only while
//! it holds a valid token; the token carries a time quota (default 100 ms)
//! after which the holder must re-acquire it. The backend:
//!
//! 1. tracks each container's usage (time holding the token, sliding
//!    window),
//! 2. queues token requests and schedules the token with the elastic
//!    policy in [`crate::policy`],
//! 3. enforces the quota by expiring grants.
//!
//! Re-acquisition costs a fixed handoff overhead (IPC + synchronization) —
//! this is the overhead the paper measures in Fig. 7.
//!
//! The backend is a passive state machine: methods append the events that
//! must be scheduled (grant-effective, expiry, retry) to an output vector,
//! and the embedding routes them back into [`TokenBackend`] handler
//! methods. Epoch counters make stale events harmless. The simulation
//! ([`crate::shared`]) and the OS-thread driver ([`crate::realtime`]) embed
//! this one machine.

use std::cell::OnceCell;

use ks_sim_core::fxhash::FxHashMap;
use ks_sim_core::time::{SimDuration, SimTime};
use ks_telemetry::{Counter, Histo, Telemetry, TraceCtx};

use crate::policy::{select_next, Candidate};
use crate::spec::ShareSpec;
use crate::window::{ClientId, UsageWindow};

/// Tunables of the vGPU device library.
#[derive(Debug, Clone, Copy)]
pub struct VgpuConfig {
    /// Token time quota. The paper settles on 100 ms (§4.5, Fig. 7).
    pub quota: SimDuration,
    /// Cost of (re-)acquiring the token: one frontend↔backend round trip.
    pub handoff: SimDuration,
    /// Sliding window over which usage rates are measured.
    pub window: SimDuration,
    /// How long a frontend keeps a valid token cached after its launch
    /// queue empties. Back-to-back kernel launches (training loops) thus
    /// pay one handoff per *quota*, while a container that stays idle past
    /// the grace releases the token for others.
    pub idle_grace: SimDuration,
}

impl Default for VgpuConfig {
    fn default() -> Self {
        VgpuConfig {
            quota: SimDuration::from_millis(100),
            handoff: SimDuration::from_micros(1_500),
            window: SimDuration::from_secs(10),
            idle_grace: SimDuration::from_millis(2),
        }
    }
}

/// Client-facing failures of the token backend. These surface as values
/// (not panics) so injected faults — a frontend racing a backend restart,
/// a duplicate attach — degrade one client instead of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendError {
    /// The client is already registered (duplicate attach).
    AlreadyRegistered(ClientId),
    /// The client is not registered (never attached, or lost to a backend
    /// restart and not yet re-registered).
    UnknownClient(ClientId),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::AlreadyRegistered(c) => write!(f, "{c} registered twice"),
            BackendError::UnknownClient(c) => write!(f, "{c} not registered"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Where the token currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenState {
    /// Nobody holds the token and no grant is in flight.
    Free,
    /// A grant is traveling to `to` (handoff delay running).
    InTransit {
        /// Future holder.
        to: ClientId,
        /// Grant epoch for staleness checks.
        epoch: u64,
    },
    /// `by` holds a valid token until `expires`.
    Held {
        /// Current holder.
        by: ClientId,
        /// Grant epoch for staleness checks.
        epoch: u64,
        /// Quota expiry instant.
        expires: SimTime,
    },
}

/// Timer events the embedding simulation must schedule and route back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendTimer {
    /// Deliver to [`TokenBackend::on_grant_effective`] at the given time.
    GrantEffective {
        /// Fire time.
        at: SimTime,
        /// Epoch guard.
        epoch: u64,
    },
    /// Deliver to [`TokenBackend::on_expiry`] at the given time.
    Expiry {
        /// Fire time.
        at: SimTime,
        /// Epoch guard.
        epoch: u64,
    },
    /// Deliver to [`TokenBackend::on_retry`] at the given time.
    Retry {
        /// Fire time.
        at: SimTime,
    },
}

/// The backend's per-event metric handles. Each is resolved on first use,
/// so a series appears in the registry exactly when it would if it were
/// looked up at the recording site, and is then kept for the life of the
/// telemetry handle.
#[derive(Debug, Default)]
struct Metrics {
    grants: OnceCell<Counter>,
    handoff_wait: OnceCell<Histo>,
    quota_utilization: OnceCell<Histo>,
    reclaims: OnceCell<Counter>,
    reclaim_seconds: OnceCell<Histo>,
    guarantee_violations: OnceCell<Counter>,
}

/// The token manager for one device.
#[derive(Debug)]
pub struct TokenBackend {
    cfg: VgpuConfig,
    state: TokenState,
    epoch: u64,
    window: UsageWindow,
    clients: FxHashMap<ClientId, ShareSpec>,
    /// Containers currently blocked on (or consuming) the token, sorted
    /// by id.
    wants: Vec<ClientId>,
    /// Scratch buffer for the policy's candidate list, reused across
    /// dispatches.
    candidates: Vec<Candidate>,
    retry_scheduled: bool,
    /// Total number of grants (handoffs) performed, for overhead reporting.
    grants: u64,
    telemetry: Telemetry,
    metrics: Metrics,
    /// Label value for the `gpu` dimension of exported metrics.
    gpu_label: String,
    /// When each blocked client started waiting (for handoff-wait metrics).
    waiting_since: FxHashMap<ClientId, SimTime>,
    /// When the current holder's grant became effective.
    held_since: Option<SimTime>,
    /// Causal trace context per client (the sharePod the client serves),
    /// so grants and reclaims land in the sharePod's trace.
    client_ctx: FxHashMap<ClientId, TraceCtx>,
}

impl TokenBackend {
    /// Creates a backend with the given configuration.
    pub fn new(cfg: VgpuConfig) -> Self {
        TokenBackend {
            window: UsageWindow::new(cfg.window),
            cfg,
            state: TokenState::Free,
            epoch: 0,
            clients: FxHashMap::default(),
            wants: Vec::new(),
            candidates: Vec::new(),
            retry_scheduled: false,
            grants: 0,
            telemetry: Telemetry::disabled(),
            metrics: Metrics::default(),
            gpu_label: String::new(),
            waiting_since: FxHashMap::default(),
            held_since: None,
            client_ctx: FxHashMap::default(),
        }
    }

    /// Attaches a telemetry handle; `gpu` becomes the `gpu` label on every
    /// metric this backend exports.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, gpu: &str) {
        self.telemetry = telemetry;
        self.metrics = Metrics::default();
        self.gpu_label = gpu.to_string();
    }

    /// The `gpu` label value set by [`TokenBackend::set_telemetry`].
    pub(crate) fn gpu_label(&self) -> &str {
        &self.gpu_label
    }

    /// Attaches the causal trace context of the sharePod a client serves;
    /// subsequent grants/reclaims for it join that trace. The association
    /// survives re-registration (it names the workload, not the session)
    /// and is dropped on [`TokenBackend::deregister`].
    pub fn set_client_ctx(&mut self, client: ClientId, ctx: TraceCtx) {
        if ctx.is_none() {
            self.client_ctx.remove(&client);
        } else {
            self.client_ctx.insert(client, ctx);
        }
    }

    /// The causal trace context attached to `client`, or [`TraceCtx::NONE`].
    pub fn client_ctx(&self, client: ClientId) -> TraceCtx {
        *self.client_ctx.get(&client).unwrap_or(&TraceCtx::NONE)
    }

    /// Records the end of the current hold: how much of the quota the
    /// holder actually consumed.
    fn observe_hold_end(&mut self, now: SimTime) {
        if let Some(since) = self.held_since.take() {
            if self.telemetry.is_enabled() {
                let used = now.saturating_since(since).as_secs_f64();
                self.metrics
                    .quota_utilization
                    .get_or_init(|| {
                        self.telemetry.histogram_linear(
                            "ks_vgpu_quota_utilization",
                            &[("gpu", &self.gpu_label)],
                            0.0,
                            1.1,
                            22,
                        )
                    })
                    .observe(used / self.cfg.quota.as_secs_f64());
            }
        }
    }

    /// Records an involuntary hand-back (expiry of a possibly-dead holder,
    /// or an observed crash) that immediately regrants to a waiter.
    /// `reclaimed` is the client the token was taken from; `held_from` is
    /// when that holder's grant became effective.
    fn observe_reclaim(&self, now: SimTime, reclaimed: ClientId, held_from: Option<SimTime>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        if !matches!(self.state, TokenState::InTransit { .. }) {
            return;
        }
        self.metrics
            .reclaims
            .get_or_init(|| {
                self.telemetry
                    .counter("ks_vgpu_lease_reclaims_total", &[("gpu", &self.gpu_label)])
            })
            .inc();
        let ctx = self.client_ctx(reclaimed);
        self.telemetry.trace_event_in(
            now,
            ctx,
            "vgpu",
            "token_reclaim",
            &[
                ("gpu", &self.gpu_label),
                ("client", reclaimed.label().as_str()),
            ],
        );
        if let Some(from) = held_from {
            // The waiter holds a valid token once the in-flight grant
            // lands, one handoff from now.
            let regrant_at = now + self.cfg.handoff;
            self.metrics
                .reclaim_seconds
                .get_or_init(|| {
                    self.telemetry.histogram_seconds(
                        "ks_vgpu_lease_reclaim_seconds",
                        &[("gpu", &self.gpu_label)],
                    )
                })
                .observe(regrant_at.saturating_since(from).as_secs_f64());
        }
    }

    /// Current token state.
    pub fn state(&self) -> TokenState {
        self.state
    }

    /// Configuration in force.
    pub fn config(&self) -> &VgpuConfig {
        &self.cfg
    }

    /// Total grants performed so far.
    pub fn grant_count(&self) -> u64 {
        self.grants
    }

    /// Registers a container with its resource spec. Re-registration after
    /// a [`TokenBackend::restart`] is the normal recovery path; registering
    /// an already-known client is an error.
    pub fn register(&mut self, client: ClientId, spec: ShareSpec) -> Result<(), BackendError> {
        if self.clients.contains_key(&client) {
            return Err(BackendError::AlreadyRegistered(client));
        }
        self.clients.insert(client, spec);
        Ok(())
    }

    /// Simulates the backend daemon dying and coming back: all soft state —
    /// registrations, the wait queue, the usage window, any held or
    /// in-flight token — is lost. The epoch bump makes every outstanding
    /// timer stale, so nothing from the previous incarnation can fire into
    /// the new one. Frontends must re-register (and re-request) to rebuild
    /// the queue; the cumulative grant counter survives for reporting.
    pub fn restart(&mut self, now: SimTime) {
        self.clients.clear();
        self.wants.clear();
        self.window = UsageWindow::new(self.cfg.window);
        self.state = TokenState::Free;
        self.epoch += 1;
        self.retry_scheduled = false;
        self.waiting_since.clear();
        self.held_since = None;
        self.telemetry
            .counter(
                "ks_vgpu_backend_restarts_total",
                &[("gpu", &self.gpu_label)],
            )
            .inc();
        if self.telemetry.is_enabled() {
            self.telemetry
                .trace_event(now, "vgpu", "backend_restart", &[("gpu", &self.gpu_label)]);
        }
    }

    /// Registered clients and their specs, in deterministic id order
    /// (snapshot this before a simulated restart to drive re-registration).
    pub fn registered(&self) -> Vec<(ClientId, ShareSpec)> {
        let mut v: Vec<(ClientId, ShareSpec)> =
            self.clients.iter().map(|(&c, &s)| (c, s)).collect();
        v.sort_by_key(|(c, _)| *c);
        v
    }

    /// Deregisters a departing container, releasing the token if held.
    pub fn deregister(&mut self, now: SimTime, client: ClientId, out: &mut Vec<BackendTimer>) {
        self.unwant(client);
        match self.state {
            TokenState::Held { by, .. } if by == client => {
                let held_from = self.held_since;
                self.hand_back(now, client, out);
                self.observe_reclaim(now, client, held_from);
            }
            TokenState::InTransit { to, .. } if to == client => {
                // The grant will arrive for a dead client; invalidate it.
                self.state = TokenState::Free;
                self.epoch += 1;
                self.dispatch(now, out);
            }
            _ => {}
        }
        self.clients.remove(&client);
        self.window.forget(client);
        self.client_ctx.remove(&client);
    }

    /// A container requests the token (frontend blocked on a CUDA call).
    /// Returns `Ok(true)` if the client now holds a valid token (it already
    /// held one), `Ok(false)` if it must wait for a grant, and
    /// [`BackendError::UnknownClient`] if it is not registered (e.g. its
    /// registration was lost to a backend restart).
    pub fn request(
        &mut self,
        now: SimTime,
        client: ClientId,
        out: &mut Vec<BackendTimer>,
    ) -> Result<bool, BackendError> {
        if !self.clients.contains_key(&client) {
            return Err(BackendError::UnknownClient(client));
        }
        if let TokenState::Held { by, expires, .. } = self.state {
            if by == client && expires > now {
                return Ok(true);
            }
        }
        if let Err(i) = self.wants.binary_search(&client) {
            self.wants.insert(i, client);
        }
        if self.telemetry.is_enabled() {
            self.waiting_since.entry(client).or_insert(now);
        }
        self.dispatch(now, out);
        Ok(matches!(self.state, TokenState::Held { by, .. } if by == client))
    }

    /// Withdraws a pending token request. Frontends call this when their
    /// launch queue empties: if nobody else is waiting, a held token stays
    /// cached (valid until its quota expires) so an immediately following
    /// launch needs no handoff; if others *are* waiting, the now-idle
    /// holder yields immediately. Returns `true` if the client still holds
    /// a cached token afterwards.
    pub fn retract(&mut self, now: SimTime, client: ClientId, out: &mut Vec<BackendTimer>) -> bool {
        self.unwant(client);
        if let TokenState::Held { by, .. } = self.state {
            if by == client {
                if self.wants.is_empty() {
                    return true; // keep the token cached
                }
                self.hand_back(now, client, out);
            }
        }
        false
    }

    /// The holder voluntarily hands the token back (no more queued work).
    pub fn release(&mut self, now: SimTime, client: ClientId, out: &mut Vec<BackendTimer>) {
        self.unwant(client);
        if let TokenState::Held { by, .. } = self.state {
            if by == client {
                self.hand_back(now, client, out);
            }
        }
    }

    /// Ends `holder`'s hold at `now` and hands the token to the next
    /// waiter.
    fn hand_back(&mut self, now: SimTime, holder: ClientId, out: &mut Vec<BackendTimer>) {
        self.window.end_hold(now, holder);
        self.observe_hold_end(now);
        self.state = TokenState::Free;
        self.epoch += 1;
        self.dispatch(now, out);
    }

    /// A previously emitted [`BackendTimer::GrantEffective`] fired.
    /// Returns the client that now holds the token, or `None` if stale.
    pub fn on_grant_effective(
        &mut self,
        now: SimTime,
        epoch: u64,
        out: &mut Vec<BackendTimer>,
    ) -> Option<ClientId> {
        match self.state {
            TokenState::InTransit { to, epoch: e } if e == epoch => {
                let expires = now + self.cfg.quota;
                self.state = TokenState::Held {
                    by: to,
                    epoch,
                    expires,
                };
                self.window.begin_hold(now, to);
                self.grants += 1;
                if self.telemetry.is_enabled() {
                    self.metrics
                        .grants
                        .get_or_init(|| {
                            self.telemetry
                                .counter("ks_vgpu_token_grants_total", &[("gpu", &self.gpu_label)])
                        })
                        .inc();
                    let waited_from = self.waiting_since.remove(&to);
                    if let Some(since) = waited_from {
                        self.metrics
                            .handoff_wait
                            .get_or_init(|| {
                                self.telemetry.histogram_seconds(
                                    "ks_vgpu_handoff_wait_seconds",
                                    &[("gpu", &self.gpu_label)],
                                )
                            })
                            .observe(now.saturating_since(since).as_secs_f64());
                    }
                    self.held_since = Some(now);
                    // Retroactive span: the client's wait (request → grant
                    // effective), recorded under its sharePod's trace. The
                    // causal analyzer orders by timestamp, so a span whose
                    // begin lies in the past is fine. Cached-token regrants
                    // never waited; they begin at the handoff start.
                    let ctx = self.client_ctx(to);
                    let begin = waited_from
                        .unwrap_or_else(|| {
                            SimTime::from_micros(
                                now.as_micros().saturating_sub(self.cfg.handoff.as_micros()),
                            )
                        })
                        .min(now);
                    let span = self.telemetry.span_begin_in(
                        begin,
                        ctx,
                        "vgpu",
                        "token_grant",
                        &[("gpu", &self.gpu_label), ("client", to.label().as_str())],
                    );
                    self.telemetry.span_end(now, span, &[]);
                }
                out.push(BackendTimer::Expiry { at: expires, epoch });
                Some(to)
            }
            _ => None,
        }
    }

    /// A previously emitted [`BackendTimer::Expiry`] fired. Returns the
    /// client whose token expired (it must re-acquire before launching
    /// more kernels), or `None` if stale.
    pub fn on_expiry(
        &mut self,
        now: SimTime,
        epoch: u64,
        out: &mut Vec<BackendTimer>,
    ) -> Option<ClientId> {
        match self.state {
            TokenState::Held { by, epoch: e, .. } if e == epoch => {
                let held_from = self.held_since;
                // The holder keeps its place in `wants` (it re-requests by
                // staying blocked); dispatch picks the next holder.
                self.hand_back(now, by, out);
                // A regrant to a different client is a reclamation: the
                // expired holder never handed back voluntarily.
                if !matches!(self.state, TokenState::InTransit { to, .. } if to == by) {
                    self.observe_reclaim(now, by, held_from);
                }
                Some(by)
            }
            _ => None,
        }
    }

    /// A previously emitted [`BackendTimer::Retry`] fired.
    pub fn on_retry(&mut self, now: SimTime, out: &mut Vec<BackendTimer>) {
        self.retry_scheduled = false;
        self.dispatch(now, out);
    }

    /// Sliding-window usage of a client.
    pub fn usage(&mut self, now: SimTime, client: ClientId) -> f64 {
        self.window.usage(now, client)
    }

    /// Registered spec of a client.
    pub fn spec(&self, client: ClientId) -> Option<ShareSpec> {
        self.clients.get(&client).copied()
    }

    /// True if the client currently holds a valid (unexpired) token.
    pub fn holds_valid_token(&self, now: SimTime, client: ClientId) -> bool {
        matches!(self.state, TokenState::Held { by, expires, .. } if by == client && expires > now)
    }

    /// The current (unexpired) holder, if any.
    pub fn holder(&self, now: SimTime) -> Option<ClientId> {
        match self.state {
            TokenState::Held { by, expires, .. } if expires > now => Some(by),
            _ => None,
        }
    }

    /// Drops `client` from the wait queue, if it is there, and forgets when
    /// it began waiting.
    fn unwant(&mut self, client: ClientId) {
        if let Ok(i) = self.wants.binary_search(&client) {
            self.wants.remove(i);
        }
        self.waiting_since.remove(&client);
    }

    fn dispatch(&mut self, now: SimTime, out: &mut Vec<BackendTimer>) {
        if self.state != TokenState::Free || self.wants.is_empty() {
            return;
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(self.wants.iter().map(|&c| Candidate {
            client: c,
            spec: self.clients[&c],
            usage: self.window.usage(now, c),
        }));
        match select_next(&candidates) {
            Some(next) => {
                if self.telemetry.is_enabled() {
                    // Guarantee check (paper §4.5): granting to a client
                    // already at/over its request while another candidate
                    // is still below its own request would starve the
                    // guaranteed share. The elastic policy never does this;
                    // the counter feeds a zero-rate SLO rule that would
                    // surface a policy regression.
                    let winner = candidates.iter().find(|c| c.client == next);
                    let winner_over = winner.is_some_and(|w| !w.below_request());
                    let someone_under = candidates
                        .iter()
                        .any(|c| c.client != next && c.below_request());
                    if winner_over && someone_under {
                        self.metrics
                            .guarantee_violations
                            .get_or_init(|| {
                                self.telemetry.counter(
                                    "ks_token_guarantee_violations_total",
                                    &[("gpu", &self.gpu_label)],
                                )
                            })
                            .inc();
                    }
                }
                self.epoch += 1;
                self.state = TokenState::InTransit {
                    to: next,
                    epoch: self.epoch,
                };
                out.push(BackendTimer::GrantEffective {
                    at: now + self.cfg.handoff,
                    epoch: self.epoch,
                });
            }
            None => {
                // Every requester is at its gpu_limit; usage decays as the
                // window slides, so poll again after one quota.
                if !self.retry_scheduled {
                    self.retry_scheduled = true;
                    out.push(BackendTimer::Retry {
                        at: now + self.cfg.quota,
                    });
                }
            }
        }
        self.candidates = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TokenBackend {
        /// Containers waiting on (or consuming) the token, sorted by id.
        pub(crate) fn waiters(&self) -> &[ClientId] {
            &self.wants
        }
    }

    const A: ClientId = ClientId(1);
    const B: ClientId = ClientId(2);

    fn cfg() -> VgpuConfig {
        VgpuConfig {
            quota: SimDuration::from_millis(100),
            handoff: SimDuration::from_millis(1),
            window: SimDuration::from_secs(1),
            idle_grace: SimDuration::from_millis(2),
        }
    }

    fn spec(r: f64, l: f64) -> ShareSpec {
        ShareSpec {
            request: r,
            limit: l,
            mem: 1.0,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drives one grant to completion, returning (holder, expiry_timer).
    fn drive_grant(b: &mut TokenBackend, out: &mut Vec<BackendTimer>) -> (ClientId, SimTime) {
        let grant = out
            .iter()
            .find_map(|t| match t {
                BackendTimer::GrantEffective { at, epoch } => Some((*at, *epoch)),
                _ => None,
            })
            .expect("a grant should be in flight");
        out.clear();
        let holder = b.on_grant_effective(grant.0, grant.1, out).unwrap();
        let expiry = out
            .iter()
            .find_map(|t| match t {
                BackendTimer::Expiry { at, .. } => Some(*at),
                _ => None,
            })
            .expect("expiry scheduled");
        (holder, expiry)
    }

    #[test]
    fn lone_request_granted_after_handoff() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        assert!(!b.request(t(0), A, &mut out).unwrap());
        assert_eq!(out.len(), 1);
        let (holder, expires) = drive_grant(&mut b, &mut out);
        assert_eq!(holder, A);
        assert_eq!(expires, t(101)); // 1ms handoff + 100ms quota
        assert!(b.holds_valid_token(t(50), A));
        assert!(!b.holds_valid_token(t(101), A));
    }

    #[test]
    fn expiry_frees_and_regrants() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        b.register(B, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        let (h1, exp1) = drive_grant(&mut b, &mut out);
        assert_eq!(h1, A);
        out.clear();
        // B arrives and waits.
        assert!(!b.request(t(50), B, &mut out).unwrap());
        assert!(out.is_empty(), "token is held; no dispatch yet");
        // Quota expires; B (lower usage) gets the next grant.
        let expired_epoch = match b.state() {
            TokenState::Held { epoch, .. } => epoch,
            s => panic!("unexpected state {s:?}"),
        };
        let expired = b.on_expiry(exp1, expired_epoch, &mut out).unwrap();
        assert_eq!(expired, A);
        let (h2, _) = drive_grant(&mut b, &mut out);
        assert_eq!(h2, B);
    }

    #[test]
    fn restart_loses_state_and_invalidates_timers() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        b.register(B, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        let (_, exp) = drive_grant(&mut b, &mut out);
        let held_epoch = match b.state() {
            TokenState::Held { epoch, .. } => epoch,
            s => panic!("unexpected state {s:?}"),
        };
        out.clear();
        b.restart(t(40));
        assert_eq!(b.state(), TokenState::Free);
        assert!(b.registered().is_empty());
        // The pre-restart expiry timer is stale and harmless.
        assert_eq!(b.on_expiry(exp, held_epoch, &mut out), None);
        assert!(out.is_empty());
        // A frontend that has not re-registered yet is refused, not
        // panicked on.
        assert_eq!(
            b.request(t(41), A, &mut out),
            Err(BackendError::UnknownClient(A))
        );
        // Re-registration rebuilds the queue and the token flows again.
        b.register(A, spec(0.5, 1.0)).unwrap();
        assert!(!b.request(t(41), A, &mut out).unwrap());
        let (holder, _) = drive_grant(&mut b, &mut out);
        assert_eq!(holder, A);
    }

    #[test]
    fn dead_holder_reclaimed_within_quota_plus_handoff() {
        // A crashes silently while holding the token (no deregister ever
        // reaches the backend). The quota expiry is the detection bound:
        // the next waiter must hold a valid token no later than
        // grant_effective + quota + handoff.
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        b.register(B, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        let (h, exp) = drive_grant(&mut b, &mut out);
        assert_eq!(h, A);
        let granted_at = t(1); // request at 0 + 1ms handoff
        out.clear();
        b.request(t(10), B, &mut out).unwrap();
        // A dies at t=50; nothing happens until the expiry timer fires.
        let held_epoch = match b.state() {
            TokenState::Held { epoch, .. } => epoch,
            s => panic!("unexpected state {s:?}"),
        };
        out.clear();
        assert_eq!(b.on_expiry(exp, held_epoch, &mut out), Some(A));
        let (h2, _) = drive_grant(&mut b, &mut out);
        assert_eq!(h2, B);
        let bound = granted_at + cfg().quota + cfg().handoff;
        assert!(
            b.holds_valid_token(bound, B) || b.holder(bound) == Some(B),
            "B must hold the token by grant + quota + handoff"
        );
    }

    #[test]
    fn deregister_of_dead_holder_regrants_immediately() {
        // When the crash *is* observed (the embedding detaches the dead
        // container), reclamation costs only the handoff.
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        b.register(B, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        drive_grant(&mut b, &mut out);
        out.clear();
        b.request(t(10), B, &mut out).unwrap();
        out.clear();
        b.deregister(t(20), A, &mut out);
        let grant_at = out
            .iter()
            .find_map(|timer| match timer {
                BackendTimer::GrantEffective { at, .. } => Some(*at),
                _ => None,
            })
            .expect("grant to the waiter is in flight");
        assert_eq!(grant_at, t(20) + cfg().handoff);
    }

    #[test]
    fn stale_expiry_ignored() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        let (_, exp) = drive_grant(&mut b, &mut out);
        out.clear();
        // Holder releases before expiry.
        b.release(t(50), A, &mut out);
        assert_eq!(b.state(), TokenState::Free);
        // The stale expiry timer fires with the old epoch: no effect.
        assert_eq!(b.on_expiry(exp, 1, &mut out), None);
        assert_eq!(b.state(), TokenState::Free);
    }

    #[test]
    fn release_regrants_to_waiter() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        b.register(B, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        drive_grant(&mut b, &mut out);
        out.clear();
        b.request(t(10), B, &mut out).unwrap();
        b.release(t(20), A, &mut out);
        let (h, _) = drive_grant(&mut b, &mut out);
        assert_eq!(h, B);
    }

    #[test]
    fn at_limit_requester_waits_for_decay() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.1, 0.2)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        let (_, exp) = drive_grant(&mut b, &mut out);
        out.clear();
        // A holds 100ms of the first ~101ms: usage ≈ 1.0 >> limit 0.2.
        let epoch = match b.state() {
            TokenState::Held { epoch, .. } => epoch,
            _ => unreachable!(),
        };
        b.on_expiry(exp, epoch, &mut out).unwrap();
        // A still wants, but is over its limit → retry scheduled, no grant.
        assert_eq!(b.state(), TokenState::Free);
        assert!(matches!(out.as_slice(), [BackendTimer::Retry { .. }]));
        let retry_at = match out[0] {
            BackendTimer::Retry { at } => at,
            _ => unreachable!(),
        };
        out.clear();
        // Fire retries until the window decays below the limit.
        let mut at = retry_at;
        let mut granted = false;
        for _ in 0..20 {
            b.on_retry(at, &mut out);
            if out
                .iter()
                .any(|t| matches!(t, BackendTimer::GrantEffective { .. }))
            {
                granted = true;
                break;
            }
            at = match out.first() {
                Some(BackendTimer::Retry { at }) => *at,
                _ => at + SimDuration::from_millis(100),
            };
            out.clear();
        }
        assert!(granted, "usage decay must eventually re-enable the client");
    }

    #[test]
    fn request_while_holding_is_true() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        drive_grant(&mut b, &mut out);
        out.clear();
        assert!(b.request(t(50), A, &mut out).unwrap());
        assert!(out.is_empty());
    }

    #[test]
    fn deregister_holder_frees_token() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        b.register(B, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        drive_grant(&mut b, &mut out);
        out.clear();
        b.request(t(10), B, &mut out).unwrap();
        b.deregister(t(20), A, &mut out);
        let (h, _) = drive_grant(&mut b, &mut out);
        assert_eq!(h, B);
        assert!(b.spec(A).is_none());
    }

    #[test]
    fn deregister_in_transit_target_invalidates_grant() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        let (at, epoch) = match out[0] {
            BackendTimer::GrantEffective { at, epoch } => (at, epoch),
            _ => unreachable!(),
        };
        out.clear();
        b.deregister(t(0), A, &mut out);
        assert_eq!(b.on_grant_effective(at, epoch, &mut out), None);
        assert_eq!(b.state(), TokenState::Free);
    }

    #[test]
    fn grant_counter_increments() {
        let mut b = TokenBackend::new(cfg());
        b.register(A, spec(0.5, 1.0)).unwrap();
        let mut out = Vec::new();
        b.request(t(0), A, &mut out).unwrap();
        drive_grant(&mut b, &mut out);
        assert_eq!(b.grant_count(), 1);
    }
}
