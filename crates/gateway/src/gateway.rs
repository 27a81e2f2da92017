//! The gateway itself: the admission pipeline in front of
//! [`KubeShareSystem`].
//!
//! Every request passes, in order: **authentication** (token → tenant +
//! tier), **rate limiting** (per-tenant token bucket), **quota admission**
//! (live-footprint reservation; over-quota requests park in a bounded
//! priority queue), and only then reaches Algorithm 1 — the scheduler
//! never sees traffic the front door already refused. Admitted sharePods
//! are stamped with their tenant and tier priority and live in a
//! per-tenant namespace.
//!
//! [`Gateway::pump`] is the batch tick: it re-admits parked requests
//! whose quota freed up, preempts strictly-lower-priority sharePods when
//! a higher class is starved of capacity, and drains the pending queue
//! through the system's priority-ordered batch scheduler.
//!
//! Self-checking: the pipeline keeps tripwire counters
//! (`ks_gw_quota_violations_total`, `ks_gw_preempt_inversions_total`)
//! that stay zero for as long as its gates hold; the gateway SLO
//! catalogue alerts on any increment, and the load generator fails on
//! them outright.

use std::collections::{BTreeMap, HashMap};

use ks_cluster::api::{Uid, NVIDIA_GPU};
use ks_sim_core::time::SimTime;
use ks_telemetry::provenance::{DecisionKind, Outcome, ReasonCode, SchedProv};
use ks_telemetry::{FlightRecorder, LogLevel, Logger, Telemetry};
use kubeshare::gpuid::GpuId;
use kubeshare::pool::{fits, frac, units};
use kubeshare::sharepod::{SharePodPhase, SharePodSpec};
use kubeshare::system::{KsEmit, KsEvent, KsNotice, KubeShareSystem};

use crate::auth::Authenticator;
use crate::metering::Meter;
use crate::tenant::{TenantState, Tier};

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Over-quota requests one tenant may park at once.
    pub max_queue_per_tenant: u32,
    /// Total admission-queue bound across all tenants.
    pub max_queue_total: usize,
    /// Eviction budget of one [`Gateway::pump`] call.
    pub max_victims_per_pump: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_queue_per_tenant: 4,
            max_queue_total: 100_000,
            max_victims_per_pump: 64,
        }
    }
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The token did not authenticate.
    Unauthenticated,
    /// The tenant's token bucket is empty.
    RateLimited,
    /// Over quota and the admission queue is full (tenant or global cap).
    QueueFull,
}

impl RejectReason {
    /// Metric label value (`reason` dimension).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Unauthenticated => "unauthenticated",
            RejectReason::RateLimited => "rate_limited",
            RejectReason::QueueFull => "queue_full",
        }
    }
}

/// Outcome of one [`Gateway::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted straight through to Algorithm 1.
    Admitted {
        /// The created sharePod.
        sp: Uid,
    },
    /// Over quota; parked until earlier work releases footprint.
    Queued {
        /// Handle into the admission queue.
        ticket: u64,
    },
    /// Refused at the front door.
    Rejected {
        /// Which gate refused it.
        reason: RejectReason,
    },
}

/// Pipeline counters. Conservation invariant: every submitted request is
/// admitted, rejected, or still queued — nothing is lost or double
/// counted (see [`Gateway::conservation_holds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests entering the pipeline.
    pub submitted: u64,
    /// Admitted at submit time.
    pub admitted_direct: u64,
    /// Admitted later from the queue by a pump.
    pub admitted_from_queue: u64,
    /// Refused: bad token.
    pub rejected_auth: u64,
    /// Refused: token bucket empty.
    pub rejected_rate: u64,
    /// Refused: over quota with a full queue.
    pub rejected_queue_full: u64,
    /// Preemptions executed on behalf of higher-priority work.
    pub preemptions: u64,
}

impl GatewayStats {
    /// Total admitted through either path.
    pub fn admitted(&self) -> u64 {
        self.admitted_direct + self.admitted_from_queue
    }

    /// Total refused at any gate.
    pub fn rejected(&self) -> u64 {
        self.rejected_auth + self.rejected_rate + self.rejected_queue_full
    }
}

/// One parked over-quota request.
#[derive(Debug)]
struct QueuedReq {
    tenant: String,
    tier: Tier,
    name: String,
    spec: SharePodSpec,
    enqueued: SimTime,
}

/// What the gateway remembers about an admitted sharePod.
#[derive(Debug, Clone)]
struct SpInfo {
    tenant: String,
    tier: Tier,
    /// Footprint reserved against the tenant quota (`share.request`).
    gpu_units: f64,
}

/// Result of one [`Gateway::pump`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Queued requests admitted this tick.
    pub readmitted: usize,
    /// SharePods preempted this tick.
    pub preempted: usize,
    /// Pending sharePods decided by the batch drain.
    pub decided: usize,
}

/// The multi-tenant front door. See module docs.
#[derive(Debug)]
pub struct Gateway<A: Authenticator> {
    system: KubeShareSystem,
    auth: A,
    cfg: GatewayConfig,
    /// The configured (unscaled) queue caps; `cfg` holds the scaled
    /// values while an admission scale is in force.
    base_cfg: GatewayConfig,
    /// Admission scale in `(0, 1]`: 1.0 = configured limits, smaller =
    /// remediation tightening (token rates and queue caps shrink
    /// proportionally). See [`Gateway::set_admission_scale`].
    admission_scale: f64,
    tenants: HashMap<String, TenantState>,
    /// Admission queue ordered by (priority descending, FIFO): the key is
    /// `(Tier::MAX_PRIORITY - priority, ticket)`.
    queue: BTreeMap<(u8, u64), QueuedReq>,
    next_ticket: u64,
    sp_info: HashMap<Uid, SpInfo>,
    meter: Meter,
    stats: GatewayStats,
    telemetry: Telemetry,
    recorder: FlightRecorder,
    logger: Logger,
}

impl<A: Authenticator> Gateway<A> {
    /// Wraps a control plane behind the admission pipeline.
    pub fn new(system: KubeShareSystem, auth: A, cfg: GatewayConfig) -> Self {
        Gateway {
            system,
            auth,
            base_cfg: cfg.clone(),
            cfg,
            admission_scale: 1.0,
            tenants: HashMap::new(),
            queue: BTreeMap::new(),
            next_ticket: 0,
            sp_info: HashMap::new(),
            meter: Meter::new(),
            stats: GatewayStats::default(),
            telemetry: Telemetry::disabled(),
            recorder: FlightRecorder::disabled(),
            logger: Logger::disabled(),
        }
    }

    /// Attaches telemetry to the gateway, its meter, and the wrapped
    /// system stack.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.system.set_telemetry(telemetry.clone());
        self.meter.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Installs a decision-provenance flight recorder on the gateway
    /// (admission and preemption-target records) and the whole wrapped
    /// stack (scheduling, node-rank, victim, reconfigure records).
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.system.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The installed flight recorder (disabled handle by default).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Installs a structured-log sink on the gateway and the wrapped
    /// system stack.
    pub fn set_logger(&mut self, logger: Logger) {
        self.system.set_logger(logger.clone());
        self.logger = logger;
    }

    /// The installed structured-log sink (disabled handle by default).
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// Read access to the wrapped control plane.
    pub fn system(&self) -> &KubeShareSystem {
        &self.system
    }

    /// The metering engine.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Mutable metering access (finalizing at end of period).
    pub fn meter_mut(&mut self) -> &mut Meter {
        &mut self.meter
    }

    /// Pipeline counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Current admission-queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// A tenant's gateway state, if it ever authenticated.
    pub fn tenant(&self, id: &str) -> Option<&TenantState> {
        self.tenants.get(id)
    }

    /// Number of tenants with materialized state.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The admission scale in force (1.0 = configured limits).
    pub fn admission_scale(&self) -> f64 {
        self.admission_scale
    }

    /// A tier's rate limit under `scale`: both rate and burst shrink
    /// proportionally, with the burst floored at one token so a tenant
    /// can always eventually submit.
    fn scaled_limit(tier: Tier, scale: f64) -> crate::limiter::RateLimit {
        let lim = tier.rate_limit();
        crate::limiter::RateLimit {
            per_sec: lim.per_sec * scale,
            burst: (lim.burst * scale).max(1.0),
        }
    }

    /// Sets the admission scale (remediation tightening): every tenant's
    /// token bucket switches to `scale ×` its tier rate/burst, and the
    /// queue caps shrink to `scale ×` their configured values (floored
    /// at 1). `scale = 1.0` restores the configured limits. Buckets keep
    /// their refill history through the switch — no tokens are minted —
    /// and each tenant's analytic rate tripwire re-baselines at `now`
    /// (the old bound no longer describes the new limit). Returns
    /// whether the scale changed.
    pub fn set_admission_scale(&mut self, now: SimTime, scale: f64) -> bool {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "admission scale must be in (0, 1], got {scale}"
        );
        if (scale - self.admission_scale).abs() < 1e-12 {
            return false;
        }
        self.admission_scale = scale;
        self.cfg.max_queue_per_tenant =
            (((self.base_cfg.max_queue_per_tenant as f64) * scale) as u32).max(1);
        self.cfg.max_queue_total =
            (((self.base_cfg.max_queue_total as f64) * scale) as usize).max(1);
        for st in self.tenants.values_mut() {
            st.bucket.set_limit(Self::scaled_limit(st.tier, scale), now);
            st.first_seen = now;
            st.taken = 0;
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_gw_admission_rescale_total", &[])
                .inc();
            self.telemetry
                .gauge("ks_gw_admission_scale", &[])
                .set(scale);
        }
        true
    }

    /// The conservation invariant: submitted = admitted + rejected +
    /// still-queued.
    pub fn conservation_holds(&self) -> bool {
        self.stats.submitted
            == self.stats.admitted() + self.stats.rejected() + self.queue.len() as u64
    }

    fn count_reject(&mut self, tier_label: &str, reason: RejectReason) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter(
                    "ks_gw_rejects_total",
                    &[("reason", reason.label()), ("tier", tier_label)],
                )
                .inc();
        }
    }

    /// Captures one front-door gate outcome as a
    /// [`DecisionKind::Admission`] record plus a log line. `sp` is 0 for
    /// requests refused before a sharePod existed — those records carry
    /// the tenant in `fields` and are found by scanning, not by
    /// `explain(sp)`.
    #[allow(clippy::too_many_arguments)]
    fn record_admission(
        &self,
        now: SimTime,
        sp: u64,
        trace: u64,
        tenant: &str,
        tier: &str,
        outcome: Outcome,
        extra: Vec<(String, String)>,
    ) {
        if self.logger.is_enabled() {
            let level = match &outcome {
                Outcome::Rejected { .. } => LogLevel::Warn,
                _ => LogLevel::Info,
            };
            let class = outcome.class();
            let reason = outcome.reason();
            self.logger.log(
                now,
                level,
                "gateway",
                trace,
                || match reason {
                    Some(r) => format!(
                        "tenant {tenant} ({tier}): admission {class} ({})",
                        r.label()
                    ),
                    None => format!("tenant {tenant} ({tier}): admission {class}"),
                },
                || {
                    let mut f = vec![
                        ("tenant".to_string(), tenant.to_string()),
                        ("tier".to_string(), tier.to_string()),
                    ];
                    f.extend(extra.iter().cloned());
                    f
                },
            );
        }
        if self.recorder.is_enabled() {
            let mut prov = SchedProv::on();
            if let Some(r) = outcome.reason() {
                prov.reject(r);
            }
            prov.note(|| format!("front-door gates for tenant {tenant} (tier {tier})"));
            let mut rec = prov.into_record(now, sp, trace, DecisionKind::Admission, outcome);
            rec.fields.push(("tenant".to_string(), tenant.to_string()));
            rec.fields.push(("tier".to_string(), tier.to_string()));
            rec.fields.extend(extra);
            self.recorder.record(rec);
        }
    }

    /// Submits a request through the full pipeline: auth → rate limit →
    /// quota → Algorithm 1 (or the admission queue).
    pub fn submit(
        &mut self,
        now: SimTime,
        token: &str,
        name: impl Into<String>,
        spec: SharePodSpec,
        out: &mut KsEmit,
    ) -> SubmitOutcome {
        self.stats.submitted += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.counter("ks_gw_requests_total", &[]).inc();
        }

        // Gate 1: authentication.
        let Some((tenant, tier)) = self.auth.authenticate(token) else {
            self.stats.rejected_auth += 1;
            self.count_reject("unknown", RejectReason::Unauthenticated);
            self.record_admission(
                now,
                0,
                0,
                "unknown",
                "unknown",
                Outcome::Rejected {
                    reason: ReasonCode::Unauthenticated,
                },
                Vec::new(),
            );
            return SubmitOutcome::Rejected {
                reason: RejectReason::Unauthenticated,
            };
        };

        // Gate 2: rate limit (lazily materializing the tenant, under the
        // admission scale in force).
        let scale = self.admission_scale;
        let st = self.tenants.entry(tenant.clone()).or_insert_with(|| {
            let mut st = TenantState::new(tier, now);
            if scale != 1.0 {
                st.bucket.set_limit(Self::scaled_limit(tier, scale), now);
            }
            st
        });
        if !st.bucket.try_take(now, 1.0) {
            self.stats.rejected_rate += 1;
            self.count_reject(tier.label(), RejectReason::RateLimited);
            self.record_admission(
                now,
                0,
                0,
                &tenant,
                tier.label(),
                Outcome::Rejected {
                    reason: ReasonCode::RateLimited,
                },
                Vec::new(),
            );
            return SubmitOutcome::Rejected {
                reason: RejectReason::RateLimited,
            };
        }
        // Tripwire: the bucket can never grant more than burst + rate·t
        // in any window starting at the tenant's first contact. Checked
        // analytically, independent of the bucket's level arithmetic.
        st.taken += 1;
        let lim = st.bucket.limit();
        let bound =
            lim.burst + lim.per_sec * now.saturating_since(st.first_seen).as_secs_f64() + 1e-6;
        let over_bound = (st.taken as f64) > bound;
        if over_bound {
            self.telemetry
                .counter("ks_gw_limit_violations_total", &[])
                .inc();
        }

        // Gate 3: quota. Over-quota requests park in the priority queue;
        // a full queue refuses.
        let gpu_units = spec.share.request;
        if !st.used.fits(&tier.quota(), gpu_units) {
            if st.queued < self.cfg.max_queue_per_tenant
                && self.queue.len() < self.cfg.max_queue_total
            {
                st.queued += 1;
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                self.record_admission(
                    now,
                    0,
                    0,
                    &tenant,
                    tier.label(),
                    Outcome::Held {
                        reason: ReasonCode::QuotaParked,
                    },
                    vec![("ticket".to_string(), ticket.to_string())],
                );
                self.queue.insert(
                    (u8::MAX - tier.priority(), ticket),
                    QueuedReq {
                        tenant,
                        tier,
                        name: name.into(),
                        spec,
                        enqueued: now,
                    },
                );
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .counter("ks_gw_queued_total", &[("tier", tier.label())])
                        .inc();
                }
                return SubmitOutcome::Queued { ticket };
            }
            self.stats.rejected_queue_full += 1;
            self.count_reject(tier.label(), RejectReason::QueueFull);
            self.record_admission(
                now,
                0,
                0,
                &tenant,
                tier.label(),
                Outcome::Rejected {
                    reason: ReasonCode::QueueFull,
                },
                Vec::new(),
            );
            return SubmitOutcome::Rejected {
                reason: RejectReason::QueueFull,
            };
        }

        match self.admit(now, tenant, tier, name.into(), spec, out, 0.0) {
            Some(sp) => {
                self.stats.admitted_direct += 1;
                SubmitOutcome::Admitted { sp }
            }
            None => {
                // The quota check and the reservation disagreed — the
                // violation tripwire has fired; surface as a refusal
                // rather than admitting out of quota.
                self.stats.rejected_queue_full += 1;
                self.count_reject(tier.label(), RejectReason::QueueFull);
                SubmitOutcome::Rejected {
                    reason: RejectReason::QueueFull,
                }
            }
        }
    }

    /// Reserves quota and hands the request to the control plane. The
    /// reservation is the authoritative admission check: a refusal here
    /// after a passing pre-check is a pipeline bug counted on the
    /// `ks_gw_quota_violations_total` tripwire.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        now: SimTime,
        tenant: String,
        tier: Tier,
        name: String,
        mut spec: SharePodSpec,
        out: &mut KsEmit,
        waited_secs: f64,
    ) -> Option<Uid> {
        let gpu_units = spec.share.request;
        let st = self.tenants.get_mut(&tenant).expect("tenant materialized");
        if !st.used.try_reserve(&tier.quota(), gpu_units) {
            self.telemetry
                .counter("ks_gw_quota_violations_total", &[])
                .inc();
            return None;
        }
        spec.tenant = Some(tenant.clone());
        spec.priority = tier.priority();
        if self.telemetry.is_enabled() {
            // The causal root for the request is minted at the gateway
            // edge, carrying the tenant identity the lower layers never
            // see.
            let ctx = self.telemetry.trace_root(
                now,
                "gateway",
                "request",
                &[("tenant", &tenant), ("tier", tier.label())],
            );
            self.telemetry
                .span_end(now, ctx.span, &[("outcome", "admitted")]);
            self.telemetry
                .counter("ks_gw_admitted_total", &[("tier", tier.label())])
                .inc();
            self.telemetry
                .histogram_seconds("ks_gw_admission_wait_seconds", &[("tier", tier.label())])
                .observe(waited_secs);
        }
        // One namespace per tenant isolates its objects in the store.
        let sp = self
            .system
            .submit_sharepod_in(now, tenant.clone(), name, spec, out);
        let trace = self.system.sharepod_trace(sp).map(|c| c.trace).unwrap_or(0);
        self.record_admission(
            now,
            sp.0,
            trace,
            &tenant,
            tier.label(),
            Outcome::Action {
                name: "admitted".to_string(),
                target: sp.to_string().into(),
            },
            vec![("waited_secs".to_string(), format!("{waited_secs:.3}"))],
        );
        self.sp_info.insert(
            sp,
            SpInfo {
                tenant,
                tier,
                gpu_units,
            },
        );
        Some(sp)
    }

    /// Routes a simulation event through the wrapped system, observing
    /// the resulting notices for metering and quota release. Notices are
    /// appended to `notices` after processing.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: KsEvent,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let mut local = Vec::new();
        self.system.handle(now, ev, out, &mut local);
        self.observe(now, &local);
        notices.append(&mut local);
    }

    /// Deletes a sharePod on a tenant's behalf, releasing its quota once
    /// the system confirms the terminal transition.
    pub fn delete(&mut self, now: SimTime, sp: Uid, out: &mut KsEmit, notices: &mut Vec<KsNotice>) {
        let mut local = Vec::new();
        self.system.delete_sharepod(now, sp, out, &mut local);
        self.observe(now, &local);
        // Pending/AwaitingVgpu deletions terminate synchronously without
        // a Stopped notice; release here. Running deletions release when
        // the PodDeleted notice arrives through `handle`.
        if self
            .system
            .sharepod(sp)
            .map(|s| {
                matches!(
                    s.status.phase,
                    SharePodPhase::Terminated | SharePodPhase::Rejected
                )
            })
            .unwrap_or(true)
        {
            self.meter.close(now, sp);
            self.release_quota(sp);
        }
        notices.append(&mut local);
    }

    /// Metering + quota bookkeeping driven by system notices.
    fn observe(&mut self, now: SimTime, notices: &[KsNotice]) {
        for n in notices {
            match n {
                KsNotice::SharePodRunning { sp, share, .. } => {
                    if let Some(info) = self.sp_info.get(sp) {
                        let (tenant, tier) = (info.tenant.clone(), info.tier);
                        self.meter.open(now, *sp, &tenant, tier, share.request);
                    }
                }
                KsNotice::SharePodStopped { sp, .. } => {
                    self.meter.close(now, *sp);
                    let terminal = self
                        .system
                        .sharepod(*sp)
                        .map(|s| {
                            matches!(
                                s.status.phase,
                                SharePodPhase::Terminated | SharePodPhase::Rejected
                            )
                        })
                        .unwrap_or(true);
                    if terminal {
                        self.release_quota(*sp);
                    }
                }
                KsNotice::SharePodRejected { sp, .. } => {
                    self.meter.close(now, *sp);
                    self.release_quota(*sp);
                }
                KsNotice::SharePodPreempted { sp, .. } | KsNotice::SharePodRequeued { sp, .. } => {
                    // Not terminal: quota stays reserved, usage stops
                    // accruing until the sharePod runs again.
                    self.meter.close(now, *sp);
                }
                _ => {}
            }
        }
    }

    /// Releases a sharePod's quota reservation (idempotent) and
    /// garbage-collects the terminal object from the API store so
    /// long-running worlds don't drag every finished sharePod through
    /// each batch drain.
    fn release_quota(&mut self, sp: Uid) {
        self.system.gc_sharepod(sp);
        let Some(info) = self.sp_info.remove(&sp) else {
            return;
        };
        if let Some(st) = self.tenants.get_mut(&info.tenant) {
            st.used.release(info.gpu_units);
        }
    }

    /// The batch tick: re-admit parked requests whose quota freed up,
    /// preempt lower classes blocking starved higher-priority work, then
    /// drain the pending queue through the priority-ordered batch
    /// scheduler.
    pub fn pump(
        &mut self,
        now: SimTime,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> PumpReport {
        let mut report = PumpReport::default();
        let mut local = Vec::new();

        // 1. Queue re-admission, highest priority first, FIFO within a
        // class. Each entry re-checks its tenant's quota as earlier
        // re-admissions consume it.
        let keys: Vec<(u8, u64)> = self.queue.keys().copied().collect();
        for key in keys {
            let fits = {
                let q = &self.queue[&key];
                let st = self.tenants.get(&q.tenant).expect("queued tenant exists");
                st.used.fits(&q.tier.quota(), q.spec.share.request)
            };
            if !fits {
                continue;
            }
            let q = self.queue.remove(&key).expect("key just listed");
            let st = self
                .tenants
                .get_mut(&q.tenant)
                .expect("queued tenant exists");
            st.queued = st.queued.saturating_sub(1);
            let waited = now.saturating_since(q.enqueued).as_secs_f64();
            if self
                .admit(now, q.tenant, q.tier, q.name, q.spec, out, waited)
                .is_some()
            {
                self.stats.admitted_from_queue += 1;
                report.readmitted += 1;
            } else {
                self.stats.rejected_queue_full += 1;
            }
        }

        // 2. Preemption for starved higher-priority pending work.
        report.preempted = self.preempt_for_pending(now, out, &mut local);

        // 3. Priority-ordered batch drain.
        report.decided = self.system.drain_pending(now, out, &mut local);

        self.observe(now, &local);
        notices.append(&mut local);
        report
    }

    /// Evicts strictly-lower-priority sharePods when a pending sharePod
    /// cannot fit anywhere: no vGPU has room and no free physical GPU is
    /// left for a new one. Victims are chosen per device (fewest
    /// evictions first) and preempted lowest class first, newest first.
    fn preempt_for_pending(
        &mut self,
        now: SimTime,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        // Pending demand (share units), priority descending, uid ascending.
        let mut pending: Vec<(u8, Uid, (u32, u32))> = self
            .system
            .sharepods()
            .iter()
            .filter(|(_, s)| s.status.phase == SharePodPhase::Pending)
            .map(|(u, s)| {
                let need = (units(s.spec.share.request), units(s.spec.share.mem));
                (s.spec.priority, u, need)
            })
            .collect();
        pending.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        // Nothing above the floor class can ever preempt.
        pending.retain(|&(p, ..)| p > 0);
        if pending.is_empty() {
            return 0;
        }

        // Local capacity view, debited as earlier pending entries claim
        // room (their decisions only land at the drain).
        let mut dev_free: BTreeMap<GpuId, (u32, u32)> = self
            .system
            .pool()
            .devices()
            .filter(|d| !d.releasing)
            .map(|d| (d.id.clone(), (d.util_free, d.mem_free)))
            .collect();
        let raw_free = self.system.cluster.free_total().extended_count(NVIDIA_GPU);
        // Creating vGPUs will claim free physical GPUs when their anchors
        // land; only the surplus is truly available.
        let creating = self
            .system
            .pool()
            .devices()
            .filter(|d| d.uuid.is_none())
            .count() as u64;
        let mut free_gpus = raw_free.saturating_sub(creating);

        let mut victims_left = self.cfg.max_victims_per_pump;
        let mut preempted = 0usize;

        'pending: for (prio, starved, need) in pending {
            if victims_left == 0 {
                break;
            }
            // Already fits on some live vGPU?
            if let Some(free) = dev_free.values_mut().find(|free| fits(**free, need)) {
                free.0 -= need.0;
                free.1 -= need.1;
                continue;
            }
            // A new vGPU can still be anchored on a free physical GPU?
            if free_gpus > 0 {
                free_gpus -= 1;
                continue;
            }
            // Starved: find the device where evicting the fewest
            // strictly-lower-priority tenants makes room.
            let mut prov = SchedProv::for_recorder(&self.recorder);
            prov.note(|| {
                format!(
                    "sharePod {starved} (priority {prio}) starved: \
                     no vGPU fits {:.2} util / {:.2} mem and no free physical GPU",
                    frac(need.0),
                    frac(need.1)
                )
            });
            let mut best: Option<(usize, GpuId, Vec<Uid>)> = None;
            for d in self.system.pool().devices() {
                if d.releasing || d.uuid.is_none() {
                    continue;
                }
                let Some(&(mut free)) = dev_free.get(&d.id) else {
                    continue;
                };
                // Candidate victims on this device, lowest class first,
                // newest (largest uid) first within a class.
                let mut cands: Vec<(u8, Uid, (u32, u32))> = d
                    .attached
                    .iter()
                    .filter_map(|(&uid, &held)| {
                        let p = self.system.sharepod(uid)?.spec.priority;
                        (p < prio).then_some((p, uid, held))
                    })
                    .collect();
                cands.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
                let mut chosen = Vec::new();
                for (_, uid, held) in cands {
                    if fits(free, need) {
                        break;
                    }
                    free.0 += held.0;
                    free.1 += held.1;
                    chosen.push(uid);
                }
                if fits(free, need) && !chosen.is_empty() {
                    // Candidate score is evictions needed (fewer wins).
                    prov.candidate_with("evictions_needed", chosen.len() as f64, || {
                        d.id.as_str().to_string()
                    });
                    let better = best
                        .as_ref()
                        .map(|(n, id, _)| chosen.len() < *n || (chosen.len() == *n && d.id < *id))
                        .unwrap_or(true);
                    if better {
                        best = Some((chosen.len(), d.id.clone(), chosen));
                    }
                }
            }
            let Some((_, dev, victims)) = best else {
                // Not even a full sweep of one device helps; leave the
                // sharePod pending for a later tick.
                if self.recorder.is_enabled() {
                    prov.reject(ReasonCode::AwaitingPreemption);
                    prov.note(|| "no device can be freed by evicting lower classes".to_string());
                    let trace = self
                        .system
                        .sharepod_trace(starved)
                        .map(|c| c.trace)
                        .unwrap_or(0);
                    self.recorder.record(prov.into_record(
                        now,
                        starved.0,
                        trace,
                        DecisionKind::PreemptVictim,
                        Outcome::Held {
                            reason: ReasonCode::AwaitingPreemption,
                        },
                    ));
                }
                continue 'pending;
            };
            prov.choose(dev.as_str(), "fewest_evictions", victims.len() as f64);
            let mut evicted: Vec<Uid> = Vec::new();
            for uid in victims {
                if victims_left == 0 {
                    break;
                }
                let vprio = self
                    .system
                    .sharepod(uid)
                    .map(|s| s.spec.priority)
                    .unwrap_or(0);
                if vprio >= prio {
                    // Guarded against above; an inversion here is a bug.
                    self.telemetry
                        .counter("ks_gw_preempt_inversions_total", &[])
                        .inc();
                    continue;
                }
                if self.system.preempt_sharepod(now, uid, out, notices) {
                    victims_left -= 1;
                    preempted += 1;
                    self.stats.preemptions += 1;
                    evicted.push(uid);
                    if self.telemetry.is_enabled() {
                        let vtier = self
                            .sp_info
                            .get(&uid)
                            .map(|i| i.tier.label())
                            .unwrap_or("unknown");
                        self.telemetry
                            .counter("ks_gw_preemptions_total", &[("victim_tier", vtier)])
                            .inc();
                    }
                }
            }
            if self.recorder.is_enabled() {
                let trace = self
                    .system
                    .sharepod_trace(starved)
                    .map(|c| c.trace)
                    .unwrap_or(0);
                let mut rec = prov.into_record(
                    now,
                    starved.0,
                    trace,
                    DecisionKind::PreemptVictim,
                    Outcome::Action {
                        name: "preempt".to_string(),
                        target: dev.as_str().into(),
                    },
                );
                rec.fields.push((
                    "victims".to_string(),
                    evicted
                        .iter()
                        .map(|u| u.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                ));
                self.recorder.record(rec);
            }
            if self.logger.is_enabled() {
                self.logger.log(
                    now,
                    LogLevel::Warn,
                    "gateway",
                    self.system
                        .sharepod_trace(starved)
                        .map(|c| c.trace)
                        .unwrap_or(0),
                    || {
                        format!(
                            "preempted {} tenant(s) on {} for starved sharePod {starved}",
                            evicted.len(),
                            dev.as_str()
                        )
                    },
                    || vec![("device".to_string(), dev.as_str().to_string())],
                );
            }
            // Claim the freed room if the device survived (it may be
            // releasing now if the evictions idled it under an on-demand
            // pool policy — then the preemptor rides the new-device path
            // once the physical GPU frees). A device whose room does not
            // cover the claim (the victim budget ran out) leaves the view.
            match self.system.pool().get(&dev) {
                Some(d) if !d.releasing && d.fits(need) => {
                    dev_free.insert(dev, (d.util_free - need.0, d.mem_free - need.1));
                }
                _ => {
                    dev_free.remove(&dev);
                }
            }
        }
        preempted
    }
}
