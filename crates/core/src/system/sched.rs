//! KubeShare-Sched (paper §4.3): runs Algorithm 1 for each pending
//! sharePod, fills in its GPUID or rejects it, and binds it to the vGPU.

use ks_cluster::api::{Uid, NVIDIA_GPU};
use ks_partition::Profile;
use ks_sim_core::time::SimTime;
use ks_telemetry::provenance::{DecisionKind, Outcome, ReasonCode, SchedProv};
use ks_telemetry::{LogLevel, SpanId};

use super::{KsEmit, KsEvent, KsNotice, KubeShareSystem};
use crate::algorithm::{
    fit_residual, outcome_of, schedule_substrate_prov, Decision, RejectReason, SchedRequest,
};
use crate::gpuid::GpuId;
use crate::pool::frac;
use crate::sharepod::{SharePodPhase, SharePodSpec};

impl KubeShareSystem {
    /// Batch scheduler entry point: decides every `Pending` sharePod in
    /// one pass — highest priority class first, uid order within a class —
    /// with each decision applied to the pool (bind / anchor launch /
    /// reject) before the next one runs: the same per-decision semantics
    /// as the event-driven path, without paying one `sched_latency`
    /// round-trip per sharePod. The priority ordering is what makes
    /// preemption stick: a preemptor drained in the same pass as its
    /// freshly-`Pending` victims claims the freed capacity before any of
    /// them is decided. Any `SchedDecide` events already queued for these
    /// sharePods become no-ops (the phase has moved past `Pending`).
    /// Returns the batch length.
    pub fn drain_pending(
        &mut self,
        now: SimTime,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        let mut pending: Vec<(u8, Uid)> = self
            .sharepods
            .iter()
            .filter(|(_, s)| s.status.phase == SharePodPhase::Pending)
            .map(|(uid, s)| (s.spec.priority, uid))
            .collect();
        // Store iteration order is a hash order; the batch must not be.
        pending.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let batch_len = pending.len();
        for (_, sp) in pending {
            self.on_sched_decide(now, sp, out, notices);
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .histogram_log("sched_batch_len", &[], 1.0, 1e6, 30)
                .observe(batch_len as f64);
            self.telemetry.trace_event(
                now,
                "sched",
                "batch_drain",
                &[("len", &batch_len.to_string())],
            );
        }
        batch_len
    }

    /// Removes a terminal sharePod from the API store — the analogue of
    /// the cluster's pod GC, without which a long-running control plane
    /// iterates every sharePod that ever lived on each batch drain. Live
    /// sharePods are never collected. Returns whether an object was
    /// removed.
    pub fn gc_sharepod(&mut self, sp: Uid) -> bool {
        let terminal = self.sharepods.get(sp).is_some_and(|s| {
            matches!(
                s.status.phase,
                SharePodPhase::Terminated | SharePodPhase::Rejected
            )
        });
        if !terminal {
            return false;
        }
        self.sharepods.delete(sp);
        self.sp_trace.remove(&sp);
        true
    }

    /// Whether a brand-new vGPU could actually anchor right now: free
    /// physical GPUs net of the creating vGPUs already racing for them.
    fn has_spare_physical_gpu(&self) -> bool {
        let free = self.cluster.free_total().extended_count(NVIDIA_GPU);
        let (creating, _, _) = self.pool.phase_counts();
        free > u64::from(creating)
    }

    /// Whether any sharePod of a strictly lower priority class currently
    /// holds vGPU capacity — i.e. whether preemption could make room.
    fn has_attached_below(&self, priority: u8) -> bool {
        self.pool.devices().any(|d| {
            d.attached.keys().any(|&uid| {
                self.sharepods
                    .get(uid)
                    .is_some_and(|s| s.spec.priority < priority)
            })
        })
    }

    pub(super) fn on_sched_decide(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        if sharepod.status.phase != SharePodPhase::Pending {
            return; // deleted while queued
        }
        let submitted = sharepod.meta.created_at;
        let spec = sharepod.spec.clone();
        // `ShareSpec`'s fields are public, so a spec that skipped
        // `ShareSpec::new` can reach the API server; it never reaches
        // Algorithm 1.
        if let Err(e) = spec.share.validate() {
            self.reject_sharepod(now, sp, format!("{e:?}"), notices);
            return;
        }
        let req = SchedRequest {
            util: spec.share.request,
            mem: spec.share.mem,
            locality: spec.locality.clone(),
        };
        let mut prov = SchedProv::for_recorder(&self.recorder);
        let decision = match &spec.gpuid {
            // Explicit GPUID: an existing vGPU binds directly; a
            // non-existent GPUID asks DevMgr to create one (paper §4.4).
            Some(id) => match self.pool.get(id) {
                Some(d) => {
                    let fits = if let Some(table) = &d.partition {
                        // Pinning to a partitioned vGPU asks for a slice:
                        // the demand's covering profile must have a legal
                        // start in the current layout.
                        Profile::smallest_covering(spec.share.request.max(spec.share.mem))
                            .is_some_and(|p| table.can_place(p))
                    } else {
                        d.fits(req.need())
                    };
                    let score = frac(d.fit_key());
                    prov.candidate_with("pinned", score, || d.id.as_str().to_string());
                    if !d.releasing && fits {
                        prov.choose(d.id.as_str(), "pinned", score);
                        prov.note(|| format!("spec pins GPUID {id}; it fits"));
                        Decision::Assign(id.clone())
                    } else {
                        prov.reject(ReasonCode::PinnedUnfit);
                        prov.note(|| format!("spec pins GPUID {id}; it cannot host the demand"));
                        Decision::Reject(RejectReason::InsufficientCapacity)
                    }
                }
                None => {
                    prov.note(|| format!("spec pins unknown GPUID {id}; DevMgr will create it"));
                    Decision::NewDevice(id.clone())
                }
            },
            None => schedule_substrate_prov(
                self.cfg.sched_mode,
                spec.substrate,
                &req,
                &mut self.pool,
                &mut prov,
            ),
        };

        if self.telemetry.is_enabled() {
            let outcome = match &decision {
                Decision::Assign(_) => "assign",
                Decision::NewDevice(_) => "new_device",
                Decision::Reconfigure(_) => "reconfigure",
                Decision::Reject(_) => "reject",
            };
            self.telemetry
                .counter("ks_sched_decisions_total", &[("outcome", outcome)])
                .inc();
            // Submission-to-decision latency; re-queued sharePods keep
            // their original submission time, so requeues stretch the tail.
            self.telemetry
                .histogram_seconds("ks_sched_decision_seconds", &[])
                .observe(now.saturating_since(submitted).as_secs_f64());
            if let Decision::Assign(gpuid) = &decision {
                // util + mem residual each in [0,1] → fit score in [0,2].
                if let Some(r) = fit_residual(&req, &self.pool, gpuid) {
                    self.telemetry
                        .histogram_linear("ks_sched_fit_residual", &[], 0.0, 2.0, 20)
                        .observe(r);
                }
            }
            let target = match &decision {
                Decision::Assign(g) | Decision::NewDevice(g) | Decision::Reconfigure(g) => {
                    g.to_string()
                }
                Decision::Reject(r) => format!("{r:?}"),
            };
            let ctx = self.sp_ctx(sp);
            self.telemetry.trace_event_in(
                now,
                ctx,
                "sched",
                "decision",
                &[
                    ("sp", &sp.to_string()),
                    ("outcome", outcome),
                    ("target", &target),
                ],
            );
            // The schedule span (opened at submission/requeue) ends at the
            // decision, carrying the outcome.
            if let Some(tr) = self.sp_trace.get_mut(&sp) {
                let span = std::mem::replace(&mut tr.sched_span, SpanId::NONE);
                self.telemetry
                    .span_end(now, span, &[("outcome", outcome), ("target", &target)]);
            }
        }

        // Evaluate the awaiting-preemption holds once, up front, so the
        // provenance outcome recorded below and the control flow in the
        // match agree exactly (including for `drain_pending` entries,
        // which take this same path — the typed reason is never dropped
        // mid-batch).
        let parks = match &decision {
            // A priority class above the floor does not take "no" while
            // strictly lower-priority work holds pool capacity: it stays
            // Pending so the front door's preemption pump can evict on
            // its behalf and re-decide. Priority-0 workloads (everything
            // pre-gateway) keep the paper's reject semantics.
            Decision::Reject(_) => spec.priority > 0 && self.has_attached_below(spec.priority),
            // Same hold for a new vGPU: it needs a free physical GPU, and
            // the algorithm cannot see that the cluster is out of them.
            // Rather than park a high-priority sharePod behind an anchor
            // that cannot start, keep it Pending so preemption can free
            // existing capacity for it.
            Decision::NewDevice(_) => {
                spec.priority > 0
                    && !self.has_spare_physical_gpu()
                    && self.has_attached_below(spec.priority)
            }
            _ => false,
        };
        let outcome = if parks {
            prov.reject(ReasonCode::AwaitingPreemption);
            Outcome::Held {
                reason: ReasonCode::AwaitingPreemption,
            }
        } else {
            outcome_of(&decision, &prov)
        };
        self.record_sched_outcome(now, sp, prov, outcome);

        match decision {
            Decision::Reject(reason) => {
                if parks {
                    self.sharepods.mutate(sp, |s| {
                        s.status.message = Some("awaiting preemption".to_string());
                    });
                    return;
                }
                self.reject_sharepod(now, sp, format!("{reason:?}"), notices);
            }
            Decision::Assign(gpuid) => {
                self.bind(now, sp, &spec, gpuid, out);
            }
            Decision::NewDevice(gpuid) => {
                if parks {
                    self.sharepods.mutate(sp, |s| {
                        s.status.message = Some("awaiting preemption".to_string());
                    });
                    return;
                }
                if spec
                    .substrate
                    .wants_spatial(spec.share.request, spec.share.mem)
                {
                    self.pool.insert_creating_spatial(gpuid.clone());
                } else {
                    self.pool.insert_creating(gpuid.clone());
                }
                // DevMgr work for this vGPU is on behalf of the sharePod
                // whose decision demanded it.
                self.vgpus.entry(gpuid.clone()).or_default().ctx = self.sp_ctx(sp);
                self.launch_anchor(now, &gpuid, spec.node_name.clone(), out, notices);
                // The launch may have failed and be backing off — the
                // sharePod still binds and waits; a successful retry will
                // release it, and exhausted retries re-queue it.
                if self.pool.get(&gpuid).is_some() {
                    self.bind(now, sp, &spec, gpuid, out);
                }
            }
            Decision::Reconfigure(gpuid) => {
                self.reconfigure_partition(now, sp, gpuid, out, notices);
            }
        }
    }

    /// Ends an unplaceable sharePod `Rejected` with `reason`, clearing any
    /// binding, and tells the embedding world why.
    pub(super) fn reject_sharepod(
        &mut self,
        now: SimTime,
        sp: Uid,
        reason: String,
        notices: &mut Vec<KsNotice>,
    ) {
        self.transition_sp(sp, SharePodPhase::Rejected, |s| {
            s.status.bound_gpuid = None;
            s.status.message = Some(reason.clone());
        });
        self.close_sp_trace(now, sp, "rejected");
        notices.push(KsNotice::SharePodRejected { sp, reason });
    }

    /// Records the sharePod on the vGPU; creates the backing pod now (ready
    /// vGPU) or parks it until the anchor reports the UUID. On a
    /// partitioned vGPU the demand binds to a dedicated slice; the path is
    /// picked by the *device's* substrate, so an explicit-GPUID pin to a
    /// partitioned device gets a slice regardless of the spec's substrate.
    fn bind(&mut self, now: SimTime, sp: Uid, spec: &SharePodSpec, gpuid: GpuId, out: &mut KsEmit) {
        let is_spatial = self.pool.get(&gpuid).is_some_and(|d| d.is_spatial());
        if is_spatial {
            let demand = spec.share.request.max(spec.share.mem);
            let bound = Profile::smallest_covering(demand).and_then(|profile| {
                self.pool
                    .attach_slice(
                        &gpuid,
                        sp,
                        profile,
                        spec.share.request,
                        spec.share.mem,
                        spec.locality.affinity.as_deref(),
                        spec.locality.anti_affinity.as_deref(),
                        spec.locality.exclusion.as_deref(),
                    )
                    .ok()
            });
            if bound.is_none() {
                // The slice the decision counted on was taken (or the
                // table started draining) between decide and bind: stay
                // Pending and re-decide against fresh state.
                self.sharepods.mutate(sp, |s| {
                    s.status.message = Some("slice bind raced; re-deciding".into());
                });
                out.push((now + self.cfg.sched_latency, KsEvent::SchedDecide { sp }));
                return;
            }
        } else {
            self.pool.attach(
                &gpuid,
                sp,
                spec.share.request,
                spec.share.mem,
                spec.locality.affinity.as_deref(),
                spec.locality.anti_affinity.as_deref(),
                spec.locality.exclusion.as_deref(),
            );
        }
        let ready = self.pool.get(&gpuid).is_some_and(|d| d.uuid.is_some());
        let next = if ready {
            SharePodPhase::Starting
        } else {
            SharePodPhase::AwaitingVgpu
        };
        self.transition_sp(sp, next, |s| {
            s.status.bound_gpuid = Some(gpuid.clone());
        });
        if ready {
            self.order_pod(now, sp, &gpuid, out);
        } else {
            if let Some(tr) = self.sp_trace.get_mut(&sp) {
                tr.vgpu_span = self.telemetry.span_begin_in(
                    now,
                    tr.ctx,
                    "devmgr",
                    "vgpu_create",
                    &[("gpuid", gpuid.as_str())],
                );
            }
            self.vgpus.entry(gpuid).or_default().waiting.push(sp);
        }
    }

    /// Orders a `Starting` sharePod's backing pod after DevMgr's vGPU
    /// query and opens the pod-creation child span (Starting → Running).
    pub(super) fn order_pod(&mut self, now: SimTime, sp: Uid, gpuid: &GpuId, out: &mut KsEmit) {
        let due = now + self.cfg.vgpu_query_latency;
        self.pod_due.insert(sp, due);
        out.push((due, KsEvent::CreatePod { sp }));
        if let Some(tr) = self.sp_trace.get_mut(&sp) {
            tr.pod_span = self.telemetry.span_begin_in(
                now,
                tr.ctx,
                "cluster",
                "pod_create",
                &[("gpuid", gpuid.as_str())],
            );
        }
    }

    /// Applies a [`Decision::Reconfigure`] verdict: the capacity the
    /// request needs exists on `gpuid` but the slice layout strands it, so
    /// pay the explicit reconfiguration cost instead of burning a fresh
    /// physical GPU. The device drains (tenants are stopped and displaced
    /// exactly as in a vGPU drain, but the device survives), the new
    /// layout activates `partition_reconfig_cost` later, and the
    /// triggering sharePod plus every displaced tenant re-decide only once
    /// it is live — re-deciding earlier would stampede them onto new
    /// devices while the capacity they need is mid-reshape.
    fn reconfigure_partition(
        &mut self,
        now: SimTime,
        sp: Uid,
        gpuid: GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        if self.pool.begin_partition_drain(&gpuid).is_err() {
            // The table left `Active` between decide and apply (a
            // concurrent reconfiguration); park the sharePod for a fresh
            // pass against the settled pool.
            self.sharepods.mutate(sp, |s| {
                s.status.message = Some("partition busy; re-deciding".into());
            });
            out.push((now + self.cfg.sched_latency, KsEvent::SchedDecide { sp }));
            return;
        }
        // Tenants are stopped and detached exactly as in a vGPU drain, but
        // the device stays for the reshape: no idle policy runs.
        let displaced = self.displace_all(now, &gpuid, out, notices);
        // Reconfigure provenance: which device is being reshaped, on whose
        // behalf, and who gets displaced for it.
        let reconfig_ctx = self.sp_ctx(sp);
        if self.recorder.is_enabled() {
            let mut rec = SchedProv::on().into_record(
                now,
                sp.0,
                reconfig_ctx.trace,
                DecisionKind::Reconfigure,
                Outcome::Reconfigure {
                    target: gpuid.as_str().into(),
                },
            );
            rec.fields
                .push(("displaced".into(), displaced.len().to_string()));
            self.recorder.record(rec);
        }
        self.logger.log(
            now,
            LogLevel::Warn,
            "partition",
            reconfig_ctx.trace,
            || {
                format!(
                    "sharePod {sp}: reconfiguring {gpuid} (displacing {} tenants)",
                    displaced.len()
                )
            },
            || {
                vec![
                    ("sp".into(), sp.to_string()),
                    ("gpuid".into(), gpuid.to_string()),
                ]
            },
        );
        let span = if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_partition_reconfigs_total", &[])
                .inc();
            let ctx = self.sp_ctx(sp);
            self.telemetry.span_begin_in(
                now,
                ctx,
                "partition",
                "reconfig",
                &[
                    ("gpuid", gpuid.as_str()),
                    ("displaced", &displaced.len().to_string()),
                ],
            )
        } else {
            SpanId::NONE
        };
        for &t in &displaced {
            let pod = self.sharepods.get(t).and_then(|s| s.status.pod_uid);
            self.evict_pod(now, pod, out, notices);
        }
        let until = self
            .pool
            .note_partition_drained(&gpuid, now, self.cfg.partition_reconfig_cost)
            .expect("all tenants just detached");
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.reconfig_tickets.insert(ticket, (gpuid, span));
        out.push((until, KsEvent::PartitionActivate { ticket }));
        let decide_at = until + self.cfg.sched_latency;
        for t in displaced {
            self.requeue_sharepod_at(now, t, decide_at, out, notices);
        }
        // The triggering sharePod never left Pending; a fresh schedule
        // span covers its wait for the new layout.
        self.sharepods.mutate(sp, |s| {
            s.status.message = Some("awaiting partition reconfiguration".into());
        });
        self.restart_sched_span(now, sp);
        out.push((decide_at, KsEvent::SchedDecide { sp }));
        self.record_gauges();
    }

    /// A reconfiguration window elapsed: activate the new layout if the
    /// device is still around (it may have died with its node mid-window).
    pub(super) fn on_partition_activate(&mut self, now: SimTime, ticket: u64) {
        let Some((gpuid, span)) = self.reconfig_tickets.remove(&ticket) else {
            return;
        };
        // The device may have died with its node mid-window, and in the
        // extreme its GPUID may even have been reused by a time-sliced
        // replacement — only a still-partitioned device activates.
        let outcome = match self.pool.get(&gpuid) {
            Some(d) if d.is_spatial() => match self.pool.activate_partition(&gpuid, now) {
                Ok(()) => "activated",
                Err(_) => "stale",
            },
            _ => "device_lost",
        };
        self.telemetry.span_end(now, span, &[("outcome", outcome)]);
    }

    /// Sched's invariant: every sharePod in a bound phase (`AwaitingVgpu`,
    /// `Starting`, `Running`) names a GPUID whose pool device carries its
    /// attachment.
    pub(super) fn verify_bindings(&self) -> Result<(), String> {
        for (uid, s) in self.sharepods.iter() {
            if !matches!(
                s.status.phase,
                SharePodPhase::AwaitingVgpu | SharePodPhase::Starting | SharePodPhase::Running
            ) {
                continue;
            }
            let Some(gpuid) = s.status.bound_gpuid.as_ref() else {
                return Err(format!("{uid:?} is {:?} without a GPUID", s.status.phase));
            };
            match self.pool.get(gpuid) {
                None => return Err(format!("{uid:?} bound to vanished {gpuid}")),
                Some(d) if !d.attached.contains_key(&uid) => {
                    return Err(format!("{uid:?} not attached to its bound {gpuid}"));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}
