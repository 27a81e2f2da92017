//! SharePod eviction.
//!
//! Every path that takes a sharePod off a vGPU composes these helpers;
//! DESIGN.md §17 tabulates the entry points.

use ks_cluster::api::Uid;
use ks_sim_core::time::SimTime;
use ks_telemetry::SpanId;

use super::{KsEmit, KsEvent, KsNotice, KubeShareSystem, SystemError};
use crate::gpuid::GpuId;
use crate::sharepod::SharePodPhase;

impl KubeShareSystem {
    /// Takes `sp` off vGPU `gpuid`: drops it from the waiters and, if
    /// attached, stops its container (when the device is ready on a live
    /// node) and detaches it. With `idle_policy` the device stays and an
    /// idle one goes through the pool policy; else its fate is the caller's.
    pub(super) fn vacate(
        &mut self,
        now: SimTime,
        sp: Uid,
        gpuid: &GpuId,
        idle_policy: bool,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        if let Some(r) = self.vgpus.get_mut(gpuid) {
            r.waiting.retain(|&u| u != sp);
        }
        let Some(device) = self.pool.get(gpuid) else {
            notices.push(KsNotice::Fault {
                error: SystemError::MissingVgpu {
                    gpuid: gpuid.clone(),
                },
            });
            return;
        };
        if !device.attached.contains_key(&sp) {
            return;
        }
        if let (Some(node), Some(uuid)) = (&device.node, &device.uuid) {
            if self.cluster.node_up(node) == Some(true) {
                notices.push(KsNotice::SharePodStopped {
                    sp,
                    gpuid: gpuid.clone(),
                    node: node.clone(),
                    uuid: uuid.clone(),
                });
            }
        }
        if self.pool.detach(gpuid, sp) && idle_policy {
            self.apply_pool_policy(now, gpuid, out, notices);
        }
    }

    /// Vacates every sharePod on `gpuid` — its attached tenants in uid
    /// order, then any waiter not attached — and returns them, each once.
    /// The device's fate is the caller's: no idle policy runs.
    pub(super) fn displace_all(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> Vec<Uid> {
        let mut tenants: Vec<Uid> = self
            .pool
            .get(gpuid)
            .map(|d| d.attached.keys().copied().collect())
            .unwrap_or_default();
        for &sp in self.vgpus.get(gpuid).into_iter().flat_map(|r| &r.waiting) {
            if !tenants.contains(&sp) {
                tenants.push(sp);
            }
        }
        for &sp in &tenants {
            self.vacate(now, sp, gpuid, false, out, notices);
        }
        tenants
    }

    /// Deletes an evicted sharePod's backing pod, unless the pod is already
    /// gone; the sharePod was already requeued or reset, so the pod's
    /// deletion notice is swallowed.
    pub(super) fn evict_pod(
        &mut self,
        now: SimTime,
        pod: Option<Uid>,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        if let Some(pod) = pod.filter(|p| self.pod_sp.contains_key(p)) {
            self.preempted_pods.insert(pod);
            self.cluster_call(now, out, notices, |c, o, n| c.delete_pod(now, pod, o, n));
        }
    }

    /// Pushes a sharePod back to `Pending` (clearing any binding) and
    /// schedules a fresh Algorithm 1 pass, unless it already terminated.
    /// Returns the backing pod it lost.
    pub(super) fn requeue_sharepod(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> Option<Uid> {
        self.requeue_sharepod_at(now, sp, now + self.cfg.sched_latency, out, notices)
    }

    /// [`KubeShareSystem::requeue_sharepod`] with an explicit decision
    /// time: partition reconfiguration re-decides its displaced tenants
    /// only once the new layout is active, so they do not stampede onto
    /// fresh physical GPUs while the capacity they need is mid-reshape.
    pub(super) fn requeue_sharepod_at(
        &mut self,
        now: SimTime,
        sp: Uid,
        decide_at: SimTime,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> Option<Uid> {
        let phase = self.sharepods.get(sp)?.status.phase;
        if matches!(phase, SharePodPhase::Terminated | SharePodPhase::Rejected) {
            return None;
        }
        let (gpuid, pod) = self.reset_pending(sp, "requeued after failure");
        notices.push(KsNotice::SharePodRequeued { sp, gpuid });
        self.note_eviction(now, sp, "ks_sched_requeues_total", "requeue");
        out.push((decide_at, KsEvent::SchedDecide { sp }));
        pod
    }

    /// Moves a sharePod to `Pending` with its binding cleared; returns the
    /// vGPU and backing pod it lost.
    pub(super) fn reset_pending(&mut self, sp: Uid, message: &str) -> (Option<GpuId>, Option<Uid>) {
        let lost = self
            .sharepods
            .get(sp)
            .map(|s| (s.status.bound_gpuid.clone(), s.status.pod_uid))
            .unwrap_or_default();
        self.transition_sp(sp, SharePodPhase::Pending, |s| {
            s.status.bound_gpuid = None;
            s.status.pod_uid = None;
            s.status.message = Some(message.into());
        });
        lost
    }

    /// Counts and traces a requeue or preemption, then restarts the
    /// sharePod's schedule span for its next Algorithm 1 pass.
    pub(super) fn note_eviction(
        &mut self,
        now: SimTime,
        sp: Uid,
        counter: &'static str,
        event: &'static str,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.counter(counter, &[]).inc();
        let ctx = self.sp_ctx(sp);
        self.telemetry
            .trace_event_in(now, ctx, "sched", event, &[("sp", &sp.to_string())]);
        self.restart_sched_span(now, sp);
    }

    /// Opens a fresh `schedule` span for the sharePod's next Algorithm 1
    /// pass, then ends the schedule, vGPU and pod spans its previous
    /// attempt left open.
    pub(super) fn restart_sched_span(&mut self, now: SimTime, sp: Uid) {
        let Some(tr) = self.sp_trace.get_mut(&sp) else {
            return;
        };
        let old = *tr;
        tr.sched_span = self
            .telemetry
            .span_begin_in(now, tr.ctx, "sched", "schedule", &[]);
        (tr.vgpu_span, tr.pod_span) = (SpanId::NONE, SpanId::NONE);
        for span in [old.sched_span, old.vgpu_span, old.pod_span] {
            self.telemetry.span_end(now, span, &[]);
        }
    }

    /// Ends a sharePod — `Rejected` with the `failure` reason if its
    /// container failed, else `Terminated` — closes its trace on
    /// `outcome`, and vacates its vGPU, which stays under the idle policy.
    pub(super) fn finish_sharepod(
        &mut self,
        now: SimTime,
        sp: Uid,
        outcome: &'static str,
        failure: Option<&str>,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let gpuid = self
            .sharepods
            .get(sp)
            .and_then(|s| s.status.bound_gpuid.clone());
        match failure {
            Some(reason) => self.transition_sp(sp, SharePodPhase::Rejected, |s| {
                s.status.message = Some(reason.into());
            }),
            None => self.transition_sp(sp, SharePodPhase::Terminated, |_| {}),
        }
        self.close_sp_trace(now, sp, outcome);
        match gpuid {
            Some(gpuid) => self.vacate(now, sp, &gpuid, true, out, notices),
            None => notices.push(KsNotice::Fault {
                error: SystemError::UnboundSharePod { sp },
            }),
        }
    }
}
