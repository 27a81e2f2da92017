//! Fault entry points.
//!
//! The embedding world routes `ks_chaos::ChaosEvent`s into these; they
//! are equally usable directly from tests.

use ks_cluster::api::Uid;
use ks_cluster::sim::ClusterNotice;
use ks_sim_core::time::SimTime;
use ks_telemetry::provenance::{DecisionKind, Outcome, SchedProv};
use ks_telemetry::LogLevel;

use super::{lifted, KsEmit, KsNotice, KubeShareSystem};
use crate::gpuid::GpuId;
use crate::sharepod::SharePodPhase;

impl KubeShareSystem {
    /// A node crashed: the kubelet and every container on it are gone.
    /// DevMgr marks the node's vGPUs dead, releases their GPUIDs, and
    /// re-queues every attached or waiting sharePod through Algorithm 1
    /// against the surviving pool.
    pub fn fail_node(
        &mut self,
        now: SimTime,
        name: &str,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let mut cluster_notes = Vec::new();
        let victims = self.cluster.fail_node(now, name, &mut cluster_notes);
        // Per-node failure counter: the control plane's own observation
        // point, giving anomaly detectors a per-node crash-burn series.
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_node_failures_total", &[("node", name)])
                .inc();
        }

        // vGPUs whose physical device sat on the failed node, straight
        // from the per-node index (releasing devices included — their
        // anchors died with the node too).
        let dead: Vec<GpuId> = self.pool.devices_on_node(name).cloned().collect();

        // Victim pods we account for here; everything else (native pods)
        // passes through as a plain cluster notice.
        let mut displaced: Vec<Uid> = Vec::new();
        let mut orphaned: Vec<GpuId> = Vec::new();
        for pod in victims {
            if let Some(gpuid) = self.take_anchor(pod) {
                // The anchor died with its node. A ready vGPU sits on that
                // node and is handled with `dead` below; one whose anchor
                // had not reported in yet is not, and is orphaned.
                orphaned.push(gpuid);
            } else if let Some(sp) = self.pod_sp.remove(&pod) {
                // Pods mid-preemption-teardown: their sharePods are already
                // `Pending`, so the node taking the pod down changes nothing.
                if !self.preempted_pods.remove(&pod) {
                    displaced.push(sp);
                }
            } else {
                notices.push(KsNotice::Cluster(ClusterNotice::PodFailed {
                    pod,
                    reason: "node failure".into(),
                }));
            }
        }

        for gpuid in dead {
            // Tenants lose their binding (their containers died with the
            // node, so nothing is stopped); then the device goes.
            for sp in self.displace_all(now, &gpuid, out, notices) {
                if !displaced.contains(&sp) {
                    displaced.push(sp);
                }
            }
            self.forget_vgpu(now, &gpuid, Some("node failure"), notices);
        }

        // A displaced sharePod whose backing pod was still pending (pinned
        // to the failed node, so not a victim) loses that pod as well.
        for sp in displaced {
            let pod = self.requeue_sharepod(now, sp, out, notices);
            self.evict_pod(now, pod, out, notices);
        }
        // An orphaned vGPU will never hear from its anchor: one being
        // released is forgotten now, and any other counts a failed launch
        // and backs off to relaunch it.
        for gpuid in orphaned {
            match self.pool.get(&gpuid).map(|d| d.releasing) {
                Some(true) => self.forget_vgpu(now, &gpuid, None, notices),
                Some(false) => self.on_anchor_launch_failed(now, gpuid, out, notices),
                None => {}
            }
        }
        self.record_gauges();
    }

    /// A crashed node rejoined with empty state; queued work is retried.
    pub fn recover_node(&mut self, now: SimTime, name: &str, out: &mut KsEmit) {
        lifted(out, |o| self.cluster.recover_node(now, name, o));
    }

    /// Cordons a node (remediation path): running sharePods stay, but no
    /// new placements land on it until [`KubeShareSystem::uncordon_node`].
    /// Idempotent; returns whether the state changed.
    pub fn cordon_node(&mut self, name: &str) -> bool {
        let changed = self.cluster.cordon_node(name);
        if changed && self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_node_cordons_total", &[("node", name)])
                .inc();
            self.telemetry
                .gauge("ks_cluster_cordoned_nodes", &[])
                .add(1.0);
        }
        changed
    }

    /// Lifts a cordon; queued work is retried against the node. Idempotent;
    /// returns whether the state changed.
    pub fn uncordon_node(&mut self, now: SimTime, name: &str, out: &mut KsEmit) -> bool {
        let changed = lifted(out, |o| self.cluster.uncordon_node(now, name, o));
        if changed && self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_node_uncordons_total", &[("node", name)])
                .inc();
            self.telemetry
                .gauge("ks_cluster_cordoned_nodes", &[])
                .add(-1.0);
        }
        changed
    }

    /// Drains every sharePod off a live vGPU and retires the device: each
    /// attached tenant is detached (with a [`KsNotice::SharePodStopped`]
    /// so the embedding world tears down container state), its backing
    /// pod is deleted, waiters are re-queued, and the device goes back to
    /// Kubernetes through the normal release path. Because the device is
    /// marked `releasing` immediately, Algorithm 1 cannot re-bind any of
    /// the displaced sharePods to it — they land on other vGPUs or fresh
    /// ones. This is the remediation path for a degraded GPU: a
    /// replacement vGPU is a fresh physical allocation and therefore
    /// healthy. Returns the number of sharePods displaced; 0 when the
    /// vGPU is unknown or already being released.
    pub fn drain_vgpu(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        if self.pool.get(gpuid).is_none_or(|d| d.releasing) {
            return 0;
        }
        let tenants = self.displace_all(now, gpuid, out, notices);
        for &sp in &tenants {
            let pod = self.requeue_sharepod(now, sp, out, notices);
            self.evict_pod(now, pod, out, notices);
        }
        self.release_vgpu(now, gpuid, out, notices);
        if self.telemetry.is_enabled() {
            self.telemetry.counter("ks_vgpu_drains_total", &[]).inc();
        }
        self.record_gauges();
        tenants.len()
    }

    /// Drains the tenant of a single slice on a partitioned vGPU: the
    /// slice's sharePod is stopped, detached — freeing only its slice —
    /// and re-queued through Algorithm 1; every other slice on the device
    /// keeps running. This is the remediation path for a degraded slice:
    /// spatial isolation means the fault stops at the slice boundary, so
    /// retiring the whole device (as [`KubeShareSystem::drain_vgpu`] does)
    /// would displace healthy tenants for nothing. Returns the number of
    /// sharePods displaced (0 when the vGPU is unknown, not partitioned,
    /// releasing, or the slice has no tenant).
    pub fn drain_slice(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        start: u8,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        if self
            .pool
            .get(gpuid)
            .is_none_or(|d| d.releasing || !d.is_spatial())
        {
            return 0;
        }
        let Some(sp) = self.pool.slice_tenant(gpuid, start) else {
            return 0;
        };
        self.vacate(now, sp, gpuid, true, out, notices);
        let pod = self.requeue_sharepod(now, sp, out, notices);
        self.evict_pod(now, pod, out, notices);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_vgpu_slice_drains_total", &[])
                .inc();
        }
        self.record_gauges();
        1
    }

    /// Remediation entry point that understands both substrates: a plain
    /// `"<gpuid>"` target drains the whole vGPU, while `"<gpuid>#sN"`
    /// drains only slice `N` on a partitioned vGPU. Returns the number of
    /// sharePods displaced.
    pub fn drain_target(
        &mut self,
        now: SimTime,
        target: &str,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> usize {
        match target.split_once("#s") {
            Some((gpu, slot)) => match slot.parse::<u8>() {
                Ok(start) => self.drain_slice(now, &GpuId::named(gpu), start, out, notices),
                Err(_) => 0,
            },
            None => self.drain_vgpu(now, &GpuId::named(target), out, notices),
        }
    }

    /// Crashes a single pod (container exit / OOM kill) and routes the
    /// consequences through the KubeShare controllers.
    pub fn crash_pod(
        &mut self,
        now: SimTime,
        pod: Uid,
        reason: impl Into<String>,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        self.cluster_call(now, out, notices, |c, o, n| {
            c.crash_pod(now, pod, reason, o, n)
        });
        self.record_gauges();
    }

    /// Uids of all running sharePod backing pods (chaos victim candidates).
    pub fn running_backing_pods(&self) -> Vec<Uid> {
        let mut pods: Vec<Uid> = self
            .pod_sp
            .iter()
            .filter(|(&pod, _)| {
                self.cluster
                    .pod(pod)
                    .is_some_and(|p| p.status.phase == ks_cluster::PodPhase::Running)
            })
            .map(|(&pod, _)| pod)
            .collect();
        pods.sort();
        pods
    }

    /// Evicts a sharePod to make room for higher-priority work (the
    /// gateway's preemption policy). Its capacity is detached from the
    /// vGPU *synchronously* — the freed room is visible to the very next
    /// Algorithm 1 pass — and the sharePod returns to `Pending` without a
    /// `SchedDecide` being scheduled: the caller re-enters it through
    /// [`KubeShareSystem::drain_pending`], whose priority ordering places
    /// it after everything that outranks it. The backing pod (if any) is
    /// torn down through the cluster; its eventual deletion notice is
    /// swallowed. Returns `false` when the sharePod does not exist, is
    /// still `Pending`, or already reached a terminal phase.
    pub fn preempt_sharepod(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) -> bool {
        let Some(sharepod) = self.sharepods.get(sp) else {
            return false;
        };
        if matches!(
            sharepod.status.phase,
            SharePodPhase::Pending | SharePodPhase::Rejected | SharePodPhase::Terminated
        ) {
            return false;
        }
        if let Some(gpuid) = sharepod.status.bound_gpuid.clone() {
            self.vacate(now, sp, &gpuid, true, out, notices);
        }
        let (gpuid, pod) = self.reset_pending(sp, "preempted");
        // Victim-side provenance: the eviction is a decision about this
        // sharePod, keyed to its trace like any scheduling record.
        let victim_ctx = self.sp_ctx(sp);
        if self.recorder.is_enabled() {
            let target = gpuid
                .as_ref()
                .map(|g| g.as_str().to_string())
                .unwrap_or_default();
            self.recorder.record(SchedProv::on().into_record(
                now,
                sp.0,
                victim_ctx.trace,
                DecisionKind::PreemptVictim,
                Outcome::Evicted {
                    target: target.into(),
                },
            ));
        }
        self.logger.log(
            now,
            LogLevel::Warn,
            "sched",
            victim_ctx.trace,
            || format!("sharePod {sp}: evicted for higher-priority work"),
            || vec![("sp".into(), sp.to_string())],
        );
        notices.push(KsNotice::SharePodPreempted { sp, gpuid });
        self.note_eviction(now, sp, "ks_sched_preemptions_total", "preempt");
        // Tear the backing pod down last: the deletion runs through the
        // cluster asynchronously, and the sharePod's state must already
        // be reset when any synchronous notice comes back.
        self.evict_pod(now, pod, out, notices);
        self.record_gauges();
        true
    }
}
