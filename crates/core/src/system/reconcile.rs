//! Controller reconciliation on cluster notices: anchor pods drive
//! DevMgr's vGPU lifecycle, backing pods drive their sharePods', and
//! every other pod's notice passes through untouched (§4.6).

use ks_cluster::api::Uid;
use ks_cluster::sim::{ClusterEmit, ClusterNotice, ClusterSim};
use ks_sim_core::time::SimTime;
use ks_telemetry::SpanId;

use super::{lifted, KsEmit, KsNotice, KubeShareSystem, RestartPolicy, SystemError};
use crate::gpuid::GpuId;
use crate::sharepod::SharePodPhase;

impl KubeShareSystem {
    pub(super) fn process_cluster_notices(
        &mut self,
        now: SimTime,
        cluster_notes: Vec<ClusterNotice>,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        for note in cluster_notes {
            match &note {
                ClusterNotice::PodRunning { pod } => {
                    if let Some(gpuid) = self.anchor_vgpu.get(pod).cloned() {
                        self.on_anchor_running(now, *pod, gpuid, out, notices);
                    } else if let Some(&sp) = self.pod_sp.get(pod) {
                        self.on_sharepod_pod_running(now, sp, *pod, notices);
                    } else {
                        notices.push(KsNotice::Cluster(note));
                    }
                }
                ClusterNotice::PodDeleted { pod } => {
                    if let Some(gpuid) = self.take_anchor(*pod) {
                        self.forget_vgpu(now, &gpuid, None, notices);
                    } else if let Some(sp) = self.pod_sp.remove(pod) {
                        // A preempted pod's sharePod was reset to `Pending`
                        // and detached when the eviction ran; its deletion
                        // notice is old news and must not terminate it.
                        if !self.preempted_pods.remove(pod) {
                            self.finish_sharepod(now, sp, "stopped", None, out, notices);
                        }
                    } else {
                        notices.push(KsNotice::Cluster(note));
                    }
                }
                ClusterNotice::PodFailed { pod, reason } => {
                    if let Some(gpuid) = self.take_anchor(*pod) {
                        // The anchor never made it (admission race, crash
                        // during start): treat as a failed launch attempt
                        // and back off.
                        self.on_anchor_launch_failed(now, gpuid, out, notices);
                    } else if let Some(sp) = self.pod_sp.remove(pod) {
                        if self.preempted_pods.remove(pod) {
                            // The pod died while preemption teardown was in
                            // flight; the sharePod is already `Pending`.
                            continue;
                        }
                        if self.cfg.restart_policy == RestartPolicy::OnFailure {
                            // Service semantics: give the crashed
                            // container's demand back to its vGPU, then
                            // send the sharePod through Algorithm 1 again.
                            if let Some(gpuid) = self
                                .sharepods
                                .get(sp)
                                .and_then(|s| s.status.bound_gpuid.clone())
                            {
                                self.vacate(now, sp, &gpuid, true, out, notices);
                            }
                            self.requeue_sharepod(now, sp, out, notices);
                        } else {
                            // Batch semantics: the sharePod fails, and its
                            // demand still returns to the vGPU.
                            notices.push(KsNotice::SharePodRejected {
                                sp,
                                reason: reason.clone(),
                            });
                            self.finish_sharepod(now, sp, "failed", Some(reason), out, notices);
                        }
                    } else {
                        notices.push(KsNotice::Cluster(note));
                    }
                }
                ClusterNotice::PodUnschedulable { pod } => {
                    if !self.anchor_vgpu.contains_key(pod) && !self.pod_sp.contains_key(pod) {
                        notices.push(KsNotice::Cluster(note));
                    }
                    // Anchors and sharePod pods just wait in the cluster's
                    // retry queue.
                }
            }
        }
    }

    fn on_anchor_running(
        &mut self,
        now: SimTime,
        anchor_pod: Uid,
        gpuid: GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        // DevMgr "obtains the actual device UUID from the environment
        // variable inside the launched container" (§4.4).
        let Some(pod) = self.cluster.pod(anchor_pod) else {
            notices.push(KsNotice::Fault {
                error: SystemError::MissingAnchor { pod: anchor_pod },
            });
            return;
        };
        let uuid = pod.visible_devices().map(str::to_string);
        let node = pod.status.node_name.clone();
        let (Some(uuid), Some(node)) = (uuid, node) else {
            // A running anchor without a device/node assignment is an
            // admission bug; contain it and let the retry path relaunch.
            notices.push(KsNotice::Fault {
                error: SystemError::VgpuNotReady {
                    gpuid: gpuid.clone(),
                },
            });
            self.take_anchor(anchor_pod);
            self.on_anchor_launch_failed(now, gpuid, out, notices);
            return;
        };
        let parked = self.vgpus.get_mut(&gpuid).map(|r| {
            r.retry = None;
            std::mem::take(&mut r.waiting)
        });
        self.pool.mark_ready(&gpuid, node.clone(), uuid.clone());
        self.note_vgpu_churn(now, "vgpu_created", &gpuid);
        let uuid_for_spans = uuid.clone();
        notices.push(KsNotice::VgpuCreated {
            gpuid: gpuid.clone(),
            node,
            uuid,
        });
        // Release any sharePods parked on this vGPU.
        for sp in parked.into_iter().flatten() {
            if self
                .sharepods
                .get(sp)
                .is_some_and(|s| s.status.phase == SharePodPhase::AwaitingVgpu)
            {
                self.transition_sp(sp, SharePodPhase::Starting, |_| {});
                // The vGPU-creation wait ends; the pod-creation span opens.
                if let Some(tr) = self.sp_trace.get_mut(&sp) {
                    let span = std::mem::replace(&mut tr.vgpu_span, SpanId::NONE);
                    self.telemetry
                        .span_end(now, span, &[("uuid", &uuid_for_spans)]);
                }
                self.order_pod(now, sp, &gpuid, out);
            }
        }
    }

    fn on_sharepod_pod_running(
        &mut self,
        now: SimTime,
        sp: Uid,
        pod: Uid,
        notices: &mut Vec<KsNotice>,
    ) {
        // A pod being torn down by an eviction can still start; the
        // sharePod has moved on from it.
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        if sharepod.status.pod_uid != Some(pod) {
            return;
        }
        let Some(gpuid) = sharepod.status.bound_gpuid.clone() else {
            notices.push(KsNotice::Fault {
                error: SystemError::UnboundSharePod { sp },
            });
            return;
        };
        let Some(device) = self.pool.get(&gpuid) else {
            notices.push(KsNotice::Fault {
                error: SystemError::MissingVgpu { gpuid },
            });
            return;
        };
        let (Some(node), Some(uuid)) = (device.node.clone(), device.uuid.clone()) else {
            notices.push(KsNotice::Fault {
                error: SystemError::VgpuNotReady { gpuid },
            });
            return;
        };
        let submitted = sharepod.meta.created_at;
        notices.push(KsNotice::SharePodRunning {
            sp,
            gpuid,
            node,
            uuid,
            share: sharepod.spec.share,
        });
        self.transition_sp(sp, SharePodPhase::Running, |_| {});
        if self.telemetry.is_enabled() {
            // Submission-to-running: the end-to-end startup latency the
            // `sharepod_startup_p99` SLO watches.
            self.telemetry
                .histogram_seconds("ks_sharepod_startup_seconds", &[])
                .observe(now.saturating_since(submitted).as_secs_f64());
            if let Some(tr) = self.sp_trace.get_mut(&sp) {
                let span = std::mem::replace(&mut tr.pod_span, SpanId::NONE);
                self.telemetry.span_end(now, span, &[]);
            }
            let ctx = self.sp_ctx(sp);
            self.telemetry.trace_event_in(
                now,
                ctx,
                "sched",
                "sharepod_running",
                &[("sp", &sp.to_string())],
            );
        }
    }

    /// Runs one cluster operation that may report notices: its events are
    /// lifted into `out` and its notices reconciled at once.
    pub(super) fn cluster_call<R>(
        &mut self,
        now: SimTime,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
        op: impl FnOnce(&mut ClusterSim, &mut ClusterEmit, &mut Vec<ClusterNotice>) -> R,
    ) -> R {
        let mut cluster_notes = Vec::new();
        let r = lifted(out, |o| op(&mut self.cluster, o, &mut cluster_notes));
        self.process_cluster_notices(now, cluster_notes, out, notices);
        r
    }
}
