//! KubeShare-DevMgr (paper §4.4): materializes each vGPU through an
//! anchor pod that holds one whole GPU, creates sharePods' backing pods
//! pinned to the vGPU's device, and releases idle vGPUs by pool policy.

use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{ResourceList, Uid, NVIDIA_GPU};
use ks_sim_core::time::SimTime;
use ks_telemetry::TraceCtx;

use super::{lifted, KsEmit, KsEvent, KsNotice, KubeShareSystem, PoolPolicy, SystemError};
use crate::gpuid::GpuId;
use crate::pool::FULL;
use crate::sharepod::SharePodPhase;

/// DevMgr's state for one vGPU: created with its pool entry, dropped with
/// it by [`KubeShareSystem::forget_vgpu`].
#[derive(Debug, Default)]
pub(super) struct VgpuRecord {
    /// The anchor pod holding the physical GPU, while one exists.
    pub(super) anchor: Option<Uid>,
    /// sharePods parked until the anchor reports the device UUID.
    pub(super) waiting: Vec<Uid>,
    /// Launch bookkeeping; `None` once the anchor reports in.
    pub(super) retry: Option<AnchorRetry>,
    /// Trace of the sharePod whose decision created the vGPU, so DevMgr's
    /// launch and backoff events land in it.
    pub(super) ctx: TraceCtx,
}

/// Anchor launch attempts so far and the node to relaunch on.
#[derive(Debug)]
pub(super) struct AnchorRetry {
    attempts: u32,
    node: Option<String>,
}

impl KubeShareSystem {
    pub(super) fn launch_anchor(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        node_name: Option<String>,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let rec = self.vgpus.entry(gpuid.clone()).or_default();
        rec.retry.get_or_insert(AnchorRetry {
            attempts: 0,
            node: node_name.clone(),
        });
        let ctx = rec.ctx;
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_devmgr_anchor_launches_total", &[])
                .inc();
            self.telemetry.trace_event_in(
                now,
                ctx,
                "devmgr",
                "anchor_launch",
                &[("gpuid", gpuid.as_str())],
            );
        }
        // An injected launch fault (image pull error, plugin hiccup, …)
        // consumes the attempt before any pod reaches the cluster.
        let injected_fail = self.chaos.as_mut().is_some_and(|c| c.anchor_launch_fails());
        if injected_fail {
            self.on_anchor_launch_failed(now, gpuid.clone(), out, notices);
            return;
        }
        // "The sole purpose of this pod is to allocate the GPU without
        // running any workload" (§4.4): negligible CPU/memory, one GPU.
        let mut spec = PodSpec::new(
            "kubeshare/vgpu-anchor",
            ResourceList::cpu_mem(0, 0).with_extended(NVIDIA_GPU, 1),
        );
        spec.node_name = node_name;
        let pod = lifted(out, |o| {
            self.cluster
                .submit_pod(now, format!("anchor-{gpuid}"), spec, o)
        });
        self.cluster.set_pod_trace(pod, ctx);
        self.anchor_vgpu.insert(pod, gpuid.clone());
        self.vgpus.entry(gpuid.clone()).or_default().anchor = Some(pod);
    }

    /// One anchor launch attempt failed. Retry with capped exponential
    /// backoff; past the cap, give the vGPU up and degrade its tenants to
    /// the surviving pool.
    pub(super) fn on_anchor_launch_failed(
        &mut self,
        now: SimTime,
        gpuid: GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let rec = self.vgpus.get_mut(&gpuid);
        let Some((ctx, Some(retry))) = rec.map(|r| (r.ctx, r.retry.as_mut())) else {
            return; // vGPU already gone (node failure raced the retry)
        };
        retry.attempts += 1;
        let attempts = retry.attempts;
        if attempts > self.cfg.anchor_max_retries {
            self.give_up_vgpu(now, &gpuid, "anchor launch retries exhausted", out, notices);
            return;
        }
        // base * 2^(attempts-1), capped.
        let backoff = self
            .cfg
            .anchor_retry_base
            .mul_f64(f64::from(1u32 << (attempts - 1).min(16)))
            .min(self.cfg.anchor_retry_cap);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("ks_devmgr_anchor_backoffs_total", &[])
                .inc();
            self.telemetry.trace_event_in(
                now,
                ctx,
                "devmgr",
                "anchor_backoff",
                &[
                    ("gpuid", gpuid.as_str()),
                    ("attempt", &attempts.to_string()),
                ],
            );
        }
        self.next_ticket += 1;
        self.retry_tickets.insert(self.next_ticket, gpuid);
        out.push((
            now + backoff,
            KsEvent::RetryAnchor {
                ticket: self.next_ticket,
            },
        ));
    }

    pub(super) fn on_retry_anchor(
        &mut self,
        now: SimTime,
        ticket: u64,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let Some(gpuid) = self.retry_tickets.remove(&ticket) else {
            return;
        };
        // Only relaunch while the vGPU still exists, is still waiting on
        // its anchor, and has no live anchor pod (a newer launch or a node
        // failure may have raced the backoff timer).
        let still_creating = self
            .pool
            .get(&gpuid)
            .is_some_and(|d| d.uuid.is_none() && !d.releasing);
        let rec = self.vgpus.get(&gpuid);
        if !still_creating || rec.is_some_and(|r| r.anchor.is_some()) {
            return;
        }
        let node = rec.and_then(|r| r.retry.as_ref()?.node.clone());
        self.launch_anchor(now, &gpuid, node, out, notices);
    }

    /// Removes a vGPU that can no longer be materialized and re-queues its
    /// tenants through Algorithm 1 so they land on the surviving pool.
    fn give_up_vgpu(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        reason: &str,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let displaced = self.displace_all(now, gpuid, out, notices);
        self.forget_vgpu(now, gpuid, Some(reason), notices);
        for sp in displaced {
            // A sharePod that explicitly pinned this GPUID would just
            // re-create the same doomed vGPU; reject it instead.
            let pinned = self
                .sharepods
                .get(sp)
                .is_some_and(|s| s.spec.gpuid.as_ref() == Some(gpuid));
            if pinned {
                self.reject_sharepod(now, sp, reason.to_string(), notices);
            } else {
                self.requeue_sharepod(now, sp, out, notices);
            }
        }
    }

    pub(super) fn on_create_pod(
        &mut self,
        now: SimTime,
        sp: Uid,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        // An order from an earlier binding (the sharePod was evicted and
        // bound again before it fired) is stale: only the latest counts.
        if self.pod_due.get(&sp) != Some(&now) {
            return;
        }
        self.pod_due.remove(&sp);
        let Some(sharepod) = self.sharepods.get(sp) else {
            return;
        };
        if sharepod.status.phase != SharePodPhase::Starting {
            return; // deleted or re-queued meanwhile
        }
        let Some(gpuid) = sharepod.status.bound_gpuid.clone() else {
            notices.push(KsNotice::Fault {
                error: SystemError::UnboundSharePod { sp },
            });
            return;
        };
        let Some(device) = self.pool.get(&gpuid) else {
            // The vGPU vanished between scheduling and pod creation (node
            // failure); send the sharePod back through Algorithm 1.
            self.requeue_sharepod(now, sp, out, notices);
            return;
        };
        let (Some(node), Some(uuid)) = (device.node.clone(), device.uuid.clone()) else {
            notices.push(KsNotice::Fault {
                error: SystemError::VgpuNotReady { gpuid },
            });
            return;
        };
        let share = sharepod.spec.share;

        // DevMgr performs the explicit binding: pin the pod to the vGPU's
        // node and set NVIDIA_VISIBLE_DEVICES to the physical UUID. The pod
        // does NOT request `nvidia.com/gpu` — the anchor already holds it.
        let mut pod_spec = sharepod.spec.pod.clone();
        pod_spec.node_name = Some(node);
        pod_spec
            .env
            .insert("NVIDIA_VISIBLE_DEVICES".to_string(), uuid);
        pod_spec
            .env
            .insert("KUBESHARE_GPUID".to_string(), gpuid.to_string());
        pod_spec.env.insert(
            "KUBESHARE_GPU_REQUEST".to_string(),
            format!("{}", share.request),
        );
        pod_spec.env.insert(
            "KUBESHARE_GPU_LIMIT".to_string(),
            format!("{}", share.limit),
        );
        pod_spec
            .env
            .insert("KUBESHARE_GPU_MEM".to_string(), format!("{}", share.mem));
        // LD_PRELOAD of the vGPU device library (the install step of §4.4).
        pod_spec.env.insert(
            "LD_PRELOAD".to_string(),
            "/kubeshare/library/libgemhook.so.1".to_string(),
        );

        let name = sharepod.meta.name.clone();
        let pod = lifted(out, |o| {
            self.cluster
                .submit_pod(now, format!("{name}-pod"), pod_spec, o)
        });
        let ctx = self.sp_ctx(sp);
        if !ctx.is_none() {
            self.cluster.set_pod_trace(pod, ctx);
        }
        self.pod_sp.insert(pod, sp);
        self.sharepods.mutate(sp, |s| s.status.pod_uid = Some(pod));
    }

    pub(super) fn apply_pool_policy(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        let release = match self.cfg.pool_policy {
            PoolPolicy::OnDemand => true,
            PoolPolicy::Reservation { max_idle } => self.pool.idle_count() > max_idle,
            PoolPolicy::Hybrid { max_idle, idle_ttl } => {
                if self.pool.idle_count() > max_idle {
                    true
                } else {
                    // Keep it for now, but start the idle TTL clock.
                    self.next_ticket += 1;
                    self.idle_tickets.insert(self.next_ticket, gpuid.clone());
                    out.push((
                        now + idle_ttl,
                        KsEvent::ReleaseIdleVgpu {
                            ticket: self.next_ticket,
                        },
                    ));
                    false
                }
            }
        };
        if !release {
            return;
        }
        self.release_vgpu(now, gpuid, out, notices);
    }

    /// Hands the GPU behind `gpuid` back to Kubernetes.
    pub(super) fn release_vgpu(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        out: &mut KsEmit,
        notices: &mut Vec<KsNotice>,
    ) {
        // Hide the vGPU from the scheduler for the rest of its teardown —
        // otherwise a sharePod could bind during the anchor's termination
        // window and the GPU would vanish under it.
        self.pool.mark_releasing(gpuid);
        match self.vgpus.get(gpuid).and_then(|r| r.anchor) {
            // A creating vGPU whose tenants all left: its anchor may not
            // even be running yet; delete it regardless — the cluster
            // handles both, and its PodDeleted notice forgets the vGPU.
            Some(anchor) => {
                self.cluster_call(now, out, notices, |c, o, n| c.delete_pod(now, anchor, o, n));
            }
            // Backing off between anchor launches: no pod exists, so no
            // deletion notice will ever come. Forget the vGPU now.
            None => self.forget_vgpu(now, gpuid, None, notices),
        }
    }

    /// Drops a vGPU DevMgr no longer backs: the pool entry and all anchor
    /// bookkeeping go, the churn is counted, and the embedding world hears
    /// [`KsNotice::VgpuLost`] when a failure (`lost`) took it or
    /// [`KsNotice::VgpuReleased`] when it was handed back. Its tenants
    /// must already be displaced.
    pub(super) fn forget_vgpu(
        &mut self,
        now: SimTime,
        gpuid: &GpuId,
        lost: Option<&str>,
        notices: &mut Vec<KsNotice>,
    ) {
        if let Some(anchor) = self.vgpus.remove(gpuid).and_then(|r| r.anchor) {
            self.anchor_vgpu.remove(&anchor);
        }
        self.pool.remove(gpuid);
        let gpuid = gpuid.clone();
        match lost {
            Some(reason) => {
                self.note_vgpu_churn(now, "vgpu_lost", &gpuid);
                notices.push(KsNotice::VgpuLost {
                    gpuid,
                    reason: reason.into(),
                });
            }
            None => {
                self.note_vgpu_churn(now, "vgpu_released", &gpuid);
                notices.push(KsNotice::VgpuReleased { gpuid });
            }
        }
    }

    /// Drops a dead anchor pod from both directions of the anchor index;
    /// returns the vGPU it reserved.
    pub(super) fn take_anchor(&mut self, pod: Uid) -> Option<GpuId> {
        let gpuid = self.anchor_vgpu.remove(&pod)?;
        if let Some(r) = self.vgpus.get_mut(&gpuid) {
            r.anchor = None;
        }
        Some(gpuid)
    }

    /// DevMgr's invariants: its records and the pool's devices are in
    /// bijection, and the anchor index agrees with the records; a sharePod
    /// is parked in a record if and only if it is `AwaitingVgpu`, bound to
    /// that vGPU and attached to it; every device's residuals lie in
    /// `[0, FULL]` share units and, on a time-sliced device, add up with
    /// its tenants' demand to exactly `FULL` (a partitioned device counts
    /// free slots instead); and no device sits on a node that is down.
    pub(super) fn verify_devmgr(&self) -> Result<(), String> {
        let mut anchors = 0;
        for (gpuid, rec) in &self.vgpus {
            let Some(device) = self.pool.get(gpuid) else {
                return Err(format!("{gpuid}: DevMgr record without a pool device"));
            };
            for &sp in &rec.waiting {
                let awaits = self.sharepods.get(sp).is_some_and(|s| {
                    s.status.phase == SharePodPhase::AwaitingVgpu
                        && s.status.bound_gpuid.as_ref() == Some(gpuid)
                });
                if !awaits || !device.attached.contains_key(&sp) {
                    return Err(format!(
                        "{gpuid}: parked {sp:?} is not attached awaiting it"
                    ));
                }
            }
            if let Some(pod) = rec.anchor {
                anchors += 1;
                if self.anchor_vgpu.get(&pod) != Some(gpuid) {
                    return Err(format!("{gpuid}: anchor {pod:?} missing from the index"));
                }
            }
        }
        if self.anchor_vgpu.len() != anchors {
            return Err(format!(
                "anchor index holds {} pods, records hold {anchors}",
                self.anchor_vgpu.len()
            ));
        }
        for d in self.pool.devices() {
            let id = &d.id;
            if !self.vgpus.contains_key(id) {
                return Err(format!("{id}: pool device without a DevMgr record"));
            }
            let (util_free, mem_free) = (d.util_free, d.mem_free);
            if util_free > FULL || mem_free > FULL {
                return Err(format!(
                    "{id}: residual ({util_free}, {mem_free}) out of range"
                ));
            }
            let used_util: u32 = d.attached.values().map(|&(u, _)| u).sum();
            let used_mem: u32 = d.attached.values().map(|&(_, m)| m).sum();
            if !d.is_spatial() && (used_util + util_free != FULL || used_mem + mem_free != FULL) {
                return Err(format!(
                    "{id}: Σ(util, mem) ({used_util}, {used_mem}) + free ({util_free}, \
                     {mem_free}) != {FULL}"
                ));
            }
            if let Some(node) = d.node.as_deref() {
                if self.cluster.node_up(node) != Some(true) {
                    return Err(format!("{id} leaked on failed node {node}"));
                }
            }
        }
        for (uid, s) in self.sharepods.iter() {
            if s.status.phase != SharePodPhase::AwaitingVgpu {
                continue;
            }
            let parked = s
                .status
                .bound_gpuid
                .as_ref()
                .and_then(|g| self.vgpus.get(g));
            if !parked.is_some_and(|r| r.waiting.contains(&uid)) {
                return Err(format!(
                    "{uid:?} awaits {:?} but is not parked in its record",
                    s.status.bound_gpuid
                ));
            }
        }
        Ok(())
    }
}
