//! The `SharePod` custom resource (paper §4.1, Script 1).
//!
//! A SharePod is "the pod with ability to attach shared custom devices":
//! the original PodSpec plus fractional GPU requirements, the GPUID of the
//! vGPU to bind (optional — KubeShare-Sched fills it in), the node of that
//! GPU, and locality constraints.

use ks_cluster::api::pod::PodSpec;
use ks_cluster::api::{ObjectMeta, Uid};
use ks_partition::Substrate;
use ks_vgpu::ShareSpec;
use serde::{Deserialize, Serialize};

use crate::gpuid::GpuId;
use crate::locality::Locality;

/// Desired state of a SharePod, as submitted through kube-apiserver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharePodSpec {
    /// The wrapped pod spec (image, CPU/mem requests, env).
    pub pod: PodSpec,
    /// Fractional GPU demand: `gpu_request`, `gpu_limit`, `gpu_mem`.
    pub share: ShareSpec,
    /// Explicit vGPU binding; `None` lets KubeShare-Sched decide.
    pub gpuid: Option<GpuId>,
    /// Node of the GPU; filled together with `gpuid`.
    pub node_name: Option<String>,
    /// Locality constraints.
    pub locality: Locality,
    /// Owning tenant, stamped by the multi-tenant gateway (`None` for
    /// sharePods submitted directly to the control plane).
    pub tenant: Option<String>,
    /// Priority class: higher values win contention. The batch scheduler
    /// drains pending sharePods highest-priority first, and the gateway's
    /// preemption policy only ever evicts strictly lower classes.
    pub priority: u8,
    /// Sharing substrate for this workload: time-sliced token leases
    /// (default), a dedicated spatial slice, or hybrid (scheduler picks by
    /// profile-rounding waste). Absent in serialized specs predating the
    /// partition subsystem — `Substrate` deserializes `null` as
    /// `TimeSlice`, so old specs keep their exact behaviour.
    pub substrate: Substrate,
}

impl SharePodSpec {
    /// A spec with no explicit binding and no constraints.
    pub fn new(pod: PodSpec, share: ShareSpec) -> Self {
        SharePodSpec {
            pod,
            share,
            gpuid: None,
            node_name: None,
            locality: Locality::none(),
            tenant: None,
            priority: 0,
            substrate: Substrate::TimeSlice,
        }
    }

    /// Adds locality constraints (builder style).
    pub fn with_locality(mut self, locality: Locality) -> Self {
        self.locality = locality;
        self
    }

    /// Pins to a specific vGPU (users may do this explicitly, §4.2).
    pub fn with_gpuid(mut self, gpuid: GpuId) -> Self {
        self.gpuid = Some(gpuid);
        self
    }

    /// Stamps the owning tenant (builder style).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets the priority class (builder style).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Selects the sharing substrate (builder style).
    pub fn with_substrate(mut self, substrate: Substrate) -> Self {
        self.substrate = substrate;
        self
    }
}

/// Lifecycle phase of a SharePod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharePodPhase {
    /// Submitted; KubeShare-Sched has not yet assigned a vGPU.
    Pending,
    /// vGPU assigned; waiting for the vGPU (anchor pod) to be ready.
    AwaitingVgpu,
    /// Backing pod is being created/started by Kubernetes.
    Starting,
    /// Container is running with the device library installed.
    Running,
    /// Rejected by the scheduling algorithm (constraint conflict).
    Rejected,
    /// Deleted; resources released.
    Terminated,
}

/// Observed state of a SharePod.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharePodStatus {
    /// Current phase.
    pub phase: SharePodPhase,
    /// The vGPU chosen by KubeShare-Sched.
    pub bound_gpuid: Option<GpuId>,
    /// Uid of the backing Kubernetes pod.
    pub pod_uid: Option<Uid>,
    /// Failure/rejection reason.
    pub message: Option<String>,
}

impl SharePodStatus {
    /// Freshly submitted.
    pub fn pending() -> Self {
        SharePodStatus {
            phase: SharePodPhase::Pending,
            bound_gpuid: None,
            pod_uid: None,
            message: None,
        }
    }
}

/// The SharePod object: the custom resource KubeShare adds to the API
/// server (operator pattern, paper §4.6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharePod {
    /// Object metadata.
    pub meta: ObjectMeta,
    /// Desired state.
    pub spec: SharePodSpec,
    /// Observed state.
    pub status: SharePodStatus,
}

impl SharePod {
    /// Creates a pending SharePod.
    pub fn new(meta: ObjectMeta, spec: SharePodSpec) -> Self {
        SharePod {
            meta,
            spec,
            status: SharePodStatus::pending(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_cluster::api::ResourceList;
    use ks_sim_core::time::SimTime;

    fn spec() -> SharePodSpec {
        SharePodSpec::new(
            PodSpec::new("tf:2.1", ResourceList::cpu_mem(1000, 1 << 30)),
            ShareSpec::new(0.3, 0.6, 0.5).unwrap(),
        )
    }

    #[test]
    fn new_sharepod_is_pending() {
        let sp = SharePod::new(ObjectMeta::new("sp", Uid(1), SimTime::ZERO), spec());
        assert_eq!(sp.status.phase, SharePodPhase::Pending);
        assert!(sp.status.bound_gpuid.is_none());
    }

    #[test]
    fn spec_serializes_like_script_1() {
        let s = spec()
            .with_gpuid(GpuId::named("abcde"))
            .with_locality(Locality::none().with_affinity("grp1"));
        let json = serde_json::to_value(&s).unwrap();
        assert_eq!(json["gpuid"], "abcde");
        assert_eq!(json["share"]["request"], 0.3);
        assert_eq!(json["locality"]["affinity"], "grp1");
        let back: SharePodSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn substrate_round_trips_and_defaults_to_time_slice() {
        let s = spec().with_substrate(Substrate::Hybrid);
        let json = serde_json::to_value(&s).unwrap();
        assert_eq!(json["substrate"], "hybrid");
        let back: SharePodSpec = serde_json::from_value(json).unwrap();
        assert_eq!(back.substrate, Substrate::Hybrid);
        // A pre-partition spec (no `substrate` key) lands on TimeSlice:
        // missing fields deserialize as null, and null means time-slice.
        let mut old = serde_json::to_value(&spec()).unwrap();
        if let serde_json::Value::Map(entries) = &mut old {
            entries.retain(|(k, _)| k != "substrate");
        }
        let back: SharePodSpec = serde_json::from_value(old).unwrap();
        assert_eq!(back.substrate, Substrate::TimeSlice);
    }
}
