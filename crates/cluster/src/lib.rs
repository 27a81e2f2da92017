//! `ks-cluster` — a Kubernetes control-plane substrate for the KubeShare
//! reproduction.
//!
//! The paper's contribution is a set of Kubernetes extensions, so the
//! reproduction needs Kubernetes itself: this crate implements the pieces
//! KubeShare interacts with, at the protocol level, as an in-process
//! discrete-event simulation:
//!
//! * the API object model ([`api`]): pods, nodes, integer-only extended
//!   resources;
//! * an etcd-style object store with a global revision ([`store`]);
//!   controllers observe changes through the [`sim::ClusterNotice`]s the
//!   cluster emits;
//! * kube-scheduler ([`scheduler`]): filter + score over node *aggregates*
//!   (which is precisely why it fragments GPUs, paper §3.1);
//! * the device-plugin framework ([`device_plugin`]): Register /
//!   ListAndWatch / Allocate, the scaling-factor trick, and the kubelet's
//!   implicit late unit binding (paper §3.2);
//! * kubelet pod lifecycle with a calibrated latency model
//!   ([`latency`], [`sim`]).
//!
//! [`sim::ClusterSim`] composes everything into a passive state machine
//! driven by `(time, event)` pairs, so KubeShare, the baselines, and the
//! experiment harnesses can all embed the same control plane.

#![warn(missing_docs)]

pub mod api;
pub mod device_plugin;
pub mod latency;
pub mod scheduler;
pub mod sim;
pub mod store;

pub use api::{
    paper_testbed, NodeConfig, ObjectMeta, Pod, PodPhase, PodSpec, PodStatus, ResourceList, Uid,
    UidAllocator, NVIDIA_GPU,
};
pub use device_plugin::{
    AllocateResponse, DeviceManager, DevicePlugin, FractionalGpuPlugin, InsufficientUnits,
    NvidiaGpuPlugin, UnitAssignPolicy,
};
pub use latency::LatencyModel;
pub use scheduler::{KubeScheduler, NodeView, ScorePolicy, SpatialSlices};
pub use sim::{ClusterConfig, ClusterEmit, ClusterEvent, ClusterNotice, ClusterSim, GpuPluginKind};
pub use store::Store;
