//! kube-scheduler: filter nodes by resource fit, score, pick one.
//!
//! Crucially for the paper's argument (§3.1): the scheduler sees only the
//! node-level *aggregate* of each extended resource. It has no notion of
//! individual devices, so it cannot prevent the kubelet's implicit unit
//! assignment from over-committing one GPU while another idles (Fig. 3).

use crate::api::resources::ResourceList;

/// Which scheduling implementation to run (DESIGN.md §10). `Reference`
/// and `Indexed` produce byte-identical decisions — that is the contract
/// the differential test oracle enforces — but `Indexed` (the default)
/// serves placement from incrementally maintained ordered indexes instead
/// of full scans, and is the faster of the two at every measured pool
/// size. `Reference` stays as the oracle it is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Paper-faithful reference: linear scan of every candidate.
    Reference,
    /// Ordered-range lookups over capacity indexes (the default).
    #[default]
    Indexed,
}

impl SchedMode {
    /// Stable label for metrics and bench records.
    pub fn label(self) -> &'static str {
        match self {
            SchedMode::Reference => "reference",
            SchedMode::Indexed => "indexed",
        }
    }
}

/// A total-order key over non-negative finite floats, for use in ordered
/// index structures (`BTreeMap`/`BTreeSet`). For values `>= 0.0` the IEEE
/// bit pattern is monotone in the value, so comparing bits compares
/// values; negative zero and negative inputs are clamped to `+0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrdF64(u64);

impl OrdF64 {
    /// Wraps a non-negative finite float as an orderable key.
    pub fn of(v: f64) -> Self {
        debug_assert!(v.is_finite(), "OrdF64 key must be finite, got {v}");
        let v = if v > 0.0 { v } else { 0.0 };
        OrdF64(v.to_bits())
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// Spatial-partition capacity advertised by a node: slice slots across
/// its MIG-style partitioned GPUs. `None` on [`NodeView`] means the node
/// advertises no spatial substrate and scoring is exactly as before the
/// partition subsystem existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialSlices {
    /// Unoccupied slice slots across the node's partitioned GPUs.
    pub free_slots: u64,
    /// Total slice slots across the node's partitioned GPUs.
    pub total_slots: u64,
}

/// Node snapshot the scheduler filters and scores.
#[derive(Debug, Clone)]
pub struct NodeView {
    /// Node name.
    pub name: String,
    /// Total allocatable resources (including extended aggregates).
    pub allocatable: ResourceList,
    /// Resources already requested by bound pods.
    pub allocated: ResourceList,
    /// Slice-slot capacity of partitioned GPUs on the node, if any. An
    /// extra scoring axis only — slot *placement* feasibility belongs to
    /// the partition tables upstream.
    pub spatial: Option<SpatialSlices>,
}

impl NodeView {
    /// A view with no spatial substrate (the pre-partition shape).
    pub fn new(
        name: impl Into<String>,
        allocatable: ResourceList,
        allocated: ResourceList,
    ) -> Self {
        NodeView {
            name: name.into(),
            allocatable,
            allocated,
            spatial: None,
        }
    }

    /// Remaining capacity.
    pub fn free(&self) -> ResourceList {
        self.allocatable.checked_sub(&self.allocated)
    }
}

/// Node scoring policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScorePolicy {
    /// Prefer the node with the most free capacity (spreads load; the
    /// kube-scheduler default `LeastRequestedPriority`).
    LeastAllocated,
    /// Prefer the node with the least free capacity that still fits
    /// (bin-packs).
    MostAllocated,
}

/// The scheduling core.
#[derive(Debug, Clone)]
pub struct KubeScheduler {
    policy: ScorePolicy,
}

impl KubeScheduler {
    /// Creates a scheduler with the given scoring policy.
    pub fn new(policy: ScorePolicy) -> Self {
        KubeScheduler { policy }
    }

    /// Picks a node for `request`, returning its index in `nodes`.
    /// `None` means unschedulable right now.
    pub fn pick_node(&self, request: &ResourceList, nodes: &[NodeView]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, n) in nodes.iter().enumerate() {
            let free = n.free();
            if !request.fits_in(&free) {
                continue;
            }
            let score = self.score(n, &free);
            let better = match best {
                None => true,
                // Strict total order; ties break by node order, matching
                // the descending (score, reverse index) scan an ordered
                // node-score index produces.
                Some((_, s)) => score.total_cmp(&s) == std::cmp::Ordering::Greater,
            };
            if better {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The scoring function behind [`Self::pick_node`], exposed so callers
    /// maintaining an ordered node-score index score nodes identically.
    pub fn node_score(&self, node: &NodeView) -> f64 {
        self.score(node, &node.free())
    }

    fn score(&self, node: &NodeView, free: &ResourceList) -> f64 {
        // Mean free fraction over the axes that exist on this node.
        let mut sum = 0.0;
        let mut n = 0.0;
        if node.allocatable.cpu_millis > 0 {
            sum += free.cpu_millis as f64 / node.allocatable.cpu_millis as f64;
            n += 1.0;
        }
        if node.allocatable.memory_bytes > 0 {
            sum += free.memory_bytes as f64 / node.allocatable.memory_bytes as f64;
            n += 1.0;
        }
        for (k, &cap) in &node.allocatable.extended {
            if cap > 0 {
                sum += free.extended_count(k) as f64 / cap as f64;
                n += 1.0;
            }
        }
        // Spatial substrate: free slice slots are one more capacity axis,
        // so nodes whose partitioned GPUs are emptier score freer. Nodes
        // without partitioned GPUs skip the axis and score exactly as
        // before the partition subsystem existed.
        if let Some(s) = node.spatial {
            if s.total_slots > 0 {
                sum += s.free_slots as f64 / s.total_slots as f64;
                n += 1.0;
            }
        }
        let free_frac = if n > 0.0 { sum / n } else { 0.0 };
        match self.policy {
            ScorePolicy::LeastAllocated => free_frac,
            ScorePolicy::MostAllocated => 1.0 - free_frac,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::resources::NVIDIA_GPU;

    fn node(name: &str, gpu_cap: u64, gpu_used: u64) -> NodeView {
        NodeView::new(
            name,
            ResourceList::cpu_mem(36_000, 244 << 30).with_extended(NVIDIA_GPU, gpu_cap),
            ResourceList::cpu_mem(0, 0).with_extended(NVIDIA_GPU, gpu_used),
        )
    }

    fn gpu_req(n: u64) -> ResourceList {
        ResourceList::cpu_mem(1000, 1 << 30).with_extended(NVIDIA_GPU, n)
    }

    #[test]
    fn filters_full_nodes() {
        let s = KubeScheduler::new(ScorePolicy::LeastAllocated);
        let nodes = vec![node("a", 4, 4), node("b", 4, 3)];
        let picked = s.pick_node(&gpu_req(1), &nodes).unwrap();
        assert_eq!(nodes[picked].name, "b");
        assert!(s.pick_node(&gpu_req(2), &nodes).is_none());
    }

    #[test]
    fn least_allocated_spreads() {
        let s = KubeScheduler::new(ScorePolicy::LeastAllocated);
        let nodes = vec![node("a", 4, 2), node("b", 4, 0)];
        let picked = s.pick_node(&gpu_req(1), &nodes).unwrap();
        assert_eq!(nodes[picked].name, "b");
    }

    #[test]
    fn most_allocated_packs() {
        let s = KubeScheduler::new(ScorePolicy::MostAllocated);
        let nodes = vec![node("a", 4, 2), node("b", 4, 0)];
        let picked = s.pick_node(&gpu_req(1), &nodes).unwrap();
        assert_eq!(nodes[picked].name, "a");
    }

    #[test]
    fn empty_cluster_unschedulable() {
        let s = KubeScheduler::new(ScorePolicy::LeastAllocated);
        assert!(s.pick_node(&gpu_req(1), &[]).is_none());
    }

    #[test]
    fn deterministic_tie_break_by_order() {
        let s = KubeScheduler::new(ScorePolicy::LeastAllocated);
        let nodes = vec![node("a", 4, 1), node("b", 4, 1)];
        assert_eq!(s.pick_node(&gpu_req(1), &nodes), Some(0));
    }

    #[test]
    fn spatial_slots_are_a_scoring_axis() {
        let s = KubeScheduler::new(ScorePolicy::LeastAllocated);
        // Identical nodes except for slice occupancy on their partitioned
        // GPUs: the one with free slots scores freer and wins the spread.
        let mut full = node("a", 4, 1);
        full.spatial = Some(SpatialSlices {
            free_slots: 0,
            total_slots: 7,
        });
        let mut empty = node("b", 4, 1);
        empty.spatial = Some(SpatialSlices {
            free_slots: 7,
            total_slots: 7,
        });
        let nodes = vec![full, empty];
        let picked = s.pick_node(&gpu_req(1), &nodes).unwrap();
        assert_eq!(nodes[picked].name, "b");
        // A node with no spatial substrate scores exactly as one whose
        // field is absent — the axis only exists when advertised.
        let plain = node("c", 4, 1);
        let mut none = node("c", 4, 1);
        none.spatial = None;
        assert_eq!(s.node_score(&plain), s.node_score(&none));
    }

    #[test]
    fn aggregate_blindness() {
        // The scheduler happily places a 1-GPU-unit pod on a node whose
        // remaining aggregate is fine, with no knowledge of which device —
        // the §3.1 limitation KubeShare fixes.
        let s = KubeScheduler::new(ScorePolicy::LeastAllocated);
        let nodes = vec![node("a", 400, 399)]; // scaling-factor units
        assert!(s.pick_node(&gpu_req(1), &nodes).is_some());
    }
}
