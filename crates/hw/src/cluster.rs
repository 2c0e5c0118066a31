//! Multi-node distributed-system specifications.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::device::{DeviceScaling, DeviceSpec};
use crate::units::{ByteCount, BytesPerSec, FlopsPerSec};

/// Interconnect technology of a communication channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricKind {
    /// NVIDIA NVLink / NVSwitch scale-up fabric.
    NvLink,
    /// AMD Infinity Fabric (xGMI).
    InfinityFabric,
    /// On-package RoCE links (Gaudi-style scale-up).
    EthRdmaScaleUp,
    /// InfiniBand scale-out fabric.
    InfiniBand,
    /// RDMA over Converged Ethernet scale-out fabric.
    RoCE,
}

impl std::fmt::Display for FabricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FabricKind::NvLink => "NVLink",
            FabricKind::InfinityFabric => "Infinity Fabric",
            FabricKind::EthRdmaScaleUp => "RoCE scale-up",
            FabricKind::InfiniBand => "InfiniBand",
            FabricKind::RoCE => "RoCE",
        };
        f.write_str(s)
    }
}

/// Hierarchy level of a communication channel.
///
/// The paper's collective models pick bandwidths by level: All2All is bound
/// by the *slowest* level it spans, AllReduce mixes both levels
/// (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommLevel {
    /// Within a node (e.g. NVLink).
    IntraNode,
    /// Across nodes (e.g. InfiniBand / RoCE).
    InterNode,
}

impl std::fmt::Display for CommLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommLevel::IntraNode => f.write_str("intra-node"),
            CommLevel::InterNode => f.write_str("inter-node"),
        }
    }
}

/// Empirical utilization factors in `[0, 1]` applied to peak rates.
///
/// The paper incorporates compute utilization (~0.70 for A100 on the layers
/// of interest), HBM utilization (~0.80 for embedding bags), and effective
/// collective bandwidths derived from real NCCL measurements. They are
/// exposed here as tunable spec fields (Section IV-B/C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    /// SM/matrix-unit utilization for compute blocks.
    pub compute: f64,
    /// HBM bandwidth utilization for embedding lookups.
    pub hbm: f64,
    /// Link utilization achieved by AllReduce/AllGather/ReduceScatter rings.
    pub ring_collective: f64,
    /// Link utilization achieved by All2All (point-to-point send/recv).
    pub all_to_all: f64,
}

impl Default for Utilization {
    fn default() -> Self {
        Self {
            compute: 0.70,
            hbm: 0.80,
            ring_collective: 0.80,
            all_to_all: 0.70,
        }
    }
}

impl Utilization {
    /// Validates that every factor lies in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range factor.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("compute", self.compute),
            ("hbm", self.hbm),
            ("ring_collective", self.ring_collective),
            ("all_to_all", self.all_to_all),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("utilization factor `{name}` = {v} outside (0, 1]"));
            }
        }
        Ok(())
    }
}

/// A distributed training/inference system: homogeneous devices arranged in
/// nodes connected by a two-level interconnect hierarchy (Table III).
///
/// ```
/// use madmax_hw::catalog;
/// let sys = catalog::zionex_dlrm_system();
/// assert_eq!(sys.total_devices(), 128);
/// assert_eq!(sys.aggregate_peak_tf32().as_pflops().round(), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// System name, e.g. `"ZionEX (DLRM training system)"`.
    pub name: String,
    /// The accelerator populating every slot.
    pub device: DeviceSpec,
    /// Accelerators per node (8 for every system in the paper).
    pub devices_per_node: usize,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Scale-up fabric technology.
    pub intra_fabric: FabricKind,
    /// Scale-out fabric technology.
    pub inter_fabric: FabricKind,
    /// Empirical utilization factors.
    pub utilization: Utilization,
}

impl ClusterSpec {
    /// Creates a cluster of `num_nodes` nodes of `devices_per_node` devices.
    ///
    /// # Panics
    ///
    /// Panics if `devices_per_node` or `num_nodes` is zero, or if the
    /// utilization factors are out of range — these are programming errors
    /// in a spec definition, not runtime conditions.
    pub fn new(
        name: impl Into<String>,
        device: DeviceSpec,
        devices_per_node: usize,
        num_nodes: usize,
        intra_fabric: FabricKind,
        inter_fabric: FabricKind,
    ) -> Self {
        assert!(devices_per_node > 0, "devices_per_node must be positive");
        assert!(num_nodes > 0, "num_nodes must be positive");
        let utilization = Utilization::default();
        utilization.validate().expect("default utilization valid");
        Self {
            name: name.into(),
            device,
            devices_per_node,
            num_nodes,
            intra_fabric,
            inter_fabric,
            utilization,
        }
    }

    /// Replaces the node count (builder-style), e.g. to compare 8- vs
    /// 128-GPU deployments of the same platform (Fig. 7).
    #[must_use]
    pub fn with_num_nodes(mut self, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "num_nodes must be positive");
        self.num_nodes = num_nodes;
        self
    }

    /// Total number of accelerators.
    pub fn total_devices(&self) -> usize {
        self.devices_per_node * self.num_nodes
    }

    /// Size of the communication group at a hierarchy level: all devices of
    /// a node intra-node, the number of nodes inter-node.
    pub fn group_size(&self, level: CommLevel) -> usize {
        match level {
            CommLevel::IntraNode => self.devices_per_node,
            CommLevel::InterNode => self.num_nodes,
        }
    }

    /// Raw per-device unidirectional bandwidth of a hierarchy level.
    pub fn link_bw(&self, level: CommLevel) -> BytesPerSec {
        match level {
            CommLevel::IntraNode => self.device.intra_node_bw,
            CommLevel::InterNode => self.device.inter_node_bw,
        }
    }

    /// Aggregate peak TF32 throughput (Table III row "Peak TF32
    /// throughput").
    pub fn aggregate_peak_tf32(&self) -> FlopsPerSec {
        self.device.peak.tf32 * self.total_devices() as f64
    }

    /// Aggregate HBM capacity (Table III row "HBM capacity").
    pub fn aggregate_hbm_capacity(&self) -> ByteCount {
        self.device.hbm_capacity * self.total_devices() as f64
    }

    /// Aggregate HBM bandwidth (Table III row "HBM bandwidth").
    pub fn aggregate_hbm_bw(&self) -> BytesPerSec {
        self.device.hbm_bw * self.total_devices() as f64
    }

    /// Aggregate unidirectional bandwidth of a level (Table III rows
    /// "Intra/Inter-node interconnect bandwidth (unidirectional)").
    pub fn aggregate_link_bw(&self, level: CommLevel) -> BytesPerSec {
        self.link_bw(level) * self.total_devices() as f64
    }

    /// Returns a copy with hardware capabilities scaled (Fig. 19 study).
    #[must_use]
    pub fn scaled(&self, scaling: &DeviceScaling) -> Self {
        Self {
            name: self.name.clone(),
            device: self.device.scaled(scaling),
            ..self.clone()
        }
    }

    /// Whether the whole system is a single node (no inter-node traffic).
    pub fn is_single_node(&self) -> bool {
        self.num_nodes == 1
    }
}

/// A borrowed cluster, for cost tables priced on the caller's system (a
/// pipeline stage's table owns its sub-cluster instead).
impl<'a> From<&'a ClusterSpec> for Cow<'a, ClusterSpec> {
    fn from(cluster: &'a ClusterSpec) -> Self {
        Cow::Borrowed(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PeakFlops;

    fn toy_cluster() -> ClusterSpec {
        let dev = DeviceSpec::new(
            "toy",
            PeakFlops {
                fp32: FlopsPerSec::from_tflops(20.0),
                tf32: FlopsPerSec::from_tflops(156.0),
                fp16: FlopsPerSec::from_tflops(312.0),
            },
            ByteCount::from_gb(40.0),
            BytesPerSec::from_tb(1.555),
            BytesPerSec::from_gb(300.0),
            BytesPerSec::from_gbps(200.0),
        );
        ClusterSpec::new(
            "toy-cluster",
            dev,
            8,
            16,
            FabricKind::NvLink,
            FabricKind::RoCE,
        )
    }

    #[test]
    fn totals_and_groups() {
        let c = toy_cluster();
        assert_eq!(c.total_devices(), 128);
        assert_eq!(c.group_size(CommLevel::IntraNode), 8);
        assert_eq!(c.group_size(CommLevel::InterNode), 16);
        assert!(!c.is_single_node());
        assert!(c.with_num_nodes(1).is_single_node());
    }

    #[test]
    fn aggregates_match_table_iii_math() {
        let c = toy_cluster();
        assert!((c.aggregate_peak_tf32().as_pflops() - 19.968).abs() < 1e-3);
        assert!((c.aggregate_hbm_capacity().as_tb() - 5.12).abs() < 1e-9);
        assert!((c.aggregate_hbm_bw().as_tb() - 199.04).abs() < 1e-9);
        // 128 * 200 Gbps = 25.6 Tbps.
        assert!((c.aggregate_link_bw(CommLevel::InterNode).as_gbps() - 25_600.0).abs() < 1e-6);
        // 128 * 300 GB/s = 38.4 TB/s.
        assert!((c.aggregate_link_bw(CommLevel::IntraNode).as_tb() - 38.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "num_nodes must be positive")]
    fn zero_nodes_rejected() {
        let c = toy_cluster();
        let _ = ClusterSpec::new("bad", c.device, 8, 0, FabricKind::NvLink, FabricKind::RoCE);
    }

    #[test]
    fn utilization_validation() {
        assert!(Utilization::default().validate().is_ok());
        let bad = Utilization {
            compute: 1.5,
            ..Utilization::default()
        };
        assert!(bad.validate().is_err());
        let bad = Utilization {
            hbm: 0.0,
            ..Utilization::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn scaled_cluster_scales_device_only() {
        let c = toy_cluster();
        let s = c.scaled(&DeviceScaling::inter_bw_only(10.0));
        assert_eq!(s.total_devices(), c.total_devices());
        assert!((s.link_bw(CommLevel::InterNode).as_gbps() - 2000.0).abs() < 1e-6);
        assert_eq!(
            s.link_bw(CommLevel::IntraNode),
            c.link_bw(CommLevel::IntraNode)
        );
    }

    #[test]
    fn level_display() {
        assert_eq!(CommLevel::IntraNode.to_string(), "intra-node");
        assert_eq!(FabricKind::RoCE.to_string(), "RoCE");
    }
}
