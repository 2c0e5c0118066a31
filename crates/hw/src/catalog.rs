//! Catalog of real devices and the paper's baseline systems
//! (Tables III and IV, plus the cloud-instance GPUs of Figs. 1 and 16).
//!
//! Bandwidth convention: vendor sheets quote NVLink-class scale-up links
//! bidirectionally (A100 "600 GB/s") and NICs unidirectionally
//! ("200 Gbps"). [`DeviceSpec`] stores per-device *unidirectional* values,
//! so scale-up figures are halved here, once. This makes Table III
//! (38.4 TB/s aggregate over 128 A100s = 300 GB/s/GPU) and Table IV
//! (A100 600 GB/s) mutually consistent. Three Table IV inter-node entries
//! are interpreted as Gbps NIC rates ("1.8TBps" SuperPOD = 1.8 Tbps,
//! "400GBps" MI300X = 400 Gbps, "300GBps" Gaudi2 = 300 Gbps). Each
//! constructor below notes the datasheet figure next to its conversion.

use crate::cluster::{ClusterSpec, FabricKind};
use crate::device::{DeviceSpec, PeakFlops};
use crate::units::{ByteCount, BytesPerSec, FlopsPerSec};

fn peak(fp32: f64, tf32: f64, fp16: f64) -> PeakFlops {
    PeakFlops {
        fp32: FlopsPerSec::from_tflops(fp32),
        tf32: FlopsPerSec::from_tflops(tf32),
        fp16: FlopsPerSec::from_tflops(fp16),
    }
}

/// NVIDIA A100 40 GB SXM (Table IV row 1).
pub fn a100_40gb() -> DeviceSpec {
    DeviceSpec::new(
        "A100-40GB",
        peak(19.5, 156.0, 312.0),
        ByteCount::from_gb(40.0),
        BytesPerSec::from_gb(1555.0),
        BytesPerSec::from_gb(300.0),   // 600 GB/s bidirectional NVLink3
        BytesPerSec::from_gbps(200.0), // 200 Gbps RoCE/IB NIC
    )
}

/// NVIDIA A100 80 GB SXM (the LLaMA training-system device of Table III).
pub fn a100_80gb() -> DeviceSpec {
    DeviceSpec::new(
        "A100-80GB",
        peak(19.5, 156.0, 312.0),
        ByteCount::from_gb(80.0),
        BytesPerSec::from_gb(1935.0),
        BytesPerSec::from_gb(300.0),
        BytesPerSec::from_gbps(200.0),
    )
}

/// NVIDIA H100 SXM with the paper's derated figures (Table IV row 2).
pub fn h100() -> DeviceSpec {
    DeviceSpec::new(
        "H100",
        peak(67.0, 378.0, 756.0),
        ByteCount::from_gb(80.0),
        BytesPerSec::from_gb(2000.0),
        BytesPerSec::from_gb(450.0),   // 900 GB/s bidirectional NVLink4
        BytesPerSec::from_gbps(400.0), // 400 Gbps NDR IB
    )
}

/// H100 in a SuperPOD: NVLink replaces the scale-out fabric for up to 256
/// GPUs, giving ~4.5x the DGX H100's inter-node bandwidth (Table IV row 3).
pub(crate) fn h100_superpod() -> DeviceSpec {
    let mut d = h100();
    d.name = "H100-SuperPOD".to_owned();
    d.inter_node_bw = BytesPerSec::from_gbps(1800.0); // 1.8 Tbps
    d
}

/// AMD Instinct MI250X (Table IV row 4).
pub(crate) fn mi250x() -> DeviceSpec {
    DeviceSpec::new(
        "MI250X",
        peak(47.9, 96.0, 383.0),
        ByteCount::from_gb(128.0),
        BytesPerSec::from_gb(3200.0),
        BytesPerSec::from_gb(250.0), // 500 GB/s bidirectional Infinity Fabric
        BytesPerSec::from_gbps(200.0),
    )
}

/// AMD Instinct MI300X (Table IV row 5).
pub(crate) fn mi300x() -> DeviceSpec {
    DeviceSpec::new(
        "MI300X",
        peak(163.4, 654.0, 1307.0),
        ByteCount::from_gb(192.0),
        BytesPerSec::from_gb(5300.0),
        BytesPerSec::from_gb(448.0), // 896 GB/s bidirectional
        BytesPerSec::from_gbps(400.0),
    )
}

/// Intel Gaudi2 (Table IV row 6); scale-up is 21x100 GbE RoCE ports.
pub(crate) fn gaudi2() -> DeviceSpec {
    DeviceSpec::new(
        "Gaudi2",
        peak(100.0, 200.0, 400.0),
        ByteCount::from_gb(96.0),
        BytesPerSec::from_gb(2450.0),
        BytesPerSec::from_gb(131.25), // 262.5 GB/s bidirectional
        BytesPerSec::from_gbps(300.0),
    )
}

/// NVIDIA V100 SXM2 (cloud-instance studies, Figs. 1 and 16). V100 has no
/// TF32 mode; the tensor-core FP16 rate and plain FP32 rate bracket it, and
/// we map `tf32` to the FP32 rate as the paper's normalization does.
pub fn v100(hbm_gb: f64) -> DeviceSpec {
    DeviceSpec::new(
        format!("V100-{hbm_gb:.0}GB"),
        peak(15.7, 15.7, 125.0),
        ByteCount::from_gb(hbm_gb),
        BytesPerSec::from_gb(900.0),
        BytesPerSec::from_gb(150.0), // 300 GB/s bidirectional NVLink2
        BytesPerSec::from_gbps(100.0),
    )
}

/// The 128-GPU ZionEX DLRM training system (Table III, left column):
/// 16 nodes x 8 A100-40GB, RoCE scale-out.
pub fn zionex_dlrm_system() -> ClusterSpec {
    ClusterSpec::new(
        "ZionEX (DLRM training system)",
        a100_40gb(),
        8,
        16,
        FabricKind::NvLink,
        FabricKind::RoCE,
    )
}

/// The 2048-GPU LLaMA training system (Table III, right column):
/// 256 nodes x 8 A100-80GB, InfiniBand scale-out.
pub fn llama_llm_system() -> ClusterSpec {
    ClusterSpec::new(
        "LLaMA (LLM training system)",
        a100_80gb(),
        8,
        256,
        FabricKind::InfiniBand,
        FabricKind::InfiniBand,
    )
}

/// An H100 DGX cluster with `num_nodes` nodes of 8 (Fig. 17).
pub fn h100_cluster(num_nodes: usize) -> ClusterSpec {
    ClusterSpec::new(
        "H100 DGX cluster",
        h100(),
        8,
        num_nodes,
        FabricKind::NvLink,
        FabricKind::InfiniBand,
    )
}

/// An H100 SuperPOD cluster with `num_nodes` nodes of 8 (Fig. 17). NVLink
/// serves as the scale-out fabric for up to 256 GPUs.
///
/// # Panics
///
/// Panics if the configuration exceeds the 256-GPU NVLink domain.
pub fn h100_superpod_cluster(num_nodes: usize) -> ClusterSpec {
    assert!(
        num_nodes * 8 <= 256,
        "SuperPOD NVLink domain is limited to 256 GPUs"
    );
    ClusterSpec::new(
        "H100 SuperPOD",
        h100_superpod(),
        8,
        num_nodes,
        FabricKind::NvLink,
        FabricKind::NvLink,
    )
}

/// A 128-device MI250X cluster following the CDNA2 reference scale-out
/// design (Fig. 18).
pub fn mi250x_cluster() -> ClusterSpec {
    ClusterSpec::new(
        "MI250X cluster",
        mi250x(),
        8,
        16,
        FabricKind::InfinityFabric,
        FabricKind::RoCE,
    )
}

/// A 128-device MI300X cluster following the CDNA3 reference scale-out
/// design (Fig. 18).
pub fn mi300x_cluster() -> ClusterSpec {
    ClusterSpec::new(
        "MI300X cluster",
        mi300x(),
        8,
        16,
        FabricKind::InfinityFabric,
        FabricKind::RoCE,
    )
}

/// A 128-device Gaudi2 cluster following the Intel Developer Cloud
/// benchmarking setup (Fig. 18).
pub fn gaudi2_cluster() -> ClusterSpec {
    ClusterSpec::new(
        "Gaudi2 cluster",
        gaudi2(),
        8,
        16,
        FabricKind::EthRdmaScaleUp,
        FabricKind::RoCE,
    )
}

/// One row of Table IV exactly as printed in the paper (datasheet strings,
/// before the unidirectional normalization described in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableIvRow {
    /// Device name.
    pub device: &'static str,
    /// "FP-16/32 FLOPS" column.
    pub flops: &'static str,
    /// "HBM Capacity, BW" column.
    pub hbm: &'static str,
    /// "Intra-Node BW (per-device)" column.
    pub intra: &'static str,
    /// "Inter-Node BW (per device)" column.
    pub inter: &'static str,
}

/// The six rows of Table IV.
pub const TABLE_IV: [TableIvRow; 6] = [
    TableIvRow {
        device: "A100",
        flops: "312, 156 TFLOPS",
        hbm: "40GB, 1.6TB/s",
        intra: "600GB/s",
        inter: "200Gbps",
    },
    TableIvRow {
        device: "H100",
        flops: "756, 378 TFLOPS",
        hbm: "80GB, 2TB/s",
        intra: "900GB/s",
        inter: "400Gbps",
    },
    TableIvRow {
        device: "H100 SuperPOD",
        flops: "756, 378 TFLOPS",
        hbm: "80GB, 2TB/s",
        intra: "900GB/s",
        inter: "1.8Tbps",
    },
    TableIvRow {
        device: "MI250X",
        flops: "383, 96 TFLOPS",
        hbm: "128GB, 3.2TB/s",
        intra: "500GB/s",
        inter: "200Gbps",
    },
    TableIvRow {
        device: "MI300X",
        flops: "1307, 654 TFLOPS",
        hbm: "192GB, 5.3TB/s",
        intra: "896GB/s",
        inter: "400Gbps",
    },
    TableIvRow {
        device: "Gaudi2",
        flops: "400, 200 TFLOPS",
        hbm: "96GB, 2.5TB/s",
        intra: "262.5GB/s",
        inter: "300Gbps",
    },
];

/// Devices of [`TABLE_IV`] as model-facing specs, in the same order.
pub fn table_iv_devices() -> Vec<DeviceSpec> {
    vec![
        a100_40gb(),
        h100(),
        h100_superpod(),
        mi250x(),
        mi300x(),
        gaudi2(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::CommLevel;

    #[test]
    fn zionex_matches_table_iii() {
        let sys = zionex_dlrm_system();
        assert_eq!(sys.total_devices(), 128);
        assert_eq!(sys.devices_per_node, 8);
        assert_eq!(sys.num_nodes, 16);
        // Peak TF32 throughput: 20 PFLOPS.
        assert!((sys.aggregate_peak_tf32().as_pflops() - 20.0).abs() < 0.1);
        // HBM capacity: 5 TB.
        assert!((sys.aggregate_hbm_capacity().as_tb() - 5.12).abs() < 0.2);
        // HBM bandwidth: 199 TB/s.
        assert!((sys.aggregate_hbm_bw().as_tb() - 199.0).abs() < 1.0);
        // Intra-node interconnect: 38.4 TB/s unidirectional.
        assert!((sys.aggregate_link_bw(CommLevel::IntraNode).as_tb() - 38.4).abs() < 0.1);
        // Inter-node interconnect: 25.6 Tbps unidirectional.
        assert!((sys.aggregate_link_bw(CommLevel::InterNode).as_gbps() - 25_600.0).abs() < 1.0);
    }

    #[test]
    fn llama_system_matches_table_iii() {
        let sys = llama_llm_system();
        assert_eq!(sys.total_devices(), 2048);
        // 319 PFLOPS peak TF32.
        assert!((sys.aggregate_peak_tf32().as_pflops() - 319.0).abs() < 1.0);
        // 164 TB HBM.
        assert!((sys.aggregate_hbm_capacity().as_tb() - 163.8).abs() < 0.5);
        // 3.96 PB/s HBM bandwidth.
        assert!((sys.aggregate_hbm_bw().as_tb() - 3963.0).abs() < 5.0);
        // 614.4 TB/s intra-node aggregate.
        assert!((sys.aggregate_link_bw(CommLevel::IntraNode).as_tb() - 614.4).abs() < 0.5);
        // 409.6 Tbps inter-node aggregate.
        assert!((sys.aggregate_link_bw(CommLevel::InterNode).as_gbps() - 409_600.0).abs() < 1.0);
    }

    #[test]
    fn h100_improvement_ratios_match_insight_10() {
        // From A100 to H100 the paper quotes compute 2.42x, capacity 2x,
        // bandwidth 1.29x, intra 1.5x, inter 2x (9x for SuperPOD).
        let a = a100_40gb();
        let h = h100();
        assert!((h.peak.tf32 / a.peak.tf32 - 2.42).abs() < 0.01);
        assert!((h.hbm_capacity / a.hbm_capacity - 2.0).abs() < 1e-9);
        assert!((h.hbm_bw / a.hbm_bw - 1.286).abs() < 0.01);
        assert!((h.intra_node_bw / a.intra_node_bw - 1.5).abs() < 1e-9);
        assert!((h.inter_node_bw / a.inter_node_bw - 2.0).abs() < 1e-9);
        let sp = h100_superpod();
        assert!((sp.inter_node_bw / a.inter_node_bw - 9.0).abs() < 1e-9);
        // SuperPOD = 4.5x the H100 DGX inter-node bandwidth.
        assert!((sp.inter_node_bw / h.inter_node_bw - 4.5).abs() < 1e-9);
    }

    #[test]
    fn superpod_cluster_rejects_oversize() {
        let c = h100_superpod_cluster(32);
        assert_eq!(c.total_devices(), 256);
        let r = std::panic::catch_unwind(|| h100_superpod_cluster(33));
        assert!(r.is_err());
    }

    #[test]
    fn table_iv_has_all_devices() {
        assert_eq!(TABLE_IV.len(), table_iv_devices().len());
        for (row, dev) in TABLE_IV.iter().zip(table_iv_devices()) {
            assert!(
                dev.name
                    .to_lowercase()
                    .starts_with(&row.device.split(' ').next().unwrap().to_lowercase()),
                "row {row:?} vs device {}",
                dev.name
            );
        }
    }

    #[test]
    fn commodity_clusters_are_128_devices() {
        for c in [mi250x_cluster(), mi300x_cluster(), gaudi2_cluster()] {
            assert_eq!(c.total_devices(), 128, "{}", c.name);
        }
    }

    #[test]
    fn v100_spec() {
        let v = v100(16.0);
        assert_eq!(v.hbm_capacity.as_gb(), 16.0);
        assert_eq!(v.peak.fp16, FlopsPerSec::from_tflops(125.0));
    }
}
