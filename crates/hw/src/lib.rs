//! # madmax-hw
//!
//! Hardware substrate for the MAD-Max distributed ML performance model
//! (Hsia et al., ISCA 2024): typed units, numeric precisions, device and
//! cluster specifications, and a catalog of the accelerators and baseline
//! systems used throughout the paper's evaluation (Tables III and IV).
//!
//! # Example
//!
//! ```
//! use madmax_hw::{catalog, CommLevel};
//!
//! let sys = catalog::zionex_dlrm_system();
//! assert_eq!(sys.total_devices(), 128);
//!
//! // Per-device unidirectional bandwidths drive the collective models.
//! let nvlink = sys.link_bw(CommLevel::IntraNode);
//! let roce = sys.link_bw(CommLevel::InterNode);
//! assert!(nvlink > roce);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod cluster;
pub mod device;
pub mod dtype;
pub mod units;

pub use cluster::{ClusterSpec, CommLevel, FabricKind, Utilization};
pub use device::{DeviceScaling, DeviceSpec, PeakFlops};
pub use dtype::DType;
pub use units::{ByteCount, BytesPerSec, FlopCount, FlopsPerSec, Seconds};

#[cfg(test)]
mod serde_tests {
    use crate::catalog;
    use crate::cluster::ClusterSpec;
    use crate::device::DeviceScaling;

    #[test]
    fn cluster_spec_serde_round_trip() {
        for sys in [
            catalog::zionex_dlrm_system(),
            catalog::llama_llm_system(),
            catalog::gaudi2_cluster(),
        ] {
            let js = serde_json::to_string(&sys).unwrap();
            let back: ClusterSpec = serde_json::from_str(&js).unwrap();
            assert_eq!(sys, back);
        }
    }

    #[test]
    fn scaled_then_serialized_cluster_is_stable() {
        let sys = catalog::zionex_dlrm_system().scaled(&DeviceScaling::inter_bw_only(10.0));
        let js = serde_json::to_string(&sys).unwrap();
        let back: ClusterSpec = serde_json::from_str(&js).unwrap();
        assert_eq!(sys.device.inter_node_bw, back.device.inter_node_bw);
    }
}
