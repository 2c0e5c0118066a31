//! Per-accelerator specifications.

use serde::{Deserialize, Serialize};

use crate::dtype::DType;
use crate::units::{ByteCount, BytesPerSec, FlopsPerSec};

/// Peak matrix throughput of a device for each supported precision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeakFlops {
    /// Non-tensor-core FP32 rate.
    pub fp32: FlopsPerSec,
    /// Tensor-core TF32 rate (or the closest fp32-matrix analog on
    /// non-NVIDIA hardware).
    pub tf32: FlopsPerSec,
    /// Tensor-core FP16/BF16 rate.
    pub fp16: FlopsPerSec,
}

impl PeakFlops {
    /// Peak rate for a given compute precision.
    pub fn rate(&self, dtype: DType) -> FlopsPerSec {
        match dtype {
            DType::Fp32 => self.fp32,
            DType::Tf32 => self.tf32,
            DType::Fp16 | DType::Bf16 => self.fp16,
        }
    }
}

/// A single accelerator (GPU or ASIC) as characterized by its data sheet.
///
/// All interconnect bandwidths stored here are **per-device,
/// unidirectional** values, which is the quantity the collective bandwidth
/// model consumes. Catalog constructors convert vendor figures (which quote
/// NVLink-class links bidirectionally) once, at construction time; see
/// `DESIGN.md` section 3 for the convention.
///
/// ```
/// use madmax_hw::catalog;
/// let a100 = catalog::a100_40gb();
/// assert_eq!(a100.hbm_capacity.as_gb().round(), 40.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable device name, e.g. `"A100-40GB"`.
    pub name: String,
    /// Peak matrix throughput by precision.
    pub peak: PeakFlops,
    /// On-device high-bandwidth-memory capacity.
    pub hbm_capacity: ByteCount,
    /// Peak HBM bandwidth.
    pub hbm_bw: BytesPerSec,
    /// Per-device unidirectional scale-up (intra-node) bandwidth.
    pub intra_node_bw: BytesPerSec,
    /// Per-device unidirectional scale-out (inter-node) bandwidth.
    pub inter_node_bw: BytesPerSec,
}

impl DeviceSpec {
    /// Creates a new device spec.
    ///
    /// Prefer the constructors in [`crate::catalog`] for real hardware.
    pub fn new(
        name: impl Into<String>,
        peak: PeakFlops,
        hbm_capacity: ByteCount,
        hbm_bw: BytesPerSec,
        intra_node_bw: BytesPerSec,
        inter_node_bw: BytesPerSec,
    ) -> Self {
        Self {
            name: name.into(),
            peak,
            hbm_capacity,
            hbm_bw,
            intra_node_bw,
            inter_node_bw,
        }
    }

    /// Returns a copy with independently scaled capabilities — the knob used
    /// by the paper's future-technologies study (Fig. 19), where compute,
    /// memory capacity/bandwidth, and interconnect bandwidths are improved
    /// separately or concurrently.
    #[must_use]
    pub fn scaled(&self, s: &DeviceScaling) -> Self {
        Self {
            name: format!("{}{}", self.name, s.suffix()),
            peak: PeakFlops {
                fp32: self.peak.fp32 * s.compute,
                tf32: self.peak.tf32 * s.compute,
                fp16: self.peak.fp16 * s.compute,
            },
            hbm_capacity: self.hbm_capacity * s.mem_capacity,
            hbm_bw: self.hbm_bw * s.mem_bw,
            intra_node_bw: self.intra_node_bw * s.intra_bw,
            inter_node_bw: self.inter_node_bw * s.inter_bw,
        }
    }
}

/// Multiplicative scaling factors for a [`DeviceSpec`] (Fig. 19 study).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceScaling {
    /// Factor applied to all peak FLOPS rates.
    pub compute: f64,
    /// Factor applied to HBM capacity.
    pub mem_capacity: f64,
    /// Factor applied to HBM bandwidth.
    pub mem_bw: f64,
    /// Factor applied to intra-node interconnect bandwidth.
    pub intra_bw: f64,
    /// Factor applied to inter-node interconnect bandwidth.
    pub inter_bw: f64,
}

impl Default for DeviceScaling {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl DeviceScaling {
    /// No scaling.
    pub const IDENTITY: Self = Self {
        compute: 1.0,
        mem_capacity: 1.0,
        mem_bw: 1.0,
        intra_bw: 1.0,
        inter_bw: 1.0,
    };

    /// Scales only compute throughput.
    pub fn compute_only(x: f64) -> Self {
        Self {
            compute: x,
            ..Self::IDENTITY
        }
    }

    /// Scales only memory capacity.
    pub fn mem_capacity_only(x: f64) -> Self {
        Self {
            mem_capacity: x,
            ..Self::IDENTITY
        }
    }

    /// Scales only memory bandwidth.
    pub fn mem_bw_only(x: f64) -> Self {
        Self {
            mem_bw: x,
            ..Self::IDENTITY
        }
    }

    /// Scales only intra-node interconnect bandwidth.
    pub fn intra_bw_only(x: f64) -> Self {
        Self {
            intra_bw: x,
            ..Self::IDENTITY
        }
    }

    /// Scales only inter-node interconnect bandwidth.
    pub fn inter_bw_only(x: f64) -> Self {
        Self {
            inter_bw: x,
            ..Self::IDENTITY
        }
    }

    /// Scales every capability concurrently.
    pub fn all(x: f64) -> Self {
        Self {
            compute: x,
            mem_capacity: x,
            mem_bw: x,
            intra_bw: x,
            inter_bw: x,
        }
    }

    fn suffix(&self) -> String {
        if *self == Self::IDENTITY {
            String::new()
        } else {
            format!(
                " (x{:.0}c/{:.0}m/{:.0}mb/{:.0}i/{:.0}e)",
                self.compute, self.mem_capacity, self.mem_bw, self.intra_bw, self.inter_bw
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> DeviceSpec {
        DeviceSpec::new(
            "toy",
            PeakFlops {
                fp32: FlopsPerSec::from_tflops(10.0),
                tf32: FlopsPerSec::from_tflops(100.0),
                fp16: FlopsPerSec::from_tflops(200.0),
            },
            ByteCount::from_gb(40.0),
            BytesPerSec::from_tb(1.5),
            BytesPerSec::from_gb(300.0),
            BytesPerSec::from_gbps(200.0),
        )
    }

    #[test]
    fn rate_per_dtype() {
        let d = toy();
        assert_eq!(d.peak.rate(DType::Fp32).as_tflops(), 10.0);
        assert_eq!(d.peak.rate(DType::Tf32).as_tflops(), 100.0);
        assert_eq!(d.peak.rate(DType::Fp16).as_tflops(), 200.0);
        assert_eq!(d.peak.rate(DType::Bf16).as_tflops(), 200.0);
    }

    #[test]
    fn scaling_applies_independently() {
        let d = toy();
        let s = d.scaled(&DeviceScaling::compute_only(10.0));
        assert_eq!(s.peak.tf32.as_tflops(), 1000.0);
        assert_eq!(s.hbm_capacity, d.hbm_capacity);
        assert_eq!(s.inter_node_bw, d.inter_node_bw);

        let s = d.scaled(&DeviceScaling::inter_bw_only(10.0));
        assert!((s.inter_node_bw.as_gbps() - 2000.0).abs() < 1e-6);
        assert_eq!(s.peak.tf32, d.peak.tf32);
    }

    #[test]
    fn scaling_all_is_uniform() {
        let d = toy();
        let s = d.scaled(&DeviceScaling::all(10.0));
        assert_eq!(s.peak.fp32.as_tflops(), 100.0);
        assert_eq!(s.hbm_capacity.as_gb(), 400.0);
        assert!((s.hbm_bw.as_tb() - 15.0).abs() < 1e-9);
        assert_eq!(s.intra_node_bw.as_gb(), 3000.0);
    }

    #[test]
    fn identity_scaling_keeps_name() {
        let d = toy();
        let s = d.scaled(&DeviceScaling::IDENTITY);
        assert_eq!(s.name, "toy");
        assert_eq!(s, d);
    }
}
