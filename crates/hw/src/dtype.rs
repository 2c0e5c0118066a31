//! Numeric data types and their storage/compute characteristics.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Numeric precision used for compute and/or storage.
///
/// GPU peak FLOPS depend heavily on the data type (Section IV-B: "GPU peak
/// FLOPS are heavily dependent on data type (e.g. 32-bit, 16-bit FP/TF/BF)
/// and whether or not tensor cores are enabled"). Note that [`DType::Tf32`]
/// is a *compute* format: values are stored as 32-bit floats but matrix
/// units execute at the TF32 rate.
///
/// ```
/// use madmax_hw::DType;
/// assert_eq!(DType::Tf32.size_bytes(), 4);
/// assert_eq!(DType::Bf16.size_bytes(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DType {
    /// IEEE 754 single precision (storage + non-tensor-core compute).
    Fp32,
    /// NVIDIA TensorFloat-32: fp32 storage, tensor-core matmul rate.
    Tf32,
    /// IEEE half precision.
    Fp16,
    /// bfloat16.
    Bf16,
}

impl DType {
    /// Bytes occupied by one element in memory or on the wire.
    pub const fn size_bytes(self) -> u32 {
        match self {
            DType::Fp32 | DType::Tf32 => 4,
            DType::Fp16 | DType::Bf16 => 2,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Fp32 => "FP32",
            DType::Tf32 => "TF32",
            DType::Fp16 => "FP16",
            DType::Bf16 => "BF16",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::Fp32.size_bytes(), 4);
        assert_eq!(DType::Tf32.size_bytes(), 4);
        assert_eq!(DType::Fp16.size_bytes(), 2);
        assert_eq!(DType::Bf16.size_bytes(), 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(DType::Tf32.to_string(), "TF32");
        assert_eq!(DType::Bf16.to_string(), "BF16");
    }

    #[test]
    fn serde_round_trip() {
        for dt in [DType::Fp32, DType::Tf32, DType::Fp16, DType::Bf16] {
            let js = serde_json::to_string(&dt).unwrap();
            let back: DType = serde_json::from_str(&js).unwrap();
            assert_eq!(dt, back);
        }
    }
}
