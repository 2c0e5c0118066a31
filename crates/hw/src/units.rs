//! Typed scalar units used throughout MAD-Max.
//!
//! All quantities in the performance model are plain `f64`s wrapped in
//! newtypes so that the type system distinguishes, e.g., a byte count from a
//! bandwidth ([C-NEWTYPE]). Dividing a [`ByteCount`] by a [`BytesPerSec`]
//! yields [`Seconds`]; dividing a [`FlopCount`] by a [`FlopsPerSec`] yields
//! [`Seconds`]. These are the two fundamental cost equations of the paper
//! (Section IV-B).
//!
//! # Examples
//!
//! ```
//! use madmax_hw::units::{ByteCount, BytesPerSec};
//!
//! let bytes = ByteCount::from_gb(50.0);
//! let bw = BytesPerSec::from_gbps(200.0); // 25 GB/s
//! let t = bytes / bw;
//! assert!((t.as_secs() - 2.0).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $unit:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value in base units.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The zero value.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw value in base units.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` when the value is exactly zero.
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// Returns `true` when the value is finite (not NaN/inf).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Element-wise maximum.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Element-wise minimum.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Ratio between two quantities of the same unit.
        impl Div<$name> for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

unit_newtype!(
    /// A count of floating-point operations.
    FlopCount,
    "FLOPs"
);
unit_newtype!(
    /// A count of bytes (stored as `f64`; averages may be fractional).
    ByteCount,
    "B"
);
unit_newtype!(
    /// A duration in seconds.
    Seconds,
    "s"
);
unit_newtype!(
    /// A compute rate in FLOP/s.
    FlopsPerSec,
    "FLOP/s"
);
unit_newtype!(
    /// A data rate in bytes/s.
    BytesPerSec,
    "B/s"
);

pub(crate) const MIB: f64 = 1024.0 * 1024.0;
pub(crate) const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

impl FlopCount {
    /// Constructs from giga-FLOPs (1e9).
    pub fn from_gflops(v: f64) -> Self {
        Self(v * 1e9)
    }

    /// Value expressed in giga-FLOPs.
    pub fn as_gflops(self) -> f64 {
        self.0 / 1e9
    }
}

impl ByteCount {
    /// Constructs from decimal gigabytes (1e9 B), the unit of GPU data sheets.
    pub fn from_gb(v: f64) -> Self {
        Self(v * 1e9)
    }

    /// Value in mebibytes.
    pub fn as_mib(self) -> f64 {
        self.0 / MIB
    }

    /// Value in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 / GIB
    }

    /// Value in decimal gigabytes.
    pub fn as_gb(self) -> f64 {
        self.0 / 1e9
    }

    /// Value in decimal terabytes.
    pub fn as_tb(self) -> f64 {
        self.0 / 1e12
    }
}

impl Seconds {
    /// Constructs from milliseconds.
    pub fn from_ms(v: f64) -> Self {
        Self(v / 1e3)
    }

    /// Constructs from microseconds.
    pub fn from_us(v: f64) -> Self {
        Self(v / 1e6)
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Value in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 * 1e3
    }

    /// Value in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 * 1e6
    }

    /// Value in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Value in days.
    pub fn as_days(self) -> f64 {
        self.0 / 86_400.0
    }
}

impl FlopsPerSec {
    /// Constructs from teraFLOP/s.
    pub(crate) fn from_tflops(v: f64) -> Self {
        Self(v * 1e12)
    }

    /// Value in petaFLOP/s.
    pub fn as_pflops(self) -> f64 {
        self.0 / 1e15
    }
}

impl BytesPerSec {
    /// Constructs from decimal GB/s (NVLink-style spec values).
    pub(crate) fn from_gb(v: f64) -> Self {
        Self(v * 1e9)
    }

    /// Constructs from gigabits/s (NIC-style spec values).
    pub fn from_gbps(v: f64) -> Self {
        Self(v * 1e9 / 8.0)
    }

    /// Value in decimal GB/s.
    pub fn as_gb(self) -> f64 {
        self.0 / 1e9
    }

    /// Value in decimal TB/s.
    pub fn as_tb(self) -> f64 {
        self.0 / 1e12
    }

    /// Value in gigabits/s.
    pub fn as_gbps(self) -> f64 {
        self.0 * 8.0 / 1e9
    }
}

impl Div<BytesPerSec> for ByteCount {
    type Output = Seconds;
    /// Transfer time of a payload over a channel: the paper's
    /// bandwidth-bound cost equation.
    fn div(self, rhs: BytesPerSec) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<FlopsPerSec> for FlopCount {
    type Output = Seconds;
    /// Execution time of a compute block: the paper's compute-bound cost
    /// equation.
    fn div(self, rhs: FlopsPerSec) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for BytesPerSec {
    type Output = ByteCount;
    fn mul(self, rhs: Seconds) -> ByteCount {
        ByteCount(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for FlopsPerSec {
    type Output = FlopCount;
    fn mul(self, rhs: Seconds) -> FlopCount {
        FlopCount(self.0 * rhs.0)
    }
}

/// Formats a byte count with a human-scale suffix (KB/MB/GB/TB, decimal).
///
/// ```
/// assert_eq!(madmax_hw::units::human_bytes(22.61e6), "22.61 MB");
/// ```
pub fn human_bytes(bytes: f64) -> String {
    let abs = bytes.abs();
    if abs >= 1e12 {
        format!("{:.2} TB", bytes / 1e12)
    } else if abs >= 1e9 {
        format!("{:.2} GB", bytes / 1e9)
    } else if abs >= 1e6 {
        format!("{:.2} MB", bytes / 1e6)
    } else if abs >= 1e3 {
        format!("{:.2} KB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
}

/// Formats a FLOP count with a human-scale suffix (M/B/T, "B" = 1e9 as used
/// in the paper's Table II).
pub fn human_flops(flops: f64) -> String {
    let abs = flops.abs();
    if abs >= 1e12 {
        format!("{:.2} T", flops / 1e12)
    } else if abs >= 1e9 {
        format!("{:.2} B", flops / 1e9)
    } else if abs >= 1e6 {
        format!("{:.1} M", flops / 1e6)
    } else {
        format!("{flops:.0}")
    }
}

/// Formats a parameter count the way the paper does (e.g. "793B", "1.8T").
pub fn human_params(params: f64) -> String {
    let abs = params.abs();
    if abs >= 1e12 {
        format!("{:.2}T", params / 1e12)
    } else if abs >= 1e9 {
        format!("{:.1}B", params / 1e9)
    } else if abs >= 1e6 {
        format!("{:.1}M", params / 1e6)
    } else {
        format!("{params:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_over_bandwidth_is_seconds() {
        let t = ByteCount::from_gb(50.0) / BytesPerSec::from_gb(25.0);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flops_over_rate_is_seconds() {
        let t = FlopCount::new(312e12) / FlopsPerSec::from_tflops(156.0);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gbps_is_bits() {
        // A 200 Gbps NIC moves 25 GB/s.
        let bw = BytesPerSec::from_gbps(200.0);
        assert!((bw.as_gb() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_round_trip() {
        let a = Seconds::from_ms(67.4);
        let b = Seconds::from_ms(32.6);
        assert!(((a + b).as_ms() - 100.0).abs() < 1e-9);
        assert!(((a - b).as_ms() - 34.8).abs() < 1e-9);
        assert!(((a * 2.0).as_ms() - 134.8).abs() < 1e-9);
        assert!((a / b - 67.4 / 32.6).abs() < 1e-12);
    }

    #[test]
    fn sum_and_ordering() {
        let parts = [Seconds::from_ms(1.0), Seconds::from_ms(2.0)];
        let total: Seconds = parts.iter().copied().sum();
        assert!((total.as_ms() - 3.0).abs() < 1e-12);
        assert!(parts[0] < parts[1]);
        assert_eq!(parts[0].max(parts[1]), parts[1]);
        assert_eq!(parts[0].min(parts[1]), parts[0]);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human_bytes(22.61e6), "22.61 MB");
        assert_eq!(human_bytes(49.2e3), "49.20 KB");
        assert_eq!(human_params(793e9), "793.0B");
        assert_eq!(human_params(1.8e12), "1.80T");
        assert_eq!(human_flops(638e6), "638.0 M");
        assert_eq!(human_flops(350e9), "350.00 B");
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Seconds::new(1.5)), "1.5 s");
        assert_eq!(format!("{}", ByteCount::new(8.0)), "8 B");
    }

    #[test]
    fn zero_and_finite() {
        assert!(Seconds::ZERO.is_zero());
        assert!(Seconds::new(1.0).is_finite());
        assert!(!Seconds::new(f64::NAN).is_finite());
    }

    #[test]
    fn rate_times_time() {
        let moved = BytesPerSec::from_gb(10.0) * Seconds::new(3.0);
        assert!((moved.as_gb() - 30.0).abs() < 1e-9);
        let done = FlopsPerSec::from_tflops(2.0) * Seconds::new(0.5);
        assert!((done.as_gflops() - 1000.0).abs() < 1e-6);
    }
}
