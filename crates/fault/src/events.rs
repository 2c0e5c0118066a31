//! Fault-event materialization: seeded exponential fatal/transient
//! streams plus fixed maintenance windows, snapped onto the exact
//! integer duration grid.
//!
//! The discipline mirrors `materialize_arrivals` in `madmax-serve`
//! bit-for-bit: xorshift64* uniforms, exponential gaps snapped per-draw
//! with `grid_units_round`, and clocks accumulated in checked `i64`
//! grid units — so the same [`FaultSpec`](crate::FaultSpec) and seed
//! produce the same event stream on any platform at any thread count.

use madmax_core::steady::{grid_units_round, MAX_UNITS};
use madmax_hw::units::Seconds;

use crate::spec::FaultSpec;

/// What a fault event does to the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A device loss: in-flight serving work on the lost slots is
    /// interrupted and capacity is degraded until recovery.
    Fatal,
    /// A link degradation / straggler: decode and prefill step costs
    /// are scaled by the slowdown factor for the window.
    Transient,
    /// A planned drain: capacity is degraded for the window, in-flight
    /// work on the drained slots is requeued.
    Maintenance,
}

/// One materialized fault: a grid-time window and its effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Window start, grid units.
    pub at: i64,
    /// Window end (recovery), grid units.
    pub until: i64,
    /// The effect.
    pub kind: FaultKind,
    /// Serving slots lost for the window.
    pub slots_lost: usize,
    /// Step-cost multiplier for the window, percent (>= 100; `100`
    /// means no slowdown).
    pub slowdown_pct: u32,
}

/// Errors from fault materialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The spec is invalid (message from
    /// [`FaultSpec::validate`](crate::FaultSpec::validate)).
    Spec(String),
    /// A fault time left the exact integer grid range.
    GridRange(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Spec(m) => write!(f, "invalid fault spec: {m}"),
            FaultError::GridRange(m) => write!(f, "fault stream leaves the exact grid: {m}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// xorshift64*: the same tiny seeded PRNG the arrival layer uses, so
/// fault streams share its reproducibility contract.
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Uniform draw in `(0, 1]` from the high 53 bits.
fn uniform_01(state: &mut u64) -> f64 {
    let bits = next_u64(state) >> 11;
    (bits + 1) as f64 / (1u64 << 53) as f64
}

/// Seed 0 is a fixed point of xorshift; remap it (same constant as the
/// arrival layer).
fn seed_state(seed: u64) -> u64 {
    if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    }
}

/// One exponential draw with mean `mean` seconds, snapped to grid units.
fn exp_units(state: &mut u64, mean: f64, what: &str) -> Result<i64, FaultError> {
    let gap = -uniform_01(state).ln() * mean;
    grid_units_round(Seconds::new(gap))
        .ok_or_else(|| FaultError::GridRange(format!("{what} gap {gap} s off-grid")))
}

/// Advances a grid clock, failing when it leaves the exact range.
fn advance(at: i64, delta: i64, what: &str) -> Result<i64, FaultError> {
    at.checked_add(delta)
        .filter(|t| *t < MAX_UNITS)
        .ok_or_else(|| FaultError::GridRange(format!("{what} clock beyond 2^52 grid units")))
}

/// Materializes the exponential transient-fault stream (slowdown
/// windows, no capacity loss) over `[0, horizon)`.
fn transient_stream(
    out: &mut Vec<FaultEvent>,
    seed: u64,
    mtbf: f64,
    duration: f64,
    horizon: i64,
    slowdown_pct: u32,
) -> Result<(), FaultError> {
    let mut state = seed_state(seed);
    let mut at = 0i64;
    loop {
        let gap = exp_units(&mut state, mtbf, "fault")?;
        at = advance(at, gap, "fault")?;
        if at >= horizon {
            return Ok(());
        }
        let len = exp_units(&mut state, duration, "fault-duration")?;
        let until = advance(at, len, "fault-duration")?;
        out.push(FaultEvent {
            at,
            until,
            kind: FaultKind::Transient,
            slots_lost: 0,
            slowdown_pct,
        });
    }
}

/// Materializes a fault spec into a time-sorted event stream over
/// `[0, horizon)` grid units. Fatal windows last exactly the recovery
/// time; transient windows draw exponential durations; maintenance
/// windows are fixed. An empty stream (inactive spec, or a horizon
/// before the first draw) is a valid result.
///
/// # Errors
///
/// [`FaultError::Spec`] for invalid specs, [`FaultError::GridRange`]
/// when any window leaves the exact grid range.
pub fn materialize_faults(spec: &FaultSpec, horizon: i64) -> Result<Vec<FaultEvent>, FaultError> {
    spec.validate().map_err(FaultError::Spec)?;
    if horizon < 0 {
        return Err(FaultError::Spec(format!(
            "horizon {horizon} grid units must be >= 0"
        )));
    }
    let mut events = Vec::new();
    if let Some(mtbf) = spec.mtbf {
        let recovery = grid_units_round(Seconds::new(spec.recovery)).ok_or_else(|| {
            FaultError::GridRange(format!("recovery {} s off-grid", spec.recovery))
        })?;
        let mut state = seed_state(spec.seed);
        let mut at = 0i64;
        loop {
            let gap = exp_units(&mut state, mtbf, "fatal")?;
            at = advance(at, gap, "fatal")?;
            if at >= horizon {
                break;
            }
            events.push(FaultEvent {
                at,
                until: advance(at, recovery, "fatal-recovery")?,
                kind: FaultKind::Fatal,
                slots_lost: spec.slots_lost,
                slowdown_pct: 100,
            });
        }
    }
    if let Some(mtbf) = spec.transient_mtbf {
        // A distinct stream seed so the transient draw sequence is
        // independent of whether the fatal stream is enabled.
        transient_stream(
            &mut events,
            spec.seed ^ 0x6C62_272E_07BB_0142,
            mtbf,
            spec.transient_duration,
            horizon,
            spec.slowdown_pct,
        )?;
    }
    for (i, w) in spec.maintenance.iter().enumerate() {
        let at = grid_units_round(Seconds::new(w.start)).ok_or_else(|| {
            FaultError::GridRange(format!(
                "maintenance window {i} start {} s off-grid",
                w.start
            ))
        })?;
        if at >= horizon {
            continue;
        }
        let len = grid_units_round(Seconds::new(w.duration)).ok_or_else(|| {
            FaultError::GridRange(format!(
                "maintenance window {i} duration {} s off-grid",
                w.duration
            ))
        })?;
        events.push(FaultEvent {
            at,
            until: advance(at, len, "maintenance")?,
            kind: FaultKind::Maintenance,
            slots_lost: w.slots_lost,
            slowdown_pct: 100,
        });
    }
    events.sort_by_key(|e| (e.at, e.until));
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MaintenanceWindow;
    use madmax_core::steady::grid_units_round as snap;

    fn units(secs: f64) -> i64 {
        snap(Seconds::new(secs)).unwrap()
    }

    #[test]
    fn streams_are_seed_deterministic_and_sorted() {
        let spec = FaultSpec::fatal(2.0, 0.5, 9).with_transients(3.0, 0.25, 140);
        let h = units(60.0);
        let a = materialize_faults(&spec, h).unwrap();
        let b = materialize_faults(&spec, h).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        assert!(a.iter().all(|e| e.at < h && e.until >= e.at));
        let other = materialize_faults(&FaultSpec::fatal(2.0, 0.5, 10), h).unwrap();
        let fatal: Vec<_> = a.iter().filter(|e| e.kind == FaultKind::Fatal).collect();
        assert_ne!(
            fatal.iter().map(|e| e.at).collect::<Vec<_>>(),
            other.iter().map(|e| e.at).collect::<Vec<_>>(),
            "seed changes the stream"
        );
    }

    #[test]
    fn mtbf_scales_the_event_count() {
        let h = units(600.0);
        let frequent = materialize_faults(&FaultSpec::fatal(2.0, 0.1, 4), h).unwrap();
        let rare = materialize_faults(&FaultSpec::fatal(20.0, 0.1, 4), h).unwrap();
        assert!(
            frequent.len() > 5 * rare.len(),
            "{} vs {}",
            frequent.len(),
            rare.len()
        );
    }

    #[test]
    fn transient_stream_is_independent_of_the_fatal_stream() {
        let h = units(120.0);
        let both = materialize_faults(
            &FaultSpec::fatal(5.0, 0.5, 3).with_transients(4.0, 0.5, 150),
            h,
        )
        .unwrap();
        let alone = materialize_faults(
            &FaultSpec::none()
                .with_transients(4.0, 0.5, 150)
                .with_seed(3),
            h,
        )
        .unwrap();
        let both_t: Vec<_> = both
            .iter()
            .filter(|e| e.kind == FaultKind::Transient)
            .copied()
            .collect();
        assert_eq!(both_t, alone);
    }

    #[test]
    fn maintenance_windows_land_at_their_fixed_times() {
        let spec = FaultSpec::none().with_maintenance(MaintenanceWindow {
            start: 1.5,
            duration: 0.5,
            slots_lost: 2,
        });
        let ev = materialize_faults(&spec, units(10.0)).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].at, units(1.5));
        assert_eq!(ev[0].until, units(1.5) + units(0.5));
        assert_eq!(ev[0].slots_lost, 2);
        assert_eq!(ev[0].kind, FaultKind::Maintenance);
        // Beyond the horizon: dropped.
        let none = materialize_faults(&spec, units(1.0)).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn inactive_specs_materialize_empty() {
        assert!(materialize_faults(&FaultSpec::none(), units(100.0))
            .unwrap()
            .is_empty());
    }
}
