//! Fault-process and retry-policy configuration.

/// A planned maintenance window: a fixed span during which part of the
/// fleet's capacity is drained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceWindow {
    /// Window start, seconds.
    pub start: f64,
    /// Window length, seconds.
    pub duration: f64,
    /// Serving slots drained for the window.
    pub slots_lost: usize,
}

/// The fault process of a deployment: seeded stochastic fatal and
/// transient faults plus planned maintenance, all materialized
/// deterministically onto the integer duration grid by
/// [`materialize_faults`](crate::materialize_faults).
///
/// `mtbf` and `transient_mtbf` are *fleet-level* mean times between
/// failures in seconds (at cluster scale, per-device MTBFs of weeks
/// compress to fleet MTBFs of hours).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Mean time between fatal faults, seconds. `None` disables the
    /// fatal stream.
    pub mtbf: Option<f64>,
    /// Capacity-recovery time after a fatal fault, seconds.
    pub recovery: f64,
    /// Serving slots lost per fatal fault until recovery.
    pub slots_lost: usize,
    /// Mean time between transient faults (link degradation,
    /// stragglers), seconds. `None` disables the transient stream.
    pub transient_mtbf: Option<f64>,
    /// Mean transient-fault duration, seconds (exponential).
    pub transient_duration: f64,
    /// Step-cost multiplier during transient windows, percent
    /// (`150` = 1.5x slower; must be >= 100).
    pub slowdown_pct: u32,
    /// Planned maintenance windows.
    pub maintenance: Vec<MaintenanceWindow>,
    /// Training checkpoint interval, seconds of useful work between
    /// checkpoint writes. `None` picks the Young/Daly optimum.
    pub checkpoint_interval: Option<f64>,
    /// PRNG seed for the fatal and transient streams.
    pub seed: u64,
}

impl FaultSpec {
    /// A fatal-faults-only process: fleet MTBF `mtbf` seconds,
    /// `recovery`-second recovery windows costing one slot, seeded.
    pub fn fatal(mtbf: f64, recovery: f64, seed: u64) -> Self {
        FaultSpec {
            mtbf: Some(mtbf),
            recovery,
            slots_lost: 1,
            transient_mtbf: None,
            transient_duration: 0.0,
            slowdown_pct: 100,
            maintenance: Vec::new(),
            checkpoint_interval: None,
            seed,
        }
    }

    /// A fault-free process (no streams, no windows); useful as a
    /// baseline spec that still exercises the fault plumbing.
    pub fn none() -> Self {
        FaultSpec {
            mtbf: None,
            recovery: 0.0,
            slots_lost: 0,
            transient_mtbf: None,
            transient_duration: 0.0,
            slowdown_pct: 100,
            maintenance: Vec::new(),
            checkpoint_interval: None,
            seed: 0,
        }
    }

    /// Adds a transient-fault stream: mean time between faults, mean
    /// duration, and the step slowdown in percent.
    #[must_use]
    pub fn with_transients(mut self, mtbf: f64, duration: f64, slowdown_pct: u32) -> Self {
        self.transient_mtbf = Some(mtbf);
        self.transient_duration = duration;
        self.slowdown_pct = slowdown_pct;
        self
    }

    /// Adds a planned maintenance window.
    #[must_use]
    pub fn with_maintenance(mut self, window: MaintenanceWindow) -> Self {
        self.maintenance.push(window);
        self
    }

    /// Sets the serving slots lost per fatal fault.
    #[must_use]
    pub fn with_slots_lost(mut self, slots: usize) -> Self {
        self.slots_lost = slots;
        self
    }

    /// Sets the training checkpoint interval (seconds of useful work).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, secs: f64) -> Self {
        self.checkpoint_interval = Some(secs);
        self
    }

    /// Sets the PRNG seed for the stochastic streams.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// A human-readable message for non-positive MTBFs/durations, a
    /// sub-100% slowdown, or a malformed maintenance window.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(m) = self.mtbf {
            if !m.is_finite() || m <= 0.0 {
                return Err(format!("mtbf {m} must be a positive number of seconds"));
            }
            if !self.recovery.is_finite() || self.recovery < 0.0 {
                return Err(format!("recovery {} must be >= 0 seconds", self.recovery));
            }
        }
        if let Some(m) = self.transient_mtbf {
            if !m.is_finite() || m <= 0.0 {
                return Err(format!(
                    "transient_mtbf {m} must be a positive number of seconds"
                ));
            }
            if !self.transient_duration.is_finite() || self.transient_duration <= 0.0 {
                return Err(format!(
                    "transient_duration {} must be > 0 seconds",
                    self.transient_duration
                ));
            }
            if self.slowdown_pct < 100 {
                return Err(format!(
                    "slowdown_pct {} must be >= 100 (a percentage multiplier)",
                    self.slowdown_pct
                ));
            }
        }
        for (i, w) in self.maintenance.iter().enumerate() {
            if !w.start.is_finite() || w.start < 0.0 || !w.duration.is_finite() || w.duration <= 0.0
            {
                return Err(format!(
                    "maintenance window {i}: start {} and duration {} must be >= 0 and > 0",
                    w.start, w.duration
                ));
            }
        }
        if let Some(ci) = self.checkpoint_interval {
            if !ci.is_finite() || ci <= 0.0 {
                return Err(format!(
                    "checkpoint_interval {ci} must be a positive number of seconds"
                ));
            }
        }
        Ok(())
    }

    /// Whether the spec produces any fault events at all.
    pub fn is_active(&self) -> bool {
        self.mtbf.is_some() || self.transient_mtbf.is_some() || !self.maintenance.is_empty()
    }
}

/// What happens to in-flight serving requests interrupted by a fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Interruptions a request survives before it is dropped: the
    /// `max_retries + 1`-th interruption fails the request.
    pub max_retries: u32,
    /// Drop an interrupted request outright once it has been in the
    /// system longer than this many seconds, regardless of retry budget.
    pub timeout: Option<f64>,
    /// Delay before an interrupted request may be re-admitted, seconds.
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            timeout: None,
            backoff: 0.0,
        }
    }
}

impl RetryPolicy {
    /// A policy retrying up to `max_retries` times with no backoff or
    /// timeout.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..Self::default()
        }
    }

    /// Sets the re-admission backoff, seconds.
    #[must_use]
    pub fn with_backoff(mut self, secs: f64) -> Self {
        self.backoff = secs;
        self
    }

    /// Sets the in-system timeout, seconds.
    #[must_use]
    pub fn with_timeout(mut self, secs: f64) -> Self {
        self.timeout = Some(secs);
        self
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// A human-readable message for negative backoff or a non-positive
    /// timeout.
    pub fn validate(&self) -> Result<(), String> {
        if !self.backoff.is_finite() || self.backoff < 0.0 {
            return Err(format!("backoff {} must be >= 0 seconds", self.backoff));
        }
        if let Some(t) = self.timeout {
            if !t.is_finite() || t <= 0.0 {
                return Err(format!("timeout {t} must be > 0 seconds"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_knobs() {
        assert!(FaultSpec::fatal(3600.0, 30.0, 7).validate().is_ok());
        assert!(FaultSpec::none().validate().is_ok());
        assert!(FaultSpec::fatal(0.0, 30.0, 7).validate().is_err());
        assert!(FaultSpec::fatal(3600.0, -1.0, 7).validate().is_err());
        assert!(FaultSpec::none()
            .with_transients(60.0, 5.0, 50)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_maintenance(MaintenanceWindow {
                start: -1.0,
                duration: 10.0,
                slots_lost: 1,
            })
            .validate()
            .is_err());
        assert!(FaultSpec::fatal(10.0, 1.0, 0)
            .with_checkpoint_interval(0.0)
            .validate()
            .is_err());
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy::retries(2)
            .with_backoff(-0.5)
            .validate()
            .is_err());
        assert!(RetryPolicy::retries(2)
            .with_timeout(0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn activity_reflects_configured_streams() {
        assert!(!FaultSpec::none().is_active());
        assert!(FaultSpec::fatal(10.0, 1.0, 1).is_active());
        assert!(FaultSpec::none().with_transients(5.0, 1.0, 120).is_active());
        assert!(FaultSpec::none()
            .with_maintenance(MaintenanceWindow {
                start: 1.0,
                duration: 2.0,
                slots_lost: 1,
            })
            .is_active());
    }
}
