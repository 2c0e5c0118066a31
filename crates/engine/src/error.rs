//! The engine's single error type: every way a [`crate::Scenario`] can
//! fail, regardless of whether the flat or the pipeline engine executed
//! the plan.

use madmax_hw::units::ByteCount;
use madmax_parallel::PlanError;

/// Unified error of [`crate::Scenario::run`] and the DSE explorer.
///
/// Callers previously had to match on the raw [`PlanError`] shapes of two
/// different simulators; `EngineError` folds both into one enum with
/// classification helpers ([`EngineError::is_oom`],
/// [`EngineError::is_unmappable_pipeline`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The mapping does not fit in device memory (the memory check or the
    /// pipeline-aware memory model rejected it).
    OutOfMemory {
        /// Required bytes per device.
        required: ByteCount,
        /// Usable bytes per device.
        usable: ByteCount,
    },
    /// The plan cannot be executed on this model/system: an invalid
    /// strategy/class combination, an unmappable pipeline, or a pipelined
    /// plan handed to the flat engine.
    InvalidPlan(PlanError),
    /// A serve workload or a continuous-batching load run cannot be set
    /// up or executed: a zero prompt or decode batch, an invalid
    /// [`madmax_parallel::LoadSpec`], a non-serve workload, or a run
    /// leaving the exact duration grid.
    InvalidLoad {
        /// What went wrong.
        reason: String,
    },
    /// A fault process cannot be set up or evaluated: an invalid
    /// `madmax_fault::FaultSpec`, or a fault stream leaving the exact
    /// duration grid.
    InvalidFault {
        /// What went wrong.
        reason: String,
    },
}

impl EngineError {
    /// Whether this is a memory-capacity failure (the gray "OOM" bars of
    /// the paper's sweeps).
    pub fn is_oom(&self) -> bool {
        matches!(self, EngineError::OutOfMemory { .. })
    }

    /// Whether this is an unmappable pipeline (too few layers, indivisible
    /// device counts, bad microbatch count).
    pub fn is_unmappable_pipeline(&self) -> bool {
        matches!(
            self,
            EngineError::InvalidPlan(PlanError::InvalidPipeline { .. })
        )
    }

    /// The underlying [`PlanError`] for callers interoperating with the
    /// pre-`Scenario` APIs.
    pub(crate) fn into_plan_error(self) -> PlanError {
        match self {
            EngineError::OutOfMemory { required, usable } => {
                PlanError::OutOfMemory { required, usable }
            }
            EngineError::InvalidPlan(e) => e,
            EngineError::InvalidLoad { reason } => PlanError::InvalidPipeline {
                reason: format!("load: {reason}"),
            },
            EngineError::InvalidFault { reason } => PlanError::InvalidPipeline {
                reason: format!("fault: {reason}"),
            },
        }
    }
}

impl From<madmax_fault::FaultError> for EngineError {
    fn from(e: madmax_fault::FaultError) -> Self {
        EngineError::InvalidFault {
            reason: e.to_string(),
        }
    }
}

impl From<madmax_serve::LoadError> for EngineError {
    fn from(e: madmax_serve::LoadError) -> Self {
        use madmax_serve::LoadError;
        match e {
            LoadError::Plan(pe) => EngineError::from(pe),
            LoadError::Spec(reason) | LoadError::GridRange(reason) => {
                EngineError::InvalidLoad { reason }
            }
        }
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::OutOfMemory { required, usable } => {
                EngineError::OutOfMemory { required, usable }
            }
            other => EngineError::InvalidPlan(other),
        }
    }
}

impl From<EngineError> for PlanError {
    fn from(e: EngineError) -> Self {
        e.into_plan_error()
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfMemory { required, usable } => write!(
                f,
                "out of memory: requires {:.2} GB/device but only {:.2} GB usable",
                required.as_gb(),
                usable.as_gb()
            ),
            EngineError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
            EngineError::InvalidLoad { reason } => write!(f, "invalid load: {reason}"),
            EngineError::InvalidFault { reason } => write!(f, "invalid fault spec: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InvalidPlan(e) => Some(e),
            EngineError::OutOfMemory { .. }
            | EngineError::InvalidLoad { .. }
            | EngineError::InvalidFault { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_parallel::PlanError;

    #[test]
    fn oom_round_trips_through_both_conversions() {
        let pe = PlanError::OutOfMemory {
            required: ByteCount::from_gb(100.0),
            usable: ByteCount::from_gb(64.0),
        };
        let ee = EngineError::from(pe.clone());
        assert!(ee.is_oom());
        assert!(!ee.is_unmappable_pipeline());
        assert_eq!(PlanError::from(ee), pe);
    }

    #[test]
    fn pipeline_errors_classify_as_unmappable() {
        let ee = EngineError::from(PlanError::InvalidPipeline {
            reason: "7 stages over 16 nodes".to_owned(),
        });
        assert!(ee.is_unmappable_pipeline());
        assert!(!ee.is_oom());
        assert!(ee.to_string().contains("invalid plan"));
    }
}
