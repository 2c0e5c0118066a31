//! Structured diagnostics: the verifier reports rule violations as
//! [`Diagnostic`] values collected in a [`VerifyReport`] instead of
//! panicking, so callers (engines, the explorer, CI) decide what a
//! violation means for them.

use madmax_core::{OpId, StreamId};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the IR is legal but the schedule is leaving performance
    /// on the table (e.g. a mostly-idle compute stream).
    Warn,
    /// The IR violates an invariant the engines are supposed to uphold;
    /// any report derived from it is untrustworthy.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Every rule the verifier checks, one stable identifier per invariant.
/// See `crates/verify/README.md` for the full catalog with examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Trace: dependencies point strictly backward (`dep < op`), so the
    /// dependency graph is acyclic by construction.
    DepOrder,
    /// Trace: dependency lists are sorted and deduplicated.
    DepSorted,
    /// Trace: op names, kinds, and streams agree (stage ops on their
    /// stage's streams, collectives on comm streams, compute on compute).
    StreamMismatch,
    /// Trace: phases are consistent with the workload (no backward ops in
    /// serve traces, no decode ops in training traces, optimizer ops in
    /// the update phase).
    PhaseMismatch,
    /// Trace: autoregressive decode steps chain on the previous token.
    DecodeChain,
    /// Schedule: an op starts only after every dependency finishes.
    Causality,
    /// Schedule: windows on one stream never overlap (the independent
    /// check of the dense `StreamTable` scheduler).
    StreamOverlap,
    /// Schedule: durations are non-negative and each window spans exactly
    /// its op's duration.
    Duration,
    /// Schedule: the recorded makespan is the max window finish, and the
    /// window count matches the op count.
    Makespan,
    /// Pipeline: P2P transfers connect adjacent stages only, and every
    /// cross-stage handoff the schedule requires is present.
    StageAdjacency,
    /// Pipeline: a 1F1B schedule keeps at most `p` microbatches in flight
    /// per stage.
    InFlight,
    /// Pipeline: a GPipe schedule's measured bubble fraction respects the
    /// analytic floor `(p - 1) / (m + p - 1)`.
    BubbleFloor,
    /// Pipeline: in the steady decode region of a serve schedule, each
    /// token's completion follows the previous token's by at least the
    /// analytic steady period `max(Σ_s (d_s + comm_s + send_s),
    /// max_s m·d_s)` re-derived from the trace's per-stage decode
    /// durations (error when faster — the dependency structure and stage
    /// work forbid it; warn when slower than the period plus the KV-growth
    /// slack — steady-state scheduling inefficiency).
    SteadyPeriod,
    /// Load trace: request-lifecycle causality — arrival ≤ admission
    /// (prefill start) < first token ≤ completion, rejected requests
    /// never run, completed requests decode exactly their requested
    /// tokens, and the engine serializes prefills and decode runs.
    RequestLifecycle,
    /// Load trace: paged-KV residency — every decode participant holds an
    /// open residency interval covering the run, spans are well-formed,
    /// and block occupancy never exceeds the paged budget.
    PagedKvResidency,
    /// Load trace: fault-ledger consistency — fault spans are well-formed
    /// and inside the run window, per-request interruption counts match
    /// retry/failure accounting, retries respect the policy ceiling, and
    /// decode runs inside capacity-loss windows respect the degraded slot
    /// count.
    FaultLedger,
    /// Goodput: a closed-form goodput evaluation is internally consistent
    /// — the fraction is in (0, 1], effective throughput never exceeds
    /// the fault-free throughput and equals fraction x fault-free, and
    /// the model knobs (MTBF, interval, write, restart) are sane.
    GoodputBound,
    /// Analysis: the critical-path lower bound must not exceed the
    /// makespan.
    CriticalPath,
    /// Analysis (warn): a compute stream spends most of the makespan
    /// idle — scheduling inefficiency worth a look, not an error.
    StreamSlack,
}

impl RuleId {
    /// Stable kebab-case code, used in rendered diagnostics and the
    /// README catalog.
    pub(crate) fn code(self) -> &'static str {
        match self {
            RuleId::DepOrder => "dep-order",
            RuleId::DepSorted => "dep-sorted",
            RuleId::StreamMismatch => "stream-mismatch",
            RuleId::PhaseMismatch => "phase-mismatch",
            RuleId::DecodeChain => "decode-chain",
            RuleId::Causality => "causality",
            RuleId::StreamOverlap => "stream-overlap",
            RuleId::Duration => "duration",
            RuleId::Makespan => "makespan",
            RuleId::StageAdjacency => "stage-adjacency",
            RuleId::InFlight => "in-flight",
            RuleId::BubbleFloor => "bubble-floor",
            RuleId::SteadyPeriod => "steady-period",
            RuleId::RequestLifecycle => "request-lifecycle",
            RuleId::PagedKvResidency => "paged-kv-residency",
            RuleId::FaultLedger => "fault-ledger",
            RuleId::GoodputBound => "goodput-bound",
            RuleId::CriticalPath => "critical-path",
            RuleId::StreamSlack => "stream-slack",
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Where in the IR a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// No specific anchor (whole-plan or whole-trace findings).
    Global,
    /// One op of the trace/schedule.
    Op(OpId),
    /// One stream.
    Stream(StreamId),
    /// One pipeline stage.
    Stage(u16),
    /// One request of a load trace.
    Request(u32),
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Global => f.write_str("-"),
            Location::Op(id) => write!(f, "op {}", id.0),
            Location::Stream(s) => write!(f, "stream {s:?}"),
            Location::Stage(s) => write!(f, "stage {s}"),
            Location::Request(r) => write!(f, "request {r}"),
        }
    }
}

/// One rule violation (or advisory finding).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleId,
    /// Error or advisory.
    pub severity: Severity,
    /// Op/stream/stage anchor.
    pub location: Location,
    /// Human-readable explanation with the offending values.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub(crate) fn error(rule: RuleId, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location,
            message: message.into(),
        }
    }

    /// A warn-severity diagnostic.
    pub(crate) fn warn(rule: RuleId, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warn,
            location,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.message
        )
    }
}

/// Longest dependency chain of a trace: a makespan lower bound that holds
/// for *any* legal schedule, independent of stream contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPath {
    /// Sum of durations along the longest chain.
    pub lower_bound: madmax_hw::units::Seconds,
    /// Number of ops on the chain.
    pub ops: usize,
    /// The chain's final op (`None` for an empty trace).
    pub sink: Option<OpId>,
}

/// Everything one verification pass found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// All findings, in rule-evaluation order.
    pub diagnostics: Vec<Diagnostic>,
    /// The critical-path analysis, when a schedule was verified.
    pub critical_path: Option<CriticalPath>,
}

impl VerifyReport {
    /// An empty (clean) report.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a finding.
    pub(crate) fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warn-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Whether no errors were found (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Whether any finding cites `rule`.
    pub fn has(&self, rule: RuleId) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// Findings citing `rule`.
    pub fn of(&self, rule: RuleId) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diagnostics.is_empty() {
            f.write_str("clean")?;
        } else {
            for (i, d) in self.diagnostics.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(f, "{d}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_rendering() {
        let mut r = VerifyReport::new();
        assert!(r.is_clean());
        assert_eq!(r.to_string(), "clean");
        r.push(Diagnostic::warn(
            RuleId::StreamSlack,
            Location::Stream(StreamId::Compute),
            "idle",
        ));
        assert!(r.is_clean(), "warnings alone stay clean");
        r.push(Diagnostic::error(
            RuleId::Causality,
            Location::Op(OpId(3)),
            "starts before its dependency finishes",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has(RuleId::Causality));
        assert!(!r.has(RuleId::Makespan));
        let s = r.to_string();
        assert!(s.contains("error[causality] op 3"), "{s}");
        assert!(s.contains("warn[stream-slack]"), "{s}");
        assert_eq!(RuleId::BubbleFloor.code(), "bubble-floor");
    }
}
