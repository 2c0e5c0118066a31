//! # madmax-serve
//!
//! An event-driven **continuous-batching serve simulator** on top of the
//! MAD-Max per-step cost machinery: instead of pricing one synchronized
//! (prefill, decode) wave, it executes a *request stream* — arrivals,
//! admission queueing, in-flight batching where new requests join the
//! decode batch as others finish, and a paged, evictable KV-cache budget
//! — and reports latency percentiles (TTFT/TPOT), queue depth, and
//! goodput under load.
//!
//! ## How it prices a step
//!
//! The synchronized-wave engines (`madmax-core` / `madmax-pipeline`)
//! already price every per-step serve cost on an exact integer duration
//! grid, and their closed-form steady-state path (`madmax_core::steady`)
//! guarantees decode-step durations form exact affine series in the
//! KV-cache position. [`StepCostModel::price`] extracts that affine
//! structure from two or three engine runs (first/second differences of
//! consecutive decode lengths, read off each run's decode tail, at the
//! low-batch anchor and at `slots` in-flight sequences) into integer
//! grid-unit coefficients:
//!
//! ```text
//! prefill(ctx)   = prefill_base + prefill_slope * ctx
//! step(B, K)     = step_base + step_seq * B + step_rate * K
//! ```
//!
//! where `B` is the in-flight batch and `K` the total resident KV tokens.
//!
//! ## How it advances time
//!
//! Between arrival / completion / eviction events the in-flight set is
//! stable, so every decode step of a run costs `c + r*k` grid units —
//! exactly the arithmetic series the PR-8 quadratic jump certifies. The
//! event-driven mode ([`SimMode::Event`]) advances whole runs as
//! closed-form series sums through the re-entry helpers
//! (`madmax_core::steady::affine_series_units`), localizing
//! arrival/horizon crossings by integer binary search
//! (`first_series_crossing`); the per-token reference mode
//! ([`SimMode::PerToken`]) executes the same loop one step at a time.
//! Because both modes run the identical integer recurrence, their
//! [`LoadReport`]s and per-request records are **byte-identical** — the
//! event mode is purely a wall-clock optimization, validated by
//! `tests/serve_load_invariants.rs`.
//!
//! ## Entry points
//!
//! Most callers go through `madmax_engine::Scenario::serve_load`; the
//! crate-level [`simulate_load`] is the direct path when you already hold
//! a priced [`StepCostModel`]. See `crates/serve/README.md` for a
//! walkthrough.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod cost;
pub mod kv;
pub mod report;
pub mod sim;
pub mod trace;

pub use arrival::{materialize_arrivals, parse_request_jsonl, ArrivalEvent};
pub use cost::{ProbeRun, StepCostModel};
pub use report::{LoadReport, Percentiles, RequestOutcome};
pub use sim::{simulate_load, simulate_load_faulty, LoadOutcome, SimCounters, SimMode};
pub use trace::{
    FaultSpan, LoadTrace, PrefillRun, RejectReason, RequestRecord, ResidencySpan, StepRun, StepSeq,
};

use madmax_parallel::PlanError;

/// Everything a load simulation can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The candidate plan cannot serve this workload at all (OOM while
    /// holding `slots` sequences, unmappable pipeline, ...): the probe
    /// evaluations failed.
    Plan(PlanError),
    /// The load spec is structurally invalid (see
    /// `madmax_parallel::LoadSpec::validate`).
    Spec(String),
    /// The run left the exact integer duration grid (a timestamp or
    /// series total at or beyond `2^52` grid units, or a probed cost that
    /// is not a grid multiple): results would no longer be exact.
    GridRange(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Plan(e) => write!(f, "load probe failed: {e}"),
            LoadError::Spec(m) => write!(f, "invalid load spec: {m}"),
            LoadError::GridRange(m) => write!(f, "load run left the exact grid: {m}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for LoadError {
    fn from(e: PlanError) -> Self {
        LoadError::Plan(e)
    }
}

impl LoadError {
    /// Whether the candidate failed for memory capacity (the OOM bars of
    /// load sweeps).
    pub fn is_oom(&self) -> bool {
        matches!(self, LoadError::Plan(PlanError::OutOfMemory { .. }))
    }
}
