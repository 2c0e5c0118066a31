//! The load-run trace: per-request lifecycle records, prefill and
//! decode-run spans, KV-block residency intervals, and the queue-depth
//! timeline.
//!
//! All timestamps are **grid units** (`2^-38` s, see
//! `madmax_core::steady`): the trace is the exact integer ledger the
//! verifier's load rules and the Perfetto exporter consume. Note that
//! the two simulation modes serialize decode work differently — the
//! event mode records one [`StepRun`] per homogeneous run, the per-token
//! reference one per step — so traces are *structurally* mode-dependent
//! even though every request-visible timestamp is byte-identical.

use madmax_fault::FaultKind;

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue was at capacity when the request arrived.
    QueueFull,
    /// The request can never run: its worst-case KV footprint exceeds
    /// the whole paged budget.
    Infeasible,
}

/// Lifecycle record of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Request id (arrival order).
    pub id: u32,
    /// Arrival time, grid units.
    pub arrival: i64,
    /// Prompt tokens.
    pub prompt_len: usize,
    /// Decode tokens requested.
    pub decode_len: u64,
    /// First admission time (prefill start), if admitted.
    pub admitted: Option<i64>,
    /// First-token time (end of the first prefill), if admitted.
    pub first_token: Option<i64>,
    /// Completion time (end of the last decode step), if completed.
    pub completion: Option<i64>,
    /// Rejection, if rejected at arrival.
    pub rejected: Option<RejectReason>,
    /// Times this request was evicted (and later re-prefilled).
    pub evictions: u32,
    /// Fault interruptions this request survived (each consumed one
    /// retry of the run's [`RetryPolicy`](madmax_fault::RetryPolicy)).
    pub retries: u32,
    /// When the request was dropped by a fault (retry budget exhausted
    /// or timeout exceeded), if it failed.
    pub failed: Option<i64>,
}

/// One prefill execution (initial admission or eviction-recompute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillRun {
    /// The request being prefilled.
    pub request: u32,
    /// Start time, grid units.
    pub start: i64,
    /// End time, grid units.
    pub end: i64,
    /// Context tokens prefilled (prompt, plus generated tokens on a
    /// recompute).
    pub ctx_tokens: usize,
    /// Whether this is an eviction-recompute.
    pub resumed: bool,
}

/// One in-flight sequence of a decode run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSeq {
    /// The request.
    pub request: u32,
    /// Its resident KV tokens before the run's first step.
    pub kv_start: i64,
}

/// A run of consecutive decode steps over a stable in-flight set.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRun {
    /// Start time, grid units.
    pub start: i64,
    /// End time, grid units.
    pub end: i64,
    /// Steps in the run (each emits one token per participant).
    pub steps: i64,
    /// The in-flight set, in admission order.
    pub participants: Vec<StepSeq>,
    /// Total resident KV tokens before the first step.
    pub kv_total_start: i64,
    /// KV blocks held by the participants at the end of the run.
    pub blocks_held: u64,
}

/// A KV-block residency interval: one request's blocks, from prefill
/// start until release (completion or eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencySpan {
    /// The request holding the blocks.
    pub request: u32,
    /// Allocation time (prefill start), grid units.
    pub start: i64,
    /// Release time; `None` when still held at the end of the run.
    pub end: Option<i64>,
    /// Blocks held when the span closed (eviction-mode caches grow
    /// within the span; this is the high-water count).
    pub blocks: u64,
}

/// One fault window as the simulator applied it: the span the
/// deployment actually spent degraded (clock overshoot past the event
/// time is possible when the event lands inside an atomic prefill), plus
/// the in-flight requests the window interrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpan {
    /// When the simulator applied the event, grid units.
    pub start: i64,
    /// When the window closed (capacity recovered / slowdown lifted),
    /// grid units.
    pub end: i64,
    /// What the window did.
    pub kind: FaultKind,
    /// Serving slots lost for the window.
    pub slots_lost: usize,
    /// Step-cost multiplier for the window, percent (>= 100).
    pub slowdown_pct: u32,
    /// Requests interrupted when the window opened (youngest first).
    pub interrupted: Vec<u32>,
}

/// The complete integer-time ledger of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    /// Per-request lifecycle records, indexed by id.
    pub records: Vec<RequestRecord>,
    /// Every prefill execution, in time order.
    pub prefills: Vec<PrefillRun>,
    /// Every decode run, in time order.
    pub runs: Vec<StepRun>,
    /// KV-block residency intervals, in allocation order.
    pub residency: Vec<ResidencySpan>,
    /// Queue-depth change events `(time, depth)`.
    pub queue_depth: Vec<(i64, u32)>,
    /// Whether `queue_depth` hit its recording cap and stopped.
    pub queue_depth_truncated: bool,
    /// Paging granularity, tokens per block.
    pub block_tokens: usize,
    /// Paged budget, if any.
    pub total_blocks: Option<u64>,
    /// Peak blocks allocated.
    pub peak_blocks: u64,
    /// End of the run, grid units.
    pub end: i64,
    /// Fault windows the run applied, in application order.
    pub faults: Vec<FaultSpan>,
    /// The retry budget in force, when the run had fault events.
    pub retry_limit: Option<u32>,
    /// Decode slots the deployment was priced for (0 in traces predating
    /// the fault ledger).
    pub slots: usize,
}

impl LoadTrace {
    /// Decode steps executed for `request` across all runs it
    /// participated in.
    pub(crate) fn steps_of(&self, request: u32) -> i64 {
        self.runs
            .iter()
            .filter(|r| r.participants.iter().any(|p| p.request == request))
            .map(|r| r.steps)
            .sum()
    }
}
