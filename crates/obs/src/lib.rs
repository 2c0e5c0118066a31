//! # madmax-obs
//!
//! Observability for the MAD-Max performance model: everything that makes
//! a simulation or a design-space search *inspectable* rather than a
//! single aggregate number.
//!
//! - [`perfetto`] — Chrome trace-event export: a simulated
//!   [`madmax_core::Trace`] + [`madmax_core::Schedule`] becomes a JSON
//!   file that opens directly in <https://ui.perfetto.dev>, with one
//!   track per stream, one duration event per op (phase / stage /
//!   collective metadata attached), and cross-stream data dependencies
//!   drawn as flow arrows. The paper's own headline artifacts (Fig. 6
//!   per-stream timelines, Fig. 20 breakdowns) are exactly this view.
//! - [`telemetry`] — [`SearchTelemetry`]: per-outcome candidate counters,
//!   cache hit/miss snapshots from the price→assemble fast paths
//!   (`CostTable`, `PipelineCostTable` and its report memo),
//!   per-worker throughput, and an evaluation-latency histogram,
//!   populated by `madmax_dse::Explorer` on every search.
//! - [`progress`] — the [`ProgressSink`] trait: live candidate-completed
//!   events from a running search (no-op default, stderr ticker, JSONL
//!   writer), the groundwork for a resident DSE service.
//! - [`load`] — continuous-batching load-run observability: per-request
//!   completion events bridged from `madmax_serve`'s completion
//!   callback, [`LoadTelemetry`] counters, and Perfetto export of a
//!   load trace (engine track, queue-depth counter, per-request KV
//!   residency tracks).
//!
//! # Telemetry sharing contract
//!
//! All hot-path instrumentation is a relaxed atomic increment on counters
//! owned by the shared cost tables (`madmax_core::CacheCounters`), so the
//! explorer's worker pool needs no locks and no per-worker merge step for
//! cache stats; snapshots are taken after `thread::scope` joins, which
//! provides the happens-before edge making the totals exact. Per-worker
//! wall-clock and latency data are accumulated worker-locally and merged
//! once at join. [`ProgressSink`] implementations must be `Sync`: one
//! sink instance receives events concurrently from every worker, in
//! completion order (which is nondeterministic — only the *set* of events
//! is stable across runs).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod load;
pub mod perfetto;
pub mod progress;
pub mod telemetry;

pub use load::{forward_to_sink, LoadTelemetry, RequestEvent};
pub use madmax_core::counters::CacheStats;
pub use perfetto::{ChromeTrace, TraceEvent};
pub use progress::{
    CandidateEvent, CandidateOutcome, ElapsedSummary, JsonlSink, NullSink, ProgressSink,
    StderrTicker,
};
pub use telemetry::{LatencyHistogram, SearchTelemetry, TelemetrySpool, WorkerStats};
