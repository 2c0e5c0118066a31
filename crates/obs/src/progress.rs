//! Live progress from a running search: the [`ProgressSink`] trait and
//! its stock implementations.
//!
//! `madmax_dse::Explorer` calls [`ProgressSink::candidate_completed`]
//! from whichever worker finishes each candidate and
//! [`ProgressSink::search_finished`] once per evaluation batch, after the
//! pool joins. Sinks must therefore be `Send + Sync` and treat event
//! *order* as nondeterministic under multi-threaded search (the event
//! set, and every per-event payload, is deterministic).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::load::{LoadTelemetry, RequestEvent};
use crate::telemetry::SearchTelemetry;

/// How one candidate's evaluation resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// Produced an iteration report.
    Ok,
    /// Rejected for device memory.
    OutOfMemory,
    /// Pipeline depth cannot partition the model / map onto the cluster.
    Unmappable,
    /// Rejected as an otherwise invalid plan.
    Invalid,
}

/// One candidate-completed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEvent {
    /// Candidate index within the evaluation batch (stable across thread
    /// counts: it is the plan's position, not completion order).
    pub index: usize,
    /// Batch size, for progress displays.
    pub total: usize,
    /// How the evaluation resolved.
    pub outcome: CandidateOutcome,
    /// Evaluation latency in microseconds.
    pub eval_us: f64,
    /// Simulated iteration time in milliseconds, for `Ok` outcomes of
    /// searches that simulate one iteration per candidate (`explore`,
    /// and `explore_goodput`'s fault-free run). Load-search candidates
    /// simulate request streams, not an iteration, and carry `None`; so
    /// do the candidates `explore` and `explore_goodput` pruned without
    /// simulating ([`crate::SearchTelemetry::pruned`]).
    pub iteration_ms: Option<f64>,
}

/// Receives live events from a running search. See the module docs for
/// the threading contract.
pub trait ProgressSink: Send + Sync + std::fmt::Debug {
    /// Called by whichever worker completes each candidate.
    fn candidate_completed(&self, event: &CandidateEvent);

    /// Called once per evaluation batch, after the worker pool joins.
    fn search_finished(&self, _telemetry: &SearchTelemetry) {}

    /// Called once per completed request of a load simulation, in
    /// completion order (see [`crate::load::forward_to_sink`]).
    fn request_completed(&self, _event: &RequestEvent) {}

    /// Called once per finished load simulation.
    fn load_finished(&self, _telemetry: &LoadTelemetry) {}
}

/// The default sink: ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn candidate_completed(&self, _event: &CandidateEvent) {}
}

/// Prints a progress line to stderr every `every` completions, plus a
/// summary line when the search finishes. Counts restart with each
/// evaluation batch and each load simulation, so a batch's last line
/// reads `N/N`.
#[derive(Debug)]
pub struct StderrTicker {
    every: u64,
    seen: AtomicU64,
    ok: AtomicU64,
}

impl StderrTicker {
    /// A ticker printing every `every` completed candidates (clamped to
    /// at least 1).
    pub fn every(every: u64) -> Self {
        Self {
            every: every.max(1),
            seen: AtomicU64::new(0),
            ok: AtomicU64::new(0),
        }
    }

    /// Counts one completed candidate and returns the progress line to
    /// print, if this completion is due one.
    fn tick(&self, event: &CandidateEvent) -> Option<String> {
        if event.outcome == CandidateOutcome::Ok {
            self.ok.fetch_add(1, Ordering::Relaxed);
        }
        let seen = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        (seen.is_multiple_of(self.every) || seen as usize == event.total).then(|| {
            format!(
                "[search] {seen}/{} candidates evaluated ({} ok)",
                event.total,
                self.ok.load(Ordering::Relaxed)
            )
        })
    }

    /// Restarts the counts. Called after a batch's pool joins or a load
    /// simulation ends, so no event races it.
    fn restart(&self) {
        self.seen.store(0, Ordering::Relaxed);
        self.ok.store(0, Ordering::Relaxed);
    }
}

impl ProgressSink for StderrTicker {
    fn candidate_completed(&self, event: &CandidateEvent) {
        if let Some(line) = self.tick(event) {
            eprintln!("{line}");
        }
    }

    fn search_finished(&self, telemetry: &SearchTelemetry) {
        self.restart();
        eprintln!("[search] {}", telemetry.summary());
    }

    fn request_completed(&self, event: &RequestEvent) {
        let seen = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if seen.is_multiple_of(self.every) {
            eprintln!(
                "[load] {seen} requests completed (last: r{} at {:.3} s)",
                event.id, event.completion
            );
        }
    }

    fn load_finished(&self, telemetry: &LoadTelemetry) {
        self.restart();
        eprintln!("[load] {}", telemetry.summary());
    }
}

/// Per-experiment elapsed-time accounting for multi-experiment runners
/// (`run_all`): record each experiment's wall-clock, then print one
/// aligned summary table.
#[derive(Debug, Default)]
pub struct ElapsedSummary {
    rows: Vec<(String, Duration)>,
}

impl ElapsedSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f`, records it under `name`, and returns its output.
    pub fn run<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.rows.push((name.to_owned(), started.elapsed()));
        out
    }

    /// Total elapsed across every recorded row.
    pub(crate) fn total(&self) -> Duration {
        self.rows.iter().map(|(_, d)| *d).sum()
    }

    /// Renders the aligned per-experiment table (without printing it).
    pub fn table(&self) -> String {
        let width = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max(5);
        let mut out = String::new();
        for (name, elapsed) in &self.rows {
            out.push_str(&format!(
                "  {name:<width$}  {:>9.1} ms\n",
                elapsed.as_secs_f64() * 1e3
            ));
        }
        out.push_str(&format!(
            "  {:<width$}  {:>9.1} ms\n",
            "total",
            self.total().as_secs_f64() * 1e3
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_object_safe_and_silent() {
        let sink: &dyn ProgressSink = &NullSink;
        sink.candidate_completed(&CandidateEvent {
            index: 0,
            total: 1,
            outcome: CandidateOutcome::Ok,
            eval_us: 1.0,
            iteration_ms: Some(10.0),
        });
        sink.search_finished(&SearchTelemetry::default());
    }

    #[test]
    fn ticker_counts_restart_with_each_batch() {
        let ticker = StderrTicker::every(100);
        for _ in 0..2 {
            let lines: Vec<String> = (0..156)
                .filter_map(|index| {
                    ticker.tick(&CandidateEvent {
                        index,
                        total: 156,
                        outcome: match index % 3 {
                            0 => CandidateOutcome::OutOfMemory,
                            _ => CandidateOutcome::Ok,
                        },
                        eval_us: 1.0,
                        iteration_ms: None,
                    })
                })
                .collect();
            assert_eq!(
                lines,
                [
                    "[search] 100/156 candidates evaluated (66 ok)",
                    "[search] 156/156 candidates evaluated (104 ok)",
                ]
            );
            ticker.search_finished(&SearchTelemetry::default());
        }
    }

    #[test]
    fn elapsed_summary_records_and_totals() {
        let mut s = ElapsedSummary::new();
        let v = s.run("one", || 42);
        assert_eq!(v, 42);
        s.run("two", || ());
        assert_eq!(s.rows.len(), 2);
        let table = s.table();
        assert!(table.contains("one") && table.contains("total"));
    }
}
