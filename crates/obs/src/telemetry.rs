//! Search telemetry: what a design-space search did and where the time
//! went.
//!
//! `madmax_dse::Explorer` fills one [`SearchTelemetry`] per evaluation
//! batch and merges them across workload variants in `explore()`. The
//! counters come from three places:
//!
//! - **outcome counters** are tallied from each candidate's result as it
//!   completes (`candidates == ok + oom + unmappable + invalid` always
//!   reconciles — the counter-reconciliation tests pin this);
//! - **cache stats** are snapshots of the shared cost tables' relaxed
//!   atomic counters ([`madmax_core::CacheCounters`]), taken after the
//!   worker pool joins;
//! - **worker stats** and the **latency histogram** are accumulated
//!   worker-locally (no contention) and merged at join;
//! - **phase times** (table pricing, the bound pass, the first wave, the
//!   rest of the pool) are the driver's own wall-clock laps.

use std::sync::Mutex;

use madmax_core::counters::CacheStats;
use serde::{Serialize, Value};

/// Wall-clock and throughput of one worker thread of the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct WorkerStats {
    /// Worker index (0-based; a single-threaded run has one worker 0).
    pub worker: usize,
    /// Candidates this worker evaluated.
    pub candidates: u64,
    /// Wall-clock the worker spent evaluating, in milliseconds.
    pub busy_ms: f64,
}

/// A log2-bucketed histogram of per-candidate evaluation latencies in
/// microseconds: bucket `i` counts evaluations with
/// `2^i <= latency_us < 2^(i+1)` (bucket 0 covers everything below 2µs).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LatencyHistogram {
    /// Per-bucket counts (index = floor(log2(latency_us)), clamped to 0).
    pub buckets: Vec<u64>,
    /// Total evaluations recorded.
    pub count: u64,
    /// Sum of all recorded latencies, in microseconds.
    pub total_us: f64,
    /// Largest recorded latency, in microseconds.
    pub max_us: f64,
}

impl LatencyHistogram {
    /// Records one evaluation latency.
    pub fn record(&mut self, latency_us: f64) {
        let idx = (latency_us as u64).max(1).ilog2() as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_us += latency_us;
        self.max_us = self.max_us.max(latency_us);
    }

    /// Accumulates another histogram into this one.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Everything one search run reports about itself. See the module docs
/// for who fills which field.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SearchTelemetry {
    /// Candidates considered (including ones the explorer resolved
    /// without a fresh evaluation, e.g. baseline-identical plans).
    pub candidates: u64,
    /// Candidates that passed every feasibility check: the ones that
    /// produced a report plus the [`SearchTelemetry::pruned`] ones.
    pub ok: u64,
    /// Feasible candidates `Explorer::explore` or
    /// `Explorer::explore_goodput` skipped without simulating because
    /// their iteration-time lower bound proves they cannot beat the
    /// incumbent (for the goodput search, neither of its two incumbents):
    /// the best of the baseline, the earlier workload variants and a fixed
    /// first wave of the most promising candidates. Counted in `ok`; their
    /// progress events carry no `iteration_ms`. The same at any thread
    /// count; zero for every other search.
    pub pruned: u64,
    /// The [`SearchTelemetry::pruned`] candidates `Explorer::explore`
    /// resolved by a family bound: pipelined candidates sharing a depth,
    /// microbatch count, schedule and dominant-class strategy, ruled out
    /// together by one floor on their bounds before any member's stages
    /// were summed or walked. A subset of `pruned`; the same at any
    /// thread count.
    pub family_pruned: u64,
    /// Candidates the search's step ran on (simulated, or for the load
    /// search priced and simulated): every candidate that was neither
    /// pruned, ruled out by its feasibility check, nor resolved without a
    /// fresh evaluation. The same at any thread count.
    pub simulated: u64,
    /// Candidates rejected for device memory.
    pub oom: u64,
    /// Candidates whose pipeline depth cannot partition the model or map
    /// onto the cluster.
    pub unmappable: u64,
    /// Candidates rejected as otherwise invalid plans.
    pub invalid: u64,
    /// Flat `CostTable` price-vs-reuse snapshot (one event per
    /// (candidate, layer class) ensured).
    pub flat_cache: CacheStats,
    /// `PipelineCostTable` price-vs-reuse snapshot: one hit per feasible
    /// pipelined candidate whose (depth, assignment, microbatches) key was
    /// already registered, one miss per key whose stage costs were summed
    /// (a family pruned whole sums none).
    pub pipeline_cache: CacheStats,
    /// Shared report-memo snapshot (one event per pipelined evaluation of
    /// a workload without a backward pass; hits are reports served
    /// without re-assembly, across all workers; training records none).
    pub report_memo: CacheStats,
    /// Closed-form steady-state serve snapshot (one hit per report
    /// synthesized analytically by `madmax_core::steady`, one miss per
    /// serve candidate simulated in full), summed over the flat and
    /// pipeline tables.
    pub steady_analytic: CacheStats,
    /// Per-worker wall-clock and throughput, ordered by worker index.
    pub workers: Vec<WorkerStats>,
    /// Per-candidate evaluation-latency histogram.
    pub eval_latency: LatencyHistogram,
    /// End-to-end wall-clock of the search, in milliseconds.
    pub wall_ms: f64,
    /// Wall-clock the driver spent pricing the shared tables (flat,
    /// pipeline or load-probe) before any candidate ran, in milliseconds.
    pub price_ms: f64,
    /// Wall-clock of the branch-and-bound's bound pass (every
    /// candidate's optimistic scores), in milliseconds; zero for an
    /// objective that does not prune.
    pub bound_ms: f64,
    /// Wall-clock of the branch-and-bound's first wave, in milliseconds;
    /// zero for an objective that does not prune.
    pub first_wave_ms: f64,
    /// Wall-clock of the rest of the pool (every candidate of an
    /// objective that does not prune), in milliseconds. The four phases
    /// add up to at most `wall_ms`.
    pub rest_ms: f64,
    /// Error-severity diagnostics the verifier found on winner schedules
    /// (zero unless the explorer's verify option is on; any nonzero value
    /// means an engine invariant broke).
    pub verify_errors: u64,
    /// Warn-severity diagnostics (e.g. mostly-idle compute streams) on
    /// winner schedules.
    pub verify_warnings: u64,
    /// Closed-form goodput evaluations executed (zero outside
    /// failure-aware searches).
    pub goodput_evals: u64,
    /// Fault events materialized or injected into simulations.
    pub fault_events: u64,
}

impl SearchTelemetry {
    /// Whether the outcome counters reconcile with the candidate count
    /// (`candidates == ok + oom + unmappable + invalid`), family-pruned
    /// candidates are among the pruned ones, and no candidate is both
    /// pruned and simulated (`simulated + pruned <= candidates`).
    pub fn reconciles(&self) -> bool {
        self.candidates == self.ok + self.oom + self.unmappable + self.invalid
            && self.family_pruned <= self.pruned
            && self.simulated + self.pruned <= self.candidates
    }

    /// Accumulates another run's telemetry (e.g. one workload variant of
    /// a serve sweep) into this one. Worker stats are merged by index;
    /// `wall_ms` adds up (variants run sequentially).
    pub fn absorb(&mut self, other: &SearchTelemetry) {
        self.candidates += other.candidates;
        self.ok += other.ok;
        self.pruned += other.pruned;
        self.family_pruned += other.family_pruned;
        self.simulated += other.simulated;
        self.oom += other.oom;
        self.unmappable += other.unmappable;
        self.invalid += other.invalid;
        self.flat_cache.absorb(other.flat_cache);
        self.pipeline_cache.absorb(other.pipeline_cache);
        self.report_memo.absorb(other.report_memo);
        self.steady_analytic.absorb(other.steady_analytic);
        for w in &other.workers {
            match self.workers.iter_mut().find(|m| m.worker == w.worker) {
                Some(m) => {
                    m.candidates += w.candidates;
                    m.busy_ms += w.busy_ms;
                }
                None => self.workers.push(*w),
            }
        }
        self.workers.sort_by_key(|w| w.worker);
        self.eval_latency.absorb(&other.eval_latency);
        self.wall_ms += other.wall_ms;
        self.price_ms += other.price_ms;
        self.bound_ms += other.bound_ms;
        self.first_wave_ms += other.first_wave_ms;
        self.rest_ms += other.rest_ms;
        self.verify_errors += other.verify_errors;
        self.verify_warnings += other.verify_warnings;
        self.goodput_evals += other.goodput_evals;
        self.fault_events += other.fault_events;
    }

    /// One-line human summary (the stderr ticker's final line).
    pub fn summary(&self) -> String {
        let rate = |s: CacheStats| match s.hit_rate() {
            Some(r) => format!("{:.0}%", r * 100.0),
            None => "-".to_owned(),
        };
        let mut line = format!(
            "{} candidates in {:.0} ms ({} ok of which {} pruned ({} by a family bound), \
             {} simulated, {} oom, {} unmappable, {} invalid); \
             cache hit rates: flat {}, pipeline {}, memo {}",
            self.candidates,
            self.wall_ms,
            self.ok,
            self.pruned,
            self.family_pruned,
            self.simulated,
            self.oom,
            self.unmappable,
            self.invalid,
            rate(self.flat_cache),
            rate(self.pipeline_cache),
            rate(self.report_memo),
        );
        if self.verify_errors > 0 || self.verify_warnings > 0 {
            line.push_str(&format!(
                "; verify: {} errors, {} warnings",
                self.verify_errors, self.verify_warnings
            ));
        }
        if self.goodput_evals > 0 || self.fault_events > 0 {
            line.push_str(&format!(
                "; faults: {} goodput evals, {} fault events",
                self.goodput_evals, self.fault_events
            ));
        }
        line.push_str(&format!(
            "; phases: price {:.1} ms, bound {:.1} ms, first wave {:.1} ms, rest {:.1} ms",
            self.price_ms, self.bound_ms, self.first_wave_ms, self.rest_ms
        ));
        line
    }
}

/// A named collection of telemetry reports, accumulated across the
/// searches of one experiment run (thread-safe: `run_all`'s experiments
/// record from wherever their searches execute) and written as one JSON
/// document.
#[derive(Debug, Default)]
pub struct TelemetrySpool {
    entries: Mutex<Vec<(String, SearchTelemetry)>>,
}

impl TelemetrySpool {
    /// An empty spool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one search's telemetry under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the spool's lock was poisoned.
    pub fn record(&self, name: &str, telemetry: &SearchTelemetry) {
        self.entries
            .lock()
            .unwrap()
            .push((name.to_owned(), telemetry.clone()));
    }

    /// Snapshot of everything recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if the spool's lock was poisoned.
    pub(crate) fn entries(&self) -> Vec<(String, SearchTelemetry)> {
        self.entries.lock().unwrap().clone()
    }

    /// Renders the spool as a JSON array of `{name, telemetry}` objects.
    pub(crate) fn to_json_string(&self) -> String {
        let entries = self.entries();
        let seq: Vec<Value> = entries
            .iter()
            .map(|(name, t)| {
                Value::Map(vec![
                    ("name".to_owned(), Value::Str(name.clone())),
                    ("telemetry".to_owned(), t.to_value()),
                ])
            })
            .collect();
        serde_json::to_string_pretty(&Value::Seq(seq)).expect("telemetry serializes")
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHistogram::default();
        h.record(0.5); // bucket 0
        h.record(3.0); // bucket 1
        h.record(1000.0); // bucket 9
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[9], 1);
        assert!((h.total_us - 1003.5).abs() < 1e-9);
        assert_eq!(h.max_us, 1000.0);
    }

    #[test]
    fn telemetry_absorb_merges_workers_by_index() {
        let mut a = SearchTelemetry {
            candidates: 4,
            ok: 3,
            pruned: 1,
            simulated: 2,
            oom: 1,
            workers: vec![WorkerStats {
                worker: 0,
                candidates: 4,
                busy_ms: 2.0,
            }],
            ..Default::default()
        };
        let b = SearchTelemetry {
            candidates: 2,
            ok: 2,
            pruned: 2,
            family_pruned: 1,
            workers: vec![
                WorkerStats {
                    worker: 0,
                    candidates: 1,
                    busy_ms: 1.0,
                },
                WorkerStats {
                    worker: 1,
                    candidates: 1,
                    busy_ms: 1.0,
                },
            ],
            verify_warnings: 3,
            goodput_evals: 2,
            fault_events: 5,
            bound_ms: 0.5,
            rest_ms: 2.0,
            ..Default::default()
        };
        a.bound_ms = 1.0;
        a.absorb(&b);
        assert_eq!((a.bound_ms, a.rest_ms), (1.5, 2.0));
        assert!(a
            .summary()
            .ends_with("; phases: price 0.0 ms, bound 1.5 ms, first wave 0.0 ms, rest 2.0 ms"));
        assert_eq!(a.candidates, 6);
        assert!(a.reconciles());
        assert_eq!(a.workers.len(), 2);
        assert_eq!(a.workers[0].candidates, 5);
        assert!((a.workers[0].busy_ms - 3.0).abs() < 1e-12);
        assert_eq!(a.verify_warnings, 3);
        assert_eq!(a.goodput_evals, 2);
        assert_eq!(a.fault_events, 5);
        assert_eq!(a.pruned, 3);
        assert_eq!((a.family_pruned, a.simulated), (1, 2));
        assert!(a
            .summary()
            .contains("5 ok of which 3 pruned (1 by a family bound), 2 simulated"));
        // A family-pruned candidate is a pruned one, and a pruned
        // candidate is not simulated.
        assert!(!SearchTelemetry {
            family_pruned: 4,
            ..a.clone()
        }
        .reconciles());
        assert!(!SearchTelemetry {
            simulated: 4,
            ..a.clone()
        }
        .reconciles());
        assert!(a.summary().contains("verify: 0 errors, 3 warnings"));
        assert!(a.summary().contains("2 goodput evals, 5 fault events"));
        assert!(!SearchTelemetry::default().summary().contains("verify:"));
        assert!(!SearchTelemetry::default().summary().contains("faults:"));
    }

    #[test]
    fn telemetry_serde_round_trip() {
        let mut t = SearchTelemetry {
            candidates: 10,
            ok: 8,
            oom: 1,
            invalid: 1,
            flat_cache: CacheStats {
                hits: 36,
                misses: 4,
            },
            wall_ms: 12.5,
            pruned: 3,
            family_pruned: 2,
            simulated: 5,
            ..Default::default()
        };
        t.eval_latency.record(100.0);
        let js = serde_json::parse_value(&serde_json::to_string(&t).unwrap()).unwrap();
        let m = js.as_map().unwrap();
        let field = |k: &str| serde::field(m, k).unwrap();
        assert_eq!(field("candidates").as_u64(), Some(10));
        assert_eq!(field("ok").as_u64(), Some(8));
        assert_eq!(field("wall_ms").as_f64(), Some(12.5));
        assert_eq!(field("pruned").as_u64(), Some(3));
        assert_eq!(field("family_pruned").as_u64(), Some(2));
        assert_eq!(field("simulated").as_u64(), Some(5));
        let flat = field("flat_cache").as_map().unwrap();
        assert_eq!(serde::field(flat, "hits").unwrap().as_u64(), Some(36));
        assert_eq!(serde::field(flat, "misses").unwrap().as_u64(), Some(4));
        let latency = field("eval_latency").as_map().unwrap();
        assert_eq!(serde::field(latency, "count").unwrap().as_u64(), Some(1));
        assert_eq!(
            serde::field(latency, "max_us").unwrap().as_f64(),
            Some(100.0)
        );
        assert_eq!(field("workers").as_seq().map(Vec::len), Some(0));
    }

    #[test]
    fn spool_renders_named_entries() {
        let spool = TelemetrySpool::new();
        spool.record("fig10/llama", &SearchTelemetry::default());
        let js = spool.to_json_string();
        assert!(js.contains("fig10/llama"));
        let parsed = serde_json::parse_value(&js).unwrap();
        assert_eq!(parsed.as_seq().unwrap().len(), 1);
    }
}
