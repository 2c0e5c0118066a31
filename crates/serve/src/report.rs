//! The [`LoadReport`]: everything a load run reports — per-request
//! outcomes, TTFT/TPOT percentiles, queue statistics, and goodput.
//!
//! Reports are derived purely from the integer-time [`LoadTrace`], so
//! the event-driven and per-token simulation modes produce byte-equal
//! reports (asserted by `tests/serve_load_invariants.rs`).

use madmax_core::steady::grid_seconds;
use madmax_hw::units::Seconds;
use serde::Serialize;

use crate::trace::LoadTrace;

/// Latency summary of one metric across requests (nearest-rank
/// percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Percentiles {
    /// Median.
    pub p50: Seconds,
    /// 95th percentile.
    pub p95: Seconds,
    /// 99th percentile.
    pub p99: Seconds,
    /// Arithmetic mean.
    pub mean: Seconds,
    /// Maximum.
    pub max: Seconds,
    /// Samples summarized.
    pub count: usize,
}

impl Percentiles {
    /// Summarizes a set of grid-unit samples; `None` when empty.
    fn from_units(mut samples: Vec<i64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        // Nearest-rank: the smallest sample with at least q*n samples at
        // or below it.
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        let sum: i128 = samples.iter().map(|s| i128::from(*s)).sum();
        Some(Percentiles {
            p50: grid_seconds(rank(0.50)),
            p95: grid_seconds(rank(0.95)),
            p99: grid_seconds(rank(0.99)),
            mean: Seconds::new(sum as f64 / n as f64 * grid_seconds(1).as_secs()),
            max: grid_seconds(samples[n - 1]),
            count: n,
        })
    }
}

/// Per-request outcome row of a [`LoadReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RequestOutcome {
    /// Request id (arrival order).
    pub id: u32,
    /// Arrival time.
    pub arrival: Seconds,
    /// Time to first token (arrival -> end of first prefill), if the
    /// request produced one.
    pub ttft: Option<Seconds>,
    /// Time per output token after the first (completion - first token)
    /// / decode_len, for completed requests.
    pub tpot: Option<Seconds>,
    /// Output tokens produced (first token + decode tokens); partial for
    /// requests still in flight at the horizon.
    pub output_tokens: u64,
    /// Whether the request completed.
    pub completed: bool,
    /// Whether the request was rejected.
    pub rejected: bool,
    /// Times the request was evicted.
    pub evictions: u32,
    /// Fault interruptions the request survived.
    pub retries: u32,
    /// Whether the request was dropped by a fault (retry budget
    /// exhausted or timeout exceeded).
    pub failed: bool,
}

/// Aggregate report of one load run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LoadReport {
    /// Requests that arrived (including rejected ones).
    pub arrivals: usize,
    /// Requests ever admitted.
    pub admitted: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests rejected at arrival.
    pub rejected: usize,
    /// Requests still queued when the run ended.
    pub queued_at_end: usize,
    /// Requests still decoding when the run ended.
    pub in_flight_at_end: usize,
    /// Requests dropped by faults (retry budget exhausted or timeout).
    pub failed: usize,
    /// Total fault-interruption retries across requests.
    pub retries: u64,
    /// Fraction of the makespan with no fault window open (capacity
    /// whole, no slowdown): `1.0` for fault-free runs.
    pub availability: f64,
    /// Total evictions across requests.
    pub evictions: u64,
    /// End of the run.
    pub makespan: Seconds,
    /// TTFT percentiles over requests that produced a first token.
    pub ttft: Option<Percentiles>,
    /// TPOT percentiles over completed requests.
    pub tpot: Option<Percentiles>,
    /// Output tokens produced by completed requests.
    pub output_tokens: u64,
    /// Completed output tokens per second of makespan.
    pub tokens_per_sec: f64,
    /// Peak KV blocks allocated.
    pub peak_kv_blocks: u64,
    /// Deepest admission queue seen.
    pub max_queue_depth: u32,
    /// Time-weighted mean queue depth.
    pub mean_queue_depth: f64,
    /// Per-request outcomes, by id.
    pub requests: Vec<RequestOutcome>,
}

impl LoadReport {
    /// Derives the report from a run's trace.
    pub fn from_trace(trace: &LoadTrace) -> Self {
        let mut ttfts = Vec::new();
        let mut tpots = Vec::new();
        let mut requests = Vec::with_capacity(trace.records.len());
        let (mut admitted, mut completed, mut rejected, mut evictions) =
            (0usize, 0usize, 0usize, 0u64);
        let (mut failed, mut retries) = (0usize, 0u64);
        let mut output_tokens = 0u64;
        for rec in &trace.records {
            let ttft_u = rec.first_token.map(|t| t - rec.arrival);
            if let Some(u) = ttft_u {
                ttfts.push(u);
            }
            let mut tpot = None;
            let mut tokens = 0u64;
            if rec.admitted.is_some() {
                admitted += 1;
            }
            if rec.rejected.is_some() {
                rejected += 1;
            }
            evictions += u64::from(rec.evictions);
            retries += u64::from(rec.retries);
            if rec.failed.is_some() {
                failed += 1;
            }
            if rec.first_token.is_some() {
                // The prefill's token, plus whatever decoded.
                tokens = 1 + trace.steps_of(rec.id) as u64;
            }
            if let Some(done) = rec.completion {
                completed += 1;
                output_tokens += 1 + rec.decode_len;
                let per = (done - rec.first_token.expect("completed implies first token")) as f64
                    / rec.decode_len as f64;
                // TPOT percentiles rank in grid units (rounded); the
                // per-request row keeps the exact ratio.
                tpots.push(per.round() as i64);
                tpot = Some(Seconds::new(per * grid_seconds(1).as_secs()));
            }
            requests.push(RequestOutcome {
                id: rec.id,
                arrival: grid_seconds(rec.arrival),
                ttft: ttft_u.map(grid_seconds),
                tpot,
                output_tokens: tokens,
                completed: rec.completion.is_some(),
                rejected: rec.rejected.is_some(),
                evictions: rec.evictions,
                retries: rec.retries,
                failed: rec.failed.is_some(),
            });
        }
        let open = |r: &&crate::trace::RequestRecord| {
            r.admitted.is_some() && r.completion.is_none() && r.failed.is_none()
        };
        let in_flight_at_end = trace
            .records
            .iter()
            .filter(|r| open(r) && !requeued(trace, r.id))
            .count();
        let queued_at_end = trace.records.len() - rejected - admitted
            + trace
                .records
                .iter()
                .filter(|r| open(r) && requeued(trace, r.id))
                .count();
        let makespan = grid_seconds(trace.end);
        let secs = makespan.as_secs();
        let (max_q, mean_q) = queue_stats(trace);
        LoadReport {
            arrivals: trace.records.len(),
            admitted,
            completed,
            rejected,
            queued_at_end,
            in_flight_at_end,
            failed,
            retries,
            availability: availability(trace),
            evictions,
            makespan,
            ttft: Percentiles::from_units(ttfts),
            tpot: Percentiles::from_units(tpots),
            output_tokens,
            tokens_per_sec: if secs > 0.0 {
                output_tokens as f64 / secs
            } else {
                0.0
            },
            peak_kv_blocks: trace.peak_blocks,
            max_queue_depth: max_q,
            mean_queue_depth: mean_q,
            requests,
        }
    }

    /// Goodput under an SLO: completed output tokens per second counting
    /// only requests whose TTFT met `slo`.
    pub fn goodput_tokens_per_sec(&self, slo: Seconds) -> f64 {
        let secs = self.makespan.as_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests
            .iter()
            .filter(|r| r.completed && r.ttft.is_some_and(|t| t <= slo))
            .map(|r| r.output_tokens as f64)
            .sum::<f64>()
            / secs
    }

    /// Whether the run's p99 TTFT met `slo` (vacuously true when nothing
    /// produced a first token yet).
    pub fn meets_ttft_slo(&self, slo: Seconds) -> bool {
        self.ttft.is_none_or(|t| t.p99 <= slo)
    }

    /// SLO-violation windows: maximal runs of consecutive arrivals (in
    /// id order) that violated the TTFT `slo` — failed, or first token
    /// later than `slo` after arrival — reported as `(first arrival,
    /// last arrival)` spans. Requests with no verdict yet (queued or in
    /// flight at the horizon) do not open or extend a window.
    pub fn slo_violation_windows(&self, slo: Seconds) -> Vec<(Seconds, Seconds)> {
        let mut windows: Vec<(Seconds, Seconds)> = Vec::new();
        let mut open = false;
        for r in &self.requests {
            let verdict = if r.failed {
                Some(true)
            } else {
                r.ttft.map(|t| t > slo)
            };
            match verdict {
                Some(true) => {
                    if open {
                        windows.last_mut().expect("open window exists").1 = r.arrival;
                    } else {
                        windows.push((r.arrival, r.arrival));
                        open = true;
                    }
                }
                Some(false) => open = false,
                None => {}
            }
        }
        windows
    }
}

/// Fraction of the trace's makespan with no fault window open: the
/// complement of the union of fault spans, clipped to `[0, end]`.
fn availability(trace: &LoadTrace) -> f64 {
    if trace.faults.is_empty() || trace.end <= 0 {
        return 1.0;
    }
    // Spans are recorded in application order, so starts are monotone;
    // merge the union with one pass.
    let mut degraded: i128 = 0;
    let mut cover = 0i64;
    for f in &trace.faults {
        let start = f.start.max(cover);
        let end = f.end.min(trace.end);
        if end > start {
            degraded += i128::from(end - start);
        }
        cover = cover.max(end);
    }
    (1.0 - degraded as f64 / trace.end as f64).clamp(0.0, 1.0)
}

/// Whether an admitted, uncompleted request sits in the queue (evicted,
/// awaiting re-admission) rather than in flight: its last lifecycle
/// event is an eviction, i.e. it has no open residency span.
fn requeued(trace: &LoadTrace, id: u32) -> bool {
    !trace
        .residency
        .iter()
        .any(|s| s.request == id && s.end.is_none())
}

/// Max and time-weighted mean queue depth from the change events.
fn queue_stats(trace: &LoadTrace) -> (u32, f64) {
    let mut max = 0u32;
    let mut integral: i128 = 0;
    let mut last_t = 0i64;
    let mut last_d = 0u32;
    for &(t, d) in &trace.queue_depth {
        integral += i128::from(last_d) * i128::from(t - last_t);
        last_t = t;
        last_d = d;
        max = max.max(d);
    }
    integral += i128::from(last_d) * i128::from(trace.end - last_t);
    let mean = if trace.end > 0 {
        integral as f64 / trace.end as f64
    } else {
        0.0
    };
    (max, mean)
}
