//! The continuous-batching load simulator: one integer-time loop, two
//! execution modes.
//!
//! ## The loop
//!
//! A single serialized engine (the priced deployment) alternates between
//! prefills and batched decode steps. Each iteration performs exactly
//! one action, in fixed priority order:
//!
//! 1. stop at the horizon;
//! 2. ingest arrivals due by `now` (rejecting on queue overflow or
//!    infeasible KV footprints);
//! 3. admit the queue head if a slot and its KV blocks are available —
//!    admission runs the request's prefill (first token at its end);
//! 4. otherwise run decode steps over the in-flight set;
//! 5. otherwise (idle) jump the clock to the next arrival.
//!
//! ## Event mode vs per-token mode
//!
//! Between events the in-flight set is stable, so every decode step
//! costs `c + r*k` grid units (`r` = KV growth rate x batch). The
//! **event mode** advances a whole run of steps with one closed-form
//! series sum, bounding the run length by the next completion (smallest
//! remaining token count), the next arrival and the horizon (integer
//! binary search via `first_series_crossing`), and — under a paged KV
//! budget — the first step whose cache growth exceeds the free blocks.
//! The **per-token mode** caps every run at one step. Both modes
//! execute the identical integer recurrence at the identical decision
//! boundaries, so their per-request records and [`LoadReport`]s are
//! byte-identical; the event mode is purely a wall-clock optimization.
//!
//! ## Paged KV and eviction
//!
//! Without eviction, admission reserves a request's worst-case block
//! count (prompt + decode tokens), so running requests never stall.
//! With eviction, admission is optimistic — blocks for the prefilled
//! context, plus a watermark of one growth block per in-flight request
//! — and a decode step that cannot grow its caches evicts the youngest
//! request (blocks freed, re-queued at the front, prefill recomputed
//! over prompt + generated tokens on re-admission). The watermark
//! guarantees at least one decode step between a request's admission and
//! any eviction, so every episode makes progress and the run terminates.
//!
//! ## The load bound
//!
//! [`load_bound`] bounds what a fault-free simulation can report without
//! running it, from the arrivals and a floor on every request's prefill.
//! The engine runs one action at a time, and ingests an arrival only once
//! `now` reaches it. Fresh admissions leave the queue in arrival order: an
//! evicted request re-enters at the front, which only delays later ones,
//! and only a fresh admission stamps a first token. So request `i`'s first
//! token comes no earlier than `L_i = max(L_{i-1}, a_i) + floor` (a FIFO
//! queueing, or Lindley, recursion), its TTFT is at least `L_i - a_i`, and
//! the run ends no earlier than `L_last + 1`: the last request still owes
//! a decode step of at least one grid unit. When nothing can be rejected
//! or cut off, every request completes, so the output token count is
//! exact, and the nearest-rank p99 is monotone in every sample.

use std::collections::VecDeque;

use madmax_core::steady::{
    affine_series_units, first_series_crossing, grid_seconds, grid_units_round, MAX_UNITS,
};
use madmax_fault::{FaultEvent, FaultKind, RetryPolicy};
use madmax_hw::units::Seconds;
use madmax_model::ModelArch;
use madmax_parallel::{LoadSpec, ServeConfig};

use crate::arrival::{materialize_arrivals, ArrivalEvent};
use crate::cost::StepCostModel;
use crate::kv::KvPager;
use crate::report::{nearest_rank, LoadReport};
use crate::trace::{
    FaultSpan, LoadTrace, PrefillRun, RejectReason, RequestRecord, ResidencySpan, StepRun, StepSeq,
};
use crate::LoadError;

/// Queue-depth events recorded before the timeline stops sampling.
const QUEUE_DEPTH_CAP: usize = 16_384;

/// How the simulator advances decode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Closed-form runs between events (the fast path).
    Event,
    /// One decode step at a time (the reference the event mode is
    /// validated against).
    PerToken,
}

/// Work counters of one simulation (mode-dependent; excluded from the
/// byte-identity contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Decode-run actions executed.
    pub decode_runs: u64,
    /// Decode steps executed (sum of run lengths).
    pub decode_steps: u64,
    /// Longest single run, in steps.
    pub max_run: u64,
    /// Evictions performed.
    pub evictions: u64,
}

/// Everything one load simulation produces.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// The aggregate + per-request report (mode-independent).
    pub report: LoadReport,
    /// The integer-time ledger (structurally mode-dependent).
    pub trace: LoadTrace,
    /// Work counters (mode-dependent).
    pub counters: SimCounters,
}

/// A queued request (fresh, evicted, or fault-interrupted awaiting
/// re-admission).
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u32,
    /// Context tokens to prefill (prompt, plus generated tokens on a
    /// resume).
    ctx: u64,
    /// Decode steps still owed.
    remaining: i64,
    resumed: bool,
    /// Earliest re-admission time (retry backoff), grid units.
    eligible_at: i64,
}

/// An in-flight request.
#[derive(Debug, Clone, Copy)]
struct Flight {
    id: u32,
    /// Resident KV tokens (context + generated so far).
    kv: i64,
    /// Decode steps still owed.
    remaining: i64,
    /// Worst-case tokens this request will ever cache (for reserve-mode
    /// accounting).
    max_tokens: u64,
    /// KV blocks currently allocated.
    blocks: u64,
    /// Index of its open residency span.
    span: usize,
}

struct Sim<'a, 'h> {
    costs: &'a StepCostModel,
    hook: Option<&'h mut dyn FnMut(&RequestRecord)>,
    mode: SimMode,
    eviction: bool,
    queue_capacity: Option<usize>,
    horizon: Option<i64>,
    arrivals: &'a [ArrivalEvent],
    next_arrival: usize,
    faults: &'a [FaultEvent],
    next_fault: usize,
    /// Fault windows currently open (`until > now`).
    active: Vec<FaultEvent>,
    retry: RetryPolicy,
    /// Retry backoff, grid units.
    backoff_units: i64,
    /// Retry timeout, grid units.
    timeout_units: Option<i64>,
    now: i64,
    queue: VecDeque<Pending>,
    inflight: Vec<Flight>,
    pager: KvPager,
    trace: LoadTrace,
    counters: SimCounters,
}

impl Sim<'_, '_> {
    fn advance(&mut self, delta: i64) -> Result<(), LoadError> {
        self.now = self
            .now
            .checked_add(delta)
            .filter(|t| *t < MAX_UNITS)
            .ok_or_else(|| {
                LoadError::GridRange("simulated clock beyond 2^52 grid units".to_owned())
            })?;
        Ok(())
    }

    fn note_queue_depth(&mut self) {
        if self.trace.queue_depth.len() >= QUEUE_DEPTH_CAP {
            self.trace.queue_depth_truncated = true;
            return;
        }
        self.trace
            .queue_depth
            .push((self.now, self.queue.len() as u32));
    }

    /// Ingests every arrival due by `now`. Returns whether anything
    /// changed.
    fn ingest(&mut self) -> bool {
        let mut changed = false;
        while let Some(a) = self.arrivals.get(self.next_arrival) {
            if a.at > self.now {
                break;
            }
            let id = self.next_arrival as u32;
            self.next_arrival += 1;
            changed = true;
            let worst = a.prompt_len as u64 + a.decode_len as u64;
            if !self.pager.fits_alone(worst) {
                self.trace.records[id as usize].rejected = Some(RejectReason::Infeasible);
                continue;
            }
            if self
                .queue_capacity
                .is_some_and(|cap| self.queue.len() >= cap)
            {
                self.trace.records[id as usize].rejected = Some(RejectReason::QueueFull);
                continue;
            }
            self.queue.push_back(Pending {
                id,
                ctx: a.prompt_len as u64,
                remaining: a.decode_len as i64,
                resumed: false,
                eligible_at: a.at,
            });
            self.note_queue_depth();
        }
        changed
    }

    /// Decode slots usable right now: the priced slot count minus the
    /// capacity drained by open fault windows.
    fn effective_slots(&self) -> usize {
        let lost: usize = self.active.iter().map(|f| f.slots_lost).sum();
        self.costs.slots.saturating_sub(lost)
    }

    /// Step-cost multiplier of the open fault windows, percent (`100`
    /// when none is open; overlapping windows take the worst factor).
    fn slowdown_pct(&self) -> i64 {
        self.active
            .iter()
            .map(|f| i64::from(f.slowdown_pct))
            .max()
            .unwrap_or(100)
            .max(100)
    }

    /// Scales a grid cost by the open windows' slowdown factor (exact
    /// identity at 100%).
    fn slowed(&self, units: i64) -> i64 {
        let pct = self.slowdown_pct();
        (units * pct + 99) / 100
    }

    /// Interrupts the youngest in-flight request: frees its blocks and
    /// either re-queues it at the front (consuming one retry) or fails
    /// it (budget exhausted / timeout exceeded). Returns its id.
    fn interrupt_youngest(&mut self) -> u32 {
        let f = self.inflight.pop().expect("interruption needs a flight");
        self.pager.release(f.blocks);
        let span = &mut self.trace.residency[f.span];
        span.end = Some(self.now);
        span.blocks = f.blocks;
        let now = self.now;
        let rec = &mut self.trace.records[f.id as usize];
        let timed_out = self.timeout_units.is_some_and(|t| now - rec.arrival > t);
        if rec.retries >= self.retry.max_retries || timed_out {
            rec.failed = Some(now);
            return f.id;
        }
        rec.retries += 1;
        self.queue.push_front(Pending {
            id: f.id,
            ctx: f.kv as u64,
            remaining: f.remaining,
            resumed: true,
            eligible_at: now.saturating_add(self.backoff_units),
        });
        self.note_queue_depth();
        f.id
    }

    /// Applies every fault event due by `now`: expires closed windows,
    /// opens new ones (interrupting in-flight work on lost slots for
    /// fatal and maintenance windows), and records the spans. Overshoot
    /// past the event time is possible when it lands inside an atomic
    /// prefill; the recorded span starts at the application time.
    fn apply_faults(&mut self) {
        self.active.retain(|f| f.until > self.now);
        while let Some(f) = self.faults.get(self.next_fault) {
            if f.at > self.now {
                break;
            }
            let f = *f;
            self.next_fault += 1;
            let mut interrupted = Vec::new();
            if matches!(f.kind, FaultKind::Fatal | FaultKind::Maintenance) {
                let victims = f.slots_lost.min(self.inflight.len());
                for _ in 0..victims {
                    interrupted.push(self.interrupt_youngest());
                }
            }
            if f.until > self.now {
                self.active.push(f);
            }
            self.trace.faults.push(FaultSpan {
                start: self.now,
                end: f.until.max(self.now),
                kind: f.kind,
                slots_lost: f.slots_lost,
                slowdown_pct: f.slowdown_pct,
                interrupted,
            });
        }
    }

    /// Blocks the queue head needs admitted *now* (reserve: worst case;
    /// eviction: the prefilled context).
    fn admission_blocks(&self, head: &Pending) -> u64 {
        if self.eviction {
            self.pager.blocks_for(head.ctx)
        } else {
            self.pager.blocks_for(head.ctx + head.remaining as u64)
        }
    }

    /// Whether the queue head can be admitted.
    fn can_admit(&self) -> bool {
        let Some(head) = self.queue.front() else {
            return false;
        };
        if head.eligible_at > self.now {
            return false;
        }
        if self.inflight.len() >= self.effective_slots() {
            return false;
        }
        if self.eviction {
            // Watermark: context + next token, plus one growth block per
            // in-flight request, so the next decode step cannot evict a
            // zero-progress admission.
            let need = self.pager.blocks_for(head.ctx + 1) + self.inflight.len() as u64;
            self.pager.free() >= need
        } else {
            self.pager.free() >= self.admission_blocks(head)
        }
    }

    /// Admits the queue head: allocates its blocks, runs its prefill,
    /// stamps first-token on a fresh admission.
    fn admit(&mut self) -> Result<(), LoadError> {
        let head = self.queue.pop_front().expect("checked by can_admit");
        self.note_queue_depth();
        let blocks = self.admission_blocks(&head);
        assert!(self.pager.try_alloc(blocks), "checked by can_admit");
        let start = self.now;
        let prefill = self.slowed(self.costs.prefill_units(head.ctx)?);
        self.advance(prefill)?;
        let rec = &mut self.trace.records[head.id as usize];
        if !head.resumed {
            rec.admitted = Some(start);
            rec.first_token = Some(self.now);
        }
        self.trace.prefills.push(PrefillRun {
            request: head.id,
            start,
            end: self.now,
            ctx_tokens: head.ctx as usize,
            resumed: head.resumed,
        });
        let span = self.trace.residency.len();
        self.trace.residency.push(ResidencySpan {
            request: head.id,
            start,
            end: None,
            blocks,
        });
        let rec = &self.trace.records[head.id as usize];
        self.inflight.push(Flight {
            id: head.id,
            kv: head.ctx as i64,
            remaining: head.remaining,
            max_tokens: rec.prompt_len as u64 + rec.decode_len,
            blocks,
            span,
        });
        Ok(())
    }

    /// Evicts the youngest in-flight request: frees its blocks and
    /// re-queues it at the front for a recomputed prefill.
    fn evict_youngest(&mut self) {
        let f = self.inflight.pop().expect("eviction needs a flight");
        self.pager.release(f.blocks);
        let span = &mut self.trace.residency[f.span];
        span.end = Some(self.now);
        span.blocks = f.blocks;
        self.trace.records[f.id as usize].evictions += 1;
        self.counters.evictions += 1;
        self.queue.push_front(Pending {
            id: f.id,
            ctx: f.kv as u64,
            remaining: f.remaining,
            resumed: true,
            eligible_at: self.now,
        });
        self.note_queue_depth();
    }

    /// Total block growth the in-flight set needs to run `j` more steps.
    fn growth_demand(&self, j: i64) -> u64 {
        self.inflight
            .iter()
            .map(|f| {
                let need = if self.eviction {
                    self.pager.blocks_for((f.kv + j) as u64)
                } else {
                    // Reserve mode pre-allocated the worst case.
                    self.pager.blocks_for(f.max_tokens)
                };
                need.saturating_sub(f.blocks)
            })
            .sum()
    }

    /// Runs decode steps over the in-flight set — the per-mode core.
    /// Returns `false` when a block shortage forced an eviction instead
    /// (the outer loop re-enters).
    fn decode_run(&mut self) -> Result<bool, LoadError> {
        let batch = self.inflight.len() as u64;
        let kv_total: i64 = self.inflight.iter().map(|f| f.kv).sum();
        // Open slowdown windows scale both coefficients; at 100% the
        // scaling is the identity, so fault-free runs are untouched.
        let c = self.slowed(self.costs.step_units(batch, kv_total)?);
        let r = self.slowed(self.costs.step_rate * batch as i64);

        // Run length: next completion, capped to one step in per-token
        // mode.
        let mut n = self
            .inflight
            .iter()
            .map(|f| f.remaining)
            .min()
            .expect("decode_run needs flights");
        if self.mode == SimMode::PerToken {
            n = n.min(1);
        }
        // Next arrival and horizon: stop at the first step whose end
        // reaches them (the per-token loop would ingest/stop there).
        if let Some(a) = self.arrivals.get(self.next_arrival) {
            debug_assert!(a.at > self.now, "due arrivals are ingested first");
            if let Some(k) = first_series_crossing(c, r, 0, n, a.at - self.now) {
                n = k;
            }
        }
        if let Some(h) = self.horizon {
            debug_assert!(h > self.now, "the loop stops at the horizon");
            if let Some(k) = first_series_crossing(c, r, 0, n, h - self.now) {
                n = k;
            }
        }
        // Fault boundaries: the next fault event, the close of any open
        // window (capacity/slowdown change), and the queue head's retry
        // eligibility are all decision points the per-token loop would
        // stop at.
        if let Some(f) = self.faults.get(self.next_fault) {
            debug_assert!(f.at > self.now, "due faults are applied first");
            if let Some(k) = first_series_crossing(c, r, 0, n, f.at - self.now) {
                n = k;
            }
        }
        if let Some(u) = self.active.iter().map(|f| f.until).min() {
            debug_assert!(u > self.now, "closed windows are expired first");
            if let Some(k) = first_series_crossing(c, r, 0, n, u - self.now) {
                n = k;
            }
        }
        if let Some(head) = self.queue.front() {
            if head.eligible_at > self.now {
                if let Some(k) = first_series_crossing(c, r, 0, n, head.eligible_at - self.now) {
                    n = k;
                }
            }
        }
        // Paged budget: largest prefix of the run whose cache growth
        // fits the free blocks.
        if self.pager.total().is_some() && self.growth_demand(n) > self.pager.free() {
            let (mut lo, mut hi) = (0i64, n);
            while lo < hi {
                let mid = lo + (hi - lo + 1) / 2;
                if self.growth_demand(mid) <= self.pager.free() {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            n = lo;
            if n == 0 {
                debug_assert!(self.eviction, "reserve mode never runs short of blocks");
                self.evict_youngest();
                return Ok(false);
            }
        }

        let total = affine_series_units(c, r, 0, n).ok_or_else(|| {
            LoadError::GridRange(format!("decode run of {n} steps leaves the exact grid"))
        })?;
        let growth = self.growth_demand(n);
        assert!(self.pager.try_alloc(growth), "bounded by the binary search");
        let start = self.now;
        self.advance(total)?;
        let participants: Vec<StepSeq> = self
            .inflight
            .iter()
            .map(|f| StepSeq {
                request: f.id,
                kv_start: f.kv,
            })
            .collect();
        for f in &mut self.inflight {
            if self.eviction {
                f.blocks = f.blocks.max(self.pager.blocks_for((f.kv + n) as u64));
            }
            f.kv += n;
            f.remaining -= n;
        }
        self.trace.runs.push(StepRun {
            start,
            end: self.now,
            steps: n,
            participants,
            kv_total_start: kv_total,
            blocks_held: self.pager.used(),
        });
        self.counters.decode_runs += 1;
        self.counters.decode_steps += n as u64;
        self.counters.max_run = self.counters.max_run.max(n as u64);
        Ok(true)
    }

    /// Completes every flight that ran out of decode steps, in admission
    /// order.
    fn complete_finished(&mut self) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].remaining > 0 {
                i += 1;
                continue;
            }
            let f = self.inflight.remove(i);
            self.pager.release(f.blocks);
            let span = &mut self.trace.residency[f.span];
            span.end = Some(self.now);
            span.blocks = f.blocks;
            let rec = &mut self.trace.records[f.id as usize];
            rec.completion = Some(self.now);
            if let Some(h) = self.hook.as_deref_mut() {
                h(&self.trace.records[f.id as usize]);
            }
        }
    }
}

/// Executes a load spec against a priced deployment.
///
/// `costs` carries the slot count it was priced for; `spec` supplies the
/// arrival process, queue, paging, and horizon knobs; `serve` and
/// `model` resolve Poisson request shapes. `on_complete` (if given) is
/// invoked once per completed request, in completion order.
///
/// # Errors
///
/// [`LoadError::Spec`] for invalid specs, [`LoadError::GridRange`] when
/// the run leaves the exact integer grid, [`LoadError::Plan`] never
/// (pricing already happened).
pub fn simulate_load(
    spec: &LoadSpec,
    serve: &ServeConfig,
    model: &ModelArch,
    costs: &StepCostModel,
    mode: SimMode,
    on_complete: Option<&mut dyn FnMut(&RequestRecord)>,
) -> Result<LoadOutcome, LoadError> {
    simulate_load_faulty(
        spec,
        serve,
        model,
        costs,
        mode,
        &[],
        &RetryPolicy::default(),
        on_complete,
    )
}

/// Executes a load spec against a priced deployment under a fault-event
/// stream (see `madmax_fault::materialize_faults`).
///
/// When a **fatal** or **maintenance** window opens, the youngest
/// in-flight requests on the lost slots are interrupted: each
/// interruption consumes one retry of `retry` (re-queued at the front,
/// eligible after the backoff) or fails the request outright once the
/// budget or timeout is exhausted. Capacity stays degraded and
/// **transient** windows scale step costs until the window closes. With
/// an empty `faults` slice the run is byte-identical to
/// [`simulate_load`] (pinned by `tests/engine_equivalence.rs`).
///
/// # Errors
///
/// As [`simulate_load`], plus [`LoadError::Spec`] for an invalid retry
/// policy or an unsorted fault stream.
#[allow(clippy::too_many_arguments)]
pub fn simulate_load_faulty(
    spec: &LoadSpec,
    serve: &ServeConfig,
    model: &ModelArch,
    costs: &StepCostModel,
    mode: SimMode,
    faults: &[FaultEvent],
    retry: &RetryPolicy,
    on_complete: Option<&mut dyn FnMut(&RequestRecord)>,
) -> Result<LoadOutcome, LoadError> {
    spec.validate().map_err(LoadError::Spec)?;
    retry.validate().map_err(LoadError::Spec)?;
    if faults.windows(2).any(|w| w[0].at > w[1].at) {
        return Err(LoadError::Spec(
            "fault events must be sorted by start time".to_owned(),
        ));
    }
    if faults.iter().any(|f| f.at < 0 || f.until < f.at) {
        return Err(LoadError::Spec(
            "fault windows must have 0 <= at <= until".to_owned(),
        ));
    }
    let backoff_units = grid_units_round(Seconds::new(retry.backoff)).ok_or_else(|| {
        LoadError::GridRange(format!("retry backoff {} s off-grid", retry.backoff))
    })?;
    let timeout_units = match retry.timeout {
        Some(t) => Some(
            grid_units_round(Seconds::new(t))
                .ok_or_else(|| LoadError::GridRange(format!("retry timeout {t} s off-grid")))?,
        ),
        None => None,
    };
    let arrivals = materialize_arrivals(&spec.arrivals, serve, model)?;
    let horizon =
        match spec.horizon {
            Some(h) => Some(grid_units_round(Seconds::new(h)).ok_or_else(|| {
                LoadError::GridRange(format!("horizon {h} s beyond the exact grid"))
            })?),
            None => None,
        };
    let records = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| RequestRecord {
            id: i as u32,
            arrival: a.at,
            prompt_len: a.prompt_len,
            decode_len: a.decode_len as u64,
            admitted: None,
            first_token: None,
            completion: None,
            rejected: None,
            evictions: 0,
            retries: 0,
            failed: None,
        })
        .collect();
    let pager = KvPager::new(spec.block_tokens, spec.kv_blocks);
    let mut sim = Sim {
        costs,
        hook: on_complete,
        mode,
        eviction: spec.eviction && spec.kv_blocks.is_some(),
        queue_capacity: spec.queue_capacity,
        horizon,
        arrivals: &arrivals,
        next_arrival: 0,
        faults,
        next_fault: 0,
        active: Vec::new(),
        retry: *retry,
        backoff_units,
        timeout_units,
        now: 0,
        queue: VecDeque::new(),
        inflight: Vec::new(),
        pager,
        trace: LoadTrace {
            records,
            prefills: Vec::new(),
            runs: Vec::new(),
            residency: Vec::new(),
            queue_depth: Vec::new(),
            queue_depth_truncated: false,
            block_tokens: spec.block_tokens,
            total_blocks: spec.kv_blocks,
            peak_blocks: 0,
            end: 0,
            faults: Vec::new(),
            retry_limit: if faults.is_empty() {
                None
            } else {
                Some(retry.max_retries)
            },
            slots: costs.slots,
        },
        counters: SimCounters::default(),
    };

    loop {
        if sim.horizon.is_some_and(|h| sim.now >= h) {
            break;
        }
        sim.apply_faults();
        sim.ingest();
        if sim.can_admit() {
            sim.admit()?;
            continue;
        }
        if !sim.inflight.is_empty() {
            if sim.decode_run()? {
                sim.complete_finished();
            }
            continue;
        }
        if !sim.queue.is_empty() {
            // With faults in play an idle engine can hold an
            // unadmittable queue: the head is backing off, or open fault
            // windows drained the capacity. Jump to the next time
            // anything can change.
            let wakes = [
                sim.arrivals.get(sim.next_arrival).map(|a| a.at),
                sim.faults.get(sim.next_fault).map(|f| f.at),
                sim.active.iter().map(|f| f.until).min(),
                sim.queue
                    .front()
                    .map(|h| h.eligible_at)
                    .filter(|&t| t > sim.now),
            ];
            if let Some(t) = wakes.into_iter().flatten().min().filter(|&t| t > sim.now) {
                sim.now = t;
                continue;
            }
            // Unreachable by construction (a fault-free empty engine can
            // always admit a feasible head); kept as a defensive
            // livelock breaker.
            debug_assert!(false, "queue head unadmittable with an idle engine");
            let head = sim.queue.pop_front().expect("checked non-empty");
            sim.trace.records[head.id as usize].rejected = Some(RejectReason::Infeasible);
            sim.note_queue_depth();
            continue;
        }
        // Fully idle: jump to the next arrival (or the next fault event,
        // if it comes first, so its window is applied at its true start).
        match (
            sim.arrivals.get(sim.next_arrival),
            sim.faults.get(sim.next_fault),
        ) {
            (Some(a), Some(f)) => sim.now = a.at.min(f.at),
            (Some(a), None) => sim.now = a.at,
            // Remaining fault events with no work left cannot affect any
            // request; stop.
            (None, _) => break,
        }
    }

    sim.trace.end = sim.now;
    sim.trace.peak_blocks = sim.pager.peak();
    // Close nothing: in-flight residency spans stay open (end = None)
    // but report their current block counts.
    for f in &sim.inflight {
        sim.trace.residency[f.span].blocks = f.blocks;
    }
    let report = LoadReport::from_trace(&sim.trace);
    Ok(LoadOutcome {
        report,
        trace: sim.trace,
        counters: sim.counters,
    })
}

/// Optimistic scores of a load sweep that has not been simulated:
/// `sweep` holds each sweep point's materialized arrivals, all simulated
/// under `spec`'s queue, paging and horizon knobs by a deployment whose
/// every prefill costs at least `floor` grid units. Returns `[tokens/s,
/// 1 / p99 TTFT s]`: the highest tokens/s among the points whose p99 TTFT
/// could meet `slo` (0 when none can), and the reciprocal of the lowest
/// p99 TTFT of any point. No fault-free [`simulate_load`] of a point
/// reports more tokens/s, or a lower p99 TTFT (see the module docs), and
/// a point whose simulated p99 meets `slo` counts here too. Both scores
/// use the report's own arithmetic, so the bound holds bit for bit.
///
/// `None` (no bound) when a request could be rejected or cut off, so that
/// not every request completes: under a `horizon`, a `queue_capacity`,
/// or a request whose worst-case blocks exceed `kv_blocks`; also for an
/// empty point, a request with no decode step ([`materialize_arrivals`]
/// makes none) or a zero `block_tokens`.
pub fn load_bound(
    sweep: &[Vec<ArrivalEvent>],
    spec: &LoadSpec,
    floor: i64,
    slo: Option<Seconds>,
) -> Option<[f64; 2]> {
    if spec.horizon.is_some() || spec.queue_capacity.is_some() || spec.block_tokens == 0 {
        return None;
    }
    let pager = KvPager::new(spec.block_tokens, spec.kv_blocks);
    let (mut best, mut lowest_p99) = (0.0f64, f64::INFINITY);
    let mut ttfts = Vec::new();
    for arrivals in sweep {
        ttfts.clear();
        // `first` is L_i, the earliest first token of request i.
        let (mut first, mut tokens) = (i64::MIN, 0u64);
        for a in arrivals {
            let worst = (a.prompt_len as u64).checked_add(a.decode_len as u64)?;
            if a.decode_len == 0 || !pager.fits_alone(worst) {
                return None;
            }
            first = first.max(a.at).saturating_add(floor);
            ttfts.push(first - a.at);
            tokens = tokens.checked_add(1)?.checked_add(a.decode_len as u64)?;
        }
        if ttfts.is_empty() {
            return None;
        }
        ttfts.sort_unstable();
        let p99 = grid_seconds(nearest_rank(&ttfts, 0.99));
        lowest_p99 = lowest_p99.min(p99.as_secs());
        // The report's own arithmetic: `LoadReport::meets_ttft_slo` and
        // `LoadReport::tokens_per_sec` (the run ends at least one grid
        // unit in, so its makespan is positive).
        if slo.is_none_or(|slo| p99 <= slo) {
            let end = grid_seconds(first.saturating_add(1));
            best = best.max(tokens as f64 / end.as_secs());
        }
    }
    Some([best, 1.0 / lowest_p99])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built cost model: prefill = 100 + ctx units, step =
    /// 10 + 2*B + K units, 4 slots.
    fn toy_costs() -> StepCostModel {
        StepCostModel {
            prefill_base: 100,
            prefill_slope: 1,
            step_base: 10,
            step_seq: 2,
            step_rate: 1,
            slots: 4,
        }
    }

    fn toy_model() -> madmax_model::ModelArch {
        madmax_model::ModelId::Llama2.build()
    }

    fn trace_spec(n: usize, gap: f64) -> LoadSpec {
        LoadSpec::trace(
            (0..n)
                .map(|i| madmax_parallel::RequestSpec {
                    arrival: i as f64 * gap,
                    prompt_len: 16,
                    decode_len: 8,
                })
                .collect(),
        )
    }

    fn run(spec: &LoadSpec, mode: SimMode) -> LoadOutcome {
        let serve = ServeConfig::new(16, 8);
        simulate_load(spec, &serve, &toy_model(), &toy_costs(), mode, None).unwrap()
    }

    #[test]
    fn modes_agree_and_all_requests_complete() {
        let spec = trace_spec(6, 1e-6);
        let ev = run(&spec, SimMode::Event);
        let tok = run(&spec, SimMode::PerToken);
        assert_eq!(ev.report, tok.report);
        assert_eq!(ev.trace.records, tok.trace.records);
        assert_eq!(ev.report.completed, 6);
        assert_eq!(ev.report.rejected, 0);
        assert!(ev.counters.decode_runs <= tok.counters.decode_runs);
        assert_eq!(ev.counters.decode_steps, tok.counters.decode_steps);
    }

    #[test]
    fn ttft_covers_queue_wait_and_prefill() {
        let spec = trace_spec(4, 0.0);
        let out = run(&spec, SimMode::Event);
        for r in &out.report.requests {
            let ttft = r.ttft.unwrap();
            // Prefill of a 16-token context in the toy model.
            let prefill = madmax_core::steady::grid_seconds(116);
            assert!(ttft >= prefill, "{ttft:?} < {prefill:?}");
        }
        // Simultaneous arrivals: later admissions wait behind earlier
        // prefills, so TTFTs strictly increase.
        let ttfts: Vec<_> = out
            .report
            .requests
            .iter()
            .map(|r| r.ttft.unwrap())
            .collect();
        assert!(ttfts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn queue_capacity_rejects_overflow() {
        let mut spec = trace_spec(8, 0.0);
        spec.queue_capacity = Some(2);
        let out = run(&spec, SimMode::Event);
        assert!(out.report.rejected > 0);
        assert_eq!(
            out.report.completed + out.report.rejected,
            out.report.arrivals
        );
        let again = run(&spec, SimMode::PerToken);
        assert_eq!(out.report, again.report);
    }

    #[test]
    fn horizon_conserves_requests() {
        // 16 simultaneous arrivals, a horizon that lands mid-run (a few
        // hundred grid units covers 2-3 toy prefills).
        let mut spec = trace_spec(16, 0.0);
        spec.horizon = Some(1e-9);
        let out = run(&spec, SimMode::Event);
        let r = &out.report;
        assert!(r.completed < 16, "horizon cuts the run short");
        assert_eq!(
            r.completed + r.rejected + r.queued_at_end + r.in_flight_at_end,
            // Only requests that arrived before the horizon count.
            out.trace
                .records
                .iter()
                .filter(|rec| {
                    rec.rejected.is_some() || rec.admitted.is_some() || rec.arrival <= out.trace.end
                })
                .count()
        );
        assert_eq!(run(&spec, SimMode::PerToken).report, out.report);
    }

    #[test]
    fn paged_budget_backpressures_admissions() {
        // 8-token blocks, budget of 6 blocks; each request needs
        // ceil((16+8)/8) = 3 -> at most two in flight despite 4 slots.
        let mut spec = trace_spec(6, 0.0);
        spec.kv_blocks = Some(6);
        spec.block_tokens = 8;
        let out = run(&spec, SimMode::Event);
        assert_eq!(out.report.completed, 6);
        assert!(out.report.peak_kv_blocks <= 6);
        for run in &out.trace.runs {
            assert!(run.participants.len() <= 2);
        }
        assert_eq!(run(&spec, SimMode::PerToken).report, out.report);
    }

    #[test]
    fn infeasible_requests_are_rejected_not_hung() {
        let mut spec = trace_spec(3, 0.0);
        // A single block of 8 tokens can never hold 16 + 8.
        spec.kv_blocks = Some(1);
        spec.block_tokens = 8;
        let out = run(&spec, SimMode::Event);
        assert_eq!(out.report.rejected, 3);
        assert_eq!(out.report.completed, 0);
    }

    #[test]
    fn eviction_makes_progress_under_pressure() {
        // Budget fits one worst-case request (3 blocks) plus change:
        // optimistic admission over-commits, eviction resolves it.
        let mut spec = trace_spec(4, 0.0);
        spec.kv_blocks = Some(4);
        spec.block_tokens = 8;
        spec.eviction = true;
        let out = run(&spec, SimMode::Event);
        assert_eq!(out.report.completed, 4, "{:?}", out.report);
        let tok = run(&spec, SimMode::PerToken);
        assert_eq!(out.report, tok.report);
        assert_eq!(out.trace.records, tok.trace.records);
        // Evicted requests re-prefill over prompt + generated tokens.
        if out.report.evictions > 0 {
            assert!(out.trace.prefills.iter().any(|p| p.resumed));
        }
    }

    #[test]
    fn idle_gaps_jump_to_the_next_arrival() {
        let spec = trace_spec(3, 1.0);
        let out = run(&spec, SimMode::Event);
        assert_eq!(out.report.completed, 3);
        // Makespan covers the last arrival plus its service.
        assert!(out.report.makespan.as_secs() > 2.0);
        assert_eq!(run(&spec, SimMode::PerToken).report, out.report);
    }

    fn run_faulty(
        spec: &LoadSpec,
        mode: SimMode,
        faults: &[FaultEvent],
        retry: &RetryPolicy,
    ) -> LoadOutcome {
        let serve = ServeConfig::new(16, 8);
        simulate_load_faulty(
            spec,
            &serve,
            &toy_model(),
            &toy_costs(),
            mode,
            faults,
            retry,
            None,
        )
        .unwrap()
    }

    /// One fatal window at `at` grid units lasting `len` units.
    fn fatal_at(at: i64, len: i64, slots_lost: usize) -> FaultEvent {
        FaultEvent {
            at,
            until: at + len,
            kind: FaultKind::Fatal,
            slots_lost,
            slowdown_pct: 100,
        }
    }

    #[test]
    fn empty_fault_stream_is_byte_identical_to_the_plain_path() {
        let spec = trace_spec(6, 1e-6);
        let plain = run(&spec, SimMode::Event);
        let faulty = run_faulty(&spec, SimMode::Event, &[], &RetryPolicy::default());
        assert_eq!(plain.report, faulty.report);
        assert_eq!(plain.trace, faulty.trace);
    }

    #[test]
    fn fatal_windows_interrupt_and_retry_in_both_modes() {
        // Simultaneous arrivals: admissions end ~464, decode runs past
        // ~1100, so both windows land mid-decode.
        let spec = trace_spec(6, 0.0);
        let faults = [fatal_at(600, 50, 1), fatal_at(900, 50, 1)];
        let retry = RetryPolicy::retries(3);
        let ev = run_faulty(&spec, SimMode::Event, &faults, &retry);
        let tok = run_faulty(&spec, SimMode::PerToken, &faults, &retry);
        assert_eq!(ev.report, tok.report, "modes agree under faults");
        assert_eq!(ev.trace.records, tok.trace.records);
        assert_eq!(ev.trace.faults, tok.trace.faults);
        assert!(ev.report.retries > 0, "{:?}", ev.report);
        assert_eq!(ev.report.completed, 6, "retries recover all work");
        assert!(ev.report.availability < 1.0);
        // Interrupted requests re-prefill their grown context.
        assert!(ev.trace.prefills.iter().any(|p| p.resumed));
    }

    #[test]
    fn exhausted_retry_budget_fails_requests() {
        let spec = trace_spec(4, 0.0);
        // A zero-retry policy: the first interruption kills the request.
        let faults = [fatal_at(600, 10, 4)];
        let retry = RetryPolicy::retries(0);
        let out = run_faulty(&spec, SimMode::Event, &faults, &retry);
        assert!(out.report.failed > 0, "{:?}", out.report);
        assert_eq!(out.report.retries, 0);
        assert_eq!(
            out.report.completed + out.report.failed + out.report.rejected,
            out.report.arrivals
        );
        assert_eq!(
            run_faulty(&spec, SimMode::PerToken, &faults, &retry).report,
            out.report
        );
    }

    #[test]
    fn capacity_stays_degraded_until_recovery() {
        let spec = trace_spec(8, 0.0);
        // Lose 3 of 4 slots for a long window starting before any work.
        let faults = [FaultEvent {
            at: 0,
            until: 1 << 24,
            kind: FaultKind::Maintenance,
            slots_lost: 3,
            slowdown_pct: 100,
        }];
        let retry = RetryPolicy::default();
        let out = run_faulty(&spec, SimMode::Event, &faults, &retry);
        for r in out
            .trace
            .runs
            .iter()
            .filter(|r| r.end <= out.trace.faults[0].end)
        {
            assert!(r.participants.len() <= 1, "degraded to one slot");
        }
        assert_eq!(out.report.completed, 8);
        assert_eq!(
            run_faulty(&spec, SimMode::PerToken, &faults, &retry).report,
            out.report
        );
    }

    #[test]
    fn transient_windows_slow_the_clock() {
        let spec = trace_spec(4, 0.0);
        let slow = [FaultEvent {
            at: 0,
            until: 1 << 30,
            kind: FaultKind::Transient,
            slots_lost: 0,
            slowdown_pct: 200,
        }];
        let retry = RetryPolicy::default();
        let normal = run(&spec, SimMode::Event);
        let slowed = run_faulty(&spec, SimMode::Event, &slow, &retry);
        assert_eq!(slowed.report.completed, 4);
        assert_eq!(slowed.report.retries, 0, "transients interrupt nothing");
        assert!(
            slowed.report.makespan.as_secs() > 1.5 * normal.report.makespan.as_secs(),
            "{:?} vs {:?}",
            slowed.report.makespan,
            normal.report.makespan
        );
        assert_eq!(
            run_faulty(&spec, SimMode::PerToken, &slow, &retry).report,
            slowed.report
        );
    }

    #[test]
    fn backoff_delays_readmission() {
        let spec = trace_spec(2, 1e-6);
        let faults = [fatal_at(300, 10, 2)];
        let eager = run_faulty(&spec, SimMode::Event, &faults, &RetryPolicy::retries(3));
        let lazy = run_faulty(
            &spec,
            SimMode::Event,
            &faults,
            &RetryPolicy::retries(3).with_backoff(1.0),
        );
        assert!(
            lazy.report.makespan.as_secs() >= eager.report.makespan.as_secs() + 0.9,
            "{:?} vs {:?}",
            lazy.report.makespan,
            eager.report.makespan
        );
        assert_eq!(
            run_faulty(
                &spec,
                SimMode::PerToken,
                &faults,
                &RetryPolicy::retries(3).with_backoff(1.0),
            )
            .report,
            lazy.report
        );
    }

    /// One seeded draw of the bound property test (xorshift64).
    fn draw(state: &mut u64, lo: u64, hi: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        lo + *state % (hi - lo + 1)
    }

    /// A generated load case: a cost model, a base spec, the rates it is
    /// swept at (empty for a trace) and an SLO.
    struct BoundCase {
        costs: StepCostModel,
        serve: ServeConfig,
        spec: LoadSpec,
        rates: Vec<f64>,
        slo: Option<Seconds>,
    }

    fn bound_case(state: &mut u64) -> BoundCase {
        let slots = draw(state, 1, 8) as usize;
        let costs = StepCostModel {
            prefill_base: draw(state, 10_000_000, 50_000_000_000) as i64,
            prefill_slope: draw(state, 0, 10_000_000) as i64,
            step_base: draw(state, 1_000_000, 10_000_000_000) as i64,
            step_seq: draw(state, 0, 100_000_000) as i64,
            step_rate: draw(state, 0, 100_000) as i64,
            slots,
        };
        let serve = ServeConfig::new(draw(state, 8, 512) as usize, draw(state, 1, 48) as usize);
        // The most tokens any request caches.
        let mut worst = (serve.prompt_len.unwrap() + serve.decode_len) as u64;
        let count = draw(state, 1, 40) as usize;
        let rate = draw(state, 1, 400) as f64 / 20.0;
        let (arrivals, rates) = match draw(state, 0, 2) {
            0 => (
                madmax_parallel::ArrivalSpec::Poisson {
                    rate,
                    count,
                    seed: draw(state, 0, u64::MAX - 1),
                },
                vec![rate, rate * 4.0],
            ),
            1 => (
                madmax_parallel::ArrivalSpec::Bursty {
                    rate,
                    on_secs: draw(state, 1, 20) as f64 / 4.0,
                    off_secs: draw(state, 1, 20) as f64 / 4.0,
                    count,
                    seed: draw(state, 0, u64::MAX - 1),
                },
                vec![rate, rate * 4.0],
            ),
            _ => {
                // Mixed prompt and decode lengths, as a JSONL trace.
                let mut at = 0.0;
                worst = 0;
                let lines: String = (0..count)
                    .map(|_| {
                        at += draw(state, 0, 2_000) as f64 / 1_000.0;
                        let (prompt, decode) = (draw(state, 1, 512), draw(state, 1, 48));
                        worst = worst.max(prompt + decode);
                        format!(
                            "{{\"arrival\": {at}, \"prompt_len\": {prompt}, \"decode_len\": {decode}}}\n"
                        )
                    })
                    .collect();
                let requests = crate::parse_request_jsonl(&lines).unwrap();
                (madmax_parallel::ArrivalSpec::Trace { requests }, Vec::new())
            }
        };
        let mut spec = LoadSpec::trace(Vec::new()).with_slots(slots);
        spec.arrivals = arrivals;
        // Unpaged, or a budget every request fits alone, between one and
        // `slots` worst-case requests, with eviction on or off.
        match draw(state, 0, 2) {
            0 => {}
            paged => {
                let one = worst.div_ceil(spec.block_tokens as u64);
                let blocks = draw(state, one, one * slots as u64);
                spec = spec.with_kv_blocks(blocks).with_eviction(paged == 2);
            }
        }
        let slo = (draw(state, 0, 3) > 0).then(|| Seconds::new(draw(state, 1, 400) as f64 / 100.0));
        BoundCase {
            costs,
            serve,
            spec,
            rates,
            slo,
        }
    }

    impl BoundCase {
        /// The sweep: the spec at every rate (a trace as-is).
        fn sweep(&self) -> Vec<LoadSpec> {
            if self.rates.is_empty() {
                return vec![self.spec.clone()];
            }
            self.rates
                .iter()
                .map(|&r| {
                    let mut spec = self.spec.clone();
                    if let madmax_parallel::ArrivalSpec::Poisson { rate, .. }
                    | madmax_parallel::ArrivalSpec::Bursty { rate, .. } = &mut spec.arrivals
                    {
                        *rate = r;
                    }
                    spec
                })
                .collect()
        }

        fn arrivals(&self) -> Vec<Vec<ArrivalEvent>> {
            self.sweep()
                .iter()
                .map(|spec| {
                    materialize_arrivals(&spec.arrivals, &self.serve, &toy_model()).unwrap()
                })
                .collect()
        }

        /// The prefill floor: the model's prefill at the shortest prompt.
        fn floor(&self, arrivals: &[Vec<ArrivalEvent>]) -> i64 {
            let p_lo = arrivals
                .iter()
                .flatten()
                .map(|a| a.prompt_len)
                .min()
                .unwrap();
            self.costs.prefill_units(p_lo as u64).unwrap()
        }
    }

    #[test]
    fn the_load_bound_is_never_beaten_by_a_simulation() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let (mut evictions, mut infeasible) = (0u64, 0usize);
        for case in 0..300 {
            let c = bound_case(&mut state);
            let arrivals = c.arrivals();
            let floor = c.floor(&arrivals);
            let [tps, inv_p99] = load_bound(&arrivals, &c.spec, floor, c.slo)
                .unwrap_or_else(|| panic!("case {case}: {:?} unbounded", c.spec));
            for mode in [SimMode::Event, SimMode::PerToken] {
                let (mut best, mut lowest) = (0.0f64, f64::INFINITY);
                for spec in c.sweep() {
                    let out =
                        simulate_load(&spec, &c.serve, &toy_model(), &c.costs, mode, None).unwrap();
                    assert_eq!(out.report.completed, out.report.arrivals, "case {case}");
                    evictions += out.counters.evictions;
                    let p99 = out.report.ttft.unwrap().p99;
                    lowest = lowest.min(p99.as_secs());
                    if c.slo.is_none_or(|slo| out.report.meets_ttft_slo(slo)) {
                        best = best.max(out.report.tokens_per_sec);
                    } else {
                        infeasible += 1;
                    }
                }
                assert!(best <= tps, "case {case} {mode:?}: {best} > {tps}");
                assert!(
                    1.0 / lowest <= inv_p99,
                    "case {case} {mode:?}: p99 {lowest}"
                );
            }
        }
        // The cases reach evictions and SLO misses.
        assert!(evictions > 0 && infeasible > 0, "{evictions} {infeasible}");
    }

    #[test]
    fn the_load_bound_declines_specs_that_can_drop_a_request() {
        let arrivals = vec![vec![ArrivalEvent {
            at: 0,
            prompt_len: 16,
            decode_len: 8,
        }]];
        let spec = trace_spec(1, 0.0);
        assert!(load_bound(&arrivals, &spec, 116, None).is_some());
        for dropping in [
            spec.clone().with_horizon(1.0),
            spec.clone().with_queue_capacity(64),
            // 24 tokens need two 16-token blocks.
            spec.clone().with_kv_blocks(1),
        ] {
            assert_eq!(
                load_bound(&arrivals, &dropping, 116, None),
                None,
                "{dropping:?}"
            );
        }
        assert!(load_bound(&arrivals, &spec.clone().with_kv_blocks(2), 116, None).is_some());
        // A request that never decodes could end the run at its first
        // token.
        let no_decode = vec![vec![ArrivalEvent {
            decode_len: 0,
            ..arrivals[0][0]
        }]];
        assert_eq!(load_bound(&no_decode, &spec, 116, None), None);
    }
}
