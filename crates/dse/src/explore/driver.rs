//! The one candidate loop behind every search objective.
//!
//! [`Explorer::explore`], [`Explorer::explore_goodput`] and
//! [`Explorer::explore_load`] differ only in what they do with one
//! candidate and how they rank the results. Everything else lives here:
//! for each workload variant the driver prices the shared tables the
//! objective names ([`Pricing`]), then, per candidate plan, builds the
//! candidate's [`Scenario`] with those tables attached, evaluates it on
//! the scoped worker pool, tallies the outcome with [`classify`], fires
//! the [`ProgressSink`] events, and merges the per-variant
//! [`SearchTelemetry`] (cache snapshots taken from the shared tables). The
//! tables are dropped once the variant's pool joins. Results come back in
//! enumeration order, so every objective is deterministic at any thread
//! count.
//!
//! A step may also resolve a feasible candidate without simulating it:
//! [`Explorer::explore`]'s step prunes a candidate whose
//! `Scenario::lower_bound` proves it cannot be strictly better than the
//! baseline evaluated before the pool started. The bound is sound (no
//! schedule finishes before its busiest stream has drained), the fold
//! keeps the first strictly-best candidate, and the best only improves
//! from the baseline, so pruning never changes the winner; and since the
//! rule reads nothing but the candidate and the baseline, the pruned set
//! is the same at any thread count. The objective names pruned results
//! ([`Objective::pruned`]); the driver counts them as `ok` and in
//! [`SearchTelemetry::pruned`], and their progress events carry no
//! iteration time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use madmax_core::IterationReport;
use madmax_engine::{EngineError, EngineScratch, Scenario};
use madmax_obs::{
    CandidateEvent, CandidateOutcome, LatencyHistogram, NullSink, ProgressSink, SearchTelemetry,
    WorkerStats,
};
use madmax_parallel::{LoadSpec, Plan, Workload};

use super::Explorer;

/// Fallback sink when no [`ProgressSink`] is attached.
static NULL_SINK: NullSink = NullSink;

/// Classifies one evaluation result for telemetry and progress events.
fn classify<T>(result: &Result<T, EngineError>) -> CandidateOutcome {
    match result {
        Ok(_) => CandidateOutcome::Ok,
        Err(e) if e.is_oom() => CandidateOutcome::OutOfMemory,
        Err(e) if e.is_unmappable_pipeline() => CandidateOutcome::Unmappable,
        Err(_) => CandidateOutcome::Invalid,
    }
}

/// One worker's locally-accumulated telemetry (merged after the pool
/// joins, so the hot loop never contends on a lock).
#[derive(Debug, Default)]
struct WorkerLocal {
    stats: WorkerStats,
    latency: LatencyHistogram,
}

/// The shared tables an objective has priced once per workload variant,
/// before the variant's pool runs, and attached to every candidate's
/// scenario. Plan lists with mixed pricing options get none: each
/// candidate then prices one-plan tables of its own.
pub(crate) enum Pricing<'o> {
    /// The variant's own flat and pipeline cost tables
    /// ([`Scenario::price_plans`], [`Scenario::price_pipeline_plans`]):
    /// the step evaluates the candidate's own workload.
    Variant,
    /// The load-probe tables of the variant's plans for this spec
    /// ([`Scenario::price_load_probes`]): the step prices the candidate's
    /// load cost model ([`Scenario::price_load`]).
    LoadProbes(&'o LoadSpec),
}

/// What a search objective does with one candidate.
pub(crate) struct Objective<'o, T, F> {
    /// The tables to price per workload variant.
    pub(crate) pricing: Pricing<'o>,
    /// A (workload, plan) combination the objective already evaluated
    /// itself (the explorer's baseline). Candidates matching it count as
    /// `ok` but are neither evaluated, returned, nor reported to the
    /// progress sink.
    pub(crate) known: Option<(&'o Workload, &'o Plan)>,
    /// The per-candidate step, handed the candidate's scenario and the
    /// worker's recycled scratch.
    pub(crate) step: F,
    /// The iteration time a successful candidate's progress event
    /// carries.
    pub(crate) iteration_ms: fn(&T) -> Option<f64>,
    /// Whether the step skipped a successful candidate without simulating
    /// it (counted in [`SearchTelemetry::pruned`]).
    pub(crate) pruned: fn(&T) -> bool,
}

/// One evaluated candidate.
#[derive(Debug)]
pub(crate) struct Evaluated<T> {
    pub(crate) plan: Plan,
    pub(crate) workload: Workload,
    pub(crate) result: Result<T, EngineError>,
}

/// Every evaluated candidate, kept as the pool returned it: one
/// (workload variant, plans, results) batch per variant, in enumeration
/// order. Candidates are zipped together lazily by
/// [`Driven::into_candidates`], so a search never holds a second copy of
/// its results.
#[derive(Debug)]
pub(crate) struct Driven<T> {
    batches: Vec<Batch<T>>,
}

/// One workload variant's candidate plans and their results,
/// index-aligned.
#[derive(Debug)]
struct Batch<T> {
    workload: Workload,
    plans: Vec<Plan>,
    results: Vec<Result<T, EngineError>>,
}

impl<T> Driven<T> {
    /// Passes the search on when at least one candidate succeeded.
    /// Otherwise fails with the first candidate's error, or with
    /// `empty()` when the space enumerated no candidate at all.
    pub(crate) fn any_success(
        self,
        empty: impl FnOnce() -> EngineError,
    ) -> Result<Self, EngineError> {
        if self
            .batches
            .iter()
            .flat_map(|b| &b.results)
            .any(Result::is_ok)
        {
            return Ok(self);
        }
        Err(self
            .into_candidates()
            .next()
            .and_then(|c| c.result.err())
            .unwrap_or_else(empty))
    }

    /// Every evaluated candidate, in enumeration order.
    pub(crate) fn into_candidates(self) -> impl Iterator<Item = Evaluated<T>> {
        self.batches.into_iter().flat_map(|batch| {
            let workload = batch.workload;
            batch
                .plans
                .into_iter()
                .zip(batch.results)
                .map(move |(plan, result)| Evaluated {
                    plan,
                    workload: workload.clone(),
                    result,
                })
        })
    }
}

impl Explorer<'_> {
    /// Evaluates an explicit list of plans through the engine against
    /// this explorer's workload, preserving order. See
    /// [`Explorer::evaluate_with_telemetry`].
    pub fn evaluate(&self, plans: &[Plan]) -> Vec<Result<IterationReport, EngineError>> {
        self.evaluate_with_telemetry(&self.workload, plans).0
    }

    /// Evaluates an explicit list of plans against one workload, in
    /// order, also returning the batch's [`SearchTelemetry`]: outcome
    /// counters tallied from the results, cache hit/miss snapshots taken
    /// from the shared cost tables after the pool joins, per-worker
    /// throughput, and the evaluation-latency histogram. Plans are
    /// distributed over the worker pool; the result at index `i` is
    /// always plan `i`'s, so the output is deterministic regardless of
    /// the thread count. The attached [`ProgressSink`] (if any) receives
    /// one event per plan while the batch runs and the telemetry once it
    /// finishes.
    ///
    /// This is the search hot path: when every plan shares one set of
    /// options (always true for [`Explorer::candidates`]), one
    /// [`madmax_engine::CostTable`] is priced up front and shared
    /// read-only across the workers, and each worker recycles one
    /// [`EngineScratch`] (trace arena, schedule, stream table) across the
    /// candidates it evaluates — so per-candidate work is assembly and
    /// simulation, not pricing and allocation.
    pub fn evaluate_with_telemetry(
        &self,
        workload: &Workload,
        plans: &[Plan],
    ) -> (Vec<Result<IterationReport, EngineError>>, SearchTelemetry) {
        self.evaluate_pooled(
            workload,
            plans,
            &Objective {
                pricing: Pricing::Variant,
                known: None,
                step: |s: &Scenario<'_>, scratch: &mut EngineScratch| s.run_in(scratch),
                iteration_ms: |r: &IterationReport| Some(r.iteration_time.as_ms()),
                pruned: |_| false,
            },
        )
    }

    /// Runs an objective over every workload variant × candidate plan of
    /// the space, returning the candidates and the telemetry merged
    /// across variants.
    ///
    /// # Panics
    ///
    /// Panics when the space carries serve axes but the workload is not
    /// [`Workload::Serve`] — the axis would otherwise be silently ignored.
    pub(crate) fn drive<T, F>(
        &self,
        objective: &Objective<'_, T, F>,
    ) -> (Driven<T>, SearchTelemetry)
    where
        T: Send,
        F: Fn(&Scenario<'_>, &mut EngineScratch) -> Result<T, EngineError> + Sync,
    {
        assert!(
            self.space.serve.is_none() || self.workload.serve_config().is_some(),
            "SearchSpace has serve axes but the explorer's workload is `{}`; \
             set Explorer::workload(Workload::serve(..))",
            self.workload
        );
        let mut driven = Driven {
            batches: Vec::new(),
        };
        let mut telemetry = SearchTelemetry::default();
        for workload in self.workload_variants() {
            let mut plans = self.candidates();
            let enumerated = plans.len();
            // Candidates inherit the baseline's options, so comparing
            // assignments and pipeline suffices.
            if let Some((known_workload, known)) = objective.known {
                if workload == *known_workload {
                    plans.retain(|p| {
                        p.assignments != known.assignments || p.pipeline != known.pipeline
                    });
                }
            }
            let (results, mut batch) = self.evaluate_pooled(&workload, &plans, objective);
            let resolved = (enumerated - plans.len()) as u64;
            batch.candidates += resolved;
            batch.ok += resolved;
            telemetry.absorb(&batch);
            driven.batches.push(Batch {
                workload,
                plans,
                results,
            });
        }
        (driven, telemetry)
    }

    /// The worker pool: evaluates the objective's step on each of `plans`
    /// against `workload`, in order, with the batch's telemetry (see
    /// [`Explorer::evaluate_with_telemetry`]). `objective.known` is the
    /// caller's to apply.
    fn evaluate_pooled<T, F>(
        &self,
        workload: &Workload,
        plans: &[Plan],
        objective: &Objective<'_, T, F>,
    ) -> (Vec<Result<T, EngineError>>, SearchTelemetry)
    where
        T: Send,
        F: Fn(&Scenario<'_>, &mut EngineScratch) -> Result<T, EngineError> + Sync,
    {
        let started = Instant::now();
        let workers = self.worker_count(plans.len());
        let scenario = Scenario::new(self.model, self.system).workload_ref(workload);
        // Mixed-option plan lists (e.g. ablating prefetch on/off) cannot
        // share a pricing context; they fall back to per-plan pricing.
        let uniform_options = plans.windows(2).all(|w| w[0].options == w[1].options);
        let variant_tables = uniform_options && matches!(objective.pricing, Pricing::Variant);
        let table = variant_tables.then(|| scenario.price_plans(plans));
        let has_pipelined = plans
            .iter()
            .any(|p| p.pipeline.is_some_and(|c| c.is_pipelined()));
        let pipeline_table =
            (variant_tables && has_pipelined).then(|| scenario.price_pipeline_plans(plans));
        // A spec the probe tables cannot be priced for fails every
        // candidate's `price_load` with the same error, which the
        // candidates then report themselves.
        let probe_tables = match objective.pricing {
            Pricing::LoadProbes(spec) if uniform_options => {
                scenario.price_load_probes(spec, plans).ok()
            }
            _ => None,
        };
        let sink: &dyn ProgressSink = self.progress.unwrap_or(&NULL_SINK);
        let total = plans.len();
        // Evaluates plan `i`, accounting it worker-locally and firing the
        // progress event from the evaluating thread.
        let evaluate_one = |i: usize, scratch: &mut EngineScratch, local: &mut WorkerLocal| {
            let t0 = Instant::now();
            let mut s = Scenario::new(self.model, self.system)
                .plan_ref(&plans[i])
                .workload_ref(workload);
            if let Some(t) = &table {
                s = s.costs(t);
            }
            if let Some(t) = &pipeline_table {
                s = s.pipeline_costs(t);
            }
            if let Some(t) = &probe_tables {
                s = s.load_probes(t);
            }
            let result = (objective.step)(&s, scratch);
            let eval_us = t0.elapsed().as_secs_f64() * 1e6;
            local.stats.candidates += 1;
            local.stats.busy_ms += eval_us / 1e3;
            local.latency.record(eval_us);
            sink.candidate_completed(&CandidateEvent {
                index: i,
                total,
                outcome: classify(&result),
                eval_us,
                iteration_ms: result.as_ref().ok().and_then(objective.iteration_ms),
            });
            result
        };

        let mut telemetry = SearchTelemetry::default();
        let results: Vec<Result<T, EngineError>> = if workers <= 1 {
            let mut scratch = EngineScratch::new();
            let mut local = WorkerLocal::default();
            let results = (0..plans.len())
                .map(|i| evaluate_one(i, &mut scratch, &mut local))
                .collect();
            telemetry.eval_latency = local.latency;
            telemetry.workers.push(local.stats);
            results
        } else {
            let next = AtomicUsize::new(0);
            let locals: Mutex<Vec<WorkerLocal>> = Mutex::new(Vec::with_capacity(workers));
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|s| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    let locals = &locals;
                    let evaluate_one = &evaluate_one;
                    s.spawn(move || {
                        let mut scratch = EngineScratch::new();
                        let mut local = WorkerLocal {
                            stats: WorkerStats {
                                worker: w,
                                ..WorkerStats::default()
                            },
                            latency: LatencyHistogram::default(),
                        };
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= plans.len() {
                                break;
                            }
                            if tx
                                .send((i, evaluate_one(i, &mut scratch, &mut local)))
                                .is_err()
                            {
                                break;
                            }
                        }
                        locals
                            .lock()
                            .expect("no worker panics while holding the lock")
                            .push(local);
                    });
                }
            });
            drop(tx);
            let mut slots: Vec<Option<Result<T, EngineError>>> =
                (0..plans.len()).map(|_| None).collect();
            for (i, r) in rx {
                slots[i] = Some(r);
            }
            let mut locals = locals
                .into_inner()
                .expect("no worker panics while holding the lock");
            locals.sort_by_key(|l| l.stats.worker);
            for local in locals {
                telemetry.eval_latency.absorb(&local.latency);
                telemetry.workers.push(local.stats);
            }
            slots
                .into_iter()
                .map(|s| s.expect("every plan index was evaluated"))
                .collect()
        };

        telemetry.candidates = results.len() as u64;
        for result in &results {
            if result.as_ref().is_ok_and(objective.pruned) {
                telemetry.pruned += 1;
            }
            match classify(result) {
                CandidateOutcome::Ok => telemetry.ok += 1,
                CandidateOutcome::OutOfMemory => telemetry.oom += 1,
                CandidateOutcome::Unmappable => telemetry.unmappable += 1,
                CandidateOutcome::Invalid => telemetry.invalid += 1,
            }
        }
        if let Some(t) = &table {
            telemetry.flat_cache = t.stats();
            telemetry.steady_analytic.absorb(t.analytic_stats());
        }
        if let Some(t) = &pipeline_table {
            telemetry.pipeline_cache = t.stats();
            telemetry.report_memo = t.memo_stats();
            telemetry.steady_analytic.absorb(t.analytic_stats());
        }
        if let Some(t) = &probe_tables {
            telemetry.flat_cache = t.flat_stats();
            telemetry.pipeline_cache = t.pipeline_stats();
            telemetry.report_memo = t.memo_stats();
            telemetry.steady_analytic = t.analytic_stats();
        }
        telemetry.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        sink.search_finished(&telemetry);
        (results, telemetry)
    }
}
