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
//! An objective may also prune ([`Prune`]): every search objective runs
//! each variant as an exact, best-first branch-and-bound over a
//! fixed-width score vector, one score for `explore` (tokens/s or
//! reciprocal iteration time), and two each for the goodput search (the
//! best effective throughput and the fault-free throughput) and the load
//! search (the best SLO-feasible throughput and the reciprocal of the
//! lowest p99 TTFT), the rankings they report. The driver computes every
//! candidate's optimistic scores once (upper bounds on the scores its
//! step can reach: from `Scenario::lower_bound`, the busiest stream's
//! summed op durations, and for a pipelined training or forward-only plan
//! each stage's compute stream from microbatch 0's fill chain through its
//! last pass's drain chain; for the load search, from a floor on every
//! prefill and a queueing recursion over the arrivals,
//! `madmax_serve::load_bound`; infeasible candidates resolve there with
//! their error), simulates a fixed first wave, the
//! union over the dimensions of the [`FIRST_WAVE`] candidates with the
//! best optimistic score on that dimension (ties to the earlier
//! candidate), and takes the incumbent per dimension: the best score
//! among the floor (the baseline's, for `explore`), every earlier variant
//! and this wave. Every remaining candidate whose optimistic scores
//! cannot strictly beat the incumbent on *any* dimension
//! ([`PRUNE_MARGIN`]) is pruned; the rest are simulated on the pool. A
//! pruned candidate scores strictly below the incumbent on every
//! dimension, hence below every dimension's winner, so dropping it cannot
//! change the first (or last) best candidate any of the objective's
//! rankings keeps. The wave, the incumbent and so the pruned set depend
//! only on the candidates and the simulated results in enumeration
//! order, never on which worker finished first: winners, reports and
//! pruned counts are the same at any thread count. Pruned candidates
//! count as `ok` and in [`SearchTelemetry::pruned`], and their progress
//! events carry no iteration time.
//!
//! An objective may also bound **families** ([`Prune::family`];
//! `explore` does, the goodput and load searches do not). For a variant
//! without decode steps whose tables the driver prices, its pipelined
//! candidates are grouped by depth, microbatch count, schedule and the
//! strategy of the model's dominant class
//! (`madmax_pipeline::family_class`); the driver's pipeline tables leave
//! every key's stage costs unsummed until first use
//! (`Scenario::price_pipeline_deferred`).
//! The bound pass then bounds every other candidate as above, checks
//! only the feasibility of a family member (`Scenario::check_feasible`,
//! the same errors as its bound), and scores each family once from its
//! feasible members (`Scenario::family_lower_bound`), a score no member's
//! optimistic score exceeds on any dimension. Best first, a family is
//! expanded, its members bounded one by one, while its score reaches on
//! some dimension that dimension's [`FIRST_WAVE`]-th best bounded score
//! (ties included: a tied member may be the earlier candidate); when none
//! is left, no unbounded member can enter the wave, so the wave is the
//! one of bounding every candidate. After the wave, a family whose score
//! cannot beat the incumbent has every member pruned
//! ([`SearchTelemetry::family_pruned`]): each member would have been
//! pruned on its own bound, which is no better. The other families are
//! expanded and their members take the rule above, so the pruned set and
//! every result are exactly those of bounding every candidate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use madmax_core::IterationReport;
use madmax_engine::{EngineError, EngineScratch, Scenario};
use madmax_obs::{
    CandidateEvent, CandidateOutcome, LatencyHistogram, NullSink, ProgressSink, SearchTelemetry,
    WorkerStats,
};
use madmax_parallel::{LoadSpec, Plan, ServeConfig, Workload};

use super::Explorer;

/// Fallback sink when no [`ProgressSink`] is attached.
static NULL_SINK: NullSink = NullSink;

/// Candidates per score dimension a branch-and-bound simulates per
/// workload variant before it fixes the incumbent (see the module docs).
const FIRST_WAVE: usize = 4;

/// Relative float margin of the pruning rule: a candidate is pruned only
/// when the incumbent beats its optimistic score by more than this
/// fraction, so rounding in the bound arithmetic can never prune a
/// candidate that ties or beats the incumbent.
const PRUNE_MARGIN: f64 = 1e-9;

/// Classifies one evaluation result for telemetry and progress events.
fn classify<T>(result: &Result<T, EngineError>) -> CandidateOutcome {
    match result {
        Ok(_) => CandidateOutcome::Ok,
        Err(e) if e.is_oom() => CandidateOutcome::OutOfMemory,
        Err(e) if e.is_unmappable_pipeline() => CandidateOutcome::Unmappable,
        Err(_) => CandidateOutcome::Invalid,
    }
}

/// One pool worker: its recycled scratch and its locally-accumulated
/// telemetry (merged after the variant's rounds, so the hot loop never
/// contends on a lock).
#[derive(Debug, Default)]
struct Worker {
    scratch: EngineScratch,
    stats: WorkerStats,
    latency: LatencyHistogram,
}

/// Runs `job` on every candidate index of `jobs` across `workers`, each
/// claiming the next unclaimed index, and stores each result in `slots`
/// at its candidate index.
fn run_pool<R, J>(workers: &mut [Worker], jobs: &[usize], slots: &mut [Option<R>], job: &J)
where
    R: Send,
    J: Fn(usize, &mut Worker) -> R + Sync,
{
    if workers.len() == 1 || jobs.len() <= 1 {
        for &i in jobs {
            slots[i] = Some(job(i, &mut workers[0]));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .take(jobs.len())
            .map(|worker| {
                let next = &next;
                s.spawn(move || {
                    let mut done = Vec::new();
                    while let Some(&i) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push((i, job(i, worker)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
}

/// The first wave of a branch-and-bound: per score dimension, the
/// [`FIRST_WAVE`] candidates with the highest optimistic scores on it
/// (fewer when fewer are bounded), ties going to the earlier candidate;
/// the union, deduplicated, in enumeration order.
fn first_wave<const N: usize>(optimistic: &[Option<[f64; N]>]) -> Vec<usize> {
    let bounded: Vec<(usize, [f64; N])> = optimistic
        .iter()
        .enumerate()
        .filter_map(|(i, o)| Some((i, (*o)?)))
        .collect();
    let mut wave = Vec::with_capacity(N * FIRST_WAVE);
    for d in 0..N {
        let mut ranked = bounded.clone();
        // Stable: tied scores keep enumeration order.
        ranked.sort_by(|a, b| b.1[d].total_cmp(&a.1[d]));
        wave.extend(ranked.into_iter().take(FIRST_WAVE).map(|(i, _)| i));
    }
    wave.sort_unstable();
    wave.dedup();
    wave
}

/// Records the bound-pass results of candidates `jobs` (taken from
/// `bounds`): their optimistic scores and the time spent bounding them,
/// and the errors that resolve them in `slots`.
fn record<T, const N: usize>(
    jobs: &[usize],
    mut bounds: Vec<Option<(Bounded<N>, f64)>>,
    optimistic: &mut [Option<[f64; N]>],
    bound_us: &mut [f64],
    slots: &mut [Option<Result<T, EngineError>>],
) {
    for &i in jobs {
        let (bound, us) = bounds[i].take().expect("every job was bounded");
        optimistic[i] = bound.as_ref().ok().copied().flatten();
        bound_us[i] += us;
        slots[i] = bound.err().map(Err);
    }
}

/// A family of the best-first pass that could still place a member in
/// the first wave: one not yet `expanded` whose score on some dimension
/// reaches that dimension's [`FIRST_WAVE`]-th best bounded score (any
/// score, while fewer are bounded; an unscored family always). Since a
/// member never scores above its family, once none is left the wave of
/// the bounded candidates is the wave of all of them, ties included.
/// Dimension by dimension, the family with the best score on it, ties to
/// the earlier family.
fn wave_contender<const N: usize>(
    families: &[Option<[f64; N]>],
    expanded: &[bool],
    optimistic: &[Option<[f64; N]>],
) -> Option<usize> {
    (0..N).find_map(|d| {
        let mut bounded: Vec<f64> = optimistic.iter().flatten().map(|o| o[d]).collect();
        bounded.sort_by(|a, b| b.total_cmp(a));
        let threshold = bounded
            .get(FIRST_WAVE - 1)
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        let (f, score) = families
            .iter()
            .enumerate()
            .filter(|&(f, _)| !expanded[f])
            .map(|(f, s)| (f, s.map_or(f64::INFINITY, |s| s[d])))
            .reduce(|best, c| if c.1 > best.1 { c } else { best })?;
        (score >= threshold).then_some(f)
    })
}

/// The best-first pass before the first wave: while a family not yet
/// `expanded` could place a member in the wave ([`wave_contender`]), marks
/// it expanded and bounds its members with `expand`, which records their
/// scores in `optimistic`. Afterwards [`first_wave`] of `optimistic` is
/// the wave of every candidate bounded on its own.
fn expand_for_wave<const N: usize>(
    families: &[Option<[f64; N]>],
    expanded: &mut [bool],
    optimistic: &mut [Option<[f64; N]>],
    mut expand: impl FnMut(usize, &mut [Option<[f64; N]>]),
) {
    while let Some(f) = wave_contender(families, expanded, optimistic) {
        expanded[f] = true;
        expand(f, optimistic);
    }
}

/// Whether optimistic scores `o` prove a candidate cannot strictly beat
/// `incumbent` on any dimension (the pruning rule, with [`PRUNE_MARGIN`]).
fn cannot_win<const N: usize>(o: &[f64; N], incumbent: &[f64; N]) -> bool {
    o.iter()
        .zip(incumbent)
        .all(|(o, inc)| o * (1.0 + PRUNE_MARGIN) < *inc)
}

/// `incumbent` raised, per dimension, to `scores` when they beat it.
fn raise<const N: usize>(incumbent: [f64; N], scores: [f64; N]) -> [f64; N] {
    std::array::from_fn(|d| incumbent[d].max(scores[d]))
}

/// The shared tables an objective has priced once per workload variant,
/// before the variant's pool runs, and attached to every candidate's
/// scenario. Plan lists with mixed pricing options get none: each
/// candidate then prices one-plan tables of its own.
pub(crate) enum Pricing<'o> {
    /// The variant's own flat and pipeline cost tables
    /// ([`Scenario::price_plans`], [`Scenario::price_pipeline_deferred`]):
    /// the step evaluates the candidate's own workload.
    Variant,
    /// The load-probe tables of the variant's plans for this spec
    /// ([`Scenario::price_load_probes`]): the step prices the candidate's
    /// load cost model ([`Scenario::price_load`]).
    LoadProbes(&'o LoadSpec),
}

/// What a search objective does with one candidate; `N` is the width of
/// its branch-and-bound score vector ([`Prune`]).
pub(crate) struct Objective<'o, T, F, const N: usize> {
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
    /// Branch-and-bound pruning (see the module docs); `None` runs the
    /// step on every candidate.
    pub(crate) prune: Option<Prune<'o, T, N>>,
}

/// A candidate's optimistic scores, `None` when it has no bound, or the
/// error that rules it out.
type Bounded<const N: usize> = Result<Option<[f64; N]>, EngineError>;

/// How an objective ranks candidates for the driver's branch-and-bound:
/// `N` scores per candidate, each positive and higher-is-better.
pub(crate) struct Prune<'o, T, const N: usize> {
    /// A candidate's optimistic scores: no result of the step on it
    /// scores higher on any dimension. `Ok(None)` leaves the candidate
    /// unbounded (it is always simulated); an error resolves it without
    /// running the step.
    pub(crate) optimistic: &'o (dyn Fn(&Scenario<'_>) -> Bounded<N> + Sync),
    /// The scores of a step's result (`None` for a pruned one).
    pub(crate) score: &'o (dyn Fn(&T) -> Option<[f64; N]> + Sync),
    /// The result a pruned candidate resolves to; its progress event
    /// carries no iteration time.
    pub(crate) pruned: fn() -> T,
    /// The scores to beat before the first variant runs (the baseline's,
    /// or `-inf` without one).
    pub(crate) floor: [f64; N],
    /// A family's optimistic scores, from a scenario of one member and
    /// the family's feasible members (see the module docs): no member's
    /// `optimistic` scores are higher on any dimension. `None` from the
    /// hook leaves the family's members to be bounded one by one; `None`
    /// here bounds every candidate on its own. Consulted only for
    /// variants without a decode phase whose tables the driver prices.
    pub(crate) family: Option<&'o Family<'o, N>>,
}

/// A family score hook ([`Prune::family`]).
pub(crate) type Family<'o, const N: usize> =
    dyn Fn(&Scenario<'_>, &[&Plan]) -> Option<[f64; N]> + Sync + 'o;

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
    /// [`madmax_core::CostTable`] is priced up front and shared
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
            &Objective::<_, _, 1> {
                pricing: Pricing::Variant,
                known: None,
                step: |s: &Scenario<'_>, scratch: &mut EngineScratch| s.run_in(scratch),
                iteration_ms: |r: &IterationReport| Some(r.iteration_time.as_ms()),
                prune: None,
            },
            [f64::NEG_INFINITY],
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
    pub(crate) fn drive<T, F, const N: usize>(
        &self,
        objective: &Objective<'_, T, F, N>,
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
        let mut incumbent = objective
            .prune
            .as_ref()
            .map_or([f64::NEG_INFINITY; N], |p| p.floor);
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
            let (results, mut batch) =
                self.evaluate_pooled(&workload, &plans, objective, incumbent);
            if let Some(prune) = &objective.prune {
                incumbent = results
                    .iter()
                    .filter_map(|r| (prune.score)(r.as_ref().ok()?))
                    .fold(incumbent, raise);
            }
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

    /// The worker pool: resolves each of `plans` against `workload`, in
    /// order, with the batch's telemetry (see
    /// [`Explorer::evaluate_with_telemetry`]): by the objective's step, or,
    /// when it prunes, by the branch-and-bound of the module docs against
    /// `incumbent`, the best scores of the earlier variants.
    /// `objective.known` is the caller's to apply.
    fn evaluate_pooled<T, F, const N: usize>(
        &self,
        workload: &Workload,
        plans: &[Plan],
        objective: &Objective<'_, T, F, N>,
        incumbent: [f64; N],
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
        let pipelined = |i: usize| plans[i].pipeline.is_some_and(|c| c.is_pipelined());
        let has_pipelined = (0..plans.len()).any(pipelined);
        // The family pass: the hook and the class whose strategy keys a
        // family, for a variant without a decode phase whose pipeline
        // table is priced here. The table's keys' stages are summed on
        // first use, so a family ruled out as a whole never sums them.
        let decodes = workload.serve_config().is_some_and(ServeConfig::has_decode);
        let families = objective
            .prune
            .as_ref()
            .and_then(|p| p.family)
            .filter(|_| variant_tables && has_pipelined && !decodes)
            .zip(madmax_pipeline::family_class(self.model));
        let pipeline_table =
            (variant_tables && has_pipelined).then(|| scenario.price_pipeline_deferred(plans));
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
        // Wall time per driver phase: each `lap` returns the milliseconds
        // since the previous one (the first, since the batch started).
        let mut last = started;
        let mut lap = || {
            let now = Instant::now();
            let ms = (now - last).as_secs_f64() * 1e3;
            last = now;
            ms
        };
        let mut telemetry = SearchTelemetry {
            price_ms: lap(),
            ..SearchTelemetry::default()
        };
        let candidate = |i: usize| {
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
            s
        };
        // Accounts resolved candidate `i` worker-locally and fires its
        // progress event from the resolving thread.
        let resolve = |i: usize,
                       outcome: CandidateOutcome,
                       iteration_ms: Option<f64>,
                       eval_us: f64,
                       worker: &mut Worker| {
            worker.stats.candidates += 1;
            worker.latency.record(eval_us);
            sink.candidate_completed(&CandidateEvent {
                index: i,
                total,
                outcome,
                eval_us,
                iteration_ms,
            });
        };
        // Resolves plan `i` by the step, after `prior_us` spent bounding
        // it.
        let step = |i: usize, prior_us: f64, worker: &mut Worker| {
            let t0 = Instant::now();
            let result = (objective.step)(&candidate(i), &mut worker.scratch);
            let eval_us = t0.elapsed().as_secs_f64() * 1e6;
            worker.stats.busy_ms += eval_us / 1e3;
            let iteration_ms = result.as_ref().ok().and_then(objective.iteration_ms);
            let outcome = classify(&result);
            resolve(i, outcome, iteration_ms, prior_us + eval_us, worker);
            result
        };

        let mut pool: Vec<Worker> = (0..workers)
            .map(|w| Worker {
                stats: WorkerStats {
                    worker: w,
                    ..WorkerStats::default()
                },
                ..Worker::default()
            })
            .collect();
        let all: Vec<usize> = (0..plans.len()).collect();
        let mut slots: Vec<Option<Result<T, EngineError>>> = plans.iter().map(|_| None).collect();
        match &objective.prune {
            None => {
                run_pool(&mut pool, &all, &mut slots, &|i, worker| {
                    step(i, 0.0, worker)
                });
                telemetry.simulated = all.len() as u64;
                telemetry.rest_ms = lap();
            }
            Some(prune) => {
                // Every candidate's optimistic scores, once; infeasible
                // candidates resolve here. A family member only has its
                // feasibility checked: its bound waits for its family's.
                let member = |i: usize| families.is_some() && pipelined(i);
                let bound = |i: usize, worker: &mut Worker, alone: bool| {
                    let t0 = Instant::now();
                    let bound = match alone {
                        true => (prune.optimistic)(&candidate(i)),
                        false => candidate(i).check_feasible().map(|()| None),
                    };
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    worker.stats.busy_ms += us / 1e3;
                    if bound.is_err() {
                        resolve(i, classify(&bound), None, us, worker);
                    }
                    (bound, us)
                };
                let mut bounds = plans.iter().map(|_| None).collect::<Vec<_>>();
                run_pool(&mut pool, &all, &mut bounds, &|i, worker: &mut Worker| {
                    bound(i, worker, !member(i))
                });
                let mut optimistic = vec![None; plans.len()];
                let mut bound_us = vec![0.0; plans.len()];
                record(&all, bounds, &mut optimistic, &mut bound_us, &mut slots);
                // The feasible family members, by family (in order of
                // their first members), and every family's scores.
                let mut members: Vec<Vec<usize>> = Vec::new();
                if let Some((_, class)) = families {
                    let mut index = HashMap::new();
                    for i in (0..plans.len()).filter(|&i| member(i) && slots[i].is_none()) {
                        let key = (plans[i].pipeline, plans[i].strategy_for(class));
                        let f = *index.entry(key).or_insert_with(|| {
                            members.push(Vec::new());
                            members.len() - 1
                        });
                        members[f].push(i);
                    }
                }
                let ids: Vec<usize> = (0..members.len()).collect();
                let mut family_scores = ids.iter().map(|_| None).collect::<Vec<_>>();
                if let Some((hook, _)) = families {
                    run_pool(
                        &mut pool,
                        &ids,
                        &mut family_scores,
                        &|f, worker: &mut Worker| {
                            let t0 = Instant::now();
                            let plans: Vec<&Plan> = members[f].iter().map(|&i| &plans[i]).collect();
                            let score = hook(&candidate(members[f][0]), &plans);
                            worker.stats.busy_ms += t0.elapsed().as_secs_f64() * 1e3;
                            score
                        },
                    );
                }
                let family_scores: Vec<Option<[f64; N]>> = family_scores
                    .into_iter()
                    .map(|s| s.expect("every family was scored"))
                    .collect();
                // Bounds the members of families `fams` on their own (their
                // keys' stages are summed here, on first use).
                let expand = |fams: &[usize], pool: &mut [Worker]| {
                    let jobs: Vec<usize> =
                        fams.iter().flat_map(|&f| &members[f]).copied().collect();
                    let mut bounds = plans.iter().map(|_| None).collect::<Vec<_>>();
                    run_pool(pool, &jobs, &mut bounds, &|i, worker: &mut Worker| {
                        bound(i, worker, true)
                    });
                    (jobs, bounds)
                };
                // Best-first: the best family while one can place a
                // member in the first wave; the wave is then the one of
                // every candidate bounded on its own.
                let mut expanded = vec![false; members.len()];
                expand_for_wave(
                    &family_scores,
                    &mut expanded,
                    &mut optimistic,
                    |f, optimistic| {
                        let (jobs, bounds) = expand(&[f], &mut pool);
                        record(&jobs, bounds, optimistic, &mut bound_us, &mut slots);
                    },
                );
                telemetry.bound_ms = lap();
                // The fixed first wave sets the incumbent; the rest is
                // pruned against it or simulated.
                let wave = first_wave(&optimistic);
                run_pool(&mut pool, &wave, &mut slots, &|i, worker| {
                    step(i, bound_us[i], worker)
                });
                telemetry.first_wave_ms = lap();
                let incumbent = wave
                    .iter()
                    .filter_map(|&i| slots[i].as_ref()?.as_ref().ok().and_then(prune.score))
                    .fold(incumbent, raise);
                // A family that cannot win resolves every member pruned;
                // the others are bounded member by member.
                let mut family_pruned = vec![false; plans.len()];
                let mut survivors = Vec::new();
                for f in ids.into_iter().filter(|&f| !expanded[f]) {
                    match family_scores[f] {
                        Some(o) if cannot_win(&o, &incumbent) => {
                            for &i in &members[f] {
                                family_pruned[i] = true;
                            }
                        }
                        _ => survivors.push(f),
                    }
                }
                let (jobs, bounds) = expand(&survivors, &mut pool);
                record(&jobs, bounds, &mut optimistic, &mut bound_us, &mut slots);
                let prunable = |i: usize| {
                    family_pruned[i] || optimistic[i].is_some_and(|o| cannot_win(&o, &incumbent))
                };
                let rest: Vec<usize> = all.into_iter().filter(|&i| slots[i].is_none()).collect();
                telemetry.pruned = rest.iter().filter(|&&i| prunable(i)).count() as u64;
                telemetry.family_pruned = family_pruned.iter().filter(|&&p| p).count() as u64;
                telemetry.simulated = (wave.len() + rest.len()) as u64 - telemetry.pruned;
                run_pool(&mut pool, &rest, &mut slots, &|i, worker: &mut Worker| {
                    if prunable(i) {
                        resolve(i, CandidateOutcome::Ok, None, bound_us[i], worker);
                        Ok((prune.pruned)())
                    } else {
                        step(i, bound_us[i], worker)
                    }
                });
                telemetry.rest_ms = lap();
            }
        }
        let results: Vec<Result<T, EngineError>> = slots
            .into_iter()
            .map(|r| r.expect("every candidate resolved"))
            .collect();

        for worker in pool {
            telemetry.eval_latency.absorb(&worker.latency);
            telemetry.workers.push(worker.stats);
        }
        telemetry.candidates = results.len() as u64;
        for result in &results {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_wave_takes_the_best_scores_and_breaks_ties_to_the_earlier() {
        // Candidates 1, 3, 4 and 6 tie for the wave's last three slots:
        // the earliest three join, and the wave comes back in enumeration
        // order. Unbounded candidates never join.
        let optimistic = [
            Some([1.0]),
            Some([5.0]),
            None,
            Some([5.0]),
            Some([5.0]),
            Some([9.0]),
            Some([5.0]),
        ];
        assert_eq!(first_wave(&optimistic), vec![1, 3, 4, 5]);
        // Fewer bounded candidates than the wave: all of them.
        assert_eq!(first_wave(&[None, Some([2.0]), Some([2.0])]), vec![1, 2]);
        assert!(first_wave::<1>(&[None, None]).is_empty());
    }

    /// The single-score wave as it was before scores became vectors:
    /// the [`FIRST_WAVE`] best bounded candidates, ties to the earlier,
    /// in enumeration order.
    fn single_score_wave(optimistic: &[Option<f64>]) -> Vec<usize> {
        let mut ranked: Vec<(usize, f64)> = optimistic
            .iter()
            .enumerate()
            .filter_map(|(i, o)| Some((i, (*o)?)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut wave: Vec<usize> = ranked
            .into_iter()
            .take(FIRST_WAVE)
            .map(|(i, _)| i)
            .collect();
        wave.sort_unstable();
        wave
    }

    #[test]
    fn one_dimensional_wave_is_the_single_score_wave() {
        // Seeded score lists with many ties and unbounded candidates.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in 0..40 {
            let scores: Vec<Option<f64>> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (!state.is_multiple_of(5)).then_some((state % 7) as f64)
                })
                .collect();
            let wrapped: Vec<Option<[f64; 1]>> = scores.iter().map(|o| o.map(|o| [o])).collect();
            assert_eq!(
                first_wave(&wrapped),
                single_score_wave(&scores),
                "{scores:?}"
            );
        }
    }

    #[test]
    fn two_dimensional_wave_is_the_per_dimension_union_in_enumeration_order() {
        // Dimension 0 ranks 6, 5, 4, 3 first; dimension 1 ranks 0, 1, 2
        // first and ties 3 and 7 for its fourth slot (the earlier, 3,
        // joins). Candidate 3 is in both tops and joins once.
        let optimistic = [
            Some([0.0, 9.0]),
            Some([1.0, 8.0]),
            Some([2.0, 7.0]),
            Some([3.0, 6.0]),
            Some([4.0, 0.0]),
            Some([5.0, 0.0]),
            Some([6.0, 0.0]),
            Some([0.0, 6.0]),
            None,
        ];
        assert_eq!(first_wave(&optimistic), vec![0, 1, 2, 3, 4, 5, 6]);
        // The same top on both dimensions: four candidates, not eight.
        let aligned: Vec<Option<[f64; 2]>> =
            (0..6).map(|i| Some([f64::from(i), f64::from(i)])).collect();
        assert_eq!(first_wave(&aligned), vec![2, 3, 4, 5]);
    }

    /// The wave the best-first pass finds: candidates `family[i] ==
    /// None` are bounded on their own, the others wait in their family
    /// (`families[f]` its score, `None` for an unscored one) until
    /// [`expand_for_wave`] expands it.
    fn best_first_wave<const N: usize>(
        full: &[Option<[f64; N]>],
        family: &[Option<usize>],
        families: &[Option<[f64; N]>],
    ) -> Vec<usize> {
        let mut optimistic: Vec<Option<[f64; N]>> = full
            .iter()
            .zip(family)
            .map(|(o, f)| if f.is_some() { None } else { *o })
            .collect();
        let mut expanded = vec![false; families.len()];
        expand_for_wave(families, &mut expanded, &mut optimistic, |f, optimistic| {
            for (i, _) in family.iter().enumerate().filter(|(_, m)| **m == Some(f)) {
                optimistic[i] = full[i];
            }
        });
        first_wave(&optimistic)
    }

    #[test]
    fn best_first_expansion_ties_across_families() {
        // Four candidates bounded on their own put the wave's threshold
        // at 5. Family 0 ties it, and its member 0 ties the flat 5s with
        // an earlier index: it must be expanded and joins the wave.
        // Family 1 ties as well; its member 5 is expanded but too late to
        // join.
        let full = [
            Some([5.0]),
            Some([5.0]),
            Some([5.0]),
            Some([5.0]),
            Some([9.0]),
            Some([5.0]),
        ];
        let family = [Some(0), None, None, None, None, Some(1)];
        let families = [Some([5.0]), Some([5.0])];
        assert_eq!(first_wave(&full), vec![0, 1, 2, 4]);
        assert_eq!(best_first_wave(&full, &family, &families), vec![0, 1, 2, 4]);
        // A family below the threshold stays unexpanded.
        let mut expanded = [false, false];
        let mut optimistic = [
            None,
            Some([5.0]),
            Some([5.0]),
            Some([5.0]),
            Some([9.0]),
            None,
        ];
        expand_for_wave(&[Some([4.9]); 2], &mut expanded, &mut optimistic, |_, _| {
            panic!("no family can join the wave")
        });
    }

    #[test]
    fn best_first_expansion_returns_the_fully_bounded_wave() {
        // Seeded lists with heavy ties: candidates in families or on
        // their own, family scores at or above their members' best, some
        // families unscored, on one and two dimensions.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..60 {
            let n_families = 1 + (next() % 6) as usize;
            let full1: Vec<Option<[f64; 1]>> = (0..len)
                .map(|_| (!next().is_multiple_of(7)).then(|| [(next() % 5) as f64]))
                .collect();
            let full2: Vec<Option<[f64; 2]>> = full1
                .iter()
                .map(|o| o.map(|[a]| [a, (next() % 4) as f64]))
                .collect();
            let family: Vec<Option<usize>> = (0..len)
                .map(|_| match next() % 3 {
                    0 => None,
                    _ => Some((next() % n_families as u64) as usize),
                })
                .collect();
            let mut scores = |full: &[Option<[f64; 2]>], d: usize, f: usize| -> Option<f64> {
                if next().is_multiple_of(9) {
                    return None; // unscored: bounded at once
                }
                let best = (0..len)
                    .filter(|&i| family[i] == Some(f))
                    .filter_map(|i| full[i].map(|o| o[d]))
                    .fold(0.0, f64::max);
                Some(best + (next() % 2) as f64)
            };
            let families1: Vec<Option<[f64; 1]>> = (0..n_families)
                .map(|f| scores(&full2, 0, f).map(|s| [s]))
                .collect();
            assert_eq!(
                best_first_wave(&full1, &family, &families1),
                first_wave(&full1),
                "{full1:?} {family:?} {families1:?}"
            );
            let families2: Vec<Option<[f64; 2]>> = (0..n_families)
                .map(|f| Some([scores(&full2, 0, f)?, scores(&full2, 1, f)?]))
                .collect();
            assert_eq!(
                best_first_wave(&full2, &family, &families2),
                first_wave(&full2),
                "{full2:?} {family:?} {families2:?}"
            );
        }
    }

    #[test]
    fn a_candidate_is_pruned_only_when_it_loses_on_every_dimension() {
        let incumbent = [10.0, 4.0];
        assert!(cannot_win(&[9.0, 3.0], &incumbent));
        // Still able to beat (or tie) one incumbent: simulated.
        assert!(!cannot_win(&[11.0, 3.0], &incumbent));
        assert!(!cannot_win(&[9.0, 4.0], &incumbent));
        // Within the float margin of an incumbent counts as a tie.
        assert!(!cannot_win(&[10.0 * (1.0 - 1e-12), 3.0], &incumbent));
        // No incumbent yet on a dimension: nothing is pruned.
        assert!(!cannot_win(&[9.0, 3.0], &[10.0, f64::NEG_INFINITY]));
        // One dimension is the single-score rule.
        assert!(cannot_win(&[9.0], &[10.0]));
        assert!(!cannot_win(&[10.0], &[10.0]));
        assert_eq!(raise([10.0, 4.0], [9.0, 5.0]), [10.0, 5.0]);
    }
}
