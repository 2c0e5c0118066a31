//! The unified design-space explorer: one [`SearchSpace`] spanning the
//! per-layer-class strategy axes, the optional pipeline axes
//! `(stages, microbatches, schedule)`, and the optional serve axes
//! (decode batch), and one [`Explorer`] that evaluates every candidate
//! through `madmax_engine::Scenario` — in parallel on a scoped worker
//! pool. [`Explorer::explore`] ranks by iteration time (or serve
//! tokens/s) and returns a [`SearchOutcome`]; the goodput and load
//! objectives (`crate::fault`, `crate::load`) run on the same candidate
//! driver with their own per-candidate step and ranking.

use std::num::NonZeroUsize;
use std::time::Instant;

use madmax_core::IterationReport;
use madmax_engine::{EngineError, EngineScratch, Scenario};
use madmax_hw::ClusterSpec;
use madmax_model::{LayerClass, ModelArch};
use madmax_obs::{ProgressSink, SearchTelemetry};
use madmax_parallel::{HierStrategy, PipelineConfig, PipelineSchedule, Plan, Workload};

mod driver;

pub(crate) use driver::{Evaluated, Objective, Pricing, Prune};

/// Distinct layer classes present in a model, in first-appearance order.
pub(crate) fn classes_in(model: &ModelArch) -> Vec<LayerClass> {
    let mut v: Vec<LayerClass> = Vec::new();
    for g in &model.groups {
        if !v.contains(&g.class) {
            v.push(g.class);
        }
    }
    v
}

/// Enumerates every per-class strategy assignment: the cartesian product of
/// `HierStrategy::enumerate_for` over `classes` (all classes in the model
/// when `None`), applied on top of `base`. This is the strategy axis of
/// the unified [`SearchSpace`].
pub(crate) fn strategy_combos(
    model: &ModelArch,
    classes: Option<&[LayerClass]>,
    base: &Plan,
) -> Vec<Plan> {
    let classes: Vec<LayerClass> = match classes {
        Some(c) => c.to_vec(),
        None => classes_in(model),
    };
    let per_class: Vec<Vec<HierStrategy>> = classes
        .iter()
        .map(|&c| HierStrategy::enumerate_for(c))
        .collect();
    let total: usize = per_class.iter().map(Vec::len).product();
    let mut plans = Vec::with_capacity(total);
    for mut idx in 0..total {
        let mut plan = base.clone();
        for (ci, choices) in per_class.iter().enumerate() {
            let choice = choices[idx % choices.len()];
            idx /= choices.len();
            plan = plan.with_strategy(classes[ci], choice);
        }
        plans.push(plan);
    }
    plans
}

/// The pipeline dimensions of a [`SearchSpace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineAxes {
    /// Pipeline depths to try (`1` = no pipelining; always worth including
    /// so the flat baseline is part of the same sweep).
    pub stages: Vec<usize>,
    /// Microbatch counts to try for pipelined configurations.
    pub microbatches: Vec<usize>,
    /// Schedules to try for pipelined configurations.
    pub schedules: Vec<PipelineSchedule>,
}

impl PipelineAxes {
    /// Axes fitted to `cluster`: power-of-two depths the device hierarchy
    /// can actually be split into (exactly the depths
    /// `madmax_pipeline`'s `stage_cluster` accepts), a standard microbatch
    /// ladder, and both schedules.
    pub fn default_for(cluster: &ClusterSpec) -> Self {
        let stages = [1usize, 2, 4, 8]
            .into_iter()
            .filter(|&p| p == 1 || madmax_pipeline::cost::stage_cluster(cluster, p).is_ok())
            .collect();
        Self {
            stages,
            microbatches: vec![4, 8, 16, 32],
            schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
        }
    }
}

/// The serve dimensions of a [`SearchSpace`]: workload-side axes swept
/// jointly with the plan axes. Only meaningful when the explorer's
/// workload is [`Workload::Serve`]; each decode batch yields one workload
/// variant, and candidates are then compared by output tokens per second
/// (iteration times at different batch sizes are not comparable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeAxes {
    /// Decode (serving) batch sizes to try.
    pub decode_batch: Vec<usize>,
}

impl ServeAxes {
    /// A standard serving-batch ladder.
    pub fn batches(decode_batch: impl IntoIterator<Item = usize>) -> Self {
        Self {
            decode_batch: decode_batch.into_iter().collect(),
        }
    }
}

/// The unified design space: strategy axes x optional pipeline axes x
/// optional serve axes.
#[derive(Debug, Clone, Default)]
pub struct SearchSpace {
    /// Search per-layer-class hierarchical strategies (otherwise the FSDP
    /// baseline assignments are kept).
    pub search_strategies: bool,
    /// Restrict the strategy search to these classes (others keep the
    /// baseline assignment). `None` searches every class in the model.
    pub classes: Option<Vec<LayerClass>>,
    /// Pipeline dimensions to sweep jointly; `None` keeps every candidate
    /// flat.
    pub pipeline: Option<PipelineAxes>,
    /// Serve dimensions to sweep jointly (decode batch); `None` keeps the
    /// workload as configured.
    pub serve: Option<ServeAxes>,
    /// Explore mappings beyond current memory capacities (the orange bars
    /// of Fig. 10).
    pub ignore_memory_limits: bool,
}

impl SearchSpace {
    /// The strategy-only space of the paper's Fig. 10/18 joint search:
    /// every per-class assignment, no pipeline axes.
    pub fn strategies() -> Self {
        Self {
            search_strategies: true,
            ..Self::default()
        }
    }

    /// A pipeline space fitted to `cluster` (depths it can split into,
    /// both schedules), with the per-class strategies held at the
    /// baseline.
    pub fn pipeline_for(cluster: &ClusterSpec) -> Self {
        Self {
            pipeline: Some(PipelineAxes::default_for(cluster)),
            ..Self::default()
        }
    }

    /// Restricts the strategy search to `classes` (enables the strategy
    /// axes).
    #[must_use]
    pub fn with_classes(mut self, classes: Vec<LayerClass>) -> Self {
        self.search_strategies = true;
        self.classes = Some(classes);
        self
    }

    /// Attaches pipeline axes to the space.
    #[must_use]
    pub fn with_pipeline(mut self, axes: PipelineAxes) -> Self {
        self.pipeline = Some(axes);
        self
    }

    /// Attaches serve axes to the space.
    #[must_use]
    pub fn with_serve(mut self, axes: ServeAxes) -> Self {
        self.serve = Some(axes);
        self
    }

    /// Lifts the memory-capacity constraint.
    #[must_use]
    pub fn unconstrained(mut self) -> Self {
        self.ignore_memory_limits = true;
        self
    }
}

/// Result of one [`Explorer::explore`] run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The throughput-optimal plan found (pipeline config included when
    /// the space has pipeline axes).
    pub best_plan: Plan,
    /// The workload the best plan ran (differs from the explorer's
    /// workload only when serve axes varied it).
    pub best_workload: Workload,
    /// Its simulation report.
    pub best: IterationReport,
    /// The flat FSDP-baseline report for the same workload (the first
    /// serve-axis variant when serve axes are present).
    pub baseline: IterationReport,
    /// Candidate (plan, workload) combinations accounted for (simulated,
    /// pruned, OOM, unmappable, or invalid — nothing is silently
    /// dropped). Pruned candidates passed every feasibility check but
    /// were not simulated: their iteration-time lower bound proves they
    /// cannot beat the incumbent of [`Explorer::explore`]'s
    /// branch-and-bound, so they score strictly below the winner. They
    /// count as `ok` in the telemetry, are
    /// tallied in [`SearchTelemetry::pruned`], and their progress events
    /// carry `iteration_ms: None`.
    pub evaluated: usize,
    /// Candidates rejected for memory infeasibility.
    pub oom: usize,
    /// Candidates rejected as unmappable pipelines (too few layers,
    /// indivisible device counts, ...).
    pub unmappable: usize,
    /// Candidates rejected for any other plan error (e.g. a strategy
    /// invalid for a layer class).
    pub invalid: usize,
    /// What the search did and where the time went: outcome counters
    /// (reconciling with [`SearchOutcome::evaluated`]), cache hit/miss
    /// snapshots from the shared cost tables, per-worker throughput, and
    /// the evaluation-latency histogram.
    pub telemetry: SearchTelemetry,
    /// The winner's verification report when [`Explorer::verify_winner`]
    /// was enabled (`None` otherwise). Its error/warning counts also land
    /// in [`SearchTelemetry::verify_errors`] /
    /// [`SearchTelemetry::verify_warnings`].
    pub verify: Option<madmax_verify::VerifyReport>,
}

impl SearchOutcome {
    /// Throughput improvement of the best plan over the FSDP baseline.
    /// For serve searches this compares output tokens/sec (batch sizes
    /// may differ); otherwise it is the iteration-time ratio.
    pub fn speedup(&self) -> f64 {
        match (
            self.best.serve_tokens_per_sec(),
            self.baseline.serve_tokens_per_sec(),
        ) {
            (Some(b), Some(base)) if base > 0.0 => b / base,
            _ => self.best.speedup_over(&self.baseline),
        }
    }

    /// Paper-style summary of the winning per-class strategies.
    pub fn winning_strategies(&self) -> String {
        self.best_plan.summary()
    }

    /// Whether a pipelined plan (rather than a flat mapping) won.
    pub fn pipeline_won(&self) -> bool {
        self.best_plan.pipeline_stages() > 1
    }
}

/// The unified, parallel design-space explorer.
///
/// # Examples
///
/// ```
/// use madmax_dse::{Explorer, SearchSpace};
/// use madmax_hw::catalog;
/// use madmax_model::ModelId;
/// use madmax_parallel::Workload;
///
/// let model = ModelId::DlrmA.build();
/// let system = catalog::zionex_dlrm_system();
/// let outcome = Explorer::new(&model, &system)
///     .workload(Workload::pretrain())
///     .space(SearchSpace::strategies())
///     .explore()
///     .unwrap();
/// assert!(outcome.speedup() >= 1.0);
/// ```
#[derive(Debug)]
pub struct Explorer<'a> {
    model: &'a ModelArch,
    system: &'a ClusterSpec,
    workload: Workload,
    space: SearchSpace,
    threads: Option<NonZeroUsize>,
    progress: Option<&'a dyn ProgressSink>,
    verify_winner: bool,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer over the strategy-only space for the
    /// pre-training workload, evaluating candidates on all available
    /// cores.
    pub fn new(model: &'a ModelArch, system: &'a ClusterSpec) -> Self {
        Self {
            model,
            system,
            workload: Workload::pretrain(),
            space: SearchSpace::strategies(),
            threads: None,
            progress: None,
            verify_winner: false,
        }
    }

    /// Verifies the winner's trace and schedule with `madmax-verify`
    /// after the search: the full rule set (trace well-formedness,
    /// schedule legality, pipeline rules, critical path) runs once on the
    /// best candidate, the report lands in [`SearchOutcome::verify`], and
    /// its error/warning counts feed
    /// [`SearchTelemetry::verify_errors`] /
    /// [`SearchTelemetry::verify_warnings`]. One extra one-shot engine
    /// run; the per-candidate hot path is untouched.
    #[must_use]
    pub fn verify_winner(mut self, on: bool) -> Self {
        self.verify_winner = on;
        self
    }

    /// Attaches a [`ProgressSink`] receiving one
    /// [`CandidateEvent`](madmax_obs::CandidateEvent) per evaluated
    /// candidate, live from whichever worker completes it, plus a summary
    /// per evaluation batch. The sink observes the search; it cannot
    /// change its outcome — reports are byte-identical with and without
    /// one attached.
    #[must_use]
    pub fn progress(mut self, sink: &'a dyn ProgressSink) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Sets the workload (default: [`Workload::pretrain`]).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the design space (default: [`SearchSpace::strategies`]).
    #[must_use]
    pub fn space(mut self, space: SearchSpace) -> Self {
        self.space = space;
        self
    }

    /// Caps the worker pool at `n` threads (`1` forces a sequential run;
    /// `0` is treated as `1`). The default is
    /// [`std::thread::available_parallelism`]. Results are deterministic
    /// regardless of the thread count: candidates are reduced in
    /// enumeration order after evaluation.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero"));
        self
    }

    fn worker_count(&self, jobs: usize) -> usize {
        let hw = self
            .threads
            .or_else(|| std::thread::available_parallelism().ok())
            .map_or(1, NonZeroUsize::get);
        hw.min(jobs).max(1)
    }

    /// The baseline plan every candidate is measured against.
    fn base_plan(&self) -> Plan {
        let mut plan = Plan::fsdp_baseline(self.model);
        plan.options.ignore_memory_limits = self.space.ignore_memory_limits;
        plan
    }

    /// The workload variants the serve axes induce (the configured
    /// workload alone when no axis applies).
    pub(crate) fn workload_variants(&self) -> Vec<Workload> {
        match (&self.space.serve, self.workload.serve_config()) {
            (Some(axes), Some(cfg)) if !axes.decode_batch.is_empty() => axes
                .decode_batch
                .iter()
                .map(|&b| Workload::serve(cfg.with_decode_batch(b)))
                .collect(),
            _ => vec![self.workload.clone()],
        }
    }

    /// Enumerates every candidate plan of the space: the cartesian product
    /// of the per-class strategy assignments and the pipeline axes.
    pub fn candidates(&self) -> Vec<Plan> {
        let base = self.base_plan();
        let strategy_plans = if self.space.search_strategies {
            strategy_combos(self.model, self.space.classes.as_deref(), &base)
        } else {
            vec![base.clone()]
        };
        let Some(axes) = &self.space.pipeline else {
            return strategy_plans;
        };
        let mut candidates = Vec::new();
        for strat_plan in &strategy_plans {
            for &p in &axes.stages {
                if p <= 1 {
                    candidates.push(strat_plan.clone());
                    continue;
                }
                for &m in &axes.microbatches {
                    for &sched in &axes.schedules {
                        candidates.push(strat_plan.clone().with_pipeline(PipelineConfig {
                            stages: p,
                            microbatches: m,
                            schedule: sched,
                        }));
                    }
                }
            }
        }
        candidates
    }

    /// Exhaustively explores the space for the throughput-optimal
    /// (plan, workload-variant) combination.
    ///
    /// Without serve axes, candidates are ranked by iteration time (one
    /// fixed workload). With serve axes, the decode batch varies across
    /// candidates, so ranking uses output tokens per second.
    ///
    /// The baseline itself is always part of the outcome, so a feasible
    /// baseline guarantees a result and `speedup() >= 1`.
    ///
    /// The search is an exact, best-first branch-and-bound. The baseline
    /// is simulated first. Per workload variant, every candidate's
    /// iteration-time lower bound ([`Scenario::lower_bound`]) gives an
    /// optimistic score, and the four most promising candidates are
    /// simulated as a fixed first wave. The incumbent is the best of the
    /// baseline, the earlier variants and that wave; every other
    /// candidate whose bound proves it cannot be strictly better than the
    /// incumbent is skipped instead of simulated (see
    /// [`SearchOutcome::evaluated`]). The winner, its report and every
    /// outcome counter are those of simulating every candidate, and the
    /// skipped set is the same at any thread count.
    ///
    /// # Errors
    ///
    /// Returns the baseline's error if even the flat FSDP baseline is
    /// infeasible.
    ///
    /// # Panics
    ///
    /// Panics when the space carries [`ServeAxes`] but the workload is
    /// not [`Workload::Serve`] — the axis would otherwise be silently
    /// ignored.
    pub fn explore(&self) -> Result<SearchOutcome, EngineError> {
        let started = Instant::now();
        let base_plan = self.base_plan();
        let base_workload = self.workload_variants().swap_remove(0);
        let baseline = Scenario::new(self.model, self.system)
            .plan_ref(&base_plan)
            .workload_ref(&base_workload)
            .run()?;
        // The first best wins: the baseline, then candidates in
        // enumeration order, each replacing it only when strictly better.
        let serve_ranked = self.space.serve.is_some() && self.workload.serve_config().is_some();
        let score = |r: &IterationReport| -> f64 {
            r.serve_tokens_per_sec()
                .unwrap_or_else(|| r.samples_per_sec())
        };
        let better = |r: &IterationReport, best: &IterationReport| {
            if serve_ranked {
                score(r) > score(best)
            } else {
                r.iteration_time < best.iteration_time
            }
        };
        // The branch-and-bound ranks by the same order on a positive
        // scale: tokens/s when serve-ranked, else reciprocal iteration
        // time. A candidate's iteration time is at least its lower bound,
        // so its score is at most the bound's.
        let rank = |r: &IterationReport| {
            if serve_ranked {
                score(r)
            } else {
                1.0 / r.iteration_time.as_secs()
            }
        };
        let optimistic = |s: &Scenario<'_>| -> Result<Option<[f64; 1]>, EngineError> {
            Ok(s.lower_bound()?.and_then(|bound| {
                if serve_ranked {
                    s.serve_tokens_per_iteration()
                        .map(|tokens| [tokens / bound.as_secs()])
                } else {
                    Some([1.0 / bound.as_secs()])
                }
            }))
        };
        let scored = |r: &Option<IterationReport>| r.as_ref().map(|r| [rank(r)]);
        // The baseline combo re-appears among the candidates; the driver
        // counts it `ok` instead of simulating it again. A pruned
        // candidate stays `ok` but is not simulated (`None`).
        let (driven, mut telemetry) = self.drive(&Objective {
            pricing: Pricing::Variant,
            known: Some((&base_workload, &base_plan)),
            step: |s: &Scenario<'_>, scratch: &mut EngineScratch| s.run_in(scratch).map(Some),
            iteration_ms: |r: &Option<IterationReport>| {
                r.as_ref().map(|r| r.iteration_time.as_ms())
            },
            prune: Some(Prune {
                optimistic: &optimistic,
                score: &scored,
                pruned: || None,
                floor: [rank(&baseline)],
            }),
        });

        let (best_plan, best_workload, best) = driven
            .into_candidates()
            .filter_map(|c| Some((c.plan, c.workload, c.result.ok()??)))
            .fold((base_plan, base_workload, baseline.clone()), |best, c| {
                if better(&c.2, &best.2) {
                    c
                } else {
                    best
                }
            });

        let verify = if self.verify_winner {
            let (_, trace, sched) = Scenario::new(self.model, self.system)
                .plan_ref(&best_plan)
                .workload_ref(&best_workload)
                .run_with_trace()?;
            let report = madmax_verify::Verifier::for_plan(&best_plan, &best_workload)
                .verify(&trace, &sched);
            telemetry.verify_errors += report.error_count() as u64;
            telemetry.verify_warnings += report.warning_count() as u64;
            Some(report)
        } else {
            None
        };

        // End-to-end search wall-clock (including the baseline run),
        // not the sum of per-variant batch times.
        telemetry.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(SearchOutcome {
            best_plan,
            best_workload,
            best,
            baseline,
            evaluated: telemetry.candidates as usize,
            oom: telemetry.oom as usize,
            unmappable: telemetry.unmappable as usize,
            invalid: telemetry.invalid as usize,
            telemetry,
            verify,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::{catalog, DeviceScaling};
    use madmax_model::ModelId;
    use madmax_parallel::ServeConfig;

    #[test]
    fn strategy_space_beats_baseline_for_dlrm() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let r = Explorer::new(&model, &sys).explore().unwrap();
        assert!(r.speedup() >= 1.0);
        assert!(r.speedup() < 4.0, "speedup {:.2} suspicious", r.speedup());
        assert!(r.evaluated > 100);
        assert!(r.oom > 0, "some DLRM mappings must be infeasible");
        assert_eq!(r.unmappable, 0, "no pipeline axes in this space");
        assert_eq!(r.best_workload, Workload::pretrain());
    }

    #[test]
    fn unconstrained_space_at_least_matches_constrained() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let constrained = Explorer::new(&model, &sys).explore().unwrap();
        let unconstrained = Explorer::new(&model, &sys)
            .space(SearchSpace::strategies().unconstrained())
            .explore()
            .unwrap();
        assert!(unconstrained.best.iteration_time <= constrained.best.iteration_time);
        assert_eq!(unconstrained.oom, 0);
    }

    #[test]
    fn restricted_space_touches_only_listed_classes() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let r = Explorer::new(&model, &sys)
            .space(SearchSpace::strategies().with_classes(vec![LayerClass::Dense]))
            .explore()
            .unwrap();
        assert_eq!(
            r.best_plan.strategy_for(LayerClass::Embedding),
            Plan::fsdp_baseline(&model).strategy_for(LayerClass::Embedding)
        );
        assert_eq!(r.evaluated, 12);
    }

    #[test]
    fn joint_pipeline_space_wins_on_constrained_network() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system().scaled(&DeviceScaling::inter_bw_only(1.0 / 8.0));
        let mut space = SearchSpace::pipeline_for(&sys);
        space.pipeline.as_mut().unwrap().microbatches = vec![16, 32];
        let r = Explorer::new(&model, &sys).space(space).explore().unwrap();
        assert!(r.pipeline_won(), "winner: {}", r.best_plan.summary());
        assert!(
            r.speedup() > 1.05,
            "pipeline should beat the pp=1 baseline, got {:.3}x",
            r.speedup()
        );
        assert!(r.evaluated > 8);
    }

    #[test]
    fn every_candidate_is_tallied() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let space = SearchSpace::strategies()
            .with_classes(vec![LayerClass::Transformer])
            .with_pipeline(PipelineAxes {
                stages: vec![1, 8],
                microbatches: vec![16],
                schedules: vec![PipelineSchedule::GPipe],
            });
        let r = Explorer::new(&model, &sys).space(space).explore().unwrap();
        // 12 transformer strategies x (pp=1 + pp=8x16xGPipe) = 24
        // candidates, each accounted for.
        assert_eq!(r.evaluated, 24);
        assert!(r.oom > 0, "replication-heavy combos must OOM: {r:?}");
        assert!(r.best.iteration_time <= r.baseline.iteration_time);
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let sequential = Explorer::new(&model, &sys).threads(1).explore().unwrap();
        let parallel = Explorer::new(&model, &sys).threads(8).explore().unwrap();
        assert_eq!(sequential.best_plan, parallel.best_plan);
        assert_eq!(sequential.best, parallel.best);
        assert_eq!(sequential.evaluated, parallel.evaluated);
        assert_eq!(sequential.oom, parallel.oom);
        assert_eq!(sequential.invalid, parallel.invalid);
    }

    #[test]
    fn evaluate_preserves_plan_order() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let explorer = Explorer::new(&model, &sys).threads(4);
        let plans = explorer.candidates();
        let par = explorer.evaluate(&plans);
        let seq: Vec<_> = plans
            .iter()
            .map(|p| {
                Scenario::new(&model, &sys)
                    .plan(p.clone())
                    .workload(Workload::pretrain())
                    .run()
            })
            .collect();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.is_ok(), b.is_ok());
            if let (Ok(a), Ok(b)) = (a, b) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "serve axes")]
    fn serve_axes_without_a_serve_workload_are_rejected() {
        // A forgotten `.workload(Workload::serve(..))` must not silently
        // drop the requested decode-batch axis.
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let _ = Explorer::new(&model, &sys)
            .space(SearchSpace::strategies().with_serve(ServeAxes::batches([256, 512])))
            .explore();
    }

    #[test]
    fn serve_axes_sweep_the_decode_batch() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let workload = Workload::serve(ServeConfig::new(512, 16));
        let space = SearchSpace::default()
            .with_serve(ServeAxes::batches([256, 512, 1024]))
            .with_pipeline(PipelineAxes {
                stages: vec![1, 8],
                microbatches: vec![8],
                schedules: vec![PipelineSchedule::GPipe],
            });
        let r = Explorer::new(&model, &sys)
            .workload(workload)
            .space(space)
            .explore()
            .unwrap();
        // (pp=1 + pp=8) x 3 batches = 6 candidates.
        assert_eq!(r.evaluated, 6);
        let cfg = r.best_workload.serve_config().unwrap();
        assert!([256, 512, 1024].contains(&cfg.decode_batch.unwrap()));
        assert!(r.best.serve_tokens_per_sec().unwrap() > 0.0);
        // The winner maximizes output tokens/sec across every variant.
        for &b in &[256usize, 512, 1024] {
            let variant = Workload::serve(ServeConfig::new(512, 16).with_decode_batch(b));
            for plan in Explorer::new(&model, &sys)
                .workload(variant.clone())
                .space(SearchSpace::default().with_pipeline(PipelineAxes {
                    stages: vec![1, 8],
                    microbatches: vec![8],
                    schedules: vec![PipelineSchedule::GPipe],
                }))
                .candidates()
            {
                if let Ok(rep) = Scenario::new(&model, &sys)
                    .plan(plan)
                    .workload(variant.clone())
                    .run()
                {
                    assert!(
                        rep.serve_tokens_per_sec().unwrap()
                            <= r.best.serve_tokens_per_sec().unwrap() + 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn telemetry_reconciles_with_the_outcome_counters() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let r = Explorer::new(&model, &sys).explore().unwrap();
        let t = &r.telemetry;
        assert!(t.reconciles(), "telemetry does not reconcile: {t:?}");
        assert_eq!(t.candidates, r.evaluated as u64);
        assert_eq!(t.oom, r.oom as u64);
        assert_eq!(t.unmappable, r.unmappable as u64);
        assert_eq!(t.invalid, r.invalid as u64);
        // Every candidate flows through the shared flat cost table: the
        // price-vs-reuse events must cover all (candidate, class) pairs.
        assert!(t.flat_cache.total() > 0, "flat cache saw no traffic: {t:?}");
        assert!(t.flat_cache.hits > 0, "identical classes must reuse prices");
        assert!(t.eval_latency.count > 0);
        assert!(t.wall_ms > 0.0);
        assert!(!t.workers.is_empty());
        let by_worker: u64 = t.workers.iter().map(|w| w.candidates).sum();
        assert_eq!(by_worker, t.eval_latency.count);
    }

    #[test]
    fn pipeline_search_reports_memo_and_pipeline_cache_stats() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let space = SearchSpace::strategies()
            .with_classes(vec![LayerClass::Transformer])
            .with_pipeline(PipelineAxes {
                stages: vec![1, 8],
                microbatches: vec![16],
                schedules: vec![PipelineSchedule::GPipe],
            });
        let r = Explorer::new(&model, &sys).space(space).explore().unwrap();
        let t = &r.telemetry;
        assert!(t.reconciles());
        assert!(
            t.pipeline_cache.total() > 0,
            "pipelined candidates price through the shared table"
        );
        // Training traces depend on the schedule, so a training search
        // never touches the report memo.
        assert_eq!(t.report_memo.total(), 0);
    }

    #[test]
    fn verified_winner_is_clean_and_counted_in_telemetry() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let space = SearchSpace::default().with_pipeline(PipelineAxes {
            stages: vec![1, 8],
            microbatches: vec![16],
            schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
        });
        let r = Explorer::new(&model, &sys)
            .space(space)
            .verify_winner(true)
            .explore()
            .unwrap();
        let report = r.verify.as_ref().expect("verify option fills the report");
        assert!(report.is_clean(), "{report}");
        assert_eq!(r.telemetry.verify_errors, 0);
        assert_eq!(r.telemetry.verify_warnings, report.warning_count() as u64);
        let cp = report.critical_path.expect("schedule pass ran");
        assert!(cp.lower_bound <= r.best.iteration_time);
        // Off by default: no report, no counters.
        let quiet = Explorer::new(&model, &sys).explore().unwrap();
        assert!(quiet.verify.is_none());
        assert_eq!(quiet.telemetry.verify_errors, 0);
    }

    #[test]
    fn progress_sink_sees_every_candidate_at_any_thread_count() {
        use madmax_obs::{CandidateEvent, CandidateOutcome};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        #[derive(Debug, Default)]
        struct CountingSink {
            events: AtomicU64,
            ok: AtomicU64,
            unsimulated: Mutex<Vec<usize>>,
            finished: AtomicU64,
        }
        impl ProgressSink for CountingSink {
            fn candidate_completed(&self, event: &CandidateEvent) {
                self.events.fetch_add(1, Ordering::Relaxed);
                if event.outcome == CandidateOutcome::Ok {
                    if event.iteration_ms.is_none() {
                        self.unsimulated.lock().unwrap().push(event.index);
                    }
                    self.ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    assert!(event.iteration_ms.is_none());
                }
                assert!(event.index < event.total);
                assert!(event.eval_us >= 0.0);
            }
            fn search_finished(&self, telemetry: &SearchTelemetry) {
                assert!(telemetry.reconciles());
                self.finished.fetch_add(1, Ordering::Relaxed);
            }
        }

        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let quiet = Explorer::new(&model, &sys).threads(1).explore().unwrap();
        assert!(quiet.telemetry.pruned > 0, "{:?}", quiet.telemetry);
        // Event indices are positions in the candidate list minus the
        // baseline duplicate, which the driver resolves without an event.
        let mut evaluated = Explorer::new(&model, &sys).candidates();
        let baseline_plan = Plan::fsdp_baseline(&model);
        evaluated.retain(|p| *p != baseline_plan);
        for threads in [1, 4] {
            let sink = CountingSink::default();
            let r = Explorer::new(&model, &sys)
                .threads(threads)
                .progress(&sink)
                .explore()
                .unwrap();
            // One event per freshly-evaluated candidate (the baseline
            // duplicate is resolved from its cached report, sink-free).
            let fired = sink.events.load(Ordering::Relaxed);
            assert_eq!(fired, r.telemetry.eval_latency.count);
            assert_eq!(fired, r.evaluated as u64 - 1);
            assert_eq!(sink.ok.load(Ordering::Relaxed), r.telemetry.ok - 1);
            assert_eq!(sink.finished.load(Ordering::Relaxed), 1);
            // `ok` events carry no iteration time exactly for the pruned
            // candidates, each of which provably loses to the winner.
            let unsimulated = sink.unsimulated.into_inner().unwrap();
            assert_eq!(unsimulated.len() as u64, r.telemetry.pruned);
            assert_eq!(r.telemetry.pruned, quiet.telemetry.pruned);
            for i in unsimulated {
                let report = Scenario::new(&model, &sys)
                    .plan_ref(&evaluated[i])
                    .run()
                    .unwrap();
                assert!(report.iteration_time > r.best.iteration_time);
            }
            // Attaching a sink must not perturb the search result.
            assert_eq!(r.best_plan, quiet.best_plan);
            assert_eq!(r.best, quiet.best);
        }
    }
}
