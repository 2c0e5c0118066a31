//! The [`Scenario`] builder: one entry point for flat and pipelined
//! simulation of any [`Workload`].

use std::borrow::Cow;
use std::cell::RefCell;

use madmax_core::collective::{CollectiveModel, HierarchicalNccl};
use madmax_core::compute::UtilizationModel;
use madmax_core::steady::grid_units;
use madmax_core::{CostTable, EngineScratch, IterationReport, Schedule, Trace};
use madmax_fault::{
    expected_goodput, young_daly_interval, CheckpointModel, FaultEvent, FaultSpec, GoodputReport,
    RetryPolicy,
};
use madmax_hw::units::Seconds;
use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::{LoadSpec, MemoryBreakdown, Plan, PlanError, ServeConfig, Workload};
use madmax_pipeline::PipelineCostTable;
use madmax_serve::{LoadOutcome, ProbeRun, SimMode, StepCostModel};

use crate::error::EngineError;
use crate::probes::LoadProbeTables;

/// Everything a failure-aware training-goodput evaluation produces.
#[derive(Debug, Clone)]
pub struct GoodputOutcome {
    /// The fault-free iteration report (its `memory` breakdown prices
    /// the checkpoint).
    pub report: IterationReport,
    /// Priced checkpoint/restart costs of this plan on this cluster.
    pub ckpt: CheckpointModel,
    /// The closed-form expected-goodput evaluation.
    pub goodput: GoodputReport,
}

/// A cost table a plan evaluates against: one attached to the scenario
/// and shared across candidates, or a one-plan table priced for the call.
enum Table<'t, T> {
    Attached(&'t T),
    Priced(T),
}

impl<T> std::ops::Deref for Table<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Table::Attached(table) => table,
            Table::Priced(table) => table,
        }
    }
}

/// One simulation scenario: a model mapped onto a system by a plan,
/// executing a workload.
///
/// `Scenario` is the single front door to the MAD-Max performance model.
/// [`Scenario::run_in`] — behind every other entry point — inspects the
/// plan's [`madmax_parallel::PipelineConfig`] and dispatches to the flat
/// SPMD engine (`madmax_core::run_flat_cached`) or the pipeline engine
/// (`madmax_pipeline::run_pipelined_cached`), returning the same
/// [`IterationReport`] either way and one [`EngineError`] on failure.
///
/// The workload axis spans training and serving:
/// [`Workload::pretrain`], [`Workload::finetune`], and
/// [`Workload::serve`] (prefill + token-level decode with a KV-cache;
/// serve runs additionally report TTFT/TPOT through
/// [`IterationReport::serve`]).
///
/// # Examples
///
/// ```
/// use madmax_engine::Scenario;
/// use madmax_hw::catalog;
/// use madmax_model::ModelId;
/// use madmax_parallel::{PipelineConfig, Plan, ServeConfig, Workload};
///
/// # fn main() -> Result<(), madmax_engine::EngineError> {
/// let model = ModelId::Llama2.build();
/// let system = catalog::llama_llm_system();
///
/// // Flat plan (the default FSDP baseline) ...
/// let flat = Scenario::new(&model, &system).run()?;
///
/// // ... a pipelined plan, through the same entry point ...
/// let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::one_f_one_b(8, 32));
/// let piped = Scenario::new(&model, &system)
///     .workload(Workload::pretrain())
///     .plan(plan.clone())
///     .run()?;
/// assert!(flat.bubble_fraction.is_none());
/// assert!(piped.bubble_fraction.unwrap() > 0.0);
///
/// // ... and a serve-mode scenario: prefill a 1K prompt, decode 128
/// // tokens per sequence, pipelining the decode stream.
/// let serve = Scenario::new(&model, &system)
///     .workload(Workload::serve(ServeConfig::new(1024, 128)))
///     .plan(plan)
///     .run()?;
/// let stats = serve.serve.unwrap();
/// assert!(stats.ttft > stats.tpot);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scenario<'a> {
    model: &'a ModelArch,
    system: &'a ClusterSpec,
    plan: Option<Cow<'a, Plan>>,
    workload: Cow<'a, Workload>,
    collectives: &'a dyn CollectiveModel,
    utilization: UtilizationModel,
    costs: Option<&'a CostTable<'a>>,
    pipeline_costs: Option<&'a PipelineCostTable<'a>>,
    load_probes: Option<&'a LoadProbeTables<'a>>,
    analytic_serve: bool,
}

impl<'a> Scenario<'a> {
    /// Creates a scenario with the FSDP-baseline plan, the pre-training
    /// workload, the default NCCL-style collective model, and constant
    /// compute utilization.
    pub fn new(model: &'a ModelArch, system: &'a ClusterSpec) -> Self {
        Self {
            model,
            system,
            plan: None,
            workload: Cow::Owned(Workload::pretrain()),
            collectives: &HierarchicalNccl,
            utilization: UtilizationModel::Constant,
            costs: None,
            pipeline_costs: None,
            load_probes: None,
            analytic_serve: true,
        }
    }

    /// Enables or disables the closed-form steady-state decode path
    /// (`madmax_core::steady`) for every evaluation of this scenario:
    /// [`Scenario::run_in`], [`Scenario::run`] and [`Scenario::price_load`]'s
    /// probes, against one-plan tables and attached ones
    /// ([`Scenario::costs`], [`Scenario::pipeline_costs`],
    /// [`Scenario::load_probes`]) alike. On by default; the closed form is
    /// byte-identical to full simulation, so this is the switch for A/B
    /// validation and an escape hatch. An attached pipeline table returns
    /// the report it already memoized for a forward-only candidate's
    /// entry, whichever setting produced it. [`Scenario::run_with_trace`]
    /// always simulates in full.
    #[must_use]
    pub fn analytic_serve(mut self, on: bool) -> Self {
        self.analytic_serve = on;
        self
    }

    /// Sets the workload (default: [`Workload::pretrain`]).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Cow::Owned(workload);
        self
    }

    /// Borrow-based variant of [`Scenario::workload`]: references the
    /// caller's workload instead of cloning it (the
    /// design-space-exploration hot path runs thousands of scenarios
    /// against one workload).
    #[must_use]
    pub fn workload_ref(mut self, workload: &'a Workload) -> Self {
        self.workload = Cow::Borrowed(workload);
        self
    }

    /// Sets the parallelization plan (default: [`Plan::fsdp_baseline`]).
    /// A plan with an active pipeline config routes the scenario through
    /// the pipeline engine.
    #[must_use]
    pub fn plan(mut self, plan: Plan) -> Self {
        self.plan = Some(Cow::Owned(plan));
        self
    }

    /// Borrow-based variant of [`Scenario::plan`]: references the caller's
    /// plan instead of cloning it.
    #[must_use]
    pub fn plan_ref(mut self, plan: &'a Plan) -> Self {
        self.plan = Some(Cow::Borrowed(plan));
        self
    }

    /// Attaches a shared, pre-priced [`CostTable`] (see
    /// `madmax_core::costs`): [`Scenario::run_in`] then evaluates flat
    /// plans by assembling cached costs instead of re-pricing every GEMM
    /// and collective. The table must have been priced for this scenario's
    /// model, system, and workload, and must cover the plan's strategies.
    #[must_use]
    pub fn costs(mut self, table: &'a CostTable<'a>) -> Self {
        self.costs = Some(table);
        self
    }

    /// Attaches a shared, pre-priced [`PipelineCostTable`] (see
    /// `madmax_pipeline::table`), the pipelined twin of
    /// [`Scenario::costs`]: [`Scenario::run_in`] then evaluates pipelined
    /// plans by assembling cached stage costs instead of re-partitioning
    /// and re-pricing every stage. The table must have been priced for
    /// this scenario's model, system, and workload, and must cover the
    /// plan's (depth, assignment, microbatches) key.
    #[must_use]
    pub fn pipeline_costs(mut self, table: &'a PipelineCostTable<'a>) -> Self {
        self.pipeline_costs = Some(table);
        self
    }

    /// Attaches shared load-probe tables (see
    /// [`Scenario::price_load_probes`]): [`Scenario::price_load`] then
    /// checks and runs each probe against the tables of the probe's
    /// shape instead of pricing one-plan tables per probe. Probes of a
    /// shape the tables do not hold, of a plan the
    /// shape's table does not cover ([`CostTable::covers`],
    /// [`PipelineCostTable::covers`]) fall back to one-plan tables; the
    /// cost model is byte-identical either way. The tables must have been
    /// priced for this scenario's model, system, and cost models.
    #[must_use]
    pub fn load_probes(mut self, tables: &'a LoadProbeTables<'a>) -> Self {
        self.load_probes = Some(tables);
        self
    }

    /// Replaces the collective cost model (ablation studies).
    #[must_use]
    pub fn collectives(mut self, m: &'a dyn CollectiveModel) -> Self {
        self.collectives = m;
        self
    }

    /// Replaces the compute-utilization model (e.g. the workload-dependent
    /// MFU model of Fig. 8).
    #[must_use]
    pub fn utilization(mut self, u: UtilizationModel) -> Self {
        self.utilization = u;
        self
    }

    /// The plan this scenario will execute (the configured one, or the
    /// FSDP baseline).
    pub(crate) fn effective_plan(&self) -> Plan {
        match &self.plan {
            Some(p) => p.clone().into_owned(),
            None => Plan::fsdp_baseline(self.model),
        }
    }

    fn is_pipelined(plan: &Plan) -> bool {
        plan.pipeline.is_some_and(|c| c.is_pipelined())
    }

    /// Runs `f` against the effective plan without cloning a configured
    /// plan.
    fn with_plan<R>(&self, f: impl FnOnce(&Plan) -> R) -> R {
        match &self.plan {
            Some(p) => f(p),
            None => f(&Plan::fsdp_baseline(self.model)),
        }
    }

    /// Prices one [`CostTable`] covering every flat plan in `plans`
    /// (pipelined plans are skipped — the stage engine prices per
    /// sub-cluster and microbatch). The table inherits this scenario's
    /// model, system, workload, and cost models, and is `Sync`: build it
    /// once per search and share it read-only across worker threads.
    ///
    /// All plans must share the same pricing-relevant options
    /// (`activation_checkpointing`, `collective_dtype`); this is asserted.
    pub fn price_plans(&self, plans: &[Plan]) -> CostTable<'a> {
        self.price_flat(plans.iter())
    }

    /// [`Scenario::price_plans`] over any plan sequence.
    fn price_flat<'p>(&self, plans: impl Iterator<Item = &'p Plan>) -> CostTable<'a> {
        let mut plans = plans.peekable();
        let options = plans
            .peek()
            .map_or_else(|| self.effective_plan().options, |p| p.options);
        let mut table = CostTable::new(
            self.model,
            self.system,
            self.workload.as_ref().clone(),
            options,
            self.collectives,
            self.utilization,
            1,
        );
        for plan in plans.filter(|p| !Self::is_pipelined(p)) {
            table.ensure_plan(plan);
        }
        table
    }

    /// Prices one [`PipelineCostTable`] covering every pipelined plan in
    /// `plans` (flat plans are skipped — they are [`Scenario::price_plans`]'
    /// business), every feasible plan's stage costs summed. The table
    /// inherits this scenario's model, system, workload, and cost models,
    /// and is `Sync`: build it once per search and share it read-only
    /// across worker threads.
    ///
    /// All plans must share the same pricing-relevant options; this is
    /// asserted.
    pub fn price_pipeline_plans(&self, plans: &[Plan]) -> PipelineCostTable<'a> {
        let table = self.price_pipeline(plans.iter());
        for plan in plans {
            // Sums the key's stage costs; error-shaped plans just report.
            let _ = table.priced_for(plan);
        }
        table
    }

    /// [`Scenario::price_pipeline_plans`] with every key's stage costs
    /// deferred to the first candidate priced against it
    /// ([`PipelineCostTable::ensure_plan_deferred`]): a search that rules
    /// whole families out by [`Scenario::family_lower_bound`] never sums
    /// their stages. Evaluations against it are byte-identical to ones
    /// against the fully priced table.
    ///
    /// All plans must share the same pricing-relevant options; this is
    /// asserted.
    pub fn price_pipeline_deferred(&self, plans: &[Plan]) -> PipelineCostTable<'a> {
        self.price_pipeline(plans.iter())
    }

    /// [`Scenario::price_pipeline_deferred`] over any plan sequence.
    fn price_pipeline<'p>(&self, plans: impl Iterator<Item = &'p Plan>) -> PipelineCostTable<'a> {
        let mut plans = plans.peekable();
        let options = plans
            .peek()
            .map_or_else(|| self.effective_plan().options, |p| p.options);
        let mut table = PipelineCostTable::new(
            self.model,
            self.system,
            self.workload.as_ref().clone(),
            options,
            self.collectives,
            self.utilization,
        );
        for plan in plans.filter(|p| Self::is_pipelined(p)) {
            table.ensure_plan_deferred(plan);
        }
        table
    }

    /// This scenario with `workload`, detached from any attached tables
    /// (so [`Scenario::run_in`] prices one-plan tables of its own).
    fn detached<'s>(&'s self, workload: Cow<'s, Workload>) -> Scenario<'s> {
        Scenario {
            model: self.model,
            system: self.system,
            plan: self.plan.as_deref().map(Cow::Borrowed),
            workload,
            collectives: self.collectives,
            utilization: self.utilization,
            costs: None,
            pipeline_costs: None,
            load_probes: None,
            analytic_serve: self.analytic_serve,
        }
    }

    /// Rejects serve workloads the engines cannot price: a zero prompt,
    /// a zero decode batch, or a KV-cache length (prompt + decode) that
    /// overflows.
    fn check_workload(&self) -> Result<(), EngineError> {
        let Some(cfg) = self.workload.serve_config() else {
            return Ok(());
        };
        let problem = if cfg.prompt_len == Some(0) {
            "needs prompt_len >= 1"
        } else if cfg.decode_batch == Some(0) {
            "needs decode_batch >= 1"
        } else if cfg
            .max_kv_len(cfg.effective_prompt_len(self.model))
            .is_none()
        {
            "overflows the KV-cache length prompt_len + decode_len"
        } else {
            return Ok(());
        };
        Err(EngineError::InvalidLoad {
            reason: format!("serve workload `{}` {problem}", self.workload),
        })
    }

    /// Runs the scenario through caller-owned buffers: the one evaluation
    /// door behind every other entry point. It picks the engine from the
    /// plan and evaluates against the attached [`CostTable`] /
    /// [`PipelineCostTable`] (see [`Scenario::costs`]), or else against a
    /// one-plan table it prices itself; `scratch`'s trace arena,
    /// schedule, and stream table are recycled either way. Attached and
    /// one-plan tables produce byte-identical reports.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn run_in(&self, scratch: &mut EngineScratch) -> Result<IterationReport, EngineError> {
        self.check_workload()?;
        self.with_plan(|plan| {
            let report = if Self::is_pipelined(plan) {
                let table = self.pipeline_table(plan);
                madmax_pipeline::run_pipelined_cached(&table, plan, scratch, self.analytic_serve)
            } else {
                let table = self.flat_table(plan);
                madmax_core::run_flat_cached(&table, plan, scratch, self.analytic_serve)
            };
            report.map_err(EngineError::from)
        })
    }

    /// The time to first token [`Scenario::run_in`] would report
    /// ([`madmax_core::ServeStats::ttft`]), bit for bit, from the serve
    /// wave's prefill alone: the same workload and feasibility checks
    /// against the same tables, then only the prefill is assembled and
    /// scheduled ([`madmax_core::prefill_ttft`]). `None` for workloads
    /// without decode steps. It never reads or fills the pipeline report
    /// memo, and no closed-form counter records it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn ttft_in(&self, scratch: &mut EngineScratch) -> Result<Option<Seconds>, EngineError> {
        self.check_workload()?;
        self.with_plan(|plan| {
            let ttft = if Self::is_pipelined(plan) {
                let table = self.pipeline_table(plan);
                madmax_pipeline::pipelined_ttft_cached(&table, plan, scratch)
            } else {
                let table = self.flat_table(plan);
                madmax_core::flat_ttft_cached(&table, plan, scratch)
            };
            ttft.map_err(EngineError::from)
        })
    }

    /// A sound lower bound on the iteration time [`Scenario::run_in`]
    /// reports, computed from the priced tables without assembling or
    /// scheduling a trace: the busiest stream's summed op durations
    /// ([`CostTable::busy_lower_bound`]; streams run one op at a time in
    /// issue order). A pipelined plan also charges each stage's compute
    /// stream its fill and drain ([`madmax_pipeline::busy_lower_bound`]):
    /// its first forward waits for microbatch 0's forward chain through
    /// the earlier stages, and its last pass for the gradient (or
    /// activation) chain that follows it; with decode steps, its first
    /// decode unit also waits for group 0's prefill through every stage,
    /// and its last one leaves that step's decode chain to the last stage.
    /// Searches use it to skip candidates that provably cannot win, and
    /// bound whole families of pipelined candidates at once first
    /// ([`Scenario::family_lower_bound`], never above any member's bound).
    /// `None` only for a pipelined serve plan with decode steps whose
    /// busiest stream total leaves the duration grid's exact range (flat
    /// serve plans then sum in issue order instead).
    ///
    /// It runs the workload check and the memory/pipeline feasibility
    /// check first ([`Scenario::check_feasible`]), against the same tables
    /// as [`Scenario::run_in`], so every plan `run_in` rejects is rejected
    /// here with the same error.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn lower_bound(&self) -> Result<Option<Seconds>, EngineError> {
        Ok(self.lower_bound_with_memory()?.map(|(bound, _)| bound))
    }

    /// [`Scenario::lower_bound`] together with the per-device memory
    /// breakdown its feasibility check folded: the breakdown
    /// [`Scenario::run_in`] reports as [`IterationReport::memory`], so a
    /// search can price the plan's checkpoint
    /// ([`Scenario::goodput_points`]) before simulating it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn lower_bound_with_memory(
        &self,
    ) -> Result<Option<(Seconds, MemoryBreakdown)>, EngineError> {
        self.with_feasible(
            |table, plan, memory| Some((table.busy_lower_bound(plan), memory)),
            |table, plan| {
                let priced = table.priced_for(plan)?;
                let bound = madmax_pipeline::busy_lower_bound(
                    priced.primary,
                    &priced.cfg,
                    table.workload().has_backward(),
                    priced.decode.zip(table.serve_dims()),
                );
                Ok(bound.map(|bound| (bound, priced.memory)))
            },
        )
    }

    /// The feasibility half of [`Scenario::lower_bound`]: the workload
    /// check, then the plan resolved against the tables
    /// [`Scenario::run_in`] would use (the flat memory fold and HBM gate,
    /// or the pipeline table's partition, memory and microbatch checks),
    /// without reading a pipelined plan's stage costs. Every plan `run_in`
    /// rejects is rejected here with the same error.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn check_feasible(&self) -> Result<(), EngineError> {
        self.with_feasible(|_, _, _| (), |table, plan| table.check(plan).map(|_| ()))
    }

    /// A lower bound on [`Scenario::lower_bound`] of every plan in
    /// `members` on this scenario's workload, computed once for all of
    /// them ([`PipelineCostTable::family_lower_bound`]): the fill/drain
    /// walk of per-stage floor costs, each comm piece the cheapest among
    /// the members' strategies, deflated so that rounding never lifts it
    /// above a member's bound, bit for bit. The members must be feasible
    /// pipelined plans ([`Scenario::check_feasible`]) sharing one depth,
    /// microbatch count and schedule; a search passes a family, which
    /// also shares the strategy of [`madmax_pipeline::family_class`].
    /// Reads the attached [`Scenario::pipeline_costs`] table (it must
    /// have registered every member), or prices one for the members.
    /// `None` for workloads with decode steps, infeasible or mixed
    /// members, and walks too long for the deflation to cover.
    pub fn family_lower_bound(&self, members: &[&Plan]) -> Option<Seconds> {
        self.check_workload().ok()?;
        match self.pipeline_costs {
            Some(table) => table.family_lower_bound(members),
            None => self
                .price_pipeline(members.iter().copied())
                .family_lower_bound(members),
        }
    }

    /// Runs the workload check, then resolves the plan against the tables
    /// [`Scenario::run_in`] would use: a flat plan's memory fold and HBM
    /// gate, handing a feasible one to `flat` with its memory breakdown,
    /// or `pipelined` with its resolved table, which runs the pipeline
    /// table's checks itself. Nothing is assembled or scheduled.
    fn with_feasible<R>(
        &self,
        flat: impl FnOnce(&CostTable<'a>, &Plan, MemoryBreakdown) -> R,
        pipelined: impl FnOnce(&PipelineCostTable<'a>, &Plan) -> Result<R, PlanError>,
    ) -> Result<R, EngineError> {
        self.check_workload()?;
        self.with_plan(|plan| {
            if Self::is_pipelined(plan) {
                let table = self.pipeline_table(plan);
                Ok(pipelined(&table, plan)?)
            } else {
                let table = self.flat_table(plan);
                let memory = table.memory_for(plan)?;
                Ok(flat(&table, plan, memory))
            }
        })
    }

    /// Output tokens one iteration of this scenario's serve workload
    /// generates (decode batch × decode length: the numerator of
    /// [`IterationReport::serve_tokens_per_sec`]), or `None` without
    /// decode steps.
    pub fn serve_tokens_per_iteration(&self) -> Option<f64> {
        let cfg = self.workload.serve_config().filter(|c| c.has_decode())?;
        Some((cfg.effective_batch(self.model) * cfg.decode_len) as f64)
    }

    /// The flat cost table `plan` evaluates against: the attached one, or
    /// a one-plan table priced here.
    fn flat_table(&self, plan: &Plan) -> Table<'a, CostTable<'a>> {
        match self.costs {
            Some(table) => {
                debug_assert!(
                    std::ptr::eq(table.model(), self.model)
                        && std::ptr::eq(table.cluster(), self.system)
                        && table.workload() == self.workload.as_ref(),
                    "cost table priced for a different scenario"
                );
                Table::Attached(table)
            }
            None => Table::Priced(self.price_plans(std::slice::from_ref(plan))),
        }
    }

    /// The pipeline cost table `plan` evaluates against: the attached one,
    /// or a one-plan table priced here.
    fn pipeline_table(&self, plan: &Plan) -> Table<'a, PipelineCostTable<'a>> {
        match self.pipeline_costs {
            Some(table) => {
                debug_assert!(
                    std::ptr::eq(table.model(), self.model)
                        && std::ptr::eq(table.cluster(), self.system)
                        && table.workload() == self.workload.as_ref(),
                    "pipeline cost table priced for a different scenario"
                );
                Table::Attached(table)
            }
            None => Table::Priced(self.price_pipeline_deferred(std::slice::from_ref(plan))),
        }
    }

    /// Runs the scenario end to end: [`Scenario::run_in`] on fresh
    /// buffers. Serve workloads with long decode streams take the
    /// closed-form steady-state path unless
    /// [`Scenario::analytic_serve`] is off — the report is byte-identical
    /// either way.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfMemory`] when the mapping does not fit in
    /// device memory, [`EngineError::InvalidLoad`] for a serve workload
    /// with a zero prompt or decode batch, [`EngineError::InvalidPlan`]
    /// for everything else (invalid strategy/class combinations,
    /// unmappable pipelines, ...).
    pub fn run(&self) -> Result<IterationReport, EngineError> {
        self.run_in(&mut EngineScratch::new())
    }

    /// Runs the scenario, also returning the trace and schedule for
    /// timeline rendering and verification (for pipelined plans, the
    /// multi-stream stage trace). This always assembles and schedules the
    /// full trace: it ignores attached tables and
    /// [`Scenario::analytic_serve`], so it costs a full simulation even
    /// for long serve decodes. The report equals [`Scenario::run`]'s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn run_with_trace(&self) -> Result<(IterationReport, Trace, Schedule), EngineError> {
        let mut scratch = EngineScratch::new();
        let report = self
            .detached(Cow::Borrowed(&self.workload))
            .analytic_serve(false)
            .run_in(&mut scratch)?;
        Ok((report, scratch.trace, scratch.sched))
    }

    /// The serve config this scenario's workload carries, or the
    /// load-path error explaining that it doesn't.
    fn load_serve_config(&self) -> Result<&madmax_parallel::ServeConfig, EngineError> {
        self.workload
            .serve_config()
            .ok_or_else(|| EngineError::InvalidLoad {
                reason: "load simulation needs a serve workload".to_owned(),
            })
    }

    /// Prices a per-step cost model ([`madmax_serve::StepCostModel`]) of
    /// this scenario's plan for the request shapes in `spec` — the slow
    /// part of a load run — reusable across simulations via
    /// [`Scenario::serve_load_priced`].
    ///
    /// The probe shapes ([`StepCostModel::probe_shapes`]) each evaluate
    /// against the attached [`Scenario::load_probes`] tables or a
    /// one-plan table: the worst-case shape only through the feasibility
    /// half of [`Scenario::lower_bound`] (same tables, same errors as a
    /// run), the prefill-slope anchor through [`Scenario::ttft_in`] (its
    /// prefill alone), and every other shape as one [`Scenario::run_in`]
    /// of a synchronized serve wave, whose decode tail
    /// ([`madmax_core::DecodeTail`]) yields the makespans of its last
    /// three decode lengths. A flat plan costs two engine runs and a
    /// pipelined plan whose low-batch anchor is the slot count one, each
    /// plus the check and one prefill schedule.
    ///
    /// The in-flight slot count is `spec.slots`, defaulting to the serve
    /// config's decode batch.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] for invalid specs or a non-serve
    /// workload; probe failures as in [`Scenario::run`].
    pub fn price_load(&self, spec: &LoadSpec) -> Result<StepCostModel, EngineError> {
        let (serve, arrivals, slots) = self.load_probe_inputs(spec)?;
        let scratch = RefCell::new(EngineScratch::new());
        self.with_plan(|plan| {
            let feasible = |cfg| self.probe(plan, cfg).check_feasible();
            let probe = |cfg| {
                let scratch = &mut *scratch.borrow_mut();
                let report = self.probe(plan, cfg).run_in(scratch)?;
                Ok(ProbeRun {
                    ttft: report.serve.expect("probes are serve runs").ttft,
                    tail: scratch
                        .decode_tail
                        .expect("probes decode 48 tokens or more"),
                })
            };
            let ttft = |cfg| {
                let ttft = self.probe(plan, cfg).ttft_in(&mut scratch.borrow_mut())?;
                Ok(ttft.expect("probes are serve runs"))
            };
            StepCostModel::price(plan, serve, slots, &arrivals, feasible, probe, ttft)
        })
    }

    /// A floor on every request's prefill under this scenario's plan, in
    /// grid units, read without pricing the load cost model: the TTFT that
    /// [`Scenario::price_load`] fits as `prefill_units(p_lo)` at the
    /// shortest prompt `p_lo`, which its non-negative prefill slope keeps
    /// at or below every request's prefill. A load search bounds a
    /// candidate from it ([`madmax_serve::load_bound`]) before deciding to
    /// price and simulate it.
    ///
    /// It runs `price_load`'s first steps: the same inputs, then the same
    /// worst-case feasibility check against the same tables, with the same
    /// errors. It then schedules the prefill alone ([`Scenario::ttft_in`])
    /// of the low-batch anchor
    /// ([`StepCostModel::prefill_floor_shapes`]), against the attached
    /// [`Scenario::load_probes`] tables when they cover the plan.
    /// `Ok(None)` when anything after the feasibility check fails: then
    /// `price_load` reports its own error.
    ///
    /// # Errors
    ///
    /// The errors `price_load` reports up to its feasibility check:
    /// [`EngineError::InvalidLoad`] for invalid specs or a non-serve
    /// workload, OOM or an unmappable pipeline at the worst-case shape.
    pub fn load_prefill_floor(&self, spec: &LoadSpec) -> Result<Option<i64>, EngineError> {
        let (serve, arrivals, slots) = self.load_probe_inputs(spec)?;
        self.with_plan(|plan| {
            let Some([worst, anchor]) =
                StepCostModel::prefill_floor_shapes(plan, serve, slots, &arrivals)
            else {
                return Ok(None);
            };
            self.probe(plan, worst).check_feasible()?;
            let ttft = self.probe(plan, anchor).ttft_in(&mut EngineScratch::new());
            Ok(ttft.ok().flatten().and_then(grid_units))
        })
    }

    /// This scenario on the probe shape `cfg` of `plan`: against the
    /// attached load-probe tables of the shape when they cover `plan`,
    /// else on one-plan tables.
    fn probe(&self, plan: &Plan, cfg: ServeConfig) -> Scenario<'_> {
        let shared = self.load_probes.and_then(|t| t.shape(&cfg));
        let Some(shape) = shared.filter(|s| s.covers(plan)) else {
            return self.detached(Cow::Owned(Workload::serve(cfg)));
        };
        let mut s = self.detached(Cow::Borrowed(&shape.workload));
        s.costs = shape.flat.as_ref();
        s.pipeline_costs = shape.pipeline.as_ref();
        s
    }

    /// What [`Scenario::price_load`] prices against: the serve config,
    /// `spec`'s materialized arrivals, and the in-flight slot count. The
    /// spec is validated on every call; the arrivals and slots come from
    /// the attached [`Scenario::load_probes`] tables when they were priced
    /// for an equal spec and serve config, and are materialized here
    /// otherwise.
    fn load_probe_inputs(
        &self,
        spec: &LoadSpec,
    ) -> Result<(&ServeConfig, Cow<'_, [madmax_serve::ArrivalEvent]>, usize), EngineError> {
        let serve = self.load_serve_config()?;
        spec.validate()
            .map_err(|reason| EngineError::InvalidLoad { reason })?;
        if let Some((arrivals, slots)) = self.load_probes.and_then(|t| t.inputs_for(spec, serve)) {
            return Ok((serve, Cow::Borrowed(arrivals), slots));
        }
        let arrivals = madmax_serve::materialize_arrivals(&spec.arrivals, serve, self.model)?;
        let slots = spec
            .slots
            .unwrap_or_else(|| serve.effective_batch(self.model));
        Ok((serve, Cow::Owned(arrivals), slots))
    }

    /// Prices the load-probe tables of `plans` for `spec` on this
    /// scenario's serve workload: every probe shape
    /// ([`StepCostModel::probe_shapes`]) any of the plans would use in
    /// [`Scenario::price_load`], each with one flat [`CostTable`] and one
    /// [`PipelineCostTable`] priced for the plans that probe it, and
    /// the arrivals materialized once. Attach the result with
    /// [`Scenario::load_probes`] to every plan's scenario: a load search
    /// then prices a few tables per search instead of one per probe. The
    /// tables inherit this scenario's model, system, and cost models, and
    /// are `Sync`.
    ///
    /// All plans must share the same pricing-relevant options; this is
    /// asserted.
    ///
    /// # Errors
    ///
    /// The errors [`Scenario::price_load`] reports before its first
    /// probe: [`EngineError::InvalidLoad`] for invalid specs or a
    /// non-serve workload.
    pub fn price_load_probes(
        &self,
        spec: &LoadSpec,
        plans: &[Plan],
    ) -> Result<LoadProbeTables<'a>, EngineError> {
        let (serve, arrivals, slots) = self.load_probe_inputs(spec)?;
        let inputs = (spec.clone(), *serve, arrivals.into_owned(), slots);
        Ok(LoadProbeTables::new(
            plans,
            inputs,
            |plan, arrivals| StepCostModel::probe_shapes(plan, serve, slots, arrivals),
            |workload, covered| {
                let probe = Scenario::new(self.model, self.system)
                    .workload(workload.clone())
                    .collectives(self.collectives)
                    .utilization(self.utilization);
                let covered = || covered.iter().copied();
                let flat = covered()
                    .any(|p| !Self::is_pipelined(p))
                    .then(|| probe.price_flat(covered()));
                let pipeline = covered()
                    .any(Self::is_pipelined)
                    .then(|| probe.price_pipeline(covered()));
                (flat, pipeline)
            },
        ))
    }

    /// Runs the continuous-batching load simulator against this
    /// scenario's plan: executes `spec`'s arrival stream with in-flight
    /// batching in `mode`, on a reusable pre-priced cost model (see
    /// [`Scenario::price_load`]), with an optional per-request completion
    /// callback (bridge it to a `ProgressSink` with
    /// `madmax_obs::load::forward_to_sink`).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] for invalid specs or grid-range
    /// overflows.
    pub fn serve_load_priced(
        &self,
        spec: &LoadSpec,
        costs: &StepCostModel,
        mode: SimMode,
        on_complete: Option<&mut dyn FnMut(&madmax_serve::RequestRecord)>,
    ) -> Result<LoadOutcome, EngineError> {
        let serve = self.load_serve_config()?;
        madmax_serve::simulate_load(spec, serve, self.model, costs, mode, on_complete)
            .map_err(EngineError::from)
    }

    /// [`Scenario::serve_load_priced`] under a materialized fault stream:
    /// fatal/maintenance events interrupt in-flight requests (handled per
    /// `retry`) and degrade capacity until recovery, transient events slow
    /// the clock. An empty `faults` slice is byte-identical to the plain
    /// path.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] for invalid specs, unsorted or
    /// malformed fault events, or grid-range overflows.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_load_faulty(
        &self,
        spec: &LoadSpec,
        costs: &StepCostModel,
        mode: SimMode,
        faults: &[FaultEvent],
        retry: &RetryPolicy,
        on_complete: Option<&mut dyn FnMut(&madmax_serve::RequestRecord)>,
    ) -> Result<LoadOutcome, EngineError> {
        let serve = self.load_serve_config()?;
        madmax_serve::simulate_load_faulty(
            spec,
            serve,
            self.model,
            costs,
            mode,
            faults,
            retry,
            on_complete,
        )
        .map_err(EngineError::from)
    }

    /// Evaluates this scenario's **failure-aware training goodput**: runs
    /// the fault-free simulation, prices a checkpoint write/restart from
    /// the plan's per-device memory breakdown and the cluster fabric (via
    /// the collective model), then folds both through the closed-form
    /// Young/Daly expected-goodput model at `spec.mtbf`.
    ///
    /// The checkpoint interval is `spec.checkpoint_interval` when set,
    /// otherwise the Young/Daly optimum `sqrt(2 * write * MTBF)`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidFault`] for an invalid spec or a spec without
    /// a fatal-fault MTBF; otherwise the same conditions as
    /// [`Scenario::run`].
    pub fn goodput(&self, spec: &FaultSpec) -> Result<GoodputOutcome, EngineError> {
        spec.validate()
            .map_err(|reason| EngineError::InvalidFault { reason })?;
        let Some(mtbf) = spec.mtbf else {
            return Err(EngineError::InvalidFault {
                reason: "goodput evaluation needs a fatal-fault MTBF (FaultSpec::mtbf)".to_owned(),
            });
        };
        let report = self.run()?;
        let (ckpt, points) = self.goodput_points(
            &report.memory,
            report.iteration_time,
            mtbf,
            std::slice::from_ref(spec),
        );
        Ok(GoodputOutcome {
            report,
            ckpt,
            goodput: points[0],
        })
    }

    /// The goodput half of [`Scenario::goodput`] for a plan of this
    /// scenario with per-device `memory` breakdown and fault-free
    /// `iteration_time`: prices the checkpoint once from the breakdown,
    /// then evaluates the closed-form expected goodput at fleet MTBF
    /// `mtbf` for each of `specs` (their checkpoint interval, defaulting
    /// to the Young/Daly optimum, and their recovery time). A k-interval
    /// sweep therefore costs one simulation, not k.
    ///
    /// The goodput fractions depend on the breakdown alone, and each
    /// throughput is a fraction times `1 / iteration_time`; so at a lower
    /// bound on the iteration time ([`Scenario::lower_bound_with_memory`])
    /// every throughput is at least the simulated one, bit for bit.
    pub fn goodput_points(
        &self,
        memory: &MemoryBreakdown,
        iteration_time: Seconds,
        mtbf: f64,
        specs: &[FaultSpec],
    ) -> (CheckpointModel, Vec<GoodputReport>) {
        let ckpt = CheckpointModel::price(memory, self.system, self.collectives);
        let write = ckpt.write.as_secs();
        let points = specs
            .iter()
            .map(|spec| {
                let interval = spec
                    .checkpoint_interval
                    .unwrap_or_else(|| young_daly_interval(write, mtbf));
                // A restart reloads the checkpoint and waits out capacity
                // recovery (node replacement / reschedule) before resuming.
                expected_goodput(
                    iteration_time.as_secs(),
                    write,
                    ckpt.restart.as_secs() + spec.recovery,
                    mtbf,
                    interval,
                )
            })
            .collect();
        (ckpt, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_core::FlatWorstLink;
    use madmax_hw::catalog;
    use madmax_model::{LayerClass, ModelId};
    use madmax_parallel::{HierStrategy, PipelineConfig, PlanError, ServeConfig, Strategy};

    #[test]
    fn defaults_run_the_fsdp_baseline() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let scenario = Scenario::new(&model, &sys);
        assert_eq!(scenario.effective_plan(), Plan::fsdp_baseline(&model));
        let r = scenario.run().unwrap();
        assert!(r.mqps() > 0.3 && r.mqps() < 5.0);
    }

    #[test]
    fn pipelined_plans_dispatch_to_the_stage_engine() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let r = Scenario::new(&model, &sys).plan(plan).run().unwrap();
        assert!(r.bubble_fraction.unwrap() > 0.0);
    }

    #[test]
    fn oom_maps_to_the_unified_error() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model)
            .with_strategy(LayerClass::Dense, HierStrategy::flat(Strategy::Ddp));
        let err = Scenario::new(&model, &sys).plan(plan).run().unwrap_err();
        assert!(err.is_oom(), "{err}");
    }

    #[test]
    fn unmappable_pipeline_maps_to_the_unified_error() {
        // Every plan the engines cannot map is an `InvalidPlan` error, not
        // a panic: a depth that cannot split the 256 nodes, a depth beyond
        // the model's layer instances, zero microbatches or more than the
        // batch, and a strategy its layer class cannot take.
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let pipelined = |p, m| base.clone().with_pipeline(PipelineConfig::gpipe(p, m));
        let batch = model.global_batch;
        for (plan, reason) in [
            (pipelined(7, 8), "cannot be split into 7 equal stage groups"),
            (pipelined(128, 8), "layer instances but 128 stages"),
            (pipelined(8, 0), "0 microbatches"),
            (pipelined(8, batch + 1), "microbatches for a global batch"),
        ] {
            let err = Scenario::new(&model, &sys).plan(plan).run().unwrap_err();
            assert!(err.is_unmappable_pipeline(), "{err}");
            assert!(err.to_string().contains(reason), "{err}");
        }
        let tp_embedding = |plan: Plan| {
            plan.with_strategy(LayerClass::Embedding, HierStrategy::flat(Strategy::Tp))
        };
        for plan in [tp_embedding(base.clone()), tp_embedding(pipelined(8, 16))] {
            let err = Scenario::new(&model, &sys).plan(plan).run().unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::InvalidPlan(PlanError::InvalidStrategy { .. })
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn collective_and_utilization_knobs_apply_to_both_paths() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let hier = Scenario::new(&model, &sys).run().unwrap();
        let flat_model = FlatWorstLink;
        let flat = Scenario::new(&model, &sys)
            .collectives(&flat_model)
            .run()
            .unwrap();
        assert!(flat.comm_time > hier.comm_time);

        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let hier_pp = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .run()
            .unwrap();
        let flat_pp = Scenario::new(&model, &sys)
            .plan(plan)
            .collectives(&flat_model)
            .run()
            .unwrap();
        assert!(flat_pp.iteration_time >= hier_pp.iteration_time);
    }

    #[test]
    fn trace_views_are_consistent() {
        let model = ModelId::DlrmB.build();
        let sys = catalog::zionex_dlrm_system();
        let scenario = Scenario::new(&model, &sys);
        let (report, trace, sched) = scenario.run_with_trace().unwrap();
        assert_eq!(trace.len(), sched.windows.len());
        assert!((trace.serialized_time() / report.serialized_time - 1.0).abs() < 1e-12);
        assert_eq!(report, scenario.run().unwrap());
    }

    #[test]
    fn non_pipelined_plan_delegates_to_flat_engine() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let mut table = CostTable::new(
            &model,
            &sys,
            Workload::pretrain(),
            plan.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
            1,
        );
        table.ensure_plan(&plan);
        let flat =
            madmax_core::run_flat_cached(&table, &plan, &mut EngineScratch::new(), true).unwrap();
        let dispatched = Scenario::new(&model, &sys).plan(plan).run().unwrap();
        assert_eq!(flat, dispatched);
        assert!(dispatched.bubble_fraction.is_none());
    }

    #[test]
    fn zero_prompt_or_decode_batch_is_rejected() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let piped = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(4, 4));
        for cfg in [
            ServeConfig::new(512, 16).with_decode_batch(0),
            ServeConfig::new(0, 16),
        ] {
            for plan in [Plan::fsdp_baseline(&model), piped.clone()] {
                let scenario = Scenario::new(&model, &sys)
                    .workload(Workload::serve(cfg))
                    .plan(plan);
                let err = scenario.run().unwrap_err();
                assert!(matches!(err, EngineError::InvalidLoad { .. }), "{err}");
                assert!(scenario.run_with_trace().is_err());
            }
        }
    }

    #[test]
    fn price_load_predicts_engine_step_differences() {
        use madmax_core::steady::grid_units;
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let slots = 8usize;
        let scenario = Scenario::new(&model, &sys).workload(Workload::serve(
            ServeConfig::new(256, 64).with_decode_batch(slots),
        ));
        let m = scenario
            .price_load(&madmax_parallel::LoadSpec::poisson(200.0, 4, 7))
            .unwrap();
        assert!(m.step_rate >= 0);
        assert!(m.prefill_slope >= 0);
        // Held-out check: the model's step cost reproduces the engine's
        // first difference at an unprobed decode length.
        let run = |d: usize| {
            let r = Scenario::new(&model, &sys)
                .workload(Workload::serve(
                    ServeConfig::new(256, d).with_decode_batch(slots),
                ))
                .run()
                .unwrap();
            grid_units(r.iteration_time).unwrap()
        };
        let actual = run(73) - run(72);
        let predicted = m
            .step_units(slots as u64, slots as i64 * (256 + 72))
            .unwrap();
        let rel = (predicted - actual).abs() as f64 / actual as f64;
        assert!(rel < 1e-3, "predicted {predicted} vs actual {actual}");
    }

    #[test]
    fn price_load_prices_pipelined_plans_and_surfaces_oom_probes() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(4, 4));
        let m = Scenario::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(128, 32).with_decode_batch(4),
            ))
            .plan(plan)
            .price_load(&madmax_parallel::LoadSpec::poisson(200.0, 2, 7))
            .unwrap();
        assert!(m.prefill_units(160).unwrap() >= m.prefill_units(128).unwrap());

        let err = Scenario::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(4096, 2_000_000).with_decode_batch(1 << 14),
            ))
            .price_load(&madmax_parallel::LoadSpec::poisson(200.0, 1, 7))
            .unwrap_err();
        assert!(err.is_oom(), "{err}");
    }

    #[test]
    fn serve_scenarios_flow_through_both_engines() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let workload = Workload::serve(ServeConfig::new(512, 32));
        let flat = Scenario::new(&model, &sys)
            .workload(workload.clone())
            .run()
            .unwrap();
        assert!(flat.serve.is_some());
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let piped = Scenario::new(&model, &sys)
            .workload(workload)
            .plan(plan)
            .run()
            .unwrap();
        assert!(piped.serve.is_some());
        assert!(piped.bubble_fraction.is_some());
    }

    #[test]
    fn serve_load_runs_a_poisson_stream_end_to_end() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let spec = madmax_parallel::LoadSpec::poisson(200.0, 12, 7);
        let scenario = Scenario::new(&model, &sys).workload(Workload::serve(
            ServeConfig::new(256, 32).with_decode_batch(4),
        ));
        let costs = scenario.price_load(&spec).unwrap();
        let out = scenario
            .serve_load_priced(&spec, &costs, SimMode::Event, None)
            .unwrap();
        assert_eq!(out.report.arrivals, 12);
        assert_eq!(out.report.completed + out.report.rejected, 12);
        assert!(out.report.ttft.is_some());
        assert!(out.report.tokens_per_sec > 0.0);

        // The per-token reference agrees byte for byte.
        let naive = scenario
            .serve_load_priced(&spec, &costs, SimMode::PerToken, None)
            .unwrap();
        assert_eq!(naive.report, out.report);
    }

    #[test]
    fn serve_load_rejects_non_serve_workloads() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let spec = madmax_parallel::LoadSpec::poisson(100.0, 4, 1);
        let err = Scenario::new(&model, &sys).price_load(&spec).unwrap_err();
        assert!(matches!(err, EngineError::InvalidLoad { .. }), "{err}");
    }

    #[test]
    fn goodput_degrades_with_mtbf_and_needs_a_fatal_stream() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let scenario = Scenario::new(&model, &sys);

        let plentiful = scenario.goodput(&FaultSpec::fatal(1e9, 60.0, 1)).unwrap();
        assert!(plentiful.goodput.goodput_fraction > 0.99);
        assert!(plentiful.ckpt.write.as_secs() > 0.0);
        // Fault-free throughput comes straight from the iteration report.
        assert!(
            (plentiful.goodput.fault_free_throughput
                - 1.0 / plentiful.report.iteration_time.as_secs())
            .abs()
                < 1e-12
        );

        let scarce = scenario.goodput(&FaultSpec::fatal(600.0, 60.0, 1)).unwrap();
        assert!(scarce.goodput.goodput_fraction < plentiful.goodput.goodput_fraction);
        assert!(scarce.goodput.effective_throughput < scarce.goodput.fault_free_throughput);
        // Same fault-free plan either way.
        assert_eq!(scarce.report, plentiful.report);

        // No fatal stream -> no goodput model.
        let err = scenario.goodput(&FaultSpec::none()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidFault { .. }), "{err}");
        let err = scenario
            .goodput(&FaultSpec::fatal(-1.0, 0.0, 1))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidFault { .. }), "{err}");
    }

    #[test]
    fn explicit_checkpoint_interval_overrides_young_daly() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let scenario = Scenario::new(&model, &sys);
        let auto = scenario
            .goodput(&FaultSpec::fatal(3600.0, 30.0, 1))
            .unwrap();
        let forced = scenario
            .goodput(&FaultSpec::fatal(3600.0, 30.0, 1).with_checkpoint_interval(1.0))
            .unwrap();
        assert!((forced.goodput.interval - 1.0).abs() < 1e-12);
        // The Young/Daly choice is at least as good as an arbitrary one.
        assert!(auto.goodput.goodput_fraction >= forced.goodput.goodput_fraction);
    }

    #[test]
    fn serve_load_faulty_with_no_events_matches_the_plain_path() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let spec = madmax_parallel::LoadSpec::poisson(200.0, 10, 3);
        let scenario = Scenario::new(&model, &sys).workload(Workload::serve(
            ServeConfig::new(256, 32).with_decode_batch(4),
        ));
        let costs = scenario.price_load(&spec).unwrap();
        let plain = scenario
            .serve_load_priced(&spec, &costs, SimMode::Event, None)
            .unwrap();
        let faulty = scenario
            .serve_load_faulty(
                &spec,
                &costs,
                SimMode::Event,
                &[],
                &RetryPolicy::default(),
                None,
            )
            .unwrap();
        assert_eq!(plain.report, faulty.report);
        assert_eq!(plain.trace, faulty.trace);
    }

    #[test]
    fn pipeline_cost_table_path_matches_run() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plans: Vec<Plan> = [(8usize, 16usize), (4, 8)]
            .into_iter()
            .map(|(p, m)| Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(p, m)))
            .collect();
        for workload in [
            Workload::pretrain(),
            Workload::serve(ServeConfig::new(512, 8)),
        ] {
            let scenario = Scenario::new(&model, &sys).workload_ref(&workload);
            let table = scenario.price_pipeline_plans(&plans);
            let mut scratch = EngineScratch::new();
            for plan in &plans {
                let cached = Scenario::new(&model, &sys)
                    .workload_ref(&workload)
                    .plan_ref(plan)
                    .pipeline_costs(&table)
                    .run_in(&mut scratch)
                    .unwrap();
                let fresh = Scenario::new(&model, &sys)
                    .workload_ref(&workload)
                    .plan_ref(plan)
                    .run()
                    .unwrap();
                assert_eq!(cached, fresh);
            }
        }
    }
}
