//! The pricing phase of the pipeline engine: a [`PipelineCostTable`] of
//! per-(pipeline depth, strategy assignment, workload phase, microbatch
//! count) stage costs, computed once per search and composed into stage
//! traces by the assembly phase ([`crate::run_pipelined_cached`]).
//!
//! Joint design-space searches sweep `(per-class strategies) x (depth x
//! microbatches x schedule)` — and serve searches additionally the decode
//! batch — yet almost all of the per-candidate pricing work is shared:
//!
//! - the balanced stage **partition** and the stage **sub-cluster** depend
//!   only on the depth `p`;
//! - the per-stage **sub-models** (for optimizer and memory accounting)
//!   depend only on `p` — one build per depth instead of one `ModelArch`
//!   clone per stage per candidate;
//! - the raw per-stage **memory footprints** depend on `(p, strategy
//!   assignment)`; the `(microbatches, schedule)` axes only scale 1F1B's
//!   in-flight activation bound in the final fold
//!   (`memory::fold_pipeline_memory`);
//! - every **layer group's price** under one strategy depends only on
//!   `(p, microbatches)`: a `madmax_core::CostTable` priced on the stage
//!   sub-cluster at one microbatch's local batch, `(global_batch / m) /
//!   stage_devices`, holds it for both serve phases, so each `(depth,
//!   microbatches, phase, group, strategy)` price is computed once however
//!   many assignments share it;
//! - the per-stage [`StageCosts`] of each workload phase (training
//!   fwd+bwd, or serve prefill + decode) depend on `(p, assignment,
//!   microbatches)`. Each is a sum, in unit order, of the flat table's
//!   per-instance entries times the unit's instances, plus the
//!   pipeline's own terms: the inter-stage P2P sends, the optimizer step
//!   and the dominant-class and lookup tags. The **schedule** axis only
//!   reorders trace assembly, and for serve workloads does not even do
//!   that (the decode stream is schedule-independent).
//!
//! The table memoizes every level, so a candidate evaluation through
//! [`crate::run_pipelined_cached`] assembles cached [`StageCosts`] into a
//! recycled `EngineScratch` arena with zero pricing work — no
//! `partition_model` run, no `ModelArch`/`ClusterSpec` clone, and no
//! collective-model invocation.
//!
//! # Sharing contract
//!
//! Mirroring `madmax_core::CostTable`: a table is priced for one
//! `(model, cluster, workload)` combination and one set of
//! pricing-relevant [`PlanOptions`] (everything except
//! `ignore_memory_limits`, which only gates the feasibility check and is
//! read per plan). [`PipelineCostTable::ensure_plan`] must be called for
//! every candidate before evaluation; the table is then shared read-only
//! across worker threads (it is `Sync`). Assembling a plan whose depth,
//! assignment, or microbatch count was never priced panics; error-shaped
//! candidates (invalid strategies, unmappable depths, OOM folds, bad
//! microbatch counts) are *not* priced and instead report their error at
//! evaluation time.

use std::borrow::Cow;
use std::sync::OnceLock;

use madmax_core::compute::optimizer_time;
use madmax_core::{
    CacheCounters, CacheStats, CollectiveModel, CostTable, DecodeTail, IterationReport,
    UtilizationModel,
};
use madmax_hw::units::Seconds;
use madmax_hw::ClusterSpec;
use madmax_model::{LayerClass, ModelArch};
use madmax_parallel::{
    memory_per_device, HierStrategy, MemoryBreakdown, PipelineConfig, Plan, PlanError, PlanOptions,
    Urgency, Workload,
};

use crate::cost::{
    add_comm, boundary_bytes_per_sample, microbatch_bounds, p2p_time, stage_cluster, stage_models,
    StageCosts,
};
use crate::memory::fold_pipeline_memory;
use crate::partition::{partition_model, Stage};

/// Every strategy-independent context of one depth `p`.
#[derive(Debug)]
struct DepthEntry<'a> {
    stages: Vec<Stage>,
    /// The stage sub-cluster (owned once; candidates borrow it).
    sub: ClusterSpec,
    /// Primary-phase per-stage sub-models (memory and optimizer).
    sub_models: Vec<ModelArch>,
    /// The flat table of each priced microbatch count: every layer
    /// group's costs on the sub-cluster at one microbatch's local batch,
    /// per strategy and phase.
    flat: Vec<(usize, CostTable<'a>)>,
    /// Per-assignment costs, keyed by the strategies of the model's
    /// classes in first-appearance order.
    assignments: Vec<(Vec<HierStrategy>, AssignEntry)>,
}

/// Costs of one `(depth, strategy assignment)` pair.
#[derive(Debug)]
struct AssignEntry {
    /// Raw (schedule-independent) per-stage memory footprints.
    per_stage_memory: Vec<MemoryBreakdown>,
    /// Priced stage costs per microbatch count.
    by_m: Vec<(usize, PhaseCosts)>,
}

/// The priced stages of every workload phase for one
/// `(depth, assignment, microbatches)` key.
#[derive(Debug)]
struct PhaseCosts {
    primary: Vec<StageCosts>,
    decode: Option<Vec<StageCosts>>,
    /// The report of every candidate at this key, with its decode tail,
    /// for workloads without a backward pass: their traces do not depend
    /// on the schedule, so the GPipe/1F1B pair of a search shares it. Set
    /// by the first worker to evaluate the key.
    report: ReportMemo,
}

/// Everything [`crate::run_pipelined_cached`] needs to assemble one
/// candidate: borrowed priced stages, the candidate's pipeline config and
/// memory fold, and the report memo slot it shares with its schedule
/// siblings.
#[derive(Debug)]
pub struct PricedPipelineRef<'t> {
    /// Primary-phase stage costs (training fwd+bwd, or the serve prefill).
    pub primary: &'t [StageCosts],
    /// Decode-phase stage costs, for serve workloads with decode steps
    /// (their dimensions are [`PipelineCostTable::serve_dims`]).
    pub decode: Option<&'t [StageCosts]>,
    /// The candidate's pipeline configuration.
    pub cfg: PipelineConfig,
    /// The candidate's worst-stage memory breakdown.
    pub memory: MemoryBreakdown,
    /// The report memo of the candidate's `(depth, assignment,
    /// microbatches)` entry, for workloads without a backward pass (whose
    /// traces are schedule-independent); `None` for training.
    pub memo: Option<&'t ReportMemo>,
}

/// One entry's memoized report and its [`DecodeTail`] (`None` unless a
/// serve run of at least three decode tokens).
pub(crate) type ReportMemo = OnceLock<(IterationReport, Option<DecodeTail>)>;

/// Shared, read-only cost cache for the pipeline engine (see the module
/// docs for the sharing contract).
#[derive(Debug)]
pub struct PipelineCostTable<'a> {
    /// The caller's model, as passed in (identity handle).
    model: &'a ModelArch,
    /// The primary-phase effective model, when the workload overrides the
    /// context length (serve prompt) or global batch (serving batch).
    eff: Option<Box<ModelArch>>,
    /// The decode-phase effective model (single-token context at the
    /// serving batch), for serve workloads with decode steps.
    decode_model: Option<Box<ModelArch>>,
    decode_len: usize,
    cluster: &'a ClusterSpec,
    workload: Workload,
    options: PlanOptions,
    collectives: &'a dyn CollectiveModel,
    utilization: UtilizationModel,
    /// Layer classes present in the model, in first-appearance order (the
    /// assignment-key dimensions).
    classes: Vec<LayerClass>,
    depths: Vec<(usize, Result<DepthEntry<'a>, PlanError>)>,
    /// Price-vs-reuse telemetry: one hit per `ensure_plan` candidate whose
    /// `(depth, assignment, microbatches)` key was already priced, one
    /// miss per fresh phase-cost entry.
    counters: CacheCounters,
    /// Report-memo telemetry, bumped by `run_pipelined_cached` for
    /// workloads without a backward pass.
    memo_counters: CacheCounters,
    /// Closed-form-vs-fallback telemetry for serve evaluations (one hit
    /// per report synthesized by the steady-state evaluator, one miss per
    /// serve candidate that fell back to full simulation).
    analytic_counters: CacheCounters,
}

impl<'a> PipelineCostTable<'a> {
    /// Creates an empty table for one `(model, cluster, workload)`
    /// pricing context; call [`PipelineCostTable::ensure_plan`] with every
    /// candidate to fill it.
    pub fn new(
        model: &'a ModelArch,
        cluster: &'a ClusterSpec,
        workload: Workload,
        options: PlanOptions,
        collectives: &'a dyn CollectiveModel,
        utilization: UtilizationModel,
    ) -> Self {
        let eff = match workload.effective_model(model) {
            std::borrow::Cow::Borrowed(_) => None,
            std::borrow::Cow::Owned(m) => Some(Box::new(m)),
        };
        let primary: &ModelArch = eff.as_deref().unwrap_or(model);
        let decode_model = workload.decode_model(primary).map(Box::new);
        let decode_len = match &decode_model {
            Some(_) => {
                workload
                    .serve_config()
                    .expect("decode model implies serve")
                    .decode_len
            }
            None => 0,
        };
        let mut classes: Vec<LayerClass> = Vec::new();
        for g in &primary.groups {
            if !classes.contains(&g.class) {
                classes.push(g.class);
            }
        }
        Self {
            model,
            eff,
            decode_model,
            decode_len,
            cluster,
            workload,
            options,
            collectives,
            utilization,
            classes,
            depths: Vec::new(),
            counters: CacheCounters::new(),
            memo_counters: CacheCounters::new(),
            analytic_counters: CacheCounters::new(),
        }
    }

    /// Snapshot of the price-vs-reuse counters:
    /// [`PipelineCostTable::ensure_plan`] records one hit per candidate
    /// whose `(depth, assignment, microbatches)` key was already priced
    /// and one miss per fresh phase-cost entry (error-shaped candidates,
    /// which are never priced, count as neither).
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Snapshot of the report-memo counters, accumulated across every
    /// worker that evaluated candidates through this table
    /// (`run_pipelined_cached` records one miss per `(depth, assignment,
    /// microbatches)` entry it evaluates and one hit per later candidate
    /// served from it; training evaluations record neither).
    pub fn memo_stats(&self) -> CacheStats {
        self.memo_counters.snapshot()
    }

    /// The report-memo counter pair (crate-internal).
    pub(crate) fn memo_counters(&self) -> &CacheCounters {
        &self.memo_counters
    }

    /// Snapshot of the closed-form-vs-fallback counters: one hit per serve
    /// report synthesized by the steady-state evaluator
    /// (`madmax_core::steady`), one miss per serve candidate assembled and
    /// simulated in full (fallback, opt-out, or short decode).
    pub fn analytic_stats(&self) -> CacheStats {
        self.analytic_counters.snapshot()
    }

    /// The closed-form-vs-fallback counter pair (crate-internal).
    pub(crate) fn analytic_counters(&self) -> &CacheCounters {
        &self.analytic_counters
    }

    /// The model this table was priced for (the caller's handle, used for
    /// identity checks).
    pub fn model(&self) -> &'a ModelArch {
        self.model
    }

    /// The primary-phase effective model: identical to
    /// [`PipelineCostTable::model`] unless the workload overrides the
    /// context length or batch (serve prompt/batch). Reports are built
    /// against this model.
    pub(crate) fn report_model(&self) -> &ModelArch {
        self.eff.as_deref().unwrap_or(self.model)
    }

    /// The cluster this table was priced for.
    pub fn cluster(&self) -> &'a ClusterSpec {
        self.cluster
    }

    /// The workload this table was priced for.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The serve-stream dimensions of this table's workload, when it has
    /// a decode phase (inputs to the closed-form decode evaluator).
    pub fn serve_dims(&self) -> Option<madmax_core::ServeDims> {
        self.decode_model.as_deref()?;
        let model = self.report_model();
        Some(madmax_core::ServeDims {
            prompt_len: model.context_length,
            decode_len: self.decode_len,
            decode_batch: model.global_batch,
        })
    }

    /// The strategies `plan` assigns to the model's classes, in the
    /// table's canonical class order.
    fn assign_key(&self, plan: &Plan) -> Vec<HierStrategy> {
        self.classes.iter().map(|&c| plan.strategy_for(c)).collect()
    }

    /// Prices (once) everything `plan`'s candidate needs: the depth's
    /// partition and sub-cluster/sub-models, the assignment's per-stage
    /// memory, and the per-phase stage costs at the plan's microbatch
    /// count. Safe to call with every candidate of a search;
    /// already-priced keys and non-pipelined or error-shaped candidates
    /// (which re-derive their exact error at evaluation time) are skipped.
    ///
    /// # Panics
    ///
    /// Panics when `plan`'s pricing-relevant options diverge from the
    /// table's (see the module docs).
    pub fn ensure_plan(&mut self, plan: &Plan) {
        assert!(
            self.options.prices_like(&plan.options),
            "plan options diverge from the pipeline cost table's pricing context"
        );
        let Some(cfg) = plan.pipeline.filter(|c| c.is_pipelined()) else {
            return; // flat plans are the flat CostTable's business
        };
        let key = self.assign_key(plan);
        let primary: &ModelArch = self.eff.as_deref().unwrap_or(self.model);
        if plan.validate_strategies(primary).is_err() {
            return;
        }

        let di = match self.depths.iter().position(|(p, _)| *p == cfg.stages) {
            Some(i) => i,
            None => {
                let built = Self::build_depth(primary, self.cluster, cfg.stages);
                self.depths.push((cfg.stages, built));
                self.depths.len() - 1
            }
        };
        let workload = &self.workload;
        let Ok(entry) = &mut self.depths[di].1 else {
            return; // unmappable depth; candidates reproduce the error
        };
        let ai = match entry.assignments.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let per_stage_memory = entry
                    .sub_models
                    .iter()
                    .map(|m| memory_per_device(m, &entry.sub, plan, workload))
                    .collect();
                entry.assignments.push((
                    key,
                    AssignEntry {
                        per_stage_memory,
                        by_m: Vec::new(),
                    },
                ));
                entry.assignments.len() - 1
            }
        };
        let Ok(entry) = &self.depths[di].1 else {
            return;
        };
        let ae = &entry.assignments[ai].1;

        // Infeasible candidates are never priced: `priced_for` reports
        // their error first.
        if self.feasible(&ae.per_stage_memory, cfg, plan).is_err() {
            return;
        }
        if ae.by_m.iter().any(|(m, _)| *m == cfg.microbatches) {
            self.counters.hit();
            return;
        }

        let m = cfg.microbatches;
        let Ok(entry) = &mut self.depths[di].1 else {
            return;
        };
        let fi = match entry.flat.iter().position(|(fm, _)| *fm == m) {
            Some(i) => i,
            None => {
                let table = CostTable::new(
                    self.model,
                    Cow::Owned(entry.sub.clone()),
                    self.workload.clone(),
                    self.options,
                    self.collectives,
                    self.utilization,
                    m,
                );
                entry.flat.push((m, table));
                entry.flat.len() - 1
            }
        };
        entry.flat[fi].1.ensure_plan(plan);
        let Ok(entry) = &self.depths[di].1 else {
            return;
        };
        let flat = &entry.flat[fi].1;
        let primary = self.sum_stages(entry, flat, plan, false);
        let decode = self
            .decode_model
            .is_some()
            .then(|| self.sum_stages(entry, flat, plan, true));
        self.counters.miss();
        let Ok(entry) = &mut self.depths[di].1 else {
            return;
        };
        entry.assignments[ai].1.by_m.push((
            m,
            PhaseCosts {
                primary,
                decode,
                report: OnceLock::new(),
            },
        ));
    }

    /// One phase's per-stage costs of `plan`, summed from `flat`, the
    /// depth's flat table at the plan's microbatch count: each stage unit
    /// adds its group's cached per-instance entry times its instances, in
    /// unit order. Only the inter-stage P2P sends, the optimizer and the
    /// dominant-class and lookup tags are priced here.
    fn sum_stages(
        &self,
        depth: &DepthEntry,
        flat: &CostTable,
        plan: &Plan,
        decode: bool,
    ) -> Vec<StageCosts> {
        let model = if decode {
            self.decode_model.as_deref().expect("decode phase priced")
        } else {
            self.report_model()
        };
        let p = depth.stages.len();
        let local_micro = flat.local_batch(decode);
        // A stage ships its last layer's output activations forward, and
        // the same-sized gradient of its input backward during training.
        let boundary = |stage: &Stage| {
            let last = stage.units.last().expect("stages are non-empty");
            let kind = &model.groups[last.group].kind;
            boundary_bytes_per_sample(kind, model.context_length, model.compute_dtype) * local_micro
        };
        let p2p = |stage: &Stage| p2p_time(boundary(stage), self.cluster, self.collectives);
        let mut out = Vec::with_capacity(p);
        for (si, stage) in depth.stages.iter().enumerate() {
            let mut costs = StageCosts {
                fwd_compute: Seconds::ZERO,
                bwd_compute: Seconds::ZERO,
                fwd_comm: Vec::new(),
                bwd_comm: Vec::new(),
                send_fwd: Seconds::ZERO,
                send_bwd: Seconds::ZERO,
                param_comm: Vec::new(),
                grad_comm: Vec::new(),
                optimizer: optimizer_time(&depth.sub_models[si], &depth.sub, plan, &self.workload),
                dominant_class: LayerClass::Dense,
                lookup_dominated: false,
                kv_read_per_token: Seconds::ZERO,
            };
            let mut class_weight: Vec<(LayerClass, f64)> = Vec::new();
            let mut lookup_secs = 0.0;
            for unit in &stage.units {
                let class = model.groups[unit.group].class;
                let price = flat.group_price(unit.group, plan.strategy_for(class), decode);
                let reps = unit.instances as f64;
                let fwd = price.forward * reps;
                costs.fwd_compute += fwd;
                if price.lookup {
                    lookup_secs += fwd.as_secs();
                }
                match class_weight.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, w)) => *w += fwd.as_secs(),
                    None => class_weight.push((class, fwd.as_secs())),
                }
                costs.bwd_compute += price.backward * reps;
                costs.kv_read_per_token += price.costs.kv_read_per_token * reps;
                // Parameter gathers run once per iteration; blocking
                // activation traffic once per microbatch.
                for (comms, blocking) in [
                    (&price.costs.forward, &mut costs.fwd_comm),
                    (&price.costs.backward, &mut costs.bwd_comm),
                ] {
                    for c in comms {
                        let bucket = if c.urgency == Urgency::Prefetchable {
                            &mut costs.param_comm
                        } else {
                            &mut *blocking
                        };
                        add_comm(bucket, c.kind, c.duration * reps);
                    }
                }
                for c in &price.costs.grad {
                    add_comm(&mut costs.grad_comm, c.kind, c.duration * reps);
                }
            }
            if si + 1 < p {
                costs.send_fwd = p2p(stage);
            }
            if si > 0 && self.workload.has_backward() {
                costs.send_bwd = p2p(&depth.stages[si - 1]);
            }
            class_weight.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights"));
            if let Some(&(c, w)) = class_weight.first() {
                costs.dominant_class = c;
                costs.lookup_dominated =
                    lookup_secs > w || lookup_secs >= costs.fwd_compute.as_secs() * 0.5;
            }
            out.push(costs);
        }
        out
    }

    /// The feasibility chain of one candidate whose assignment has the
    /// raw per-stage footprints `per_stage`: the worst-stage memory fold
    /// (ending in the HBM gate), then the microbatch bounds of each
    /// phase.
    fn feasible(
        &self,
        per_stage: &[MemoryBreakdown],
        cfg: PipelineConfig,
        plan: &Plan,
    ) -> Result<MemoryBreakdown, PlanError> {
        let memory = fold_pipeline_memory(
            per_stage,
            cfg.microbatches,
            cfg.schedule,
            &self.workload,
            plan,
            self.cluster,
        )?;
        microbatch_bounds(self.report_model(), cfg.microbatches)?;
        if let Some(dm) = self.decode_model.as_deref() {
            microbatch_bounds(dm, cfg.microbatches)?;
        }
        Ok(memory)
    }

    /// Builds the depth-level context: partition, sub-cluster, and
    /// per-stage sub-models.
    fn build_depth(
        primary: &ModelArch,
        cluster: &ClusterSpec,
        p: usize,
    ) -> Result<DepthEntry<'a>, PlanError> {
        let stages = partition_model(primary, cluster, p)?;
        let sub = stage_cluster(cluster, p)?.into_owned();
        let sub_models = stage_models(primary, &stages);
        Ok(DepthEntry {
            stages,
            sub,
            sub_models,
            flat: Vec::new(),
            assignments: Vec::new(),
        })
    }

    /// Resolves one candidate against the table: borrowed priced stages
    /// plus the candidate's memory fold — or the candidate's error, checked
    /// in a fixed order (no active pipeline config, invalid strategies,
    /// then unmappable partition/sub-cluster, then the memory fold incl.
    /// OOM, then microbatch bounds per phase).
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::run_pipelined_cached`].
    ///
    /// # Panics
    ///
    /// Panics when the candidate's (depth, assignment, microbatches) key
    /// was not priced via [`PipelineCostTable::ensure_plan`]; debug builds
    /// also assert that `plan`'s options match the pricing context.
    pub fn priced_for(&self, plan: &Plan) -> Result<PricedPipelineRef<'_>, PlanError> {
        self.resolve(plan).unwrap_or_else(|missing| {
            panic!(
                "pipeline cost table has no entry for {missing}; \
                 call PipelineCostTable::ensure_plan for every plan first"
            )
        })
    }

    /// Whether `plan` can be evaluated against this table as priced: its
    /// options match the pricing context and [`PipelineCostTable::priced_for`]
    /// answers it (stages or the plan's error) without a missing key.
    /// Evaluating a covered plan never panics.
    pub fn covers(&self, plan: &Plan) -> bool {
        self.options.prices_like(&plan.options) && self.resolve(plan).is_ok()
    }

    /// [`PipelineCostTable::priced_for`], with `Err` naming the key
    /// [`PipelineCostTable::ensure_plan`] never priced.
    fn resolve(&self, plan: &Plan) -> Result<Result<PricedPipelineRef<'_>, PlanError>, String> {
        debug_assert!(
            self.options.prices_like(&plan.options),
            "plan options diverge from the pipeline cost table's pricing context"
        );
        let Some(cfg) = plan.pipeline.filter(|c| c.is_pipelined()) else {
            return Ok(Err(PlanError::InvalidPipeline {
                reason: "plan has no active pipeline config (use the flat engine)".to_owned(),
            }));
        };
        let primary = self.report_model();
        if let Err(e) = plan.validate_strategies(primary) {
            return Ok(Err(e));
        }
        let Some((_, depth)) = self.depths.iter().find(|(p, _)| *p == cfg.stages) else {
            return Err(format!("depth {}", cfg.stages));
        };
        let entry = match depth {
            Ok(entry) => entry,
            Err(e) => return Ok(Err(e.clone())),
        };
        let key = self.assign_key(plan);
        let Some((_, ae)) = entry.assignments.iter().find(|(k, _)| *k == key) else {
            return Err(plan.summary());
        };
        let memory = match self.feasible(&ae.per_stage_memory, cfg, plan) {
            Ok(memory) => memory,
            Err(e) => return Ok(Err(e)),
        };
        let Some((_, pc)) = ae.by_m.iter().find(|(m, _)| *m == cfg.microbatches) else {
            return Err(format!("{} microbatches", cfg.microbatches));
        };
        Ok(Ok(PricedPipelineRef {
            primary: &pc.primary,
            decode: pc.decode.as_deref(),
            cfg,
            memory,
            memo: (!self.workload.has_backward()).then_some(&pc.report),
        }))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use madmax_core::compute::{backward_flops_factor, compute_time, lookup_time};
    use madmax_core::HierarchicalNccl;
    use madmax_hw::catalog;
    use madmax_model::ModelId;
    use madmax_parallel::{derive_layer_comm, PipelineSchedule, ServeConfig, Strategy};

    pub(crate) fn table_for<'a>(
        model: &'a ModelArch,
        sys: &'a ClusterSpec,
        workload: Workload,
        options: PlanOptions,
    ) -> PipelineCostTable<'a> {
        PipelineCostTable::new(
            model,
            sys,
            workload,
            options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
        )
    }

    /// A table priced for `plan` alone.
    pub(crate) fn one_plan_table<'a>(
        model: &'a ModelArch,
        sys: &'a ClusterSpec,
        plan: &Plan,
        workload: Workload,
    ) -> PipelineCostTable<'a> {
        let mut table = table_for(model, sys, workload, plan.options);
        table.ensure_plan(plan);
        table
    }

    #[test]
    fn ensure_plan_is_idempotent_and_shares_keys() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);
        for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
            let plan = base.clone().with_pipeline(PipelineConfig {
                stages: 8,
                microbatches: 16,
                schedule,
            });
            table.ensure_plan(&plan);
        }
        // Both schedules share one (depth, assignment, m) entry.
        assert_eq!(table.stats().misses, 1);
        assert_eq!(table.depths.len(), 1);
        table.ensure_plan(&base.clone().with_pipeline(PipelineConfig::gpipe(8, 32)));
        assert_eq!(table.stats().misses, 2, "new microbatch count prices once");
    }

    /// The independent oracle: one phase's per-stage costs of `plan`,
    /// every unit priced straight from the `madmax_core` primitives.
    fn fresh_stage_costs(
        model: &ModelArch,
        sys: &ClusterSpec,
        plan: &Plan,
        workload: &Workload,
        utilization: UtilizationModel,
        decode: bool,
    ) -> Vec<StageCosts> {
        let cfg = plan.pipeline.unwrap();
        let primary = workload.effective_model(model).into_owned();
        let phase = match decode {
            true => workload.decode_model(&primary).unwrap(),
            false => primary.clone(),
        };
        let stages = partition_model(&primary, sys, cfg.stages).unwrap();
        let sub = stage_cluster(sys, cfg.stages).unwrap();
        let sub_models = stage_models(&primary, &stages);
        let local =
            phase.global_batch as f64 / cfg.microbatches as f64 / sub.total_devices() as f64;
        let tokens = phase.context_length;
        let kv_cache = decode && workload.serve_config().is_some_and(|c| c.kv_cache);
        let p2p = |stage: &Stage| {
            let last = &phase.groups[stage.units.last().unwrap().group];
            let bytes = boundary_bytes_per_sample(&last.kind, tokens, phase.compute_dtype) * local;
            if bytes.is_zero() {
                return Seconds::ZERO;
            }
            let req = madmax_parallel::CommReq {
                collective: madmax_parallel::CollectiveKind::PointToPoint,
                scope: madmax_parallel::CommScope::Level(crate::cost::p2p_level(sys)),
                group_size: 2,
                payload: bytes,
                urgency: Urgency::Blocking,
                position: madmax_parallel::comm::CommPosition::AfterCompute,
                label: "stage.p2p".to_owned(),
            };
            HierarchicalNccl.time(&req, sys)
        };
        let mut out = Vec::new();
        for (si, stage) in stages.iter().enumerate() {
            let mut c = StageCosts {
                fwd_compute: Seconds::ZERO,
                bwd_compute: Seconds::ZERO,
                fwd_comm: Vec::new(),
                bwd_comm: Vec::new(),
                send_fwd: Seconds::ZERO,
                send_bwd: Seconds::ZERO,
                param_comm: Vec::new(),
                grad_comm: Vec::new(),
                optimizer: optimizer_time(&sub_models[si], &sub, plan, workload),
                dominant_class: LayerClass::Dense,
                lookup_dominated: false,
                kv_read_per_token: Seconds::ZERO,
            };
            let (mut weights, mut lookup_secs) = (Vec::<(LayerClass, f64)>::new(), 0.0);
            for unit in &stage.units {
                let group = &phase.groups[unit.group];
                let reps = unit.instances as f64;
                let lookup = group.kind.is_memory_bound();
                let flops = group.kind.flops_fwd_per_sample(tokens) * local;
                let fwd = if lookup {
                    lookup_time(group.kind.lookup_bytes_per_sample(tokens) * local, &sub)
                } else {
                    compute_time(flops, &phase, &sub, &utilization)
                };
                c.fwd_compute += fwd * reps;
                if lookup {
                    lookup_secs += (fwd * reps).as_secs();
                }
                match weights.iter_mut().find(|(k, _)| *k == group.class) {
                    Some((_, w)) => *w += (fwd * reps).as_secs(),
                    None => weights.push((group.class, (fwd * reps).as_secs())),
                }
                if workload.has_backward() && workload.trains(group.class) {
                    let recompute = plan.options.activation_checkpointing
                        && matches!(
                            group.kind,
                            madmax_model::LayerKind::TransformerBlock(_)
                                | madmax_model::LayerKind::Moe(_)
                        );
                    let bwd = match lookup {
                        true => fwd,
                        false => compute_time(
                            flops * backward_flops_factor(recompute),
                            &phase,
                            &sub,
                            &utilization,
                        ),
                    };
                    c.bwd_compute += bwd * reps;
                }
                let per_token = group.kind.kv_cache_bytes_per_token(phase.compute_dtype);
                if kv_cache && !per_token.is_zero() {
                    let tp = plan.strategy_for(group.class).compute_shard_factor(&sub);
                    c.kv_read_per_token += lookup_time(per_token * local / tp, &sub) * reps;
                }
                let comm = derive_layer_comm(group, plan, &phase, &sub, workload, local);
                let time = |req| HierarchicalNccl.time(req, &sub) * reps;
                for req in &comm.forward {
                    let bucket = match req.urgency {
                        Urgency::Prefetchable => &mut c.param_comm,
                        _ => &mut c.fwd_comm,
                    };
                    add_comm(bucket, req.collective, time(req));
                }
                for req in &comm.backward {
                    let bucket = match req.urgency {
                        Urgency::Prefetchable => &mut c.param_comm,
                        _ => &mut c.bwd_comm,
                    };
                    add_comm(bucket, req.collective, time(req));
                }
                for req in &comm.grad {
                    add_comm(&mut c.grad_comm, req.collective, time(req));
                }
            }
            if si + 1 < stages.len() {
                c.send_fwd = p2p(stage);
            }
            if si > 0 && workload.has_backward() {
                c.send_bwd = p2p(&stages[si - 1]);
            }
            weights.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            c.dominant_class = weights[0].0;
            c.lookup_dominated =
                lookup_secs > weights[0].1 || lookup_secs >= c.fwd_compute.as_secs() * 0.5;
            out.push(c);
        }
        out
    }

    #[test]
    fn cached_pricing_matches_fresh_stage_costs() {
        // Bit for bit against the oracle: training (with and without
        // activation checkpointing, under both utilization models),
        // forward-only inference, and both phases of a serve workload,
        // on an LLM and on a lookup-heavy DLRM.
        let llm = ModelId::Gpt3.build();
        let dlrm = ModelId::DlrmA.build();
        let llm_sys = catalog::llama_llm_system();
        let dlrm_sys = catalog::zionex_dlrm_system();
        let serve = Workload::serve(ServeConfig::new(512, 16).with_decode_batch(512));
        let cases = [
            (&llm, &llm_sys, Workload::pretrain(), 8, 32),
            (&llm, &llm_sys, Workload::inference(), 4, 16),
            (&llm, &llm_sys, serve, 8, 8),
            (&dlrm, &dlrm_sys, Workload::pretrain(), 2, 8),
            (&dlrm, &dlrm_sys, Workload::inference(), 4, 4),
        ];
        for (model, sys, workload, p, m) in cases {
            for checkpointing in [false, true] {
                for utilization in [UtilizationModel::Constant, UtilizationModel::vit_default()] {
                    let mut plan =
                        Plan::fsdp_baseline(model).with_pipeline(PipelineConfig::one_f_one_b(p, m));
                    plan.options.activation_checkpointing = checkpointing;
                    plan.options.ignore_memory_limits = true;
                    let mut table = PipelineCostTable::new(
                        model,
                        sys,
                        workload.clone(),
                        plan.options,
                        &HierarchicalNccl,
                        utilization,
                    );
                    table.ensure_plan(&plan);
                    let priced = table.priced_for(&plan).unwrap();
                    let fresh = |decode| {
                        fresh_stage_costs(model, sys, &plan, &workload, utilization, decode)
                    };
                    let case = format!(
                        "{} {workload} {utilization:?} ckpt={checkpointing}",
                        model.name
                    );
                    assert_eq!(priced.primary, fresh(false).as_slice(), "{case}");
                    let decode = workload.decode_model(table.report_model()).is_some();
                    assert_eq!(priced.decode.is_some(), decode, "{case}");
                    if decode {
                        assert_eq!(priced.decode.unwrap(), fresh(true).as_slice(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn cached_memory_matches_the_fresh_fold() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::one_f_one_b(8, 32));
        let table = one_plan_table(&model, &sys, &plan, Workload::pretrain());
        let priced = table.priced_for(&plan).unwrap();
        let stages = partition_model(&model, &sys, 8).unwrap();
        let sub = stage_cluster(&sys, 8).unwrap();
        let per_stage: Vec<_> = stage_models(&model, &stages)
            .iter()
            .map(|m| memory_per_device(m, &sub, &plan, &Workload::pretrain()))
            .collect();
        let fresh_mem = fold_pipeline_memory(
            &per_stage,
            32,
            PipelineSchedule::OneFOneB,
            &Workload::pretrain(),
            &plan,
            &sys,
        )
        .unwrap();
        assert_eq!(priced.memory, fresh_mem);
        assert!(priced.decode.is_none());
        assert!(
            priced.memo.is_none(),
            "training traces depend on the schedule"
        );
    }

    #[test]
    fn pipelined_backward_sums_the_flat_tables_backward() {
        // A stage's backward is the sum of its units' flat-engine
        // backward entries, `compute_time(f * k)` per instance, also when
        // utilization depends on the FLOPs or checkpointing makes k = 3.
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let (p, m) = (4, 16);
        for (utilization, checkpointing) in [
            (UtilizationModel::vit_default(), false),
            (UtilizationModel::Constant, true),
        ] {
            let mut plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(p, m));
            plan.options.activation_checkpointing = checkpointing;
            plan.options.ignore_memory_limits = true;
            let mut table = PipelineCostTable::new(
                &model,
                &sys,
                Workload::pretrain(),
                plan.options,
                &HierarchicalNccl,
                utilization,
            );
            table.ensure_plan(&plan);
            let priced = table.priced_for(&plan).unwrap();
            let mut flat = CostTable::new(
                &model,
                stage_cluster(&sys, p).unwrap(),
                Workload::pretrain(),
                plan.options,
                &HierarchicalNccl,
                utilization,
                m,
            );
            flat.ensure_plan(&plan);
            let stages = partition_model(&model, &sys, p).unwrap();
            for (stage, costs) in stages.iter().zip(priced.primary) {
                let expected = stage.units.iter().fold(Seconds::ZERO, |sum, u| {
                    let strategy = plan.strategy_for(model.groups[u.group].class);
                    sum + flat.group_price(u.group, strategy, false).backward * u.instances as f64
                });
                assert_eq!(
                    costs.bwd_compute, expected,
                    "{utilization:?} {checkpointing}"
                );
            }
        }
    }

    #[test]
    fn each_group_strategy_is_priced_once_per_depth_and_microbatches() {
        // Many assignments share a (depth, microbatches) key: its flat
        // table prices each (class, strategy) pair, for every group of the
        // class and every phase, exactly once.
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let mut base = Plan::fsdp_baseline(&model);
        base.options.ignore_memory_limits = true;
        let serve = Workload::serve(ServeConfig::new(256, 8).with_decode_batch(64));
        for workload in [Workload::pretrain(), serve] {
            let mut table = table_for(&model, &sys, workload, base.options);
            let mut plans = Vec::new();
            for strategy in HierStrategy::enumerate_for(LayerClass::Transformer) {
                for (p, m) in [(2, 8), (2, 16), (4, 8)] {
                    for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
                        let cfg = PipelineConfig {
                            stages: p,
                            microbatches: m,
                            schedule,
                        };
                        let plan = base
                            .clone()
                            .with_strategy(LayerClass::Transformer, strategy)
                            .with_pipeline(cfg);
                        table.ensure_plan(&plan);
                        plans.push(plan);
                    }
                }
            }
            let strategies = HierStrategy::enumerate_for(LayerClass::Transformer).len();
            assert_eq!(table.stats().misses as usize, strategies * 3);
            assert_eq!(table.stats().hits as usize, strategies * 3);
            for (p, depth) in &table.depths {
                for (m, flat) in &depth.as_ref().unwrap().flat {
                    let mut pairs = Vec::new();
                    for plan in plans.iter().filter(|pl| {
                        pl.pipeline
                            .is_some_and(|c| c.stages == *p && c.microbatches == *m)
                    }) {
                        for &class in &table.classes {
                            let pair = (class, plan.strategy_for(class));
                            if !pairs.contains(&pair) {
                                pairs.push(pair);
                            }
                        }
                    }
                    assert_eq!(flat.stats().misses as usize, pairs.len(), "p{p} m{m}");
                }
            }
        }
    }

    #[test]
    fn serve_tables_price_both_phases_and_share_schedule_entries() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let workload = Workload::serve(ServeConfig::new(512, 16).with_decode_batch(512));
        let mut table = table_for(&model, &sys, workload, base.options);
        let gpipe = base.clone().with_pipeline(PipelineConfig::gpipe(8, 8));
        let fb = base
            .clone()
            .with_pipeline(PipelineConfig::one_f_one_b(8, 8));
        table.ensure_plan(&gpipe);
        table.ensure_plan(&fb);
        let a = table.priced_for(&gpipe).unwrap();
        let b = table.priced_for(&fb).unwrap();
        assert!(a.decode.is_some());
        // Serve traces are schedule-independent: both candidates share
        // one memo slot, so the second skips re-assembly.
        assert!(std::ptr::eq(a.memo.unwrap(), b.memo.unwrap()));
    }

    #[test]
    fn error_shapes_match_the_uncached_path() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);

        // No active pipeline config.
        table.ensure_plan(&base);
        let err = table.priced_for(&base).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }));

        // Unmappable depth (256 nodes cannot split 7 ways).
        let bad = base.clone().with_pipeline(PipelineConfig::gpipe(7, 8));
        table.ensure_plan(&bad);
        let err = table.priced_for(&bad).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");

        // Invalid strategy for a class.
        let invalid = base
            .clone()
            .with_strategy(LayerClass::Embedding, HierStrategy::flat(Strategy::Tp))
            .with_pipeline(PipelineConfig::gpipe(8, 16));
        table.ensure_plan(&invalid);
        let err = table.priced_for(&invalid).unwrap_err();
        assert!(matches!(err, PlanError::InvalidStrategy { .. }), "{err}");

        // Bad microbatch count.
        let zero_m = base.clone().with_pipeline(PipelineConfig::gpipe(8, 0));
        table.ensure_plan(&zero_m);
        let err = table.priced_for(&zero_m).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");
    }

    #[test]
    fn covers_exactly_the_keys_priced_for_answers() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let plan = base.clone().with_pipeline(PipelineConfig::gpipe(8, 16));
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);
        assert!(!table.covers(&plan));
        table.ensure_plan(&plan);
        assert!(table.covers(&plan));
        // An unpriced depth or microbatch count is not covered.
        assert!(!table.covers(&base.clone().with_pipeline(PipelineConfig::gpipe(4, 16))));
        assert!(!table.covers(&base.clone().with_pipeline(PipelineConfig::gpipe(8, 32))));
        // Candidates whose error the table answers are covered.
        let over = base
            .clone()
            .with_pipeline(PipelineConfig::gpipe(8, 1 << 20));
        table.ensure_plan(&over);
        assert!(table.priced_for(&over).is_err());
        assert!(table.covers(&over));
        let mut diverged = plan;
        diverged.options.activation_checkpointing = !diverged.options.activation_checkpointing;
        assert!(!table.covers(&diverged));
    }

    #[test]
    #[should_panic(expected = "no entry")]
    fn assembling_an_unpriced_key_panics() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);
        table.ensure_plan(&base.clone().with_pipeline(PipelineConfig::gpipe(8, 16)));
        let other = base.with_pipeline(PipelineConfig::gpipe(4, 16));
        let _ = table.priced_for(&other);
    }

    #[test]
    #[should_panic(expected = "options diverge")]
    fn mismatched_pricing_options_rejected() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = table_for(&model, &sys, Workload::pretrain(), base.options);
        let mut other = base.with_pipeline(PipelineConfig::gpipe(8, 16));
        other.options.activation_checkpointing = !other.options.activation_checkpointing;
        table.ensure_plan(&other);
    }
}
