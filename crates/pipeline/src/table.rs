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
//!   pipeline's own terms: the inter-stage P2P sends (priced once per
//!   `(p, microbatches)`), the optimizer step (once per `(p,
//!   assignment)`) and the dominant-class and lookup tags. The
//!   **schedule** axis only reorders trace assembly, and for serve
//!   workloads does not even do that (the decode stream is
//!   schedule-independent).
//!
//! Assignments are looked up by a packed code of their strategies, with
//! no allocation. A key's stage costs are summed the first time a
//! candidate of it is priced: [`PipelineCostTable::ensure_plan`] does
//! that at once, [`PipelineCostTable::ensure_plan_deferred`] leaves it to
//! the first [`PipelineCostTable::priced_for`], so a search that rules a
//! whole family of candidates out with
//! [`PipelineCostTable::family_lower_bound`] only checks their
//! feasibility ([`PipelineCostTable::check`]) and never sums their
//! stages.
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
//! read per plan). [`PipelineCostTable::ensure_plan`] (or
//! [`PipelineCostTable::ensure_plan_deferred`]) must be called for every
//! candidate before evaluation; the table is then shared read-only
//! across worker threads (it is `Sync`; deferred stage costs are summed
//! once, by whichever thread prices the key first). Assembling a plan
//! whose depth, assignment, or microbatch count was never registered
//! panics; error-shaped
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
    memory_per_device, CollectiveKind, HierStrategy, MemoryBreakdown, PipelineConfig, Plan,
    PlanError, PlanOptions, Strategy, Urgency, Workload,
};

use crate::cost::{
    add_comm, boundary_bytes_per_sample, microbatch_bounds, p2p_time, stage_cluster, stage_models,
    StageCosts,
};
use crate::memory::fold_pipeline_memory;
use crate::partition::{partition_model, Stage};
use crate::schedule::busy_lower_bound;

/// Every strategy-independent context of one depth `p`.
#[derive(Debug)]
struct DepthEntry<'a> {
    stages: Vec<Stage>,
    /// The stage sub-cluster (owned once; candidates borrow it).
    sub: ClusterSpec,
    /// Primary-phase per-stage sub-models (memory and optimizer).
    sub_models: Vec<ModelArch>,
    /// The flat table and the inter-stage sends of each priced
    /// microbatch count.
    flat: Vec<FlatEntry<'a>>,
    /// Per-assignment costs, sorted by assignment code
    /// ([`PipelineCostTable::assign_code`]).
    assignments: Vec<(u32, AssignEntry)>,
}

/// The strategy-independent costs of one `(depth, microbatches)` pair.
#[derive(Debug)]
struct FlatEntry<'a> {
    microbatches: usize,
    /// Every layer group's costs on the sub-cluster at one microbatch's
    /// local batch, per strategy and phase.
    table: CostTable<'a>,
    /// Each stage's activation send to the next stage, per microbatch
    /// (one entry per stage but the last): the primary phase, then the
    /// decode phase (empty without one). A stage's gradient send is its
    /// predecessor's activation send.
    sends: [Vec<Seconds>; 2],
    /// The inputs of family floors: per (class, strategy) registered at
    /// this entry, each stage's comm pieces under it
    /// ([`PipelineCostTable::class_pieces`]).
    pieces: Vec<ClassPieces>,
}

/// One (class, strategy)'s comm pieces and summed entry count per stage.
type ClassPieces = (LayerClass, HierStrategy, Vec<([Seconds; 4], usize)>);

/// Costs of one `(depth, strategy assignment)` pair.
#[derive(Debug)]
struct AssignEntry {
    /// Raw (schedule-independent) per-stage memory footprints.
    per_stage_memory: Vec<MemoryBreakdown>,
    /// Per-stage optimizer step (the same in every phase and at every
    /// microbatch count); empty until a feasible candidate needs it.
    optimizer: Vec<Seconds>,
    /// The phase costs of each registered microbatch count.
    by_m: Vec<(usize, PhaseCosts)>,
}

/// One `(depth, assignment, microbatches)` key: its stage costs, summed
/// on first use, and its report memo.
#[derive(Debug)]
struct PhaseCosts {
    stages: OnceLock<Stages>,
    /// The report of every candidate at this key, with its decode tail,
    /// for workloads without a backward pass: their traces do not depend
    /// on the schedule, so the GPipe/1F1B pair of a search shares it. Set
    /// by the first worker to evaluate the key.
    report: ReportMemo,
}

/// The priced stages of every workload phase of one key.
#[derive(Debug)]
struct Stages {
    primary: Vec<StageCosts>,
    decode: Option<Vec<StageCosts>>,
}

/// One candidate located in the table: its key's entries and its memory
/// fold.
struct Located<'t> {
    depth: &'t DepthEntry<'t>,
    assign: &'t AssignEntry,
    phase: &'t PhaseCosts,
    cfg: PipelineConfig,
    memory: MemoryBreakdown,
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

/// Relative amount by which [`PipelineCostTable::family_lower_bound`]
/// deflates the fill/drain walk of its floor costs, so that rounding can
/// never lift the floor above a member's own walk (see that method).
/// Far below the search's 1e-9 pruning margin.
pub(crate) const FLOOR_DEFLATION: f64 = 1e-11;

/// The longest chain of floating additions behind a floor or a member's
/// walk for which [`FLOOR_DEFLATION`] covers the rounding:
/// `2.01 · FLOOR_MAX_DEPTH · 2^-53 < FLOOR_DEFLATION`.
const FLOOR_MAX_DEPTH: usize = 40_000;

/// Collective kinds a [`StageCosts`] comm list can hold, one entry each.
const COLLECTIVE_KINDS: usize = 5;

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
    /// Price-vs-reuse telemetry: one hit per registered candidate whose
    /// `(depth, assignment, microbatches)` key already had an entry, one
    /// miss per key whose stage costs are summed.
    counters: CacheCounters,
    /// Report-memo telemetry, bumped by `run_pipelined_cached` for
    /// workloads without a backward pass.
    memo_counters: CacheCounters,
    /// Closed-form-vs-fallback telemetry for serve evaluations (one hit
    /// per report synthesized by the steady-state evaluator, one miss per
    /// serve candidate that fell back to full simulation).
    analytic_counters: CacheCounters,
}

/// The layer class whose strategy, with the depth, the microbatch count
/// and the schedule, keys a family of pipelined candidates
/// ([`PipelineCostTable::family_lower_bound`]): the class with the most
/// layer instances in `model`, ties to the first to appear. For an LLM it
/// is the transformer blocks.
pub fn family_class(model: &ModelArch) -> Option<LayerClass> {
    let mut counts: Vec<(LayerClass, usize)> = Vec::new();
    for g in &model.groups {
        match counts.iter_mut().find(|(c, _)| *c == g.class) {
            Some((_, n)) => *n += g.repeat,
            None => counts.push((g.class, g.repeat)),
        }
    }
    // `max_by_key` keeps the last maximum; reversing keeps the first.
    counts
        .into_iter()
        .rev()
        .max_by_key(|&(_, n)| n)
        .map(|(c, _)| c)
}

/// A strategy's code, below 20: its position among the flat strategies,
/// or four plus its two-level pair's.
fn strategy_code(s: HierStrategy) -> u32 {
    let base = |s: Strategy| s as u32;
    match s {
        HierStrategy::Flat(s) => base(s),
        HierStrategy::TwoLevel { intra, inter } => 4 + 4 * base(intra) + base(inter),
    }
}

impl<'a> PipelineCostTable<'a> {
    /// Creates an empty table for one `(model, cluster, workload)`
    /// pricing context; call [`PipelineCostTable::ensure_plan`] (or
    /// [`PipelineCostTable::ensure_plan_deferred`]) with every candidate
    /// to fill it.
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

    /// Snapshot of the price-vs-reuse counters: registering a candidate
    /// ([`PipelineCostTable::ensure_plan`] or
    /// [`PipelineCostTable::ensure_plan_deferred`]) records one hit when
    /// its `(depth, assignment, microbatches)` key already had an entry,
    /// and summing a key's stage costs records one miss (error-shaped
    /// candidates, which are never priced, count as neither).
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

    /// The code of the strategies `plan` assigns to the model's classes,
    /// in the table's canonical class order: base-20 digits of
    /// [`strategy_code`], one per class (four classes fit in a `u32`).
    fn assign_code(&self, plan: &Plan) -> u32 {
        self.classes.iter().rev().fold(0, |code, &c| {
            code * 20 + strategy_code(plan.strategy_for(c))
        })
    }

    /// Prices (once) everything `plan`'s candidate needs: the depth's
    /// partition and sub-cluster/sub-models, the assignment's per-stage
    /// memory and optimizer step, and the per-phase stage costs at the
    /// plan's microbatch count. Safe to call with every candidate of a
    /// search; already-priced keys and non-pipelined or error-shaped
    /// candidates (which re-derive their exact error at evaluation time)
    /// are skipped.
    ///
    /// # Panics
    ///
    /// Panics when `plan`'s pricing-relevant options diverge from the
    /// table's (see the module docs).
    pub fn ensure_plan(&mut self, plan: &Plan) {
        if self.ensure_plan_deferred(plan) {
            let _ = self.priced_for(plan);
        }
    }

    /// [`PipelineCostTable::ensure_plan`] without summing the stage
    /// costs: everything `plan`'s feasibility check
    /// ([`PipelineCostTable::check`]) and its family's floor
    /// ([`PipelineCostTable::family_lower_bound`]) read is priced, and
    /// the plan's `(depth, assignment, microbatches)` key is registered;
    /// its stage costs are summed the first time a candidate of the key
    /// is priced ([`PipelineCostTable::priced_for`]), by whichever thread
    /// gets there first. Returns whether the key was registered (the
    /// candidate is pipelined and feasible).
    ///
    /// # Panics
    ///
    /// Same conditions as [`PipelineCostTable::ensure_plan`].
    pub fn ensure_plan_deferred(&mut self, plan: &Plan) -> bool {
        assert!(
            self.options.prices_like(&plan.options),
            "plan options diverge from the pipeline cost table's pricing context"
        );
        let Some(cfg) = plan.pipeline.filter(|c| c.is_pipelined()) else {
            return false; // flat plans are the flat CostTable's business
        };
        let primary: &ModelArch = self.eff.as_deref().unwrap_or(self.model);
        if plan.validate_strategies(primary).is_err() {
            return false;
        }

        let di = match self.depths.iter().position(|(p, _)| *p == cfg.stages) {
            Some(i) => i,
            None => {
                let built = Self::build_depth(primary, self.cluster, cfg.stages);
                self.depths.push((cfg.stages, built));
                self.depths.len() - 1
            }
        };
        let Ok(depth) = &self.depths[di].1 else {
            return false; // unmappable depth; candidates reproduce the error
        };
        let code = self.assign_code(plan);
        let ai = match depth.assignments.binary_search_by_key(&code, |(c, _)| *c) {
            Ok(i) => i,
            Err(i) => {
                let per_stage_memory = depth
                    .sub_models
                    .iter()
                    .map(|m| memory_per_device(m, &depth.sub, plan, &self.workload))
                    .collect();
                let assign = AssignEntry {
                    per_stage_memory,
                    optimizer: Vec::new(),
                    by_m: Vec::new(),
                };
                self.depth_mut(di).assignments.insert(i, (code, assign));
                i
            }
        };
        let depth = self.depth(di);
        let assign = &depth.assignments[ai].1;
        // Infeasible candidates are never priced: `priced_for` reports
        // their error first.
        if self.feasible(&assign.per_stage_memory, cfg, plan).is_err() {
            return false;
        }
        let m = cfg.microbatches;
        if assign.by_m.iter().any(|(bm, _)| *bm == m) {
            self.counters.hit();
            return true;
        }
        let fi = match depth.flat.iter().position(|f| f.microbatches == m) {
            Some(i) => i,
            None => {
                let fresh = self.flat_entry(depth, m);
                let depth = self.depth_mut(di);
                depth.flat.push(fresh);
                depth.flat.len() - 1
            }
        };
        self.depth_mut(di).flat[fi].table.ensure_plan(plan);
        // The optimizer step of the assignment and the floor inputs of
        // the plan's strategies, once each (a workload with a decode
        // phase has no family floors).
        let depth = self.depth(di);
        let optimizer: Option<Vec<Seconds>> =
            depth.assignments[ai].1.optimizer.is_empty().then(|| {
                let step = |sub_model| optimizer_time(sub_model, &depth.sub, plan, &self.workload);
                depth.sub_models.iter().map(step).collect()
            });
        let flat = &depth.flat[fi];
        let pieces: Vec<ClassPieces> = self
            .classes
            .iter()
            .filter(|_| self.decode_model.is_none())
            .map(|&class| (class, plan.strategy_for(class)))
            .filter(|&(c, st)| !flat.pieces.iter().any(|p| (p.0, p.1) == (c, st)))
            .map(|(class, st)| {
                let per_stage = depth.stages.iter();
                let per_stage = per_stage.map(|stage| self.class_pieces(stage, flat, class, st));
                (class, st, per_stage.collect())
            })
            .collect();
        let depth = self.depth_mut(di);
        depth.flat[fi].pieces.extend(pieces);
        let assign = &mut depth.assignments[ai].1;
        if let Some(optimizer) = optimizer {
            assign.optimizer = optimizer;
        }
        assign.by_m.push((
            m,
            PhaseCosts {
                stages: OnceLock::new(),
                report: OnceLock::new(),
            },
        ));
        true
    }

    /// The entry of depth index `di`, which is mappable.
    fn depth(&self, di: usize) -> &DepthEntry<'a> {
        self.depths[di].1.as_ref().expect("a mappable depth")
    }

    /// [`PipelineCostTable::depth`], mutably.
    fn depth_mut(&mut self, di: usize) -> &mut DepthEntry<'a> {
        self.depths[di].1.as_mut().expect("a mappable depth")
    }

    /// A fresh `(depth, microbatches)` entry: an empty flat table on the
    /// stage sub-cluster and every stage's inter-stage sends.
    fn flat_entry(&self, depth: &DepthEntry, m: usize) -> FlatEntry<'a> {
        let table = CostTable::new(
            self.model,
            Cow::Owned(depth.sub.clone()),
            self.workload.clone(),
            self.options,
            self.collectives,
            self.utilization,
            m,
        );
        // A stage ships its last layer's output activations forward, and
        // the same-sized gradient of its input backward during training.
        let sends = |model: &ModelArch, local_micro: f64| -> Vec<Seconds> {
            let p = depth.stages.len();
            depth.stages[..p - 1]
                .iter()
                .map(|stage| {
                    let last = stage.units.last().expect("stages are non-empty");
                    let kind = &model.groups[last.group].kind;
                    let bytes =
                        boundary_bytes_per_sample(kind, model.context_length, model.compute_dtype);
                    p2p_time(bytes * local_micro, self.cluster, self.collectives)
                })
                .collect()
        };
        let primary = sends(self.report_model(), table.local_batch(false));
        let decode = match self.decode_model.as_deref() {
            Some(dm) => sends(dm, table.local_batch(true)),
            None => Vec::new(),
        };
        FlatEntry {
            microbatches: m,
            table,
            sends: [primary, decode],
            pieces: Vec::new(),
        }
    }

    /// One phase's per-stage costs of `plan`, summed from `flat`, the
    /// depth's flat entry at the plan's microbatch count: each stage unit
    /// adds its group's cached per-instance entry times its instances, in
    /// unit order. The inter-stage sends and the optimizer step come from
    /// their caches; only the dominant-class and lookup tags are derived
    /// here.
    fn sum_stages(
        &self,
        depth: &DepthEntry,
        flat: &FlatEntry,
        optimizer: &[Seconds],
        plan: &Plan,
        decode: bool,
    ) -> Vec<StageCosts> {
        let model = if decode {
            self.decode_model.as_deref().expect("decode phase priced")
        } else {
            self.report_model()
        };
        let p = depth.stages.len();
        let sends = &flat.sends[usize::from(decode)];
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
                optimizer: optimizer[si],
                dominant_class: LayerClass::Dense,
                lookup_dominated: false,
                kv_read_per_token: Seconds::ZERO,
            };
            let mut class_weight: Vec<(LayerClass, f64)> = Vec::new();
            let mut lookup_secs = 0.0;
            for unit in &stage.units {
                let class = model.groups[unit.group].class;
                let price = flat
                    .table
                    .group_price(unit.group, plan.strategy_for(class), decode);
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
                costs.send_fwd = sends[si];
            }
            if si > 0 && self.workload.has_backward() {
                costs.send_bwd = sends[si - 1];
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
    /// OOM, then microbatch bounds per phase). The key's stage costs are
    /// summed here if no candidate summed them yet.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::run_pipelined_cached`].
    ///
    /// # Panics
    ///
    /// Panics when the candidate's (depth, assignment, microbatches) key
    /// was not registered via [`PipelineCostTable::ensure_plan`] or
    /// [`PipelineCostTable::ensure_plan_deferred`]; debug builds also
    /// assert that `plan`'s options match the pricing context.
    pub fn priced_for(&self, plan: &Plan) -> Result<PricedPipelineRef<'_>, PlanError> {
        let located = self.located(plan)?;
        let stages = located.phase.stages.get_or_init(|| {
            self.counters.miss();
            let flat = located
                .depth
                .flat
                .iter()
                .find(|f| f.microbatches == located.cfg.microbatches)
                .expect("a registered key has its flat entry");
            let optimizer = &located.assign.optimizer;
            Stages {
                primary: self.sum_stages(located.depth, flat, optimizer, plan, false),
                decode: self
                    .decode_model
                    .is_some()
                    .then(|| self.sum_stages(located.depth, flat, optimizer, plan, true)),
            }
        });
        Ok(PricedPipelineRef {
            primary: &stages.primary,
            decode: stages.decode.as_deref(),
            cfg: located.cfg,
            memory: located.memory,
            memo: (!self.workload.has_backward()).then_some(&located.phase.report),
        })
    }

    /// The feasibility half of [`PipelineCostTable::priced_for`]: the
    /// same checks in the same order with the same errors, and the
    /// candidate's worst-stage memory breakdown, without reading or
    /// summing its stage costs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PipelineCostTable::priced_for`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`PipelineCostTable::priced_for`].
    pub fn check(&self, plan: &Plan) -> Result<MemoryBreakdown, PlanError> {
        Ok(self.located(plan)?.memory)
    }

    /// [`PipelineCostTable::resolve`], panicking on a missing key.
    fn located(&self, plan: &Plan) -> Result<Located<'_>, PlanError> {
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

    /// Locates `plan`'s key and folds its memory (see
    /// [`PipelineCostTable::priced_for`] for the order of the checks),
    /// with `Err` naming the key the table never registered.
    fn resolve(&self, plan: &Plan) -> Result<Result<Located<'_>, PlanError>, String> {
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
        let depth = match depth {
            Ok(depth) => depth,
            Err(e) => return Ok(Err(e.clone())),
        };
        let Some(assign) = self.assignment(depth, plan) else {
            return Err(plan.summary());
        };
        let memory = match self.feasible(&assign.per_stage_memory, cfg, plan) {
            Ok(memory) => memory,
            Err(e) => return Ok(Err(e)),
        };
        let Some((_, phase)) = assign.by_m.iter().find(|(m, _)| *m == cfg.microbatches) else {
            return Err(format!("{} microbatches", cfg.microbatches));
        };
        Ok(Ok(Located {
            depth,
            assign,
            phase,
            cfg,
            memory,
        }))
    }

    /// `plan`'s assignment entry at `depth`, if one was priced.
    fn assignment<'t>(&self, depth: &'t DepthEntry, plan: &Plan) -> Option<&'t AssignEntry> {
        let code = self.assign_code(plan);
        let i = depth
            .assignments
            .binary_search_by_key(&code, |(c, _)| *c)
            .ok()?;
        Some(&depth.assignments[i].1)
    }

    /// A lower bound on [`crate::busy_lower_bound`] of every candidate in
    /// `members`, computed once for all of them: the fill/drain walk of
    /// per-stage floor costs. The members must share one pipeline config
    /// (depth, microbatches, schedule) and be feasible, registered
    /// candidates; a search passes one family, the candidates that also
    /// share the strategy of the [`family_class`]. `None` for workloads
    /// with a decode phase (their bound is the grid-unit one), for an
    /// empty, mixed or unregistered member list, and for a walk too long
    /// for the deflation to cover.
    ///
    /// The floor of a stage takes, from the depth's flat table at the
    /// family's microbatch count:
    ///
    /// - the forward and backward compute, which no strategy changes,
    ///   summed as a member sums them;
    /// - per comm piece (blocking forward and backward collectives,
    ///   parameter gathers, weight-gradient collectives), the sum over the
    ///   model's classes of the cheapest strategy's contribution among the
    ///   members' strategies for the class, as one list entry;
    /// - the inter-stage sends, which depend only on the depth and the
    ///   microbatch count, and the cheapest member's optimizer step.
    ///
    /// **Soundness.** The walk combines non-negative durations with `+`
    /// and `max` only, so in exact arithmetic it is monotone and
    /// positively homogeneous in them. Each floor piece is, exactly, at
    /// most the member's own (the per-class minima of the same per-unit
    /// products the member sums), so the exact floor walk is at most the
    /// exact member walk. In `f64`, every sum of non-negative terms is
    /// within a factor `(1 ± 2^-53)^d` of its exact value, `d` the longest
    /// chain of additions behind it; the longest chain of the floor's and
    /// a member's walk, piece sums included, is at most
    /// `(2m + 2p + 2)(5 + 2) + units + comms + classes + 2` for `p`
    /// stages, `m` microbatches, the five collective kinds a comm list can
    /// hold and the largest stage's units and comm entries. Below
    /// `FLOOR_MAX_DEPTH` the two computed walks therefore differ from
    /// their exact order by less than `2.01 · d · 2^-53 < 1e-11` relative,
    /// and deflating the floor by `FLOOR_DEFLATION` (1e-11) keeps it at
    /// or below every member's computed walk, bit for bit. Longer walks
    /// get no floor.
    pub fn family_lower_bound(&self, members: &[&Plan]) -> Option<Seconds> {
        if self.decode_model.is_some() {
            return None;
        }
        let first = *members.first()?;
        let cfg = first.pipeline.filter(|c| c.is_pipelined())?;
        let depth = self
            .depths
            .iter()
            .find(|(p, _)| *p == cfg.stages)?
            .1
            .as_ref()
            .ok()?;
        let flat = depth
            .flat
            .iter()
            .find(|f| f.microbatches == cfg.microbatches)?;
        // Each class's pieces under the members' strategies, and each
        // stage's cheapest optimizer step.
        let mut options: Vec<Vec<&ClassPieces>> = vec![Vec::new(); self.classes.len()];
        let mut optimizer = vec![Seconds::new(f64::INFINITY); depth.stages.len()];
        for &plan in members {
            let assign = self.assignment(depth, plan)?;
            let registered = assign.by_m.iter().any(|(m, _)| *m == cfg.microbatches);
            if plan.pipeline != Some(cfg) || !registered || assign.optimizer.is_empty() {
                return None;
            }
            for (seen, &class) in options.iter_mut().zip(&self.classes) {
                let s = plan.strategy_for(class);
                if !seen.iter().any(|p| p.1 == s) {
                    seen.push(flat.pieces.iter().find(|p| (p.0, p.1) == (class, s))?);
                }
            }
            for (floor, &step) in optimizer.iter_mut().zip(&assign.optimizer) {
                *floor = floor.min(step);
            }
        }
        let model = self.report_model();
        let p = depth.stages.len();
        let sends = &flat.sends[0];
        let mut chain = 0;
        let mut floor = Vec::with_capacity(p);
        for (si, stage) in depth.stages.iter().enumerate() {
            let (mut fwd_compute, mut bwd_compute) = (Seconds::ZERO, Seconds::ZERO);
            for unit in &stage.units {
                let class = model.groups[unit.group].class;
                let price = flat
                    .table
                    .group_price(unit.group, first.strategy_for(class), false);
                let reps = unit.instances as f64;
                fwd_compute += price.forward * reps;
                bwd_compute += price.backward * reps;
            }
            let mut pieces = [Seconds::ZERO; 4];
            let mut terms = stage.units.len() + self.classes.len();
            for class_options in &options {
                let mut cheapest = [Seconds::new(f64::INFINITY); 4];
                let mut most = 0;
                for (_, _, per_stage) in class_options {
                    let (class_pieces, n) = per_stage[si];
                    for (c, x) in cheapest.iter_mut().zip(class_pieces) {
                        *c = c.min(x);
                    }
                    most = most.max(n);
                }
                for (piece, c) in pieces.iter_mut().zip(cheapest) {
                    *piece += c;
                }
                terms += most;
            }
            chain = chain.max(terms);
            let entry = |t: Seconds| match t.is_zero() {
                true => Vec::new(),
                false => vec![(CollectiveKind::AllReduce, t)],
            };
            floor.push(StageCosts {
                fwd_compute,
                bwd_compute,
                fwd_comm: entry(pieces[0]),
                bwd_comm: entry(pieces[1]),
                send_fwd: if si + 1 < p { sends[si] } else { Seconds::ZERO },
                send_bwd: if si > 0 && self.workload.has_backward() {
                    sends[si - 1]
                } else {
                    Seconds::ZERO
                },
                param_comm: entry(pieces[2]),
                grad_comm: entry(pieces[3]),
                optimizer: optimizer[si],
                dominant_class: LayerClass::Dense,
                lookup_dominated: false,
                kv_read_per_token: Seconds::ZERO,
            });
        }
        deflated_walk(&floor, &cfg, self.workload.has_backward(), chain)
    }

    /// The comm pieces class `class`'s units in `stage` add to a stage's
    /// costs under strategy `s` (blocking forward, blocking backward,
    /// parameter gathers, weight gradients; each the sum of the units'
    /// per-instance durations times their instances), and how many
    /// entries were summed.
    fn class_pieces(
        &self,
        stage: &Stage,
        flat: &FlatEntry,
        class: LayerClass,
        s: HierStrategy,
    ) -> ([Seconds; 4], usize) {
        let model = self.report_model();
        let mut pieces = [Seconds::ZERO; 4];
        let mut n = 0;
        for unit in stage
            .units
            .iter()
            .filter(|u| model.groups[u.group].class == class)
        {
            let costs = flat.table.group_price(unit.group, s, false).costs;
            let reps = unit.instances as f64;
            for (comms, blocking) in [(&costs.forward, 0), (&costs.backward, 1)] {
                for c in comms {
                    let piece = if c.urgency == Urgency::Prefetchable {
                        2
                    } else {
                        blocking
                    };
                    pieces[piece] += c.duration * reps;
                }
            }
            for c in &costs.grad {
                pieces[3] += c.duration * reps;
            }
            n += costs.forward.len() + costs.backward.len() + costs.grad.len();
        }
        (pieces, n)
    }
}

/// The fill/drain walk of floor costs `floor` deflated by
/// [`FLOOR_DEFLATION`] (see [`PipelineCostTable::family_lower_bound`]),
/// where `terms` is the most duration terms any stage's pieces sum; `None`
/// when the longest chain of additions could exceed `FLOOR_MAX_DEPTH`.
pub(crate) fn deflated_walk(
    floor: &[StageCosts],
    cfg: &PipelineConfig,
    train: bool,
    terms: usize,
) -> Option<Seconds> {
    let chain = (2 * cfg.microbatches + 2 * floor.len() + 2) * (COLLECTIVE_KINDS + 2) + terms + 2;
    if chain > FLOOR_MAX_DEPTH {
        return None;
    }
    Some(busy_lower_bound(floor, cfg, train, None)? * (1.0 - FLOOR_DEFLATION))
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
                for entry in &depth.as_ref().unwrap().flat {
                    let (m, flat) = (&entry.microbatches, &entry.table);
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
    fn deflation_covers_a_floor_that_rounds_above_its_member() {
        // A forward-only stage whose two blocking collectives each add
        // half an ulp of its 1 s compute: chained in issue order both
        // round away, so the member's walk is 1 s; collapsed into one
        // floor entry they add a full ulp. The deflation takes the floor
        // back below the member.
        let half_ulp = Seconds::new(f64::EPSILON / 2.0);
        let stage = |fwd_comm| StageCosts {
            fwd_compute: Seconds::new(1.0),
            bwd_compute: Seconds::ZERO,
            fwd_comm,
            bwd_comm: Vec::new(),
            send_fwd: Seconds::ZERO,
            send_bwd: Seconds::ZERO,
            param_comm: Vec::new(),
            grad_comm: Vec::new(),
            optimizer: Seconds::ZERO,
            dominant_class: LayerClass::Dense,
            lookup_dominated: false,
            kv_read_per_token: Seconds::ZERO,
        };
        let member = [stage(vec![
            (CollectiveKind::AllReduce, half_ulp),
            (CollectiveKind::AllToAll, half_ulp),
        ])];
        let floor = [stage(vec![(
            CollectiveKind::AllReduce,
            half_ulp + half_ulp,
        )])];
        let cfg = PipelineConfig::gpipe(1, 1);
        let walk = |costs: &[StageCosts]| busy_lower_bound(costs, &cfg, false, None).unwrap();
        assert_eq!(walk(&member), Seconds::new(1.0));
        assert!(
            walk(&floor) > walk(&member),
            "the undeflated floor rounds above"
        );
        assert!(deflated_walk(&floor, &cfg, false, 4).unwrap() <= walk(&member));
        // Walks too long for the deflation get no floor.
        let long = PipelineConfig::gpipe(1, FLOOR_MAX_DEPTH);
        assert!(deflated_walk(&floor, &long, false, 4).is_none());
    }

    #[test]
    fn family_floors_stay_below_every_member_and_track_the_best() {
        // Llama2's families, keyed on the transformer strategy, over every
        // embedding strategy: the floor never exceeds a member's walk, bit
        // for bit, and is within the deflation of the best member's
        // whenever one member is cheapest on every piece.
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        assert_eq!(family_class(&model), Some(LayerClass::Transformer));
        let mut base = Plan::fsdp_baseline(&model);
        base.options.ignore_memory_limits = true;
        for workload in [Workload::pretrain(), Workload::inference()] {
            let mut table = table_for(&model, &sys, workload.clone(), base.options);
            let (mut families, mut tight) = (0, 0);
            for transformer in HierStrategy::enumerate_for(LayerClass::Transformer) {
                for cfg in [
                    PipelineConfig::one_f_one_b(4, 2),
                    PipelineConfig::gpipe(8, 16),
                ] {
                    let members: Vec<Plan> = HierStrategy::enumerate_for(LayerClass::Embedding)
                        .into_iter()
                        .map(|embedding| {
                            base.clone()
                                .with_strategy(LayerClass::Transformer, transformer)
                                .with_strategy(LayerClass::Embedding, embedding)
                                .with_pipeline(cfg)
                        })
                        .collect();
                    for plan in &members {
                        assert!(table.ensure_plan_deferred(plan));
                    }
                    let refs: Vec<&Plan> = members.iter().collect();
                    let floor = table.family_lower_bound(&refs).unwrap();
                    let train = workload.has_backward();
                    let walks: Vec<Seconds> = members
                        .iter()
                        .map(|plan| {
                            let priced = table.priced_for(plan).unwrap();
                            busy_lower_bound(priced.primary, &cfg, train, None).unwrap()
                        })
                        .collect();
                    let best = walks.iter().copied().fold(walks[0], Seconds::min);
                    assert!(walks.iter().all(|&w| floor <= w), "{floor} vs {walks:?}");
                    families += 1;
                    if floor.as_secs() >= best.as_secs() * (1.0 - 2.0 * FLOOR_DEFLATION) {
                        tight += 1;
                    }
                }
            }
            // Most families' floor is their best member's walk.
            assert!(
                tight * 2 > families,
                "{workload}: {tight} of {families} tight"
            );
        }
        // Members may mix every class's strategies. On a system whose HBM
        // is so slow that the optimizer step binds, the floor takes the
        // sharded (FSDP) member's step, not the replicated (DDP) one's.
        let slow = sys.scaled(&madmax_hw::DeviceScaling {
            mem_bw: 1e-3,
            ..madmax_hw::DeviceScaling::IDENTITY
        });
        let mut table = table_for(&model, &slow, Workload::pretrain(), base.options);
        let cfg = PipelineConfig::gpipe(4, 8);
        let members: Vec<Plan> = [Strategy::Fsdp, Strategy::Ddp]
            .map(|s| {
                let transformer = HierStrategy::flat(s);
                base.clone()
                    .with_strategy(LayerClass::Transformer, transformer)
                    .with_pipeline(cfg)
            })
            .to_vec();
        for plan in &members {
            assert!(table.ensure_plan_deferred(plan));
        }
        let walks: Vec<Seconds> = members
            .iter()
            .map(|plan| {
                let priced = table.priced_for(plan).unwrap();
                busy_lower_bound(priced.primary, &cfg, true, None).unwrap()
            })
            .collect();
        assert!(walks[0] < walks[1], "{walks:?}");
        let refs: Vec<&Plan> = members.iter().collect();
        assert!(table.family_lower_bound(&refs).unwrap() <= walks[0]);
        // A member list that is empty, mixed or unregistered has no floor.
        let table = table_for(&model, &sys, Workload::pretrain(), base.options);
        assert!(table.family_lower_bound(&[]).is_none());
        let plan = base.with_pipeline(PipelineConfig::gpipe(8, 16));
        assert!(table.family_lower_bound(&[&plan]).is_none());
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
