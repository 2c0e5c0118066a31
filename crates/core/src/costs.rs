//! The pricing phase of the flat engine: a [`CostTable`] of per-group,
//! per-strategy, per-phase compute and collective costs, computed once and
//! composed into traces by the assembly phase
//! ([`CostTable::assemble_into`]).
//!
//! Pricing is what makes candidate evaluation expensive — every GEMM
//! duration and every collective's hierarchical cost-model invocation —
//! yet across a design-space search almost all of it is shared: candidates
//! differ only in which [`HierStrategy`] each layer class uses. The table
//! therefore caches, per layer group and per
//! [`madmax_parallel::WorkloadPhase`]:
//!
//! - strategy-independent compute durations (forward GEMM/lookup time,
//!   backward time with the recompute factor applied, single-token decode
//!   time), and
//! - per-strategy priced collectives ([`PricedComm`]) with pre-rendered
//!   interned labels, the primary phase's memory-footprint terms
//!   ([`madmax_parallel::group_memory`]), and — for decode — the per-token
//!   KV-cache read coefficient.
//!
//! Training and prefill-only workloads have one phase; serve workloads
//! with decode steps carry a second phase context (the model at a
//! single-token context and the serving batch) whose assembly appends
//! `decode_len` autoregressive steps after the prefill, each step's
//! compute stretched by the KV-cache read at its token position.
//!
//! `madmax-dse` computes one table per search and shares it read-only
//! across all worker threads (the table is `Sync`); each candidate's
//! evaluation then assembles a trace from cached costs without touching
//! the collective model or allocating op names. A single run
//! (`madmax_engine::Scenario::run`) prices a one-plan table the same way.
//!
//! These per-(group, strategy) entries are the only layer-pricing formula
//! in the tree. A table is priced at the local batch of one of
//! `microbatches` slices of the global batch, `(global_batch /
//! microbatches) / devices`: flat runs pass 1, and the pipeline engine
//! (`madmax_pipeline::PipelineCostTable`) prices one table per (depth,
//! microbatch count) on the stage sub-cluster, which the table then owns,
//! and sums its entries ([`CostTable::group_price`]) into per-stage
//! costs.
//!
//! # Assembly
//!
//! [`CostTable::assemble_into`] walks the model's layer groups in
//! execution order for the forward pass and in reverse for the backward
//! pass (Section IV-C: "Piecing Together Computation and Comm.
//! Streams"). Embedding groups form a side chain whose blocking All2All
//! joins the dense chain at the feature-combination stage (the paper's
//! Fig. 6), FSDP AllGathers are issued eagerly when prefetching is
//! enabled (Fig. 9), and weight-gradient collectives land on a separate
//! lower-priority stream so they drain behind blocking traffic.
//!
//! # Sharing contract
//!
//! A table is priced for one `(model, cluster, workload)` combination and
//! one set of [`PlanOptions`] (checkpointing and wire precision scale the
//! priced costs; prefetch, optimizer, and memory knobs scale the cached
//! memory contributions). Every plan assembled from the table must carry
//! identical options, modulo `ignore_memory_limits` which only gates the
//! feasibility check — [`CostTable::ensure_plan`],
//! [`CostTable::assemble_into`], and [`CostTable::memory_for`] assert
//! this — and must only use strategies previously priced with
//! `ensure_plan`. Memory feasibility is part of the table too: it caches
//! the footprint terms of `madmax_parallel::group_memory` per (group,
//! strategy), and [`CostTable::memory_for`] folds them with the fold and
//! HBM gate that `madmax_parallel::memory` shares with
//! `madmax_parallel::check_memory`.

use std::borrow::Cow;

use madmax_hw::units::Seconds;
use madmax_hw::ClusterSpec;
use madmax_model::{LayerClass, LayerKind, ModelArch};
use madmax_parallel::comm::CommPosition;
use madmax_parallel::{
    check_hbm, derive_layer_comm, group_memory, CollectiveKind, CommReq, GroupMemory, HierStrategy,
    MemoryBreakdown, Plan, PlanError, PlanOptions, Urgency, Workload,
};

use crate::collective::CollectiveModel;
use crate::compute::{
    backward_flops_factor, compute_time, device_flops_fwd, lookup_time, optimizer_time,
    UtilizationModel,
};
use crate::counters::{CacheCounters, CacheStats};
use crate::metrics::ServeStats;
use crate::sim::Schedule;
use crate::trace::{
    intern_label, Deps, OpId, OpKind, OpName, PassDir, Phase, StreamId, Trace, TraceOp,
};

/// One collective, priced and labeled: everything assembly needs to emit
/// the op without consulting the cost model again.
#[derive(Debug, Clone)]
pub struct PricedComm {
    /// Collective primitive.
    pub kind: CollectiveKind,
    /// Stream semantics (blocking / prefetchable / deferred).
    pub urgency: Urgency,
    /// Placement relative to the layer's compute op.
    pub position: CommPosition,
    /// Modeled execution time on the table's cluster.
    pub duration: Seconds,
    /// Interned display label, e.g. `"embedding_tables.a2a"`.
    pub label: &'static str,
}

/// Priced collectives of one layer group under one strategy, split by
/// pass exactly like `madmax_parallel::LayerCommPlan`, plus the group's
/// footprint terms under that strategy as `madmax_parallel::group_memory`
/// computes them. Zero-payload requirements are dropped at pricing time
/// (assembly would skip them).
#[derive(Debug, Clone, Default)]
pub struct StrategyCosts {
    /// Forward-pass collectives (per layer instance).
    pub forward: Vec<PricedComm>,
    /// Backward-pass collectives on the gradient-flow critical path.
    pub backward: Vec<PricedComm>,
    /// Deferred weight-gradient collectives.
    pub grad: Vec<PricedComm>,
    /// The group's footprint terms (primary-phase entries only; zero in
    /// decode-phase entries, which never fold memory).
    pub memory: GroupMemory,
    /// Per-token KV-cache read time of one layer instance (decode-phase
    /// entries only): a decode step at cache length `L` spends
    /// `kv_read_per_token * L` reading keys/values from HBM.
    pub kv_read_per_token: Seconds,
    /// Whether the strategy may be applied to this group's class at all
    /// (`HierStrategy::allowed_for`); checked during the memory fold so
    /// invalid candidates error exactly like `validate_strategies`.
    pub allowed: bool,
}

/// One layer group's priced entry under one strategy in one workload
/// phase, per layer instance: the durations a flat trace charges for it.
#[derive(Debug, Clone, Copy)]
pub struct GroupPrice<'t> {
    /// Forward compute: GEMM time, or lookup time for an embedding group.
    pub forward: Seconds,
    /// Backward compute: GEMM time with the recompute factor applied, or
    /// the gradient scatter (the lookup time) for an embedding group; zero
    /// when the workload has no backward pass or does not train the group.
    pub backward: Seconds,
    /// Whether the group is an HBM-bound embedding lookup.
    pub lookup: bool,
    /// The group's priced collectives and KV-cache read coefficient.
    pub costs: &'t StrategyCosts,
}

/// Cached costs and metadata of one layer group in one workload phase.
#[derive(Debug, Clone)]
struct GroupCosts {
    class: LayerClass,
    repeat: usize,
    /// HBM-bound embedding group (lookup compute, All2All side chain).
    is_embedding: bool,
    /// MLP group: a side-branch input that does not consume the pending
    /// embedding outputs (the feature-combination join happens later).
    is_mlp: bool,
    /// Whether the table's workload trains this group's class.
    trains: bool,
    name: &'static str,
    lookup_label: &'static str,
    scatter_label: &'static str,
    /// Per-instance forward compute (GEMM time, or lookup time for
    /// embedding groups; the backward gradient scatter reuses it).
    fwd_compute: Seconds,
    /// Per-instance backward compute with the recompute factor applied
    /// (unused for embedding groups).
    bwd_compute: Seconds,
    by_strategy: Vec<(HierStrategy, StrategyCosts)>,
}

impl GroupCosts {
    fn costs_for(&self, strategy: HierStrategy) -> &StrategyCosts {
        self.by_strategy
            .iter()
            .find(|(s, _)| *s == strategy)
            .map_or_else(
                || {
                    panic!(
                        "cost table has no entry for {}/{strategy}; \
                         call CostTable::ensure_plan for every plan first",
                        self.name
                    )
                },
                |(_, c)| c,
            )
    }
}

/// The decode-phase context of a serve workload: the model at a
/// single-token context and the serving batch, its priced groups, and the
/// decode-stream dimensions.
#[derive(Debug)]
struct DecodePhase {
    /// Effective single-token model (`context_length = 1`, serving batch).
    model: ModelArch,
    local_batch: f64,
    decode_len: usize,
    /// Tokens already in the KV-cache when decode step 0 runs (the
    /// resolved prompt length).
    prompt_len: usize,
    groups: Vec<GroupCosts>,
}

/// Shared, read-only cost cache for the flat engine (see the module docs
/// for the sharing contract).
#[derive(Debug)]
pub struct CostTable<'a> {
    /// The caller's model, as passed in (identity handle).
    model: &'a ModelArch,
    /// The primary-phase effective model, when the workload overrides the
    /// context length (serve prompt) or global batch (serving batch).
    eff: Option<Box<ModelArch>>,
    /// The caller's system, or a pipeline stage's sub-cluster owned here.
    cluster: Cow<'a, ClusterSpec>,
    workload: Workload,
    options: PlanOptions,
    collectives: &'a dyn CollectiveModel,
    local_batch: f64,
    groups: Vec<GroupCosts>,
    /// Layer classes present in the model, each with the indices of its
    /// groups (first-appearance order).
    class_groups: Vec<(LayerClass, Vec<usize>)>,
    decode: Option<Box<DecodePhase>>,
    /// Price-vs-reuse telemetry: one hit per `ensure_plan` (class,
    /// strategy) already priced, one miss per fresh pricing.
    counters: CacheCounters,
    /// Closed-form-vs-fallback telemetry for cached serve evaluations
    /// (one hit per steady-state report, one miss per full simulation).
    analytic_counters: CacheCounters,
}

/// Prices the strategy-independent costs of every layer group of one
/// phase's effective model.
fn price_phase_groups(
    model: &ModelArch,
    cluster: &ClusterSpec,
    workload: &Workload,
    options: &PlanOptions,
    utilization: UtilizationModel,
    local_batch: f64,
) -> Vec<GroupCosts> {
    model
        .groups
        .iter()
        .map(|group| {
            let is_embedding = group.kind.is_memory_bound();
            let (fwd_compute, bwd_compute) = if is_embedding {
                // Sharded tables serve the whole batch from the local
                // shard, replicated ones the local batch from every
                // table: under even sharding both touch the local
                // batch's lookup bytes.
                let bytes = group.kind.lookup_bytes_per_sample(model.context_length) * local_batch;
                let t = lookup_time(bytes, cluster);
                (t, t)
            } else {
                // `device_flops_fwd` is strategy-independent (balanced
                // work); price with the baseline strategy handle.
                let strategy = HierStrategy::flat(madmax_parallel::Strategy::Fsdp);
                let flops = device_flops_fwd(group, model, cluster, &strategy, local_batch);
                let recompute = options.activation_checkpointing
                    && matches!(
                        group.kind,
                        LayerKind::TransformerBlock(_) | LayerKind::Moe(_)
                    );
                (
                    compute_time(flops, model, cluster, &utilization),
                    compute_time(
                        flops * backward_flops_factor(recompute),
                        model,
                        cluster,
                        &utilization,
                    ),
                )
            };
            GroupCosts {
                class: group.class,
                repeat: group.repeat,
                is_embedding,
                is_mlp: matches!(group.kind, LayerKind::Mlp(_)),
                trains: workload.trains(group.class),
                name: intern_label(&group.name),
                lookup_label: intern_label(&format!("{}.lookup", group.name)),
                scatter_label: intern_label(&format!("{}.grad_scatter", group.name)),
                fwd_compute,
                bwd_compute,
                by_strategy: Vec::new(),
            }
        })
        .collect()
}

impl<'a> CostTable<'a> {
    /// Prices the strategy-independent costs of every layer group (for a
    /// serve workload with decode steps: of both phases); call
    /// [`CostTable::ensure_plan`] to add per-strategy collective costs.
    ///
    /// Each phase is priced at the local batch of one of `microbatches`
    /// equal slices of its global batch, `(global_batch / microbatches) /
    /// devices`: flat runs pass 1, and the pipeline engine prices one
    /// table per (depth, microbatch count) on the depth's stage
    /// sub-cluster.
    pub fn new(
        model: &'a ModelArch,
        cluster: impl Into<Cow<'a, ClusterSpec>>,
        workload: Workload,
        options: PlanOptions,
        collectives: &'a dyn CollectiveModel,
        utilization: UtilizationModel,
        microbatches: usize,
    ) -> Self {
        let cluster = cluster.into();
        let eff = match workload.effective_model(model) {
            Cow::Borrowed(_) => None,
            Cow::Owned(m) => Some(Box::new(m)),
        };
        let primary: &ModelArch = eff.as_deref().unwrap_or(model);
        let devices = cluster.total_devices() as f64;
        let local_batch_of = |m: &ModelArch| m.global_batch as f64 / microbatches as f64 / devices;
        let local_batch = local_batch_of(primary);
        let groups = price_phase_groups(
            primary,
            &cluster,
            &workload,
            &options,
            utilization,
            local_batch,
        );
        let decode = workload.decode_model(primary).map(|dm| {
            let d_local = local_batch_of(&dm);
            let groups =
                price_phase_groups(&dm, &cluster, &workload, &options, utilization, d_local);
            let cfg = workload
                .serve_config()
                .expect("decode model implies a serve workload");
            Box::new(DecodePhase {
                local_batch: d_local,
                decode_len: cfg.decode_len,
                prompt_len: primary.context_length,
                groups,
                model: dm,
            })
        });
        let mut class_groups: Vec<(LayerClass, Vec<usize>)> = Vec::new();
        for (gi, group) in primary.groups.iter().enumerate() {
            match class_groups.iter_mut().find(|(c, _)| *c == group.class) {
                Some((_, v)) => v.push(gi),
                None => class_groups.push((group.class, vec![gi])),
            }
        }
        Self {
            model,
            eff,
            cluster,
            workload,
            options,
            collectives,
            local_batch,
            groups,
            class_groups,
            decode,
            counters: CacheCounters::new(),
            analytic_counters: CacheCounters::new(),
        }
    }

    /// The serve-stream dimensions of the workload's decode phase, or
    /// `None` without decode steps.
    pub fn serve_dims(&self) -> Option<crate::steady::ServeDims> {
        let dec = self.decode.as_ref()?;
        Some(crate::steady::ServeDims {
            prompt_len: dec.prompt_len,
            decode_len: dec.decode_len,
            decode_batch: dec.model.global_batch,
        })
    }

    /// Snapshot of the price-vs-reuse counters: [`CostTable::ensure_plan`]
    /// records one hit per (class, strategy) pair it found already priced
    /// and one miss per pair it priced fresh, so
    /// `hits + misses == candidates × classes` across a search.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Snapshot of the closed-form-vs-fallback counters:
    /// [`crate::evaluate_priced`], called by [`crate::run_flat_cached`],
    /// records one hit per serve report synthesized by the steady-state
    /// evaluator ([`crate::steady`]) and one miss per serve candidate
    /// simulated in full (fallback, opt-out, or short decode).
    pub fn analytic_stats(&self) -> CacheStats {
        self.analytic_counters.snapshot()
    }

    /// The closed-form-vs-fallback counter pair (crate-internal:
    /// `run_flat_cached` hands it to `evaluate_priced`, which bumps it
    /// from `&self`).
    pub(crate) fn analytic_counters(&self) -> &CacheCounters {
        &self.analytic_counters
    }

    /// The model this table was priced for (the caller's handle, used for
    /// identity checks).
    pub fn model(&self) -> &'a ModelArch {
        self.model
    }

    /// The primary-phase effective model: identical to [`CostTable::model`]
    /// unless the workload overrides the context length or batch (serve
    /// prompt/batch). Reports are built against this model.
    pub fn report_model(&self) -> &ModelArch {
        self.eff.as_deref().unwrap_or(self.model)
    }

    /// The cluster this table was priced for.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The workload this table was priced for.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Prices (once) the collective costs for each layer group under the
    /// strategies `plan` assigns — for every phase of the workload. Safe
    /// to call with every candidate of a search; already-priced strategies
    /// are skipped.
    ///
    /// # Panics
    ///
    /// Panics when `plan`'s pricing-relevant options diverge from the
    /// table's (see the module docs).
    pub fn ensure_plan(&mut self, plan: &Plan) {
        assert!(
            self.options.prices_like(&plan.options),
            "plan options diverge from the cost table's pricing context"
        );
        for ci in 0..self.class_groups.len() {
            let class = self.class_groups[ci].0;
            let strategy = plan.strategy_for(class);
            // Groups of one class are always priced together, so checking
            // the class's first group suffices.
            let first = self.class_groups[ci].1[0];
            if self.groups[first]
                .by_strategy
                .iter()
                .any(|(s, _)| *s == strategy)
            {
                self.counters.hit();
                continue;
            }
            self.counters.miss();
            for i in 0..self.class_groups[ci].1.len() {
                let gi = self.class_groups[ci].1[i];
                let costs = self.price_group(gi, strategy, plan, false);
                self.groups[gi].by_strategy.push((strategy, costs));
                let decode_costs = self
                    .decode
                    .is_some()
                    .then(|| self.price_group(gi, strategy, plan, true));
                if let (Some(costs), Some(dec)) = (decode_costs, self.decode.as_mut()) {
                    dec.groups[gi].by_strategy.push((strategy, costs));
                }
            }
        }
    }

    /// Whether `plan` can be evaluated against this table as priced: its
    /// options match the pricing context and every strategy it assigns
    /// was priced by [`CostTable::ensure_plan`] (for `plan` or any other
    /// candidate). Evaluating a covered plan never panics.
    pub fn covers(&self, plan: &Plan) -> bool {
        self.options.prices_like(&plan.options)
            && self.class_groups.iter().all(|(class, groups)| {
                let strategy = plan.strategy_for(*class);
                self.groups[groups[0]]
                    .by_strategy
                    .iter()
                    .any(|(s, _)| *s == strategy)
            })
    }

    /// The per-device batch each layer's price covers: one microbatch's
    /// share of the primary phase's global batch, or with `decode` of the
    /// decode phase's.
    ///
    /// # Panics
    ///
    /// Panics when `decode` is set without a decode phase.
    pub fn local_batch(&self, decode: bool) -> f64 {
        match decode {
            true => {
                self.decode
                    .as_ref()
                    .expect("decode phase priced")
                    .local_batch
            }
            false => self.local_batch,
        }
    }

    /// The priced entry of layer group `group` (an index into the phase
    /// model's groups) under `strategy`, in the decode phase with
    /// `decode` and in the primary phase otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `strategy` was not priced for the group's class via
    /// [`CostTable::ensure_plan`], or `decode` is set without a decode
    /// phase.
    pub fn group_price(
        &self,
        group: usize,
        strategy: HierStrategy,
        decode: bool,
    ) -> GroupPrice<'_> {
        let g = if decode {
            &self.decode.as_ref().expect("decode phase priced").groups[group]
        } else {
            &self.groups[group]
        };
        let backward = match (self.workload.has_backward() && g.trains, g.is_embedding) {
            (false, _) => Seconds::ZERO,
            (true, true) => g.fwd_compute,
            (true, false) => g.bwd_compute,
        };
        GroupPrice {
            forward: g.fwd_compute,
            backward,
            lookup: g.is_embedding,
            costs: g.costs_for(strategy),
        }
    }

    /// Prices one layer group under one strategy: its collectives, plus
    /// its footprint terms from `madmax_parallel::group_memory`. With
    /// `decode` the group is priced in the decode-phase context
    /// (single-token payloads, KV-read coefficient, no footprint).
    fn price_group(
        &self,
        gi: usize,
        strategy: HierStrategy,
        plan: &Plan,
        decode: bool,
    ) -> StrategyCosts {
        let (phase_model, local_batch) = if decode {
            let dec = self.decode.as_ref().expect("decode pricing context");
            (&dec.model, dec.local_batch)
        } else {
            (self.report_model(), self.local_batch)
        };
        let group = &phase_model.groups[gi];
        let comm = derive_layer_comm(
            group,
            plan,
            phase_model,
            &self.cluster,
            &self.workload,
            local_batch,
        );
        let price = |reqs: &[CommReq]| -> Vec<PricedComm> {
            reqs.iter()
                .filter(|r| !r.payload.is_zero())
                .map(|r| PricedComm {
                    kind: r.collective,
                    urgency: r.urgency,
                    position: r.position,
                    duration: self.collectives.time(r, &self.cluster),
                    label: intern_label(&r.label),
                })
                .collect()
        };

        // The per-token KV-cache read coefficient driving decode steps
        // (serve workloads with cache modeling only).
        let per_token = group
            .kind
            .kv_cache_bytes_per_token(phase_model.compute_dtype);
        let kv_cache = self.workload.serve_config().is_some_and(|c| c.kv_cache);
        let kv_read_per_token = if decode && kv_cache && !per_token.is_zero() {
            let tp_part = strategy.compute_shard_factor(&self.cluster);
            lookup_time(per_token * local_batch / tp_part, &self.cluster)
        } else {
            Seconds::ZERO
        };
        let memory = if decode {
            GroupMemory::default()
        } else {
            group_memory(
                group,
                phase_model,
                &self.cluster,
                strategy,
                &self.options,
                &self.workload,
            )
        };

        StrategyCosts {
            forward: price(&comm.forward),
            backward: price(&comm.backward),
            grad: price(&comm.grad),
            memory,
            kv_read_per_token,
            allowed: strategy.allowed_for(group.class),
        }
    }

    /// Validates `plan`'s memory feasibility in one pass over the cached
    /// per-(group, strategy) footprint terms: the same fold
    /// ([`MemoryBreakdown::add_group`]) and HBM gate
    /// ([`madmax_parallel::check_hbm`]) as `madmax_parallel::check_memory`,
    /// without re-deriving any footprint.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidStrategy`] for class/strategy mismatches (same
    /// first-offender as `Plan::validate_strategies`);
    /// [`PlanError::OutOfMemory`] when the footprint exceeds usable HBM
    /// and the plan does not ignore memory limits.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CostTable::assemble_into`].
    pub fn memory_for(&self, plan: &Plan) -> Result<MemoryBreakdown, PlanError> {
        debug_assert!(
            self.options.prices_like(&plan.options),
            "plan options diverge from the cost table's pricing context"
        );
        let mut out = MemoryBreakdown::default();
        for g in &self.groups {
            let sc = g.costs_for(plan.strategy_for(g.class));
            if !sc.allowed {
                // Groups are visited in model order, so the first
                // offender matches `Plan::validate_strategies` exactly.
                return Err(PlanError::InvalidStrategy {
                    class: g.class,
                    strategy: plan.strategy_for(g.class),
                });
            }
            out.add_group(&sc.memory);
        }
        check_hbm(out, &self.cluster, &plan.options)
    }

    /// The serve metrics of a scheduled trace assembled from this table,
    /// or `None` when the workload has no decode phase.
    pub fn serve_stats(&self, trace: &Trace, sched: &Schedule) -> Option<ServeStats> {
        let dec = self.decode.as_ref()?;
        Some(crate::metrics::serve_stats_from(
            trace,
            sched,
            dec.prompt_len,
            dec.decode_len,
            dec.model.global_batch,
        ))
    }

    /// The assembly phase: builds the full per-iteration trace for `plan`
    /// into `trace` (cleared first), composing cached costs.
    ///
    /// Training and prefill-only workloads emit one forward (and, when
    /// training, backward and update) pass. Serve workloads with decode
    /// steps append
    /// `decode_len` autoregressive single-token passes after the prefill,
    /// each chained on the previous step's output and stretched by the
    /// KV-cache read at its token position.
    ///
    /// # Panics
    ///
    /// Panics when a strategy of `plan` was not priced via
    /// [`CostTable::ensure_plan`]; debug builds also assert that `plan`'s
    /// options match the table's pricing context.
    pub fn assemble_into(&self, plan: &Plan, trace: &mut Trace) {
        self.assemble_capped_into(plan, trace, usize::MAX);
    }

    /// A sound lower bound on the iteration time of `plan`, computed from
    /// the priced costs without assembling or scheduling: the largest
    /// per-stream sum of the op durations [`CostTable::assemble_into`]
    /// emits. Each stream runs one op at a time (the verifier's
    /// stream-exclusivity rule), so no schedule of the trace finishes
    /// before its busiest stream has drained.
    ///
    /// The sums follow each stream's issue order, so each equals the
    /// sequential `f64` sum the scheduler's finish times dominate, bit for
    /// bit. Serve traces with decode steps live on the duration grid
    /// ([`crate::steady`]), where sums are exact in any order: their
    /// stream totals are computed in grid units instead (the decode
    /// compute as an arithmetic series over the steps), falling back to
    /// the issue-order walk when a total leaves the grid's exact range.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CostTable::assemble_into`].
    pub fn busy_lower_bound(&self, plan: &Plan) -> Seconds {
        debug_assert!(
            self.options.prices_like(&plan.options),
            "plan options diverge from the cost table's pricing context"
        );
        self.decode
            .as_ref()
            .and_then(|dec| self.serve_busy_in_grid_units(plan, dec))
            .unwrap_or_else(|| self.busy_in_issue_order(plan))
    }

    /// [`CostTable::busy_lower_bound`] by walking the ops of
    /// [`CostTable::assemble_into`] stream by stream, without emitting
    /// them.
    fn busy_in_issue_order(&self, plan: &Plan) -> Seconds {
        // Serve traces are quantized onto the duration grid once
        // assembled; other traces keep their priced durations.
        let emitted: fn(Seconds) -> Seconds = if self.decode.is_some() {
            crate::steady::quantize
        } else {
            |d| d
        };
        let mut busy = StreamBusy::default();
        busy.add_forward_sweep(&self.groups, plan, emitted, |g, _| g.fwd_compute);
        let forward_emitted = self.groups.iter().any(|g| g.repeat > 0);
        if self.workload.has_backward() && forward_emitted {
            for g in self.groups.iter().rev().filter(|g| g.trains) {
                let sc = g.costs_for(plan.strategy_for(g.class));
                for _ in 0..g.repeat {
                    if g.is_embedding {
                        busy.add_grad_comm(&sc.grad, emitted);
                        busy.compute += emitted(g.fwd_compute);
                        continue;
                    }
                    busy.add_comm(&sc.backward, CommPosition::BeforeCompute, emitted);
                    busy.compute += emitted(g.bwd_compute);
                    busy.add_comm(&sc.backward, CommPosition::AfterCompute, emitted);
                    busy.add_grad_comm(&sc.grad, emitted);
                }
            }
            let opt_dur = optimizer_time(self.report_model(), &self.cluster, plan, &self.workload);
            if opt_dur > Seconds::ZERO {
                busy.compute += emitted(opt_dur);
            }
        }
        if let Some(dec) = &self.decode {
            let kv_start = dec.prompt_len as f64;
            for step in 0..dec.decode_len {
                busy.add_forward_sweep(&dec.groups, plan, emitted, |g, sc| {
                    crate::steady::decode_compute_duration(
                        g.fwd_compute,
                        sc.kv_read_per_token,
                        kv_start,
                        step as u32,
                    )
                });
            }
        }
        busy.compute.max(busy.comm).max(busy.grad)
    }

    /// [`CostTable::busy_lower_bound`] of a serve trace with decode steps
    /// in exact grid units, or `None` when a duration or a stream total
    /// leaves the grid's exact range.
    fn serve_busy_in_grid_units(&self, plan: &Plan, dec: &DecodePhase) -> Option<Seconds> {
        let units =
            |d: Seconds| crate::steady::grid_units(crate::steady::quantize(d)).map(i128::from);
        let (mut compute, mut comm) = (0i128, 0i128);
        for g in &self.groups {
            let sc = g.costs_for(plan.strategy_for(g.class));
            let repeat = g.repeat as i128;
            compute += repeat * units(g.fwd_compute)?;
            for c in &sc.forward {
                comm += repeat * units(c.duration)?;
            }
        }
        let steps = dec.decode_len as i128;
        for g in &dec.groups {
            let sc = g.costs_for(plan.strategy_for(g.class));
            let repeat = g.repeat as i128;
            // Step `t` computes for `first + per_token * t` units
            // (`decode_compute_duration`'s exact series).
            let first = units(crate::steady::decode_compute_duration(
                g.fwd_compute,
                sc.kv_read_per_token,
                dec.prompt_len as f64,
                0,
            ))?;
            let per_token = units(sc.kv_read_per_token)?;
            compute += repeat * (steps * first + per_token * steps * (steps - 1) / 2);
            for c in &sc.forward {
                comm += repeat * steps * units(c.duration)?;
            }
        }
        crate::steady::grid_total_seconds(compute.max(comm))
    }

    /// [`CostTable::assemble_into`] with the decode loop capped at
    /// `max_decode_tokens`: the flat engine's assembly closure for
    /// [`crate::evaluate_priced`], which asks for the explicit prefix of
    /// the closed-form serve path (see [`crate::steady`]) or, with
    /// `usize::MAX`, the full trace.
    pub(crate) fn assemble_capped_into(
        &self,
        plan: &Plan,
        trace: &mut Trace,
        max_decode_tokens: usize,
    ) {
        debug_assert!(
            self.options.prices_like(&plan.options),
            "plan options diverge from the cost table's pricing context"
        );
        trace.clear();

        // ---------------- Forward pass (training fwd / prefill) --------
        let final_fwd = self.assemble_forward(plan, trace, None);
        let final_fwd_id = final_fwd.unwrap_or(OpId(0));

        // ---------------- Backward pass ----------------
        if self.workload.has_backward() && !trace.is_empty() {
            self.assemble_backward(plan, trace, final_fwd_id);
        }

        // ---------------- Decode steps ----------------
        if let Some(dec) = &self.decode {
            let mut tail = final_fwd;
            for step in 0..dec.decode_len.min(max_decode_tokens) {
                let ctx = DecodeCtx {
                    step: step as u32,
                    kv_len: (dec.prompt_len + step) as f64,
                    seed: tail,
                };
                tail = self.assemble_forward(plan, trace, Some(ctx));
            }
            // Serve traces live on the analytic duration grid (decode
            // compute is emitted on-grid above; this rounds the prefill
            // and the comm durations too), keeping every scheduled time
            // exact so the closed-form path can reproduce the full
            // simulation bit for bit. Training and prefill-only
            // assembly is untouched.
            trace.map_durations_from(0, crate::steady::quantize);
        }
    }

    /// One forward sweep over a phase's layer groups: the training/prefill
    /// forward pass (`decode = None`), or one autoregressive decode step.
    /// Returns the chain's final output op.
    fn assemble_forward(
        &self,
        plan: &Plan,
        trace: &mut Trace,
        decode: Option<DecodeCtx>,
    ) -> Option<OpId> {
        let prefetch = plan.options.fsdp_prefetch;
        let groups = match &decode {
            Some(_) => &self.decode.as_ref().expect("decode phase priced").groups,
            None => &self.groups,
        };
        let phase = match &decode {
            Some(_) => Phase::Decode,
            None => Phase::Forward,
        };
        let name_for =
            |ctx: &Option<DecodeCtx>, inst_tag: Option<u32>, label: &'static str| match ctx {
                Some(c) => OpName::decode(c.step, inst_tag, label),
                None => OpName::flat(PassDir::Fwd, inst_tag, label),
            };

        let seed = decode.as_ref().and_then(|c| c.seed);
        let mut last_out: Option<OpId> = seed; // dense-chain tail
        let mut pending_join = Deps::none(); // embedding-side outputs
        let mut last_compute: Option<OpId> = seed; // for just-in-time gathers

        for g in groups {
            let sc = g.costs_for(plan.strategy_for(g.class));
            for inst in 0..g.repeat {
                let inst_tag = (g.repeat > 1).then_some(inst as u32);

                // Input dependencies of this layer's compute. In a decode
                // step the embedding chain also hangs off the previous
                // token (autoregression feeds the generated token back).
                let mut base_deps = Deps::none();
                if !g.is_embedding {
                    if let Some(l) = last_out {
                        base_deps.push(l);
                    }
                    if !g.is_mlp && !pending_join.is_empty() {
                        // Feature-combination stage: consume embedding
                        // outputs.
                        base_deps.extend_from(&pending_join);
                        pending_join.clear();
                    }
                } else if decode.is_some() {
                    if let Some(s) = seed {
                        base_deps.push(s);
                    }
                }

                // Pre-compute collectives (FSDP gathers, MoE dispatch).
                let mut gate_deps = Deps::none();
                for pc in sc
                    .forward
                    .iter()
                    .filter(|r| r.position == CommPosition::BeforeCompute)
                {
                    let deps = match pc.urgency {
                        Urgency::Prefetchable if prefetch => Deps::none(),
                        Urgency::Prefetchable => last_compute.into_iter().collect(),
                        _ => base_deps.clone(),
                    };
                    let id = trace.push(TraceOp {
                        name: name_for(&decode, inst_tag, pc.label),
                        stream: StreamId::Comm,
                        kind: OpKind::Collective { kind: pc.kind },
                        phase,
                        duration: pc.duration,
                        deps,
                    });
                    if pc.urgency == Urgency::Blocking {
                        // e.g. MoE dispatch carries the layer input.
                        base_deps = Deps::one(id);
                    } else {
                        gate_deps.push(id);
                    }
                }

                // The layer's compute (or HBM lookup) op. Decode-step
                // attention additionally reads the KV-cache at the step's
                // token position.
                let duration = match &decode {
                    Some(c) => crate::steady::decode_compute_duration(
                        g.fwd_compute,
                        sc.kv_read_per_token,
                        c.kv_len - c.step as f64,
                        c.step,
                    ),
                    None => g.fwd_compute,
                };
                let mut deps = base_deps;
                deps.extend_from(&gate_deps);
                deps.sort_dedup();
                let compute_id = if g.is_embedding {
                    trace.push(TraceOp {
                        name: name_for(&decode, inst_tag, g.lookup_label),
                        stream: StreamId::Compute,
                        kind: OpKind::Lookup,
                        phase,
                        duration,
                        deps,
                    })
                } else {
                    trace.push(TraceOp {
                        name: name_for(&decode, inst_tag, g.name),
                        stream: StreamId::Compute,
                        kind: OpKind::Gemm { class: g.class },
                        phase,
                        duration,
                        deps,
                    })
                };
                last_compute = Some(compute_id);

                // Post-compute blocking collectives (TP AllReduce,
                // embedding All2All, MoE combine).
                let mut out = compute_id;
                for pc in sc
                    .forward
                    .iter()
                    .filter(|r| r.position == CommPosition::AfterCompute)
                {
                    out = trace.push(TraceOp {
                        name: name_for(&decode, inst_tag, pc.label),
                        stream: StreamId::Comm,
                        kind: OpKind::Collective { kind: pc.kind },
                        phase,
                        duration: pc.duration,
                        deps: Deps::one(out),
                    });
                }

                if g.is_embedding {
                    pending_join.push(out);
                } else {
                    last_out = Some(out);
                }
            }
        }

        last_out.or_else(|| pending_join.as_slice().last().copied())
    }

    /// The backward pass + optimizer step of a training iteration.
    fn assemble_backward(&self, plan: &Plan, trace: &mut Trace, final_fwd: OpId) {
        let prefetch = plan.options.fsdp_prefetch;
        let mut last_bwd = final_fwd;
        let mut grad_ops = Deps::none();

        for g in self.groups.iter().rev() {
            if !g.trains {
                continue; // frozen layers' gradient work is omitted
            }
            let sc = g.costs_for(plan.strategy_for(g.class));

            for inst in (0..g.repeat).rev() {
                let inst_tag = (g.repeat > 1).then_some(inst as u32);

                if g.is_embedding {
                    // Gradients are routed back to shard owners, then
                    // scattered into HBM; both off the dense critical
                    // path.
                    let mut dep = Deps::one(last_bwd);
                    for pc in &sc.grad {
                        let id = trace.push(TraceOp {
                            name: OpName::flat(PassDir::Bwd, inst_tag, pc.label),
                            stream: StreamId::GradComm,
                            kind: OpKind::Collective { kind: pc.kind },
                            phase: Phase::Backward,
                            duration: pc.duration,
                            deps: dep.clone(),
                        });
                        dep = Deps::one(id);
                    }
                    let scatter = trace.push(TraceOp {
                        name: OpName::flat(PassDir::Bwd, inst_tag, g.scatter_label),
                        stream: StreamId::Compute,
                        kind: OpKind::Lookup,
                        phase: Phase::Backward,
                        duration: g.fwd_compute,
                        deps: dep,
                    });
                    grad_ops.push(scatter);
                    continue;
                }

                // Pre-compute backward collectives (FSDP re-gather,
                // MoE combine_bwd).
                let mut base_deps = Deps::one(last_bwd);
                let mut gate_deps = Deps::none();
                for pc in sc
                    .backward
                    .iter()
                    .filter(|r| r.position == CommPosition::BeforeCompute)
                {
                    let deps = match pc.urgency {
                        Urgency::Prefetchable if prefetch => Deps::none(),
                        Urgency::Prefetchable => Deps::one(last_bwd),
                        _ => base_deps.clone(),
                    };
                    let id = trace.push(TraceOp {
                        name: OpName::flat(PassDir::Bwd, inst_tag, pc.label),
                        stream: StreamId::Comm,
                        kind: OpKind::Collective { kind: pc.kind },
                        phase: Phase::Backward,
                        duration: pc.duration,
                        deps,
                    });
                    if pc.urgency == Urgency::Blocking {
                        base_deps = Deps::one(id);
                    } else {
                        gate_deps.push(id);
                    }
                }

                // Backward compute: weight + input gradients, plus a
                // forward recompute for checkpointed blocks (already
                // folded into the cached duration).
                let mut deps = base_deps;
                deps.extend_from(&gate_deps);
                deps.sort_dedup();
                let bwd_compute = trace.push(TraceOp {
                    name: OpName::flat(PassDir::Bwd, inst_tag, g.name),
                    stream: StreamId::Compute,
                    kind: OpKind::Gemm { class: g.class },
                    phase: Phase::Backward,
                    duration: g.bwd_compute,
                    deps,
                });
                last_bwd = bwd_compute;

                // Post-compute blocking backward collectives.
                for pc in sc
                    .backward
                    .iter()
                    .filter(|r| r.position == CommPosition::AfterCompute)
                {
                    last_bwd = trace.push(TraceOp {
                        name: OpName::flat(PassDir::Bwd, inst_tag, pc.label),
                        stream: StreamId::Comm,
                        kind: OpKind::Collective { kind: pc.kind },
                        phase: Phase::Backward,
                        duration: pc.duration,
                        deps: Deps::one(last_bwd),
                    });
                }

                // Weight-gradient collectives: deferred, off the
                // critical path until the optimizer.
                for pc in &sc.grad {
                    let id = trace.push(TraceOp {
                        name: OpName::flat(PassDir::Bwd, inst_tag, pc.label),
                        stream: StreamId::GradComm,
                        kind: OpKind::Collective { kind: pc.kind },
                        phase: Phase::Backward,
                        duration: pc.duration,
                        deps: Deps::one(bwd_compute),
                    });
                    grad_ops.push(id);
                }
            }
        }

        // Optimizer step waits on every gradient.
        let mut deps = grad_ops;
        deps.push(last_bwd);
        deps.sort_dedup();
        let opt_dur = optimizer_time(self.report_model(), &self.cluster, plan, &self.workload);
        if opt_dur > Seconds::ZERO {
            trace.push(TraceOp {
                name: OpName::UpdateOptimizer,
                stream: StreamId::Compute,
                kind: OpKind::Optimizer,
                phase: Phase::Update,
                duration: opt_dur,
                deps,
            });
        }
    }
}

/// Coordinates of one decode step during assembly.
#[derive(Debug, Clone, Copy)]
struct DecodeCtx {
    /// Decode step index.
    step: u32,
    /// KV-cache length (tokens) this step's attention reads.
    kv_len: f64,
    /// The previous step's (or the prefill's) final output op.
    seed: Option<OpId>,
}

/// Per-stream op-duration sums of a flat trace, accumulated in issue
/// order (see [`CostTable::busy_lower_bound`]).
#[derive(Debug, Default)]
struct StreamBusy {
    compute: Seconds,
    comm: Seconds,
    grad: Seconds,
}

impl StreamBusy {
    /// Adds the collectives of `comms` at `position` to the comm stream.
    fn add_comm(
        &mut self,
        comms: &[PricedComm],
        position: CommPosition,
        emitted: fn(Seconds) -> Seconds,
    ) {
        for c in comms.iter().filter(|c| c.position == position) {
            self.comm += emitted(c.duration);
        }
    }

    /// Adds weight-gradient collectives to the gradient-comm stream.
    fn add_grad_comm(&mut self, comms: &[PricedComm], emitted: fn(Seconds) -> Seconds) {
        for c in comms {
            self.grad += emitted(c.duration);
        }
    }

    /// Adds one forward sweep over `groups` (the training/prefill forward
    /// pass or one decode step), `compute_of` giving each group's compute
    /// duration, as `CostTable::assemble_forward` issues it.
    fn add_forward_sweep(
        &mut self,
        groups: &[GroupCosts],
        plan: &Plan,
        emitted: fn(Seconds) -> Seconds,
        compute_of: impl Fn(&GroupCosts, &StrategyCosts) -> Seconds,
    ) {
        for g in groups {
            let sc = g.costs_for(plan.strategy_for(g.class));
            let compute = emitted(compute_of(g, sc));
            for _ in 0..g.repeat {
                self.add_comm(&sc.forward, CommPosition::BeforeCompute, emitted);
                self.compute += compute;
                self.add_comm(&sc.forward, CommPosition::AfterCompute, emitted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::HierarchicalNccl;
    use madmax_hw::catalog;
    use madmax_model::ModelId;
    use madmax_parallel::{memory_per_device, ServeConfig, Strategy};

    #[test]
    fn ensure_plan_is_idempotent() {
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
        let sizes: Vec<usize> = table.groups.iter().map(|g| g.by_strategy.len()).collect();
        table.ensure_plan(&plan);
        let again: Vec<usize> = table.groups.iter().map(|g| g.by_strategy.len()).collect();
        assert_eq!(sizes, again);
        assert!(sizes.iter().all(|&n| n == 1));
    }

    #[test]
    fn cached_memory_fold_matches_memory_per_device() {
        // Byte-for-byte: the cached per-(group, strategy) fold must equal
        // the reference footprint for every strategy combination — for
        // training, for fine-tuning only the dense layers (frozen groups
        // take the activation max while the rest train), and for a
        // KV-cache-carrying serve workload, under the default options,
        // with activation checkpointing and without FSDP prefetch.
        let workloads = [
            Workload::pretrain(),
            Workload::finetune_only(madmax_model::LayerClass::Dense),
            Workload::serve(ServeConfig::new(1024, 128)),
        ];
        for workload in workloads {
            for id in [ModelId::DlrmA, ModelId::Gpt3] {
                let model = id.build();
                let sys = if id.is_dlrm() {
                    catalog::zionex_dlrm_system()
                } else {
                    catalog::llama_llm_system()
                };
                let default = Plan::fsdp_baseline(&model).options;
                let checkpointed = PlanOptions {
                    activation_checkpointing: true,
                    ..default
                };
                let no_prefetch = PlanOptions {
                    fsdp_prefetch: false,
                    ..default
                };
                for options in [default, checkpointed, no_prefetch] {
                    let mut base = Plan::fsdp_baseline(&model);
                    base.options = options;
                    let mut table = CostTable::new(
                        &model,
                        &sys,
                        workload.clone(),
                        options,
                        &HierarchicalNccl,
                        UtilizationModel::Constant,
                        1,
                    );
                    let classes: Vec<_> = model.groups.iter().map(|g| g.class).collect();
                    for class in classes {
                        for strategy in HierStrategy::enumerate_for(class) {
                            let plan = base.clone().with_strategy(class, strategy);
                            table.ensure_plan(&plan);
                            let reference = memory_per_device(&model, &sys, &plan, &workload);
                            let cached = match table.memory_for(&plan) {
                                Ok(m) => m,
                                Err(PlanError::OutOfMemory { required, usable }) => {
                                    let u = plan.options.memory.usable(sys.device.hbm_capacity);
                                    assert_eq!(usable, u);
                                    assert_eq!(required, reference.total());
                                    continue;
                                }
                                Err(e) => panic!("unexpected error {e}"),
                            };
                            assert_eq!(
                                cached, reference,
                                "{id} {class} {strategy} {workload} {options:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn covers_exactly_the_priced_strategies_and_options() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = CostTable::new(
            &model,
            &sys,
            Workload::pretrain(),
            base.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
            1,
        );
        assert!(!table.covers(&base));
        table.ensure_plan(&base);
        assert!(table.covers(&base));
        let other = base.clone().with_strategy(
            madmax_model::LayerClass::Dense,
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        );
        assert!(!table.covers(&other));
        table.ensure_plan(&other);
        assert!(table.covers(&other));
        let mut diverged = base;
        diverged.options.activation_checkpointing = !diverged.options.activation_checkpointing;
        assert!(!table.covers(&diverged));
    }

    #[test]
    #[should_panic(expected = "no entry")]
    fn assembling_an_unpriced_strategy_panics() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = CostTable::new(
            &model,
            &sys,
            Workload::pretrain(),
            base.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
            1,
        );
        table.ensure_plan(&base);
        let other = base.with_strategy(
            madmax_model::LayerClass::Dense,
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        );
        let mut trace = Trace::new();
        table.assemble_into(&other, &mut trace);
    }

    #[test]
    #[should_panic(expected = "options diverge")]
    fn mismatched_pricing_options_rejected() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let mut table = CostTable::new(
            &model,
            &sys,
            Workload::pretrain(),
            base.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
            1,
        );
        let mut other = base;
        other.options.activation_checkpointing = !other.options.activation_checkpointing;
        table.ensure_plan(&other);
    }

    #[test]
    fn serve_assembly_appends_decode_steps() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let workload = Workload::serve(ServeConfig::new(512, 4));
        let mut table = CostTable::new(
            &model,
            &sys,
            workload,
            plan.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
            1,
        );
        table.ensure_plan(&plan);
        let mut trace = Trace::new();
        table.assemble_into(&plan, &mut trace);
        let decode_ops = trace.ops().iter().filter(|o| o.phase == Phase::Decode);
        assert!(decode_ops.clone().count() > 0);
        // No backward/update ops anywhere in a serve trace.
        assert!(trace
            .ops()
            .iter()
            .all(|o| matches!(o.phase, Phase::Forward | Phase::Decode)));
        // Decode compute grows with the KV position: step 3's block time
        // exceeds step 0's.
        let step_compute = |step: u32| -> Seconds {
            trace
                .ops()
                .iter()
                .filter(|o| {
                    matches!(&o.name, OpName::DecodeFlat { step: s, .. } if *s == step)
                        && o.stream == StreamId::Compute
                })
                .map(|o| o.duration)
                .sum()
        };
        assert!(step_compute(3) > step_compute(0));
    }
}
