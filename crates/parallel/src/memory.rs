//! Per-device memory footprint model and OOM feasibility checking.
//!
//! The performance model assumes the entire (sharded) model fits on the
//! devices (Section IV-A); this module decides whether it does, which is
//! what rules strategies in or out across Figs. 10-14 (gray "OOM" bars).
//!
//! Footprints are workload-phase aware: training retains activations and
//! carries gradients/optimizer state; serving carries only parameters, a
//! transient working set, and — when the serve config models it — the
//! KV-cache at its maximum length (`prompt + decode_len` tokens per
//! in-flight sequence), so decode-heavy configurations OOM honestly.
//!
//! Every evaluator shares the three pieces of the model defined here:
//!
//! - **the formula**, [`group_memory`]: the footprint terms of one layer
//!   group under one strategy. The flat engine's `CostTable` caches it per
//!   (group, strategy); the pipeline engine prices each stage's groups
//!   through [`memory_per_device`];
//! - **the fold**, [`MemoryBreakdown::add_group`]: how group terms combine
//!   into a per-device breakdown ([`memory_per_device`] and
//!   `CostTable::memory_for` both fold with it);
//! - **the gate**, [`check_hbm`]: the capacity check against usable HBM
//!   ([`check_memory`], `CostTable::memory_for` and the pipeline engine's
//!   worst-stage fold all end in it).

use serde::Serialize;

use madmax_hw::units::ByteCount;
use madmax_hw::ClusterSpec;
use madmax_model::{LayerGroup, LayerKind, ModelArch};

use crate::comm::instance_param_bytes;
use crate::plan::{Plan, PlanError, PlanOptions};
use crate::strategy::{HierStrategy, Strategy};
use crate::workload::Workload;

/// Per-device memory footprint, itemized.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct MemoryBreakdown {
    /// Sharded/replicated parameter bytes.
    pub params: ByteCount,
    /// Gradient buffers (training only, trainable layers only).
    pub grads: ByteCount,
    /// Optimizer state bytes.
    pub optimizer: ByteCount,
    /// Retained activations (training) or working set (inference).
    pub activations: ByteCount,
    /// Transient unsharded copies materialized by FSDP AllGathers (double
    /// buffered when prefetching is enabled).
    pub fsdp_transient: ByteCount,
    /// KV-cache bytes at its maximum length (serve workloads with
    /// `kv_cache` modeling enabled; zero otherwise).
    pub kv_cache: ByteCount,
}

impl MemoryBreakdown {
    /// Total footprint.
    pub fn total(&self) -> ByteCount {
        self.params
            + self.grads
            + self.optimizer
            + self.activations
            + self.fsdp_transient
            + self.kv_cache
    }

    /// Folds one group's terms into the breakdown: trained groups retain
    /// every instance's activations through backward (summed), while
    /// frozen groups need only a transient working set (the largest
    /// layer's, maxed); the FSDP gather buffer is reused across groups
    /// (maxed); every other term is summed.
    #[inline]
    pub fn add_group(&mut self, group: &GroupMemory) {
        self.params += group.params;
        self.grads += group.grads;
        self.optimizer += group.optimizer;
        if group.trains {
            self.activations += group.activations * group.repeat as f64;
        } else {
            self.activations = self.activations.max(group.activations);
        }
        self.fsdp_transient = self.fsdp_transient.max(group.fsdp_transient);
        self.kv_cache += group.kv_cache;
    }
}

/// The footprint terms of one layer group under one strategy (see
/// [`group_memory`]), folded into a [`MemoryBreakdown`] by
/// [`MemoryBreakdown::add_group`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GroupMemory {
    /// Sharded/replicated parameter bytes of the whole group.
    pub params: ByteCount,
    /// Gradient-buffer bytes (zero unless the group trains, and for
    /// sparse embedding gradients).
    pub grads: ByteCount,
    /// Optimizer-state bytes (zero unless the group trains).
    pub optimizer: ByteCount,
    /// Retained/working-set activation bytes of one layer instance.
    pub activations: ByteCount,
    /// Transient FSDP gather buffer (zero without an FSDP level).
    pub fsdp_transient: ByteCount,
    /// KV-cache bytes at maximum length for the group's attention layers
    /// (serve workloads with `kv_cache` modeling; zero otherwise).
    pub kv_cache: ByteCount,
    /// Layer instances in the group.
    pub repeat: usize,
    /// Whether the workload trains the group (retaining activations
    /// through backward).
    pub trains: bool,
}

/// The footprint terms of `group` mapped onto `cluster` with `strategy`
/// for `workload`. `model` is the phase's effective model
/// ([`Workload::effective_model`]) that `group` belongs to.
pub fn group_memory(
    group: &LayerGroup,
    model: &ModelArch,
    cluster: &ClusterSpec,
    strategy: HierStrategy,
    options: &PlanOptions,
    workload: &Workload,
) -> GroupMemory {
    let local_batch = model.global_batch as f64 / cluster.total_devices() as f64;
    let shard = strategy.param_shard_factor(cluster);
    let tp_part = strategy.compute_shard_factor(cluster);
    let p_inst = instance_param_bytes(group, model);
    let p_group = p_inst * group.repeat as f64;
    let trains = workload.has_backward() && workload.trains(group.class);
    let mut out = GroupMemory {
        params: p_group / shard,
        repeat: group.repeat,
        trains,
        ..GroupMemory::default()
    };

    if trains {
        // Dense gradients mirror the parameter sharding; sparse
        // embedding gradients only touch looked-up rows (negligible).
        if !matches!(group.kind, LayerKind::EmbeddingBag(_)) {
            out.grads = p_group / shard;
        }
        let opt = options.optimizer_for(group.class);
        out.optimizer = ByteCount::new(opt.state_bytes(group.kind.params(), &group.kind))
            * group.repeat as f64
            / shard;
    }

    // Activations: retained through backward for trainable layers;
    // inference needs only a transient working set (largest layer).
    out.activations = group.kind.activation_bytes_per_sample(
        model.context_length,
        model.compute_dtype,
        options.activation_checkpointing,
    ) * local_batch;

    // KV-cache: each attention layer retains keys/values for every
    // in-flight token of the local batch share, split over the
    // tensor-parallel heads.
    if let Some(cfg) = workload.serve_config().filter(|cfg| cfg.kv_cache) {
        let per_token = group.kind.kv_cache_bytes_per_token(model.compute_dtype);
        if !per_token.is_zero() {
            // An overflowing length (rejected before any run) saturates.
            let kv_len = cfg.max_kv_len(model.context_length).unwrap_or(usize::MAX) as f64;
            out.kv_cache = per_token * kv_len * local_batch * group.repeat as f64 / tp_part;
        }
    }

    // FSDP transiently materializes one full (modulo TP sharding)
    // instance during compute; prefetch double-buffers it.
    if strategy
        .levels(cluster)
        .iter()
        .any(|l| l.strategy == Strategy::Fsdp)
    {
        // FSDP's gather unit is the largest parameter tensor it
        // materializes at once: a whole dense layer, but only one
        // expert for MoE layers.
        let unit = match &group.kind {
            LayerKind::Moe(m) => p_inst / m.num_experts as f64,
            _ => p_inst,
        };
        let buffers = if options.fsdp_prefetch { 2.0 } else { 1.0 };
        out.fsdp_transient = unit / tp_part * buffers;
    }
    out
}

/// Computes the itemized per-device footprint of `model` mapped onto
/// `cluster` with `plan` for `workload`: [`group_memory`] of every group,
/// folded with [`MemoryBreakdown::add_group`].
///
/// Serving workloads are resolved through
/// [`Workload::effective_model`] first (prompt length and serving batch
/// override the model's context/batch); the override is idempotent, so
/// callers may pass either the raw or an already-effective model.
pub fn memory_per_device(
    model: &ModelArch,
    cluster: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> MemoryBreakdown {
    let model = workload.effective_model(model);
    let model = model.as_ref();
    let mut out = MemoryBreakdown::default();
    for group in &model.groups {
        let strategy = plan.strategy_for(group.class);
        out.add_group(&group_memory(
            group,
            model,
            cluster,
            strategy,
            &plan.options,
            workload,
        ));
    }
    out
}

/// The HBM capacity gate: admits `breakdown` when `options` ignore
/// memory limits (the unconstrained analysis of Fig. 10's orange bars) or
/// when its total fits the usable share of `cluster`'s HBM.
///
/// # Errors
///
/// [`PlanError::OutOfMemory`] when the total exceeds usable HBM.
#[inline]
pub fn check_hbm(
    breakdown: MemoryBreakdown,
    cluster: &ClusterSpec,
    options: &PlanOptions,
) -> Result<MemoryBreakdown, PlanError> {
    if options.ignore_memory_limits {
        return Ok(breakdown);
    }
    let usable = options.memory.usable(cluster.device.hbm_capacity);
    if breakdown.total() > usable {
        return Err(PlanError::OutOfMemory {
            required: breakdown.total(),
            usable,
        });
    }
    Ok(breakdown)
}

/// Validates strategies and memory, returning the footprint on success.
///
/// # Errors
///
/// [`PlanError::InvalidStrategy`] for class/strategy mismatches;
/// [`PlanError::OutOfMemory`] when the footprint fails [`check_hbm`].
pub fn check_memory(
    model: &ModelArch,
    cluster: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> Result<MemoryBreakdown, PlanError> {
    plan.validate_strategies(model)?;
    check_hbm(
        memory_per_device(model, cluster, plan, workload),
        cluster,
        &plan.options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ServeConfig;
    use madmax_hw::catalog;
    use madmax_model::{LayerClass, ModelId};

    fn dlrm_plan(dense: HierStrategy) -> (ModelArch, ClusterSpec, Plan) {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model).with_strategy(LayerClass::Dense, dense);
        (model, sys, plan)
    }

    #[test]
    fn fig11_ddp_dense_is_oom_for_pretraining() {
        // Insight 1 / Fig 11: ((DDP), (MP)) replicates dense params, grads,
        // and optimizer states on every device -> OOM on 40 GB A100s.
        let (model, sys, plan) = dlrm_plan(HierStrategy::flat(Strategy::Ddp));
        let err = check_memory(&model, &sys, &plan, &Workload::pretrain()).unwrap_err();
        assert!(matches!(err, PlanError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn fig11_tp_ddp_dense_fits() {
        let (model, sys, plan) = dlrm_plan(HierStrategy::two_level(Strategy::Tp, Strategy::Ddp));
        let b = check_memory(&model, &sys, &plan, &Workload::pretrain()).unwrap();
        // Embedding shard dominates: ~24.8 GB of the footprint.
        assert!(b.params.as_gb() > 24.0 && b.params.as_gb() < 27.0, "{b:?}");
    }

    #[test]
    fn fsdp_baseline_fits_everything_in_suite() {
        for id in ModelId::ALL {
            let model = id.build();
            let sys = if id.is_dlrm() {
                catalog::zionex_dlrm_system()
            } else {
                catalog::llama_llm_system()
            };
            let plan = Plan::fsdp_baseline(&model);
            let r = check_memory(&model, &sys, &plan, &Workload::pretrain());
            assert!(r.is_ok(), "{id}: {:?}", r.err());
        }
    }

    #[test]
    fn insight2_gpt3_intra_node_replication_oom() {
        // (TP, DDP) on GPT-3: 1/8-sharded optimizer state alone is ~33 GB;
        // grads+params push far past 80 GB.
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_strategy(
            LayerClass::Transformer,
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        );
        let err = check_memory(&model, &sys, &plan, &Workload::pretrain()).unwrap_err();
        assert!(matches!(err, PlanError::OutOfMemory { .. }));
        // But (TP, FSDP) fits.
        let plan = Plan::fsdp_baseline(&model).with_strategy(
            LayerClass::Transformer,
            HierStrategy::two_level(Strategy::Tp, Strategy::Fsdp),
        );
        assert!(check_memory(&model, &sys, &plan, &Workload::pretrain()).is_ok());
    }

    #[test]
    fn insight5_ddp_dense_valid_for_inference_and_emb_finetune() {
        // DDP dense layers: OOM in pre-training, fine for inference and for
        // fine-tuning only the embedding tables (dense is frozen).
        let (model, sys, plan) = dlrm_plan(HierStrategy::flat(Strategy::Ddp));
        assert!(check_memory(&model, &sys, &plan, &Workload::pretrain()).is_err());
        assert!(check_memory(&model, &sys, &plan, &Workload::inference()).is_ok());
        assert!(check_memory(
            &model,
            &sys,
            &plan,
            &Workload::finetune_only(LayerClass::Embedding)
        )
        .is_ok());
    }

    #[test]
    fn ignore_memory_limits_admits_everything() {
        let (model, sys, mut plan) = dlrm_plan(HierStrategy::flat(Strategy::Ddp));
        plan.options.ignore_memory_limits = true;
        assert!(check_memory(&model, &sys, &plan, &Workload::pretrain()).is_ok());
    }

    #[test]
    fn hbm_gate_admits_exactly_usable_hbm() {
        let sys = catalog::zionex_dlrm_system();
        let mut options = PlanOptions::default();
        let usable = options.memory.usable(sys.device.hbm_capacity);
        let at = MemoryBreakdown {
            params: usable * 0.5,
            optimizer: usable * 0.5,
            ..MemoryBreakdown::default()
        };
        assert_eq!(at.total(), usable);
        assert_eq!(check_hbm(at, &sys, &options), Ok(at));
        let over = MemoryBreakdown {
            kv_cache: ByteCount::new(1.0),
            ..at
        };
        assert_eq!(
            check_hbm(over, &sys, &options),
            Err(PlanError::OutOfMemory {
                required: over.total(),
                usable,
            })
        );
        options.ignore_memory_limits = true;
        assert_eq!(check_hbm(over, &sys, &options), Ok(over));
    }

    #[test]
    fn inference_footprint_is_parameters_only() {
        let (model, sys, plan) = dlrm_plan(HierStrategy::two_level(Strategy::Tp, Strategy::Ddp));
        let train = memory_per_device(&model, &sys, &plan, &Workload::pretrain());
        let infer = memory_per_device(&model, &sys, &plan, &Workload::inference());
        assert_eq!(infer.grads, ByteCount::ZERO);
        assert_eq!(infer.optimizer, ByteCount::ZERO);
        assert_eq!(infer.kv_cache, ByteCount::ZERO);
        assert!(infer.total() < train.total());
        assert_eq!(infer.params, train.params);
    }

    #[test]
    fn checkpointing_shrinks_activations() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let mut plan = Plan::fsdp_baseline(&model);
        assert!(plan.options.activation_checkpointing);
        let ckpt = memory_per_device(&model, &sys, &plan, &Workload::pretrain());
        plan.options.activation_checkpointing = false;
        let full = memory_per_device(&model, &sys, &plan, &Workload::pretrain());
        assert!(full.activations > ckpt.activations * 4.0);
    }

    #[test]
    fn ordering_changes_footprint() {
        // ((DDP),(TP)) shards by 16 nodes; ((TP),(DDP)) by 8 devices/node.
        let (model, sys, _) = dlrm_plan(HierStrategy::flat(Strategy::Ddp));
        let a = Plan::fsdp_baseline(&model).with_strategy(
            LayerClass::Dense,
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        );
        let b = Plan::fsdp_baseline(&model).with_strategy(
            LayerClass::Dense,
            HierStrategy::two_level(Strategy::Ddp, Strategy::Tp),
        );
        let ma = memory_per_device(&model, &sys, &a, &Workload::pretrain());
        let mb = memory_per_device(&model, &sys, &b, &Workload::pretrain());
        assert!(mb.total() < ma.total());
    }

    #[test]
    fn kv_cache_counts_only_when_modeled() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let with = memory_per_device(
            &model,
            &sys,
            &plan,
            &Workload::serve(ServeConfig::new(1024, 256)),
        );
        let without = memory_per_device(
            &model,
            &sys,
            &plan,
            &Workload::serve(ServeConfig {
                kv_cache: false,
                ..ServeConfig::new(1024, 256)
            }),
        );
        assert!(with.kv_cache > ByteCount::ZERO);
        assert_eq!(without.kv_cache, ByteCount::ZERO);
        assert_eq!(with.params, without.params);
    }

    #[test]
    fn kv_cache_grows_with_decode_length_and_is_tp_sharded() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let kv = |decode: usize| {
            memory_per_device(
                &model,
                &sys,
                &plan,
                &Workload::serve(ServeConfig::new(512, decode)),
            )
            .kv_cache
        };
        assert!(kv(0) > ByteCount::ZERO, "prompt tokens are cached too");
        assert!(kv(64) > kv(0));
        assert!(kv(512) > kv(64));
        // (512 + 512) / (512 + 0) = exactly 2x the cache.
        assert!((kv(512).value() / kv(0).value() - 2.0).abs() < 1e-12);
        // TP splits the heads (and with them the cache) across the node.
        let tp = plan.clone().with_strategy(
            LayerClass::Transformer,
            HierStrategy::two_level(Strategy::Tp, Strategy::Fsdp),
        );
        let sharded = memory_per_device(
            &model,
            &sys,
            &tp,
            &Workload::serve(ServeConfig::new(512, 64)),
        );
        assert!(sharded.kv_cache < kv(64));
    }
}
