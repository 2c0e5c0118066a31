//! Derivation of the communication collectives required by a
//! parallelization strategy (Section IV-C: "Generating
//! Parallelization-Specific Streams").

use serde::Serialize;

use madmax_hw::units::ByteCount;
use madmax_hw::ClusterSpec;
use madmax_model::{LayerClass, LayerGroup, ModelArch};

use crate::plan::Plan;
use crate::strategy::{CommScope, HierStrategy, Strategy, StrategyLevel};
use crate::workload::Workload;

/// Collective communication primitives modeled by MAD-Max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum CollectiveKind {
    /// Reduce + broadcast (DDP weight gradients, TP partial sums).
    AllReduce,
    /// Gather sharded tensors onto every device (FSDP parameters).
    AllGather,
    /// Reduce + scatter shards (FSDP weight gradients).
    ReduceScatter,
    /// Point-to-point exchange (sharded-embedding lookups, MoE dispatch).
    AllToAll,
    /// Direct send/recv between two peers (pipeline-stage activation and
    /// gradient transfers).
    PointToPoint,
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CollectiveKind::AllReduce => "AllReduce",
            CollectiveKind::AllGather => "AllGather",
            CollectiveKind::ReduceScatter => "ReduceScatter",
            CollectiveKind::AllToAll => "All2All",
            CollectiveKind::PointToPoint => "P2P",
        })
    }
}

/// How a communication call interacts with the compute stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Urgency {
    /// The next compute op depends on the result (e.g. embedding All2All
    /// before feature interaction, TP partial-sum AllReduce).
    Blocking,
    /// Blocking, but issuable ahead of time so it can hide behind earlier
    /// compute (FSDP parameter AllGather with prefetching, Fig. 9).
    Prefetchable,
    /// Only the end of the iteration (optimizer step) depends on it
    /// (weight-gradient AllReduce/ReduceScatter).
    Deferred,
}

/// Whether a collective runs before or after its layer's compute op in
/// the stream (e.g. FSDP gathers parameters *before* compute; TP reduces
/// partial sums *after*; MoE dispatches before and combines after).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommPosition {
    /// Must complete before the layer's compute starts.
    BeforeCompute,
    /// Runs on the layer's output after compute.
    AfterCompute,
}

/// One required collective, per layer instance, per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct CommReq {
    /// Which primitive.
    pub collective: CollectiveKind,
    /// Which channel (hierarchy level or the flat global group).
    pub scope: CommScope,
    /// Devices participating.
    pub group_size: usize,
    /// Logical payload: the tensor bytes the collective operates on from
    /// each device's perspective (ring/slowest-link factors are applied by
    /// the cost model, not here).
    pub payload: ByteCount,
    /// Stream semantics.
    pub urgency: Urgency,
    /// Placement relative to the layer's compute.
    pub position: CommPosition,
    /// Human-readable label, e.g. `"emb.A2A"`.
    pub label: String,
}

/// All collectives one layer group requires, split by pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCommPlan {
    /// Forward-pass collectives (per layer instance).
    pub forward: Vec<CommReq>,
    /// Backward-pass collectives on the gradient-flow critical path.
    pub backward: Vec<CommReq>,
    /// Weight-gradient collectives (overlappable with remaining backward).
    pub grad: Vec<CommReq>,
}

impl LayerCommPlan {
    /// Total payload bytes across all phases (per instance).
    pub fn total_payload(&self) -> ByteCount {
        self.forward
            .iter()
            .chain(&self.backward)
            .chain(&self.grad)
            .map(|r| r.payload)
            .sum()
    }
}

/// Parameter bytes of one instance of `group` (embeddings use their own
/// storage dtype; dense layers use the model's parameter dtype).
pub fn instance_param_bytes(group: &LayerGroup, model: &ModelArch) -> ByteCount {
    use madmax_model::LayerKind;
    let dtype_size = match &group.kind {
        LayerKind::EmbeddingBag(e) => e.dtype.size_bytes(),
        LayerKind::TokenEmbedding(t) => t.dtype.size_bytes(),
        _ => model.param_dtype.size_bytes(),
    };
    ByteCount::new(group.kind.params() * f64::from(dtype_size))
}

fn shard_factor_excluding(levels: &[StrategyLevel], skip: usize) -> f64 {
    levels
        .iter()
        .enumerate()
        .filter(|(i, l)| *i != skip && l.strategy.shards_params())
        .map(|(_, l)| l.group_size as f64)
        .product()
}

/// Derives the per-instance communication plan for one layer group under
/// the plan's strategy for its class.
///
/// `local_batch` is samples per device (may be fractional for very large
/// clusters). Backward collectives are emitted only when the workload
/// trains the layer's class, following the paper's fine-tuning
/// simplification of omitting frozen layers' gradient work (Insight 5);
/// serve workloads emit forward traffic only. Payload sizes follow
/// `model.context_length`, so phase-specific traffic (prefill vs a
/// single-token decode step) is priced by passing the phase's effective
/// model.
pub fn derive_layer_comm(
    group: &LayerGroup,
    plan: &Plan,
    model: &ModelArch,
    cluster: &ClusterSpec,
    workload: &Workload,
    local_batch: f64,
) -> LayerCommPlan {
    let mut strategy: HierStrategy = plan.strategy_for(group.class);
    // A two-level strategy with the same scheme at both levels is exactly
    // the flat strategy over all devices; cost it with the hierarchical
    // global decomposition (an (FSDP, FSDP) gather still materializes the
    // full tensor on every device).
    if let HierStrategy::TwoLevel { intra, inter } = strategy {
        if intra == inter {
            strategy = HierStrategy::Flat(intra);
        }
    }
    let levels = strategy.levels(cluster);
    let mut out = LayerCommPlan::default();
    if levels.is_empty() {
        return out; // single-device: no communication
    }

    let trains = workload.trains(group.class);
    let p_inst = instance_param_bytes(group, model);
    let tokens = model.context_length;
    let act_dtype = model.compute_dtype;
    // Parameter/gradient payloads shrink when the wire precision is lower
    // than the storage precision (bf16 collectives over fp32 masters).
    let param_dtype_size = match &group.kind {
        madmax_model::LayerKind::EmbeddingBag(e) => e.dtype.size_bytes(),
        madmax_model::LayerKind::TokenEmbedding(t) => t.dtype.size_bytes(),
        _ => model.param_dtype.size_bytes(),
    };
    let comm_dtype_scale = (f64::from(plan.options.collective_dtype.size_bytes())
        / f64::from(param_dtype_size))
    .min(1.0);

    // Tensor parallelism does not partition the batch: a TP group of size g
    // jointly serves g devices' worth of samples, so its activation
    // reductions cover local_batch x (product of TP level sizes).
    let tp_batch = local_batch
        * levels
            .iter()
            .filter(|l| l.strategy == Strategy::Tp)
            .map(|l| l.group_size as f64)
            .product::<f64>();

    for (idx, level) in levels.iter().enumerate() {
        let other_shards = shard_factor_excluding(&levels, idx);
        let shard_payload = p_inst / other_shards * comm_dtype_scale;
        let scope = level.scope;
        let g = level.group_size;
        let name = &group.name;

        match level.strategy {
            Strategy::Tp => {
                let payload = group.kind.tp_comm_bytes_per_sample(tokens, act_dtype) * tp_batch;
                if payload.is_zero() {
                    continue; // e.g. parameter-free interaction layers
                }
                out.forward.push(CommReq {
                    collective: CollectiveKind::AllReduce,
                    scope,
                    group_size: g,
                    payload,
                    urgency: Urgency::Blocking,
                    position: CommPosition::AfterCompute,
                    label: format!("{name}.tp_ar"),
                });
                if trains {
                    out.backward.push(CommReq {
                        collective: CollectiveKind::AllReduce,
                        scope,
                        group_size: g,
                        payload,
                        urgency: Urgency::Blocking,
                        position: CommPosition::AfterCompute,
                        label: format!("{name}.tp_ar_bwd"),
                    });
                }
            }
            Strategy::Fsdp => {
                out.forward.push(CommReq {
                    collective: CollectiveKind::AllGather,
                    scope,
                    group_size: g,
                    payload: shard_payload,
                    urgency: Urgency::Prefetchable,
                    position: CommPosition::BeforeCompute,
                    label: format!("{name}.ag"),
                });
                if trains {
                    out.backward.push(CommReq {
                        collective: CollectiveKind::AllGather,
                        scope,
                        group_size: g,
                        payload: shard_payload,
                        urgency: Urgency::Prefetchable,
                        position: CommPosition::BeforeCompute,
                        label: format!("{name}.ag_bwd"),
                    });
                    out.grad.push(CommReq {
                        collective: CollectiveKind::ReduceScatter,
                        scope,
                        group_size: g,
                        payload: shard_payload,
                        urgency: Urgency::Deferred,
                        position: CommPosition::AfterCompute,
                        label: format!("{name}.rs"),
                    });
                }
            }
            Strategy::Ddp => {
                if trains {
                    out.grad.push(CommReq {
                        collective: CollectiveKind::AllReduce,
                        scope,
                        group_size: g,
                        payload: shard_payload,
                        urgency: Urgency::Deferred,
                        position: CommPosition::AfterCompute,
                        label: format!("{name}.grad_ar"),
                    });
                }
            }
            Strategy::Shard => match group.class {
                LayerClass::Embedding => {
                    let payload =
                        group.kind.embedding_exchange_bytes_per_sample(tokens) * local_batch;
                    out.forward.push(CommReq {
                        collective: CollectiveKind::AllToAll,
                        scope,
                        group_size: g,
                        payload,
                        urgency: Urgency::Blocking,
                        position: CommPosition::AfterCompute,
                        label: format!("{name}.a2a"),
                    });
                    if trains {
                        out.grad.push(CommReq {
                            collective: CollectiveKind::AllToAll,
                            scope,
                            group_size: g,
                            payload,
                            urgency: Urgency::Deferred,
                            position: CommPosition::AfterCompute,
                            label: format!("{name}.a2a_bwd"),
                        });
                    }
                }
                LayerClass::Moe => {
                    let payload =
                        group.kind.moe_dispatch_bytes_per_sample(tokens, act_dtype) * local_batch;
                    for (dir, position) in [
                        ("dispatch", CommPosition::BeforeCompute),
                        ("combine", CommPosition::AfterCompute),
                    ] {
                        out.forward.push(CommReq {
                            collective: CollectiveKind::AllToAll,
                            scope,
                            group_size: g,
                            payload,
                            urgency: Urgency::Blocking,
                            position,
                            label: format!("{name}.a2a_{dir}"),
                        });
                    }
                    if trains {
                        for (dir, position) in [
                            ("combine_bwd", CommPosition::BeforeCompute),
                            ("dispatch_bwd", CommPosition::AfterCompute),
                        ] {
                            out.backward.push(CommReq {
                                collective: CollectiveKind::AllToAll,
                                scope,
                                group_size: g,
                                payload,
                                urgency: Urgency::Blocking,
                                position,
                                label: format!("{name}.a2a_{dir}"),
                            });
                        }
                    }
                }
                // validate_strategies rejects Shard elsewhere.
                _ => {}
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    fn dlrm_setup() -> (ModelArch, ClusterSpec) {
        (ModelId::DlrmA.build(), catalog::zionex_dlrm_system())
    }

    fn find_group<'m>(model: &'m ModelArch, name: &str) -> &'m LayerGroup {
        model.groups.iter().find(|g| g.name == name).unwrap()
    }

    #[test]
    fn sharded_embedding_emits_blocking_a2a() {
        let (model, sys) = dlrm_setup();
        let plan = Plan::fsdp_baseline(&model);
        let emb = find_group(&model, "embedding_tables");
        let local_batch = model.global_batch as f64 / sys.total_devices() as f64;
        let c = derive_layer_comm(emb, &plan, &model, &sys, &Workload::pretrain(), local_batch);
        assert_eq!(c.forward.len(), 1);
        assert_eq!(c.forward[0].collective, CollectiveKind::AllToAll);
        assert_eq!(c.forward[0].urgency, Urgency::Blocking);
        assert_eq!(c.forward[0].scope, CommScope::Global);
        // 512 samples x 700 tables x 128 dim x 4B = ~183 MB per device.
        assert!(
            (c.forward[0].payload.as_mib() - 512.0 * 700.0 * 128.0 * 4.0 / 1024.0 / 1024.0).abs()
                < 1.0
        );
        // Backward gradient A2A is deferred (overlappable).
        assert_eq!(c.grad.len(), 1);
        assert_eq!(c.grad[0].urgency, Urgency::Deferred);
    }

    #[test]
    fn embedding_a2a_absent_in_frozen_finetuning_backward() {
        let (model, sys) = dlrm_setup();
        let plan = Plan::fsdp_baseline(&model);
        let emb = find_group(&model, "embedding_tables");
        let c = derive_layer_comm(
            emb,
            &plan,
            &model,
            &sys,
            &Workload::finetune_only(LayerClass::Dense),
            512.0,
        );
        assert_eq!(c.forward.len(), 1, "forward lookup exchange still required");
        assert!(c.grad.is_empty(), "frozen embeddings push no gradients");
    }

    #[test]
    fn ddp_emits_only_deferred_gradient_allreduce() {
        let (model, sys) = dlrm_setup();
        let plan = Plan::fsdp_baseline(&model)
            .with_strategy(LayerClass::Dense, HierStrategy::flat(Strategy::Ddp));
        let top = find_group(&model, "top_mlp");
        let c = derive_layer_comm(top, &plan, &model, &sys, &Workload::pretrain(), 512.0);
        assert!(c.forward.is_empty());
        assert!(c.backward.is_empty());
        assert_eq!(c.grad.len(), 1);
        assert_eq!(c.grad[0].collective, CollectiveKind::AllReduce);
        assert_eq!(c.grad[0].urgency, Urgency::Deferred);
        // Inference: DDP is communication-free.
        let ci = derive_layer_comm(top, &plan, &model, &sys, &Workload::inference(), 512.0);
        assert_eq!(ci.total_payload(), ByteCount::ZERO);
    }

    #[test]
    fn fsdp_gathers_twice_and_scatters_once() {
        let (model, sys) = dlrm_setup();
        let plan = Plan::fsdp_baseline(&model);
        let top = find_group(&model, "top_mlp");
        let c = derive_layer_comm(top, &plan, &model, &sys, &Workload::pretrain(), 512.0);
        assert_eq!(c.forward.len(), 1);
        assert_eq!(c.forward[0].collective, CollectiveKind::AllGather);
        assert_eq!(c.forward[0].urgency, Urgency::Prefetchable);
        assert_eq!(c.backward.len(), 1);
        assert_eq!(c.grad.len(), 1);
        assert_eq!(c.grad[0].collective, CollectiveKind::ReduceScatter);
        // Inference drops the backward gather and the scatter.
        let ci = derive_layer_comm(top, &plan, &model, &sys, &Workload::inference(), 512.0);
        assert_eq!(ci.forward.len(), 1);
        assert!(ci.backward.is_empty() && ci.grad.is_empty());
    }

    #[test]
    fn two_level_routes_payloads_to_channels() {
        // (TP, DDP): partial sums intra-node, weight grads inter-node on
        // the 1/8-sharded parameters (Insight 3).
        use madmax_hw::CommLevel;
        let (model, sys) = dlrm_setup();
        let plan = Plan::fsdp_baseline(&model).with_strategy(
            LayerClass::Dense,
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        );
        let top = find_group(&model, "top_mlp");
        let c = derive_layer_comm(top, &plan, &model, &sys, &Workload::pretrain(), 512.0);
        let fwd = &c.forward[0];
        assert_eq!(fwd.scope, CommScope::Level(CommLevel::IntraNode));
        assert_eq!(fwd.collective, CollectiveKind::AllReduce);
        let grad = &c.grad[0];
        assert_eq!(grad.scope, CommScope::Level(CommLevel::InterNode));
        // 1/8 TP-sharded, halved again on the wire (bf16 over fp32 masters).
        let full = instance_param_bytes(top, &model);
        assert!((grad.payload.value() - full.value() / 8.0 / 2.0).abs() < 1.0);
    }

    #[test]
    fn moe_expert_parallelism_is_blocking_a2a() {
        let model = ModelId::DlrmAMoe.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model)
            .with_strategy(LayerClass::Moe, HierStrategy::flat(Strategy::Shard));
        let moe = find_group(&model, "moe_top_mlps");
        let c = derive_layer_comm(moe, &plan, &model, &sys, &Workload::pretrain(), 512.0);
        assert_eq!(c.forward.len(), 2, "dispatch + combine");
        assert!(c
            .forward
            .iter()
            .all(|r| r.collective == CollectiveKind::AllToAll));
        assert!(c.forward.iter().all(|r| r.urgency == Urgency::Blocking));
        assert_eq!(c.backward.len(), 2, "backward re-exchange is blocking too");
    }

    #[test]
    fn single_device_needs_no_comm() {
        let model = ModelId::DlrmA.build();
        let one = ClusterSpec::new(
            "one",
            catalog::a100_40gb(),
            1,
            1,
            madmax_hw::FabricKind::NvLink,
            madmax_hw::FabricKind::RoCE,
        );
        let plan = Plan::fsdp_baseline(&model);
        for g in &model.groups {
            let c = derive_layer_comm(g, &plan, &model, &one, &Workload::pretrain(), 64.0);
            assert_eq!(c.total_payload(), ByteCount::ZERO, "{}", g.name);
        }
    }
}
