//! Per-stage costs: the per-microbatch compute/communication durations
//! the schedule builders consume ([`StageCosts`]), and the stage-level
//! pieces of their pricing — the stage sub-cluster, the stage sub-models
//! and the inter-stage P2P transfers.
//!
//! The layers themselves are priced by `madmax_core::CostTable` alone:
//! [`crate::PipelineCostTable`] builds one flat table per (depth,
//! microbatch count) on the stage sub-cluster and sums each stage's
//! cached per-(group, strategy) entries (see [`crate::table`]).

use std::borrow::Cow;

use madmax_hw::units::{ByteCount, Seconds};
use madmax_hw::{ClusterSpec, CommLevel, DType};
use madmax_model::{LayerClass, LayerKind, ModelArch};
use madmax_parallel::comm::CommPosition;
use madmax_parallel::{CollectiveKind, CommReq, CommScope, PlanError, Urgency};

use madmax_core::CollectiveModel;

use crate::partition::Stage;

/// Everything the schedule builders need to know about one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCosts {
    /// Forward compute (+ lookups) per microbatch.
    pub fwd_compute: Seconds,
    /// Backward compute per microbatch (zero for inference).
    pub bwd_compute: Seconds,
    /// Blocking forward collectives per microbatch (TP partial sums,
    /// embedding/MoE All2All), aggregated by primitive.
    pub fwd_comm: Vec<(CollectiveKind, Seconds)>,
    /// Blocking backward collectives per microbatch.
    pub bwd_comm: Vec<(CollectiveKind, Seconds)>,
    /// Activation P2P send to the next stage, per microbatch (zero-duration
    /// for the last stage).
    pub send_fwd: Seconds,
    /// Gradient P2P send to the previous stage, per microbatch.
    pub send_bwd: Seconds,
    /// Once-per-iteration prefetchable parameter collectives (FSDP
    /// AllGathers for forward and backward).
    pub param_comm: Vec<(CollectiveKind, Seconds)>,
    /// Once-per-iteration deferred weight-gradient collectives.
    pub grad_comm: Vec<(CollectiveKind, Seconds)>,
    /// Optimizer-step time for the stage's shard of parameters.
    pub optimizer: Seconds,
    /// The layer class dominating the stage's compute (for breakdowns).
    pub dominant_class: LayerClass,
    /// Whether the stage's compute is embedding-lookup dominated.
    pub lookup_dominated: bool,
    /// Per-token KV-cache read time per microbatch (serve workloads with
    /// cache modeling, priced from the decode-phase model): a decode step
    /// at cache length `L` stretches the stage's compute by
    /// `kv_read_per_token * L`.
    pub kv_read_per_token: Seconds,
}

/// The sub-cluster one stage's devices form: total devices divided by the
/// pipeline depth, splitting whole nodes when possible. Borrows the
/// cluster unchanged for `p <= 1` and clones only when an actual sub-spec
/// must be derived — callers on the evaluation hot path cache the result
/// per depth (see `PipelineCostTable`) instead of re-splitting per
/// candidate.
///
/// # Errors
///
/// Returns [`PlanError::InvalidPipeline`] when the device count is not
/// divisible into `p` equal stage groups along the node hierarchy.
pub fn stage_cluster(cluster: &ClusterSpec, p: usize) -> Result<Cow<'_, ClusterSpec>, PlanError> {
    if p <= 1 {
        return Ok(Cow::Borrowed(cluster));
    }
    if cluster.num_nodes >= p && cluster.num_nodes.is_multiple_of(p) {
        return Ok(Cow::Owned(
            cluster.clone().with_num_nodes(cluster.num_nodes / p),
        ));
    }
    if cluster.num_nodes == 1
        && cluster.devices_per_node.is_multiple_of(p)
        && cluster.devices_per_node >= p
    {
        let mut sub = cluster.clone();
        sub.devices_per_node /= p;
        return Ok(Cow::Owned(sub));
    }
    Err(PlanError::InvalidPipeline {
        reason: format!(
            "{} nodes x {} devices cannot be split into {p} equal stage groups",
            cluster.num_nodes, cluster.devices_per_node
        ),
    })
}

/// The interconnect level inter-stage P2P transfers cross: stage groups
/// occupy whole node blocks on multi-node systems, so boundaries cross the
/// scale-out fabric; on a single node they stay on the scale-up fabric.
pub(crate) fn p2p_level(cluster: &ClusterSpec) -> CommLevel {
    if cluster.num_nodes > 1 {
        CommLevel::InterNode
    } else {
        CommLevel::IntraNode
    }
}

/// Output activation bytes per sample at a layer's boundary (what a
/// pipeline stage ships to its successor if the stage ends here).
pub(crate) fn boundary_bytes_per_sample(
    kind: &LayerKind,
    tokens: usize,
    act_dtype: DType,
) -> ByteCount {
    let bytes = f64::from(act_dtype.size_bytes());
    let b = match kind {
        LayerKind::Mlp(m) => m.out_dim() as f64 * bytes,
        LayerKind::EmbeddingBag(e) => e.pooled_output_bytes_per_sample(),
        LayerKind::TokenEmbedding(t) => t.dim as f64 * tokens as f64 * bytes,
        LayerKind::Interaction(i) => i.out_dim() as f64 * bytes,
        LayerKind::TransformerBlock(t) => t.hidden as f64 * t.seq_len(tokens) as f64 * bytes,
        LayerKind::Moe(m) => m.expert.out_dim() as f64 * tokens as f64 * bytes,
    };
    ByteCount::new(b)
}

/// Adds `t` to `kind`'s total in `bucket` (zero durations add nothing).
pub(crate) fn add_comm(
    bucket: &mut Vec<(CollectiveKind, Seconds)>,
    kind: CollectiveKind,
    t: Seconds,
) {
    if t.is_zero() {
        return;
    }
    match bucket.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, acc)) => *acc += t,
        None => bucket.push((kind, t)),
    }
}

/// One inter-stage P2P transfer of `payload` bytes across `cluster`'s
/// stage boundaries.
pub(crate) fn p2p_time(
    payload: ByteCount,
    cluster: &ClusterSpec,
    collective_model: &dyn CollectiveModel,
) -> Seconds {
    if payload.is_zero() {
        return Seconds::ZERO;
    }
    let req = CommReq {
        collective: CollectiveKind::PointToPoint,
        scope: CommScope::Level(p2p_level(cluster)),
        group_size: 2,
        payload,
        urgency: Urgency::Blocking,
        position: CommPosition::AfterCompute,
        label: "stage.p2p".to_owned(),
    };
    collective_model.time(&req, cluster)
}

/// Builds the sub-`ModelArch` one stage executes (used for memory and
/// optimizer accounting).
pub(crate) fn stage_model(model: &ModelArch, stage: &Stage, index: usize) -> ModelArch {
    let groups = stage
        .units
        .iter()
        .map(|u| {
            let mut g = model.groups[u.group].clone();
            g.repeat = u.instances;
            g
        })
        .collect();
    ModelArch {
        name: format!("{} [stage {index}]", model.name),
        groups,
        ..model.clone()
    }
}

/// The error a pipeline candidate reports for a microbatch count that is
/// zero or exceeds the global batch.
pub(crate) fn microbatch_bounds(model: &ModelArch, microbatches: usize) -> Result<(), PlanError> {
    if microbatches == 0 || microbatches > model.global_batch {
        return Err(PlanError::InvalidPipeline {
            reason: format!(
                "{microbatches} microbatches for a global batch of {}",
                model.global_batch
            ),
        });
    }
    Ok(())
}

/// Builds every stage's sub-[`ModelArch`] (see [`stage_model`]).
pub(crate) fn stage_models(model: &ModelArch, stages: &[Stage]) -> Vec<ModelArch> {
    stages
        .iter()
        .enumerate()
        .map(|(si, stage)| stage_model(model, stage, si))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::one_plan_table;
    use madmax_hw::catalog;
    use madmax_model::ModelId;
    use madmax_parallel::{PipelineConfig, Plan, Workload};

    fn llm_setup() -> (ModelArch, ClusterSpec, Plan) {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        // Stage costs do not depend on the memory check.
        let mut plan = Plan::fsdp_baseline(&model);
        plan.options.ignore_memory_limits = true;
        (model, sys, plan)
    }

    /// Primary-phase stage costs of `plan` pipelined `p` x `m`, priced
    /// through a one-plan table.
    fn priced_stages(
        model: &ModelArch,
        sys: &ClusterSpec,
        plan: &Plan,
        workload: Workload,
        p: usize,
        m: usize,
    ) -> Result<Vec<StageCosts>, PlanError> {
        let plan = plan.clone().with_pipeline(PipelineConfig::gpipe(p, m));
        let table = one_plan_table(model, sys, &plan, workload);
        table
            .priced_for(&plan)
            .map(|priced| priced.primary.to_vec())
    }

    #[test]
    fn stage_cluster_splits_nodes() {
        let sys = catalog::llama_llm_system(); // 256 nodes x 8
        let sub = stage_cluster(&sys, 8).unwrap();
        assert_eq!(sub.num_nodes * 8, sys.num_nodes);
        assert_eq!(sub.devices_per_node, sys.devices_per_node);
        assert!(stage_cluster(&sys, 7).is_err());
        // Single-node systems split within the node.
        let one = catalog::zionex_dlrm_system().with_num_nodes(1);
        let quarters = stage_cluster(&one, 4).unwrap();
        assert_eq!(quarters.total_devices(), 2);
    }

    #[test]
    fn costs_scale_with_microbatches() {
        let (model, sys, plan) = llm_setup();
        let c8 = priced_stages(&model, &sys, &plan, Workload::pretrain(), 8, 8).unwrap();
        let c32 = priced_stages(&model, &sys, &plan, Workload::pretrain(), 8, 32).unwrap();
        for (a, b) in c8.iter().zip(&c32) {
            // Per-microbatch compute shrinks 4x with 4x the microbatches.
            assert!((a.fwd_compute.as_secs() / b.fwd_compute.as_secs() - 4.0).abs() < 1e-9);
            // Parameter collectives are batch-independent.
            let pa: Seconds = a.param_comm.iter().map(|(_, t)| *t).sum();
            let pb: Seconds = b.param_comm.iter().map(|(_, t)| *t).sum();
            assert!((pa.as_secs() - pb.as_secs()).abs() < 1e-12);
        }
    }

    #[test]
    fn interior_stages_send_both_ways() {
        let (model, sys, plan) = llm_setup();
        let costs = priced_stages(&model, &sys, &plan, Workload::pretrain(), 4, 16).unwrap();
        assert!(costs[0].send_fwd > Seconds::ZERO);
        assert_eq!(costs[0].send_bwd, Seconds::ZERO);
        assert!(costs[1].send_fwd > Seconds::ZERO);
        assert!(costs[1].send_bwd > Seconds::ZERO);
        let last = costs.last().unwrap();
        assert_eq!(last.send_fwd, Seconds::ZERO);
        assert!(last.send_bwd > Seconds::ZERO);
        // Inference ships no gradients.
        let infer = priced_stages(&model, &sys, &plan, Workload::inference(), 4, 16).unwrap();
        assert!(infer.iter().all(|c| c.send_bwd.is_zero()));
        assert!(infer.iter().all(|c| c.bwd_compute.is_zero()));
    }

    #[test]
    fn microbatch_bounds_checked() {
        let (model, sys, plan) = llm_setup();
        for bad in [0usize, model.global_batch + 1] {
            let err = priced_stages(&model, &sys, &plan, Workload::pretrain(), 4, bad).unwrap_err();
            assert!(matches!(err, PlanError::InvalidPipeline { .. }));
        }
    }
}
