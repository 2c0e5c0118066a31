//! Structural tests of trace assembly ([`CostTable::assemble_into`]):
//! the op streams, dependencies, and phases the priced layer groups
//! compose into (Section IV-C: "Piecing Together Computation and Comm.
//! Streams").

use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::{Plan, Workload};

use crate::collective::HierarchicalNccl;
use crate::compute::UtilizationModel;
use crate::costs::CostTable;
use crate::trace::Trace;

/// Prices `plan` into a one-plan table and assembles its full trace.
fn assembled_trace(
    model: &ModelArch,
    cluster: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> Trace {
    let mut table = CostTable::new(
        model,
        cluster,
        workload.clone(),
        plan.options,
        &HierarchicalNccl,
        UtilizationModel::Constant,
        1,
    );
    table.ensure_plan(plan);
    let mut trace = Trace::new();
    table.assemble_into(plan, &mut trace);
    trace
}

mod tests {
    use super::*;
    use crate::trace::{OpId, OpKind, Phase, StreamId};
    use madmax_model::ModelId;
    use madmax_parallel::CollectiveKind;

    fn build(model: &ModelArch, workload: &Workload) -> Trace {
        let cluster = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(model);
        assembled_trace(model, &cluster, &plan, workload)
    }

    use madmax_hw::catalog;

    #[test]
    fn dlrm_forward_matches_fig6_structure() {
        let model = ModelId::DlrmA.build();
        let trace = build(&model, &Workload::inference());
        let names: Vec<String> = trace.ops().iter().map(|o| o.name.to_string()).collect();
        // Lookup before A2A; A2A consumed by the interaction stage, not the
        // bottom MLP.
        let lookup = names.iter().position(|n| n.contains("lookup")).unwrap();
        let a2a = names.iter().position(|n| n.contains("a2a")).unwrap();
        let bottom = names
            .iter()
            .position(|n| n.contains("bottom_mlp") && !n.contains(".ag"))
            .unwrap();
        let interaction = names
            .iter()
            .position(|n| n.contains("feature_interaction"))
            .unwrap();
        assert!(lookup < a2a);
        let a2a_op = &trace.ops()[a2a];
        assert_eq!(a2a_op.deps, vec![OpId(lookup)]);
        // Bottom MLP does not depend on the A2A...
        assert!(!trace.ops()[bottom].deps.as_slice().contains(&OpId(a2a)));
        // ...but the interaction does, plus the bottom MLP.
        let ideps = &trace.ops()[interaction].deps;
        assert!(ideps.as_slice().contains(&OpId(a2a)), "{ideps:?}");
        assert!(ideps.as_slice().contains(&OpId(bottom)), "{ideps:?}");
    }

    #[test]
    fn inference_has_no_backward_ops() {
        let model = ModelId::DlrmA.build();
        let trace = build(&model, &Workload::inference());
        assert!(trace.ops().iter().all(|o| o.phase == Phase::Forward));
    }

    #[test]
    fn pretraining_emits_gradient_collectives_and_optimizer() {
        let model = ModelId::DlrmA.build();
        let trace = build(&model, &Workload::pretrain());
        let has_rs = trace.ops().iter().any(|o| {
            matches!(
                o.kind,
                OpKind::Collective {
                    kind: CollectiveKind::ReduceScatter
                }
            )
        });
        assert!(has_rs, "FSDP baseline must reduce-scatter gradients");
        let opt = trace
            .ops()
            .iter()
            .find(|o| o.kind == OpKind::Optimizer)
            .unwrap();
        assert!(!opt.deps.is_empty());
        // Gradient collectives live on the deferred stream.
        assert!(trace.stream_ops(StreamId::GradComm).count() >= 2);
    }

    #[test]
    fn finetune_embedding_skips_dense_backward() {
        let model = ModelId::DlrmA.build();
        let trace = build(
            &model,
            &Workload::finetune_only(madmax_model::LayerClass::Embedding),
        );
        // No backward GEMMs: the paper's Insight 5 simplification.
        let bwd_gemms = trace
            .ops()
            .iter()
            .filter(|o| o.phase == Phase::Backward && matches!(o.kind, OpKind::Gemm { .. }))
            .count();
        assert_eq!(bwd_gemms, 0);
        // But the embedding gradient exchange and scatter exist.
        assert!(trace
            .ops()
            .iter()
            .any(|o| o.name.to_string().contains("a2a_bwd")));
        assert!(trace
            .ops()
            .iter()
            .any(|o| o.name.to_string().contains("grad_scatter")));
    }

    #[test]
    fn llm_trace_has_per_block_instances() {
        let model = ModelId::Gpt3.build();
        let cluster = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let workload = Workload::pretrain();
        let trace = assembled_trace(&model, &cluster, &plan, &workload);
        let fwd_blocks = trace
            .ops()
            .iter()
            .filter(|o| o.phase == Phase::Forward && matches!(o.kind, OpKind::Gemm { .. }))
            .count();
        assert_eq!(fwd_blocks, 96);
        // 96 forward gathers + 96 backward gathers + 96 reduce-scatters
        // (plus the embedding's), all nonzero.
        let ags = trace
            .ops()
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OpKind::Collective {
                        kind: CollectiveKind::AllGather
                    }
                )
            })
            .count();
        assert!(ags >= 192, "{ags}");
    }

    #[test]
    fn prefetch_removes_gather_dependencies() {
        let model = ModelId::Gpt3.build();
        let cluster = catalog::llama_llm_system();
        let mut plan = Plan::fsdp_baseline(&model);
        let workload = Workload::pretrain();
        plan.options.fsdp_prefetch = true;
        let with = assembled_trace(&model, &cluster, &plan, &workload);
        plan.options.fsdp_prefetch = false;
        let without = assembled_trace(&model, &cluster, &plan, &workload);
        let dep_count = |t: &Trace| -> usize {
            t.ops()
                .iter()
                .filter(|o| o.name.to_string().contains(".ag"))
                .map(|o| o.deps.len())
                .sum()
        };
        assert!(dep_count(&with) < dep_count(&without));
    }

    #[test]
    fn serve_trace_chains_decode_steps_autoregressively() {
        let model = ModelId::Llama2.build();
        let cluster = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let workload = Workload::serve(madmax_parallel::ServeConfig::new(256, 3));
        let trace = assembled_trace(&model, &cluster, &plan, &workload);
        // Every decode step's first compute transitively follows the
        // previous step: the trace stays topologically ordered, and step
        // boundaries appear in step order.
        let step_of = |name: &crate::trace::OpName| match name {
            crate::trace::OpName::DecodeFlat { step, .. } => Some(*step),
            _ => None,
        };
        let mut last_step = None;
        for op in trace.ops() {
            if let Some(s) = step_of(&op.name) {
                if let Some(prev) = last_step {
                    assert!(s >= prev, "decode steps out of order");
                }
                last_step = Some(s);
            }
        }
        assert_eq!(last_step, Some(2));
    }
}
