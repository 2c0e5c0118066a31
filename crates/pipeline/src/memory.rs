//! Pipeline-aware memory feasibility: each stage holds only its own layers'
//! parameters/gradients/optimizer state, but must retain activations for
//! every in-flight microbatch — all `m` under GPipe's fill-drain, at most
//! the pipeline depth under 1F1B (its raison d'être).

use madmax_hw::ClusterSpec;
use madmax_parallel::{check_hbm, MemoryBreakdown, PipelineSchedule, Plan, PlanError, Workload};

/// Folds raw per-stage footprints into the worst-stage breakdown for one
/// `(microbatches, schedule)` candidate and checks it with
/// `madmax_parallel::check_hbm`.
///
/// The raw footprints are `madmax_parallel::memory_per_device` of each
/// stage's sub-model on the stage sub-cluster: each stage holds its own
/// layers' parameters/gradients/optimizer state and the full-retention
/// GPipe worst case of activations, which this fold bounds for 1F1B. The
/// shared `PipelineCostTable` caches the raw footprints per (depth,
/// strategy assignment) and re-runs only this fold per candidate.
///
/// # Errors
///
/// [`PlanError::OutOfMemory`] when the worst stage exceeds usable HBM and
/// the plan does not ignore memory limits.
pub fn fold_pipeline_memory(
    per_stage: &[MemoryBreakdown],
    microbatches: usize,
    schedule: PipelineSchedule,
    workload: &Workload,
    plan: &Plan,
    cluster: &ClusterSpec,
) -> Result<MemoryBreakdown, PlanError> {
    let p = per_stage.len();
    let mut worst = MemoryBreakdown::default();
    let mut worst_total = f64::NEG_INFINITY;
    for breakdown in per_stage {
        let mut b = *breakdown;
        // memory_per_device retains the full global batch's activations —
        // exactly GPipe's worst case. 1F1B keeps at most `p` in-flight
        // microbatches of the `m` total.
        if schedule == PipelineSchedule::OneFOneB && workload.has_backward() {
            let in_flight = (p.min(microbatches)) as f64 / microbatches as f64;
            b.activations = b.activations * in_flight.min(1.0);
        }
        if b.total().value() > worst_total {
            worst_total = b.total().value();
            worst = b;
        }
    }

    check_hbm(worst, cluster, &plan.options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::one_plan_table;
    use madmax_hw::{catalog, ClusterSpec};
    use madmax_model::{ModelArch, ModelId};
    use madmax_parallel::{memory_per_device, PipelineConfig};

    /// The worst-stage footprint of `plan` pipelined 8 x 32 under
    /// `schedule`, priced through a one-plan table.
    fn pipeline_footprint(
        model: &ModelArch,
        sys: &ClusterSpec,
        plan: &Plan,
        schedule: PipelineSchedule,
    ) -> MemoryBreakdown {
        let plan = plan.clone().with_pipeline(PipelineConfig {
            stages: 8,
            microbatches: 32,
            schedule,
        });
        let table = one_plan_table(model, sys, &plan, Workload::pretrain());
        table.priced_for(&plan).unwrap().memory
    }

    #[test]
    fn one_f_one_b_retains_less_than_gpipe() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let mut plan = Plan::fsdp_baseline(&model);
        plan.options.ignore_memory_limits = true;
        let gpipe = pipeline_footprint(&model, &sys, &plan, PipelineSchedule::GPipe);
        let fb = pipeline_footprint(&model, &sys, &plan, PipelineSchedule::OneFOneB);
        assert!(fb.activations < gpipe.activations);
        assert_eq!(fb.params, gpipe.params);
        // 8 in-flight of 32 microbatches -> 1/4 the activations.
        let ratio = gpipe.activations.value() / fb.activations.value();
        assert!((ratio - 4.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn stages_shrink_parameter_footprint() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let mut plan = Plan::fsdp_baseline(&model);
        plan.options.ignore_memory_limits = true;
        let flat = memory_per_device(&model, &sys, &plan, &Workload::pretrain());
        let piped = pipeline_footprint(&model, &sys, &plan, PipelineSchedule::OneFOneB);
        // Each stage's FSDP group is 8x smaller but owns 1/8 of the layers:
        // the sharded parameter bytes stay comparable, while the transient
        // unsharded gather buffer is unchanged. The pipelined footprint must
        // not exceed the flat one.
        assert!(
            piped.total() <= flat.total() * 1.05,
            "{piped:?} vs {flat:?}"
        );
    }
}
