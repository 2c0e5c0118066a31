//! The pipeline-aware execution engine: expands a candidate's cached
//! stage costs into its schedule's trace and replays it on
//! `madmax-core`'s list scheduler.
//!
//! [`run_pipelined_cached`] is the engine's only evaluator. The unified
//! `madmax_engine::Scenario` front door prices the [`PipelineCostTable`]
//! (one plan for a single run, every candidate for a search) and
//! dispatches flat plans to the flat engine instead. Like the flat
//! engine, it keeps only its feasibility checks and its trace assembly:
//! both engines call [`madmax_core::evaluate_priced`] for the closed-form
//! gate, scheduling, the report, the serve stats and the decode tail.
//!
//! Serve workloads pipeline the decode stream itself: the prompt's
//! prefill runs as a forward-only pipeline, then every decode step flows
//! through the stages as one microbatch unit
//! (see [`crate::schedule::build_serve_trace_into`]), so pipeline
//! parallelism hides inter-stage latency across the token stream.
//!
//! # Debug-assertions contract
//!
//! Every schedule this engine assembles is cross-checked by the shared
//! evaluator in debug builds (causality, per-stream exclusivity,
//! non-negative durations, makespan consistency). A memo hit returns a
//! report whose schedule was already checked when it was produced.
//! Release builds skip the check entirely; the full rule set (stage
//! adjacency, 1F1B in-flight bound, GPipe bubble floor) lives in
//! `madmax-verify`.

use madmax_parallel::{Plan, PlanError};

use madmax_core::{evaluate_priced, EngineScratch, IterationReport};

use crate::schedule::{build_pipeline_trace_into, build_serve_trace_into};
use crate::table::{PipelineCostTable, PricedPipelineRef};

/// The pipeline engine: evaluates `plan` against a pre-priced
/// [`PipelineCostTable`] using caller-owned buffers. The plan's
/// [`madmax_parallel::PipelineConfig`] must be active: the model is split
/// into balanced contiguous stages, the global batch into microbatches,
/// and the chosen schedule (GPipe or 1F1B) is replayed on per-stage
/// streams. Serve workloads run prefill waves followed by the pipelined
/// decode stream.
///
/// No partitioning, memory derivation, or cost-model pricing runs per
/// call (everything comes from the table) and the trace arena, schedule,
/// and stream-slot table in `scratch` are recycled across calls. Two
/// layers collapse repeated work further:
///
/// - for workloads without a backward pass, whose traces do not depend
///   on the schedule, each `(depth, assignment, microbatches)` entry of
///   the table is evaluated once — by whichever worker gets there first —
///   and every later candidate at that entry (the GPipe/1F1B pair of a
///   sweep) returns the memoized report;
/// - serve candidates go through the closed-form gate of
///   [`madmax_core::evaluate_priced`], which `analytic_serve` can switch
///   off: only the prefill and a short transient token prefix are
///   assembled, the remaining tokens advance in exact integer arithmetic,
///   and the synthesized report is byte-identical to full simulation
///   (automatic fallback when the exactness conditions fail).
///
/// A serve run leaves its [`madmax_core::DecodeTail`] in
/// `scratch.decode_tail`; the report memo stores the tail with the
/// report, so a memo hit returns both.
///
/// When the engine evaluates a candidate and the gate declines, `scratch`
/// holds the fully assembled trace and its schedule afterwards.
///
/// # Errors
///
/// [`PlanError::InvalidPipeline`] when the plan has no active pipeline
/// config or the pipeline cannot be mapped (too few layers, indivisible
/// devices, bad microbatch count); [`PlanError::InvalidStrategy`] /
/// [`PlanError::OutOfMemory`] as in the flat engine.
///
/// # Panics
///
/// Panics when the plan's (depth, assignment, microbatches) key was not
/// priced into `table` via `PipelineCostTable::ensure_plan`.
pub fn run_pipelined_cached(
    table: &PipelineCostTable,
    plan: &Plan,
    scratch: &mut EngineScratch,
    analytic_serve: bool,
) -> Result<IterationReport, PlanError> {
    let priced = table.priced_for(plan)?;
    let Some(memo) = priced.memo else {
        return Ok(evaluate(table, &priced, scratch, analytic_serve));
    };
    let mut fresh = false;
    let (report, tail) = memo.get_or_init(|| {
        fresh = true;
        let report = evaluate(table, &priced, scratch, analytic_serve);
        (report, scratch.decode_tail)
    });
    if fresh {
        table.memo_counters().miss();
    } else {
        table.memo_counters().hit();
    }
    scratch.decode_tail = *tail;
    Ok(report.clone())
}

/// Evaluates one priced candidate on the shared evaluator, assembling the
/// serve trace (decode tokens capped as asked) or the training/prefill
/// pipeline trace.
fn evaluate(
    table: &PipelineCostTable,
    priced: &PricedPipelineRef,
    scratch: &mut EngineScratch,
    analytic_serve: bool,
) -> IterationReport {
    let dims = table.serve_dims();
    evaluate_priced(
        table.report_model(),
        priced.memory,
        dims,
        analytic_serve,
        table.analytic_counters(),
        scratch,
        |max_decode_tokens, trace| match dims {
            Some(d) => build_serve_trace_into(
                priced.primary,
                priced.decode.expect("serve dims imply decode costs"),
                &priced.cfg,
                max_decode_tokens.min(d.decode_len),
                d.prompt_len,
                trace,
            ),
            None => build_pipeline_trace_into(
                priced.primary,
                &priced.cfg,
                table.workload().has_backward(),
                trace,
            ),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::one_plan_table;
    use madmax_core::{HierarchicalNccl, UtilizationModel};
    use madmax_hw::{catalog, ClusterSpec};
    use madmax_model::{ModelArch, ModelId};
    use madmax_parallel::{PipelineConfig, ServeConfig, Workload};

    /// Runs `plan` on a one-plan table, simulating serve decodes in full.
    fn evaluate(
        model: &ModelArch,
        cluster: &ClusterSpec,
        plan: &Plan,
        workload: Workload,
    ) -> Result<IterationReport, PlanError> {
        let table = one_plan_table(model, cluster, plan, workload);
        run_pipelined_cached(&table, plan, &mut EngineScratch::new(), false)
    }

    #[test]
    fn pipelined_llm_runs_and_reports_bubble() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let r = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let bubble = r.bubble_fraction.expect("pipelined run reports bubble");
        // Fill/drain overhead plus transfer/parameter-fetch slack: at least
        // the analytic floor, and well below 1.
        assert!(
            bubble >= crate::gpipe_bubble_fraction(8, 16) - 1e-9,
            "{bubble}"
        );
        assert!(bubble < 0.75, "{bubble}");
        assert!(r.iteration_time.as_secs() > 0.0);
    }

    #[test]
    fn flat_engine_rejects_pipelined_plans() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let mut table = madmax_core::CostTable::new(
            &model,
            &sys,
            Workload::pretrain(),
            plan.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
            1,
        );
        table.ensure_plan(&plan);
        let err = madmax_core::run_flat_cached(&table, &plan, &mut EngineScratch::new(), true)
            .unwrap_err();
        assert!(
            matches!(err, PlanError::PipelinedPlan { stages: 8 }),
            "{err}"
        );
    }

    #[test]
    fn pipeline_engine_rejects_flat_plans() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let err = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");
    }

    #[test]
    fn more_microbatches_shrink_the_bubble() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let mut last = f64::INFINITY;
        for m in [4usize, 16, 64] {
            let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::one_f_one_b(8, m));
            let r = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
            let bubble = r.bubble_fraction.unwrap();
            assert!(bubble < last, "m={m}: {bubble} vs {last}");
            last = bubble;
        }
    }

    #[test]
    fn indivisible_stage_counts_rejected() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system(); // 256 nodes
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(7, 8));
        let err = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");
    }

    #[test]
    fn pipeline_inference_runs_forward_only() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let infer = evaluate(&model, &sys, &plan, Workload::inference()).unwrap();
        let train = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        assert!(infer.iteration_time < train.iteration_time);
        use madmax_parallel::CollectiveKind;
        assert!(!infer
            .comm_by_collective
            .contains_key(&CollectiveKind::ReduceScatter));
        assert!(infer.serve.is_none(), "prefill-only: no serve stats");
    }

    #[test]
    fn pipelined_serve_reports_ttft_and_tpot() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
        let workload = Workload::serve(ServeConfig::new(1024, 32));
        let r = evaluate(&model, &sys, &plan, workload).unwrap();
        let s = r.serve.expect("decode run reports serve stats");
        assert_eq!(s.prompt_len, 1024);
        assert_eq!(s.decode_len, 32);
        assert!(s.ttft.as_secs() > 0.0 && s.tpot.as_secs() > 0.0);
        assert!(r.memory.kv_cache.as_gb() > 0.0);
        // The decode stream dominates iteration time here, and throughput
        // accounting follows the serve batch.
        assert!(r.serve_tokens_per_sec().unwrap() > 0.0);
    }
}
