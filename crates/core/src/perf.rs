//! The flat-SPMD execution engine, and the evaluator both engines share.
//!
//! [`run_flat_cached`] is the flat engine's only evaluator. The unified
//! `madmax_engine::Scenario` front door prices the table (one plan for a
//! single run, every candidate for a search) and dispatches pipelined
//! plans to `madmax-pipeline`'s stage engine instead.
//!
//! Both engines call [`evaluate_priced`] to turn a priced candidate into
//! its report: the closed-form serve gate ([`crate::steady`]), else full
//! assembly, scheduling and the report sweep, plus the serve stats and the
//! decode tail. An engine keeps only its feasibility checks and its trace
//! assembly, which it hands over as a closure.
//!
//! Serve workloads run their prefill and decode phases through the same
//! trace machinery: the prefill is the familiar forward-only pass (over
//! the prompt-length effective model), decode steps are appended as
//! autoregressive single-token passes, and the report additionally
//! carries [`crate::metrics::ServeStats`] (TTFT / TPOT).
//!
//! # Debug-assertions contract
//!
//! Every schedule [`evaluate_priced`] assembles is cross-checked in debug
//! builds (causality, per-stream exclusivity, non-negative durations,
//! makespan consistency). Release builds skip the check entirely; the
//! full structural rule set with non-panicking diagnostics is
//! `madmax-verify`.

use madmax_model::ModelArch;
use madmax_parallel::{MemoryBreakdown, Plan, PlanError};

use crate::costs::CostTable;
use crate::counters::CacheCounters;
use crate::metrics::{decode_tail_from, serve_stats_from, IterationReport};
use crate::sim::{debug_check_schedule, schedule_into, EngineScratch};
use crate::steady::{closed_form_serve, ServeDims};
use crate::trace::Trace;

/// This engine executes the flat SPMD mapping only; plans that configure
/// pipeline parallelism must go through `madmax-pipeline`'s stage engine
/// (or the dispatching `madmax_engine::Scenario`).
fn reject_pipelined(plan: &Plan) -> Result<(), PlanError> {
    match plan.pipeline {
        Some(pp) if pp.is_pipelined() => Err(PlanError::PipelinedPlan { stages: pp.stages }),
        _ => Ok(()),
    }
}

/// The flat engine: evaluates `plan` against a pre-priced [`CostTable`]
/// using caller-owned buffers.
///
/// No compute or collective cost model is invoked (costs come from the
/// table) and the trace arena, schedule, and stream-slot table in
/// `scratch` are recycled across calls. The candidate goes through
/// [`evaluate_priced`]: serve workloads try the closed form first, which
/// `analytic_serve` can switch off; when it declines — and always for
/// training — `scratch` holds the fully assembled trace and its schedule
/// afterwards. Either way a serve run leaves its
/// [`crate::metrics::DecodeTail`] in `scratch.decode_tail`.
///
/// # Errors
///
/// [`PlanError::PipelinedPlan`] for a pipelined plan,
/// [`PlanError::InvalidStrategy`] for a strategy its class cannot use,
/// and [`PlanError::OutOfMemory`] when the mapping does not fit in device
/// memory.
///
/// # Panics
///
/// Panics when a strategy of `plan` was not priced into `table` via
/// [`CostTable::ensure_plan`]. Debug builds additionally assert that
/// `plan`'s options match the table's pricing context.
pub fn run_flat_cached(
    table: &CostTable,
    plan: &Plan,
    scratch: &mut EngineScratch,
    analytic_serve: bool,
) -> Result<IterationReport, PlanError> {
    reject_pipelined(plan)?;
    let memory = table.memory_for(plan)?;
    Ok(evaluate_priced(
        table.report_model(),
        memory,
        table.serve_dims(),
        analytic_serve,
        table.analytic_counters(),
        scratch,
        |max_decode_tokens, trace| table.assemble_capped_into(plan, trace, max_decode_tokens),
    ))
}

/// Evaluates a priced, feasible candidate into its report: the one step
/// from costs to report that both engines share.
///
/// `assemble(max_decode_tokens, trace)` builds the engine's trace into
/// `trace` (cleared first) with the decode loop capped at
/// `max_decode_tokens`; a cap of `usize::MAX` is the full trace. `dims`
/// is `None` for workloads without decode steps. In order, the evaluator:
///
/// 1. clears `scratch.decode_tail`;
/// 2. offers serve candidates to the closed form, which assembles the
///    prefill plus a short explicit token prefix and synthesizes the
///    report — byte-identical to full simulation — when `analytic` allows
///    it and every exactness condition of [`crate::steady`] holds;
/// 3. otherwise assembles the full trace, schedules it, cross-checks the
///    schedule in debug builds and sweeps the report, leaving the trace
///    and schedule in `scratch`;
/// 4. attaches the serve stats and the [`crate::metrics::DecodeTail`]
///    when `dims` is set.
///
/// `counters` records one hit per report synthesized in closed form and
/// one miss per serve candidate simulated in full (opt-out, short decode,
/// or a failed exactness condition); workloads without decode steps
/// count as neither.
pub fn evaluate_priced(
    model: &ModelArch,
    memory: MemoryBreakdown,
    dims: Option<ServeDims>,
    analytic: bool,
    counters: &CacheCounters,
    scratch: &mut EngineScratch,
    assemble: impl Fn(usize, &mut Trace),
) -> IterationReport {
    scratch.decode_tail = None;
    if let Some(report) =
        closed_form_serve(analytic, dims, counters, model, memory, scratch, &assemble)
    {
        return report;
    }
    assemble(usize::MAX, &mut scratch.trace);
    schedule_into(&scratch.trace, &mut scratch.sched, &mut scratch.streams);
    if cfg!(debug_assertions) {
        debug_check_schedule(&scratch.trace, &scratch.sched);
    }
    let mut report = IterationReport::from_schedule_in(
        &scratch.trace,
        &scratch.sched,
        model,
        memory,
        &mut scratch.report,
    );
    if let Some(d) = dims {
        report.serve = Some(serve_stats_from(
            &scratch.trace,
            &scratch.sched,
            d.prompt_len,
            d.decode_len,
            d.decode_batch,
        ));
        scratch.decode_tail = decode_tail_from(&scratch.trace, &scratch.sched, d.decode_len);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{CollectiveModel, FlatWorstLink, HierarchicalNccl};
    use crate::compute::UtilizationModel;
    use madmax_hw::{catalog, ClusterSpec};
    use madmax_model::{LayerClass, ModelArch, ModelId};
    use madmax_parallel::{HierStrategy, ServeConfig, Strategy, Workload};

    /// Evaluates `plan` on a one-plan table priced with `collectives`,
    /// simulating serve decodes in full; `scratch` keeps the trace.
    fn run_on(
        model: &ModelArch,
        cluster: &ClusterSpec,
        plan: &Plan,
        workload: Workload,
        collectives: &dyn CollectiveModel,
        scratch: &mut EngineScratch,
    ) -> Result<IterationReport, PlanError> {
        let mut table = CostTable::new(
            model,
            cluster,
            workload,
            plan.options,
            collectives,
            UtilizationModel::Constant,
            1,
        );
        table.ensure_plan(plan);
        run_flat_cached(&table, plan, scratch, false)
    }

    fn run(
        model: &ModelArch,
        cluster: &ClusterSpec,
        plan: &Plan,
        workload: Workload,
    ) -> Result<IterationReport, PlanError> {
        run_on(
            model,
            cluster,
            plan,
            workload,
            &HierarchicalNccl,
            &mut EngineScratch::new(),
        )
    }

    #[test]
    fn dlrm_baseline_runs_and_is_sane() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let r = run(&model, &sys, &plan, Workload::pretrain()).unwrap();
        assert!(r.iteration_time.as_ms() > 10.0 && r.iteration_time.as_ms() < 200.0);
        assert!(r.serialized_time >= r.iteration_time);
        assert!(r.exposed_comm <= r.comm_time);
        assert!(r.mqps() > 0.3 && r.mqps() < 5.0, "{}", r.mqps());
        assert!(r.serve.is_none());
    }

    #[test]
    fn oom_plans_fail() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model)
            .with_strategy(LayerClass::Dense, HierStrategy::flat(Strategy::Ddp));
        assert!(matches!(
            run(&model, &sys, &plan, Workload::pretrain()),
            Err(PlanError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn inference_is_faster_than_training() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let train = run(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let infer = run(&model, &sys, &plan, Workload::inference()).unwrap();
        assert!(infer.iteration_time < train.iteration_time);
        assert!(infer.serve.is_none(), "prefill-only runs carry no stats");
    }

    #[test]
    fn collective_model_ablation_changes_results() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let hier = run(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let flat = run_on(
            &model,
            &sys,
            &plan,
            Workload::pretrain(),
            &FlatWorstLink,
            &mut EngineScratch::new(),
        )
        .unwrap();
        assert!(flat.comm_time > hier.comm_time);
    }

    #[test]
    fn trace_inspection_available() {
        let model = ModelId::DlrmB.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let mut scratch = EngineScratch::new();
        let report = run_on(
            &model,
            &sys,
            &plan,
            Workload::pretrain(),
            &HierarchicalNccl,
            &mut scratch,
        )
        .unwrap();
        let (trace, sched) = (&scratch.trace, &scratch.sched);
        assert_eq!(trace.len(), sched.windows.len());
        assert!((trace.serialized_time() / report.serialized_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serve_run_reports_ttft_and_tpot() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let workload = Workload::serve(ServeConfig::new(1024, 32));
        let r = run(&model, &sys, &plan, workload).unwrap();
        let s = r.serve.expect("decode run reports serve stats");
        assert_eq!(s.prompt_len, 1024);
        assert_eq!(s.decode_len, 32);
        assert_eq!(s.decode_batch, model.global_batch);
        assert!(s.ttft.as_secs() > 0.0);
        assert!(s.tpot.as_secs() > 0.0);
        assert!(s.ttft > s.tpot, "prefill outweighs one decode step");
        assert!(
            (s.ttft + s.tpot * 32.0 - r.iteration_time).as_secs().abs() < 1e-9,
            "iteration splits into TTFT + decode stream"
        );
        assert!(r.serve_tokens_per_sec().unwrap() > 0.0);
        assert!(r.memory.kv_cache.as_gb() > 0.0);
    }

    #[test]
    fn prefill_only_serve_matches_legacy_inference_shape() {
        // Workload::inference() (the Task::Inference mapping) must run the
        // exact legacy forward-only path: same report, no serve stats.
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let r = run(&model, &sys, &plan, Workload::inference()).unwrap();
        assert!(r.serve.is_none());
        assert_eq!(r.memory.kv_cache, madmax_hw::units::ByteCount::ZERO);
        // Explicit prompt = model context yields identical numbers (only
        // the engine-internal model handle differs).
        let explicit = Workload::serve(ServeConfig {
            prompt_len: Some(model.context_length),
            decode_len: 0,
            decode_batch: None,
            kv_cache: false,
        });
        let r2 = run(&model, &sys, &plan, explicit).unwrap();
        assert_eq!(r, r2);
    }
}
