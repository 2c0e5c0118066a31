//! # madmax-core
//!
//! The MAD-Max distributed ML performance model (Hsia et al., ISCA 2024):
//! given a model architecture, a distributed system, a task, and a
//! hierarchical parallelization plan, it generates per-device execution
//! traces (compute + communication streams with data dependencies), replays
//! them on a two-stream overlap simulator, and reports throughput,
//! serialized/overlapped execution, exposed communication, and per-
//! collective breakdowns (Section IV of the paper).
//!
//! The unified front door to the performance model is
//! `madmax_engine::Scenario`, which prices a [`CostTable`] and dispatches
//! between this crate's flat engine ([`run_flat_cached`]) and
//! `madmax-pipeline`'s stage engine. Both engines keep only their
//! feasibility checks and trace assembly and call one evaluator,
//! [`evaluate_priced`], for everything from a priced candidate to its
//! report: the closed-form serve gate ([`steady`]), full assembly,
//! scheduling, the report sweep, the serve stats and the decode tail.
//! The `validation` module holds the paper's Table I / Fig. 7-9
//! reference experiments.
//!
//! # The two-phase engine: price, then assemble
//!
//! Trace construction is split into a **pricing** phase and an
//! **assembly** phase so design-space searches never pay for the same
//! cost twice:
//!
//! 1. *Pricing* ([`costs::CostTable`]) evaluates every per-(layer-group,
//!    [`madmax_parallel::HierStrategy`]) compute duration and collective
//!    cost once, for a fixed `(model, cluster, task, options)` context.
//! 2. *Assembly* ([`costs::CostTable::assemble_into`]) walks the model in
//!    execution order and composes cached costs into a [`Trace`] —
//!    allocation-free on the hot path: op names are structured
//!    [`trace::OpName`]s sharing `Arc<str>` labels, dependency lists store
//!    up to two entries inline ([`trace::Deps`]), and the trace arena,
//!    schedule, and stream-slot table ([`sim::EngineScratch`]) are
//!    recycled across candidates.
//!
//! **CostTable sharing contract**: a single run prices a one-plan table;
//! `madmax-dse` builds one table per search (`CostTable::ensure_plan` for
//! every candidate, before spawning workers) and shares it read-only
//! (`&CostTable` is `Sync`) across the worker pool. Either way each
//! evaluation goes through [`run_flat_cached`] with an `EngineScratch`,
//! and a shared table produces reports byte-identical to a one-plan
//! table's. A table must only be used with plans whose pricing-relevant
//! options (`activation_checkpointing`, `collective_dtype`) match its
//! context — this is asserted.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod builder;
pub mod collective;
pub mod compute;
pub mod config;
pub mod costs;
pub mod counters;
pub mod metrics;
pub mod perf;
pub mod sim;
pub mod steady;
pub mod trace;
pub mod validation;

pub use collective::{CollectiveModel, FlatWorstLink, HierarchicalNccl};
pub use compute::UtilizationModel;
pub use costs::{CostTable, GroupPrice, PricedComm, StrategyCosts};
pub use counters::{CacheCounters, CacheStats};
pub use metrics::{DecodeTail, IterationReport, ReportScratch, ServeStats};
pub use perf::{evaluate_priced, flat_ttft_cached, prefill_ttft, run_flat_cached};
pub use sim::{schedule, schedule_into, EngineScratch, OpWindow, Schedule, StreamTable};
pub use steady::{
    affine_series_units, decode_compute_duration, first_series_crossing, grid_seconds,
    grid_total_seconds, grid_units, grid_units_round, quantize, ServeDims, SteadyScratch,
};
pub use trace::{Deps, OpId, OpKind, OpName, PassDir, Phase, StreamId, Trace, TraceOp};

#[cfg(test)]
mod cross_module_tests {
    use crate::{CostTable, EngineScratch, HierarchicalNccl, IterationReport, UtilizationModel};
    use madmax_hw::{catalog, ClusterSpec};
    use madmax_model::{ModelArch, ModelId};
    use madmax_parallel::{Plan, PlanError, Workload};

    /// Runs `plan` on a one-plan table; `scratch` keeps the assembled
    /// trace and schedule.
    fn evaluate_in(
        model: &ModelArch,
        cluster: &ClusterSpec,
        plan: &Plan,
        workload: Workload,
        scratch: &mut EngineScratch,
    ) -> Result<IterationReport, PlanError> {
        let mut table = CostTable::new(
            model,
            cluster,
            workload,
            plan.options,
            &HierarchicalNccl,
            UtilizationModel::Constant,
            1,
        );
        table.ensure_plan(plan);
        crate::run_flat_cached(&table, plan, scratch, true)
    }

    fn evaluate(
        model: &ModelArch,
        cluster: &ClusterSpec,
        plan: &Plan,
        workload: Workload,
    ) -> Result<IterationReport, PlanError> {
        evaluate_in(model, cluster, plan, workload, &mut EngineScratch::new())
    }

    #[test]
    fn report_serde_round_trip() {
        let model = ModelId::DlrmB.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let r = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let js = serde_json::parse_value(&serde_json::to_string(&r).unwrap()).unwrap();
        let m = js.as_map().unwrap();
        let secs = |k: &str| serde::field(m, k).unwrap().as_f64().unwrap();
        // Floats render as their shortest round-trip form: bit-exact.
        assert_eq!(secs("iteration_time"), r.iteration_time.as_secs());
        assert_eq!(secs("comm_time"), r.comm_time.as_secs());
        assert_eq!(secs("tokens_per_iteration"), r.tokens_per_iteration);
        let by_collective = serde::field(m, "comm_by_collective").unwrap();
        let by_collective = by_collective.as_map().unwrap();
        assert_eq!(by_collective.len(), r.comm_by_collective.len());
        for ((key, value), (kind, t)) in by_collective.iter().zip(&r.comm_by_collective) {
            assert_eq!(key, &format!("{kind:?}"));
            assert_eq!(value.as_f64(), Some(t.as_secs()));
        }
        assert_eq!(serde::field(m, "serve").unwrap(), &serde::Value::Null);
    }

    #[test]
    fn faster_compute_shrinks_gemm_only() {
        use madmax_hw::DeviceScaling;
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let fast = sys.scaled(&DeviceScaling::compute_only(10.0));
        let plan = Plan::fsdp_baseline(&model);
        let base = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let scaled = evaluate(&model, &fast, &plan, Workload::pretrain()).unwrap();
        assert!((scaled.gemm_time.as_secs() - base.gemm_time.as_secs() / 10.0).abs() < 1e-9);
        assert_eq!(scaled.lookup_time, base.lookup_time);
        assert_eq!(scaled.comm_time, base.comm_time);
    }

    #[test]
    fn faster_hbm_shrinks_lookups_only() {
        use madmax_hw::DeviceScaling;
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let fast = sys.scaled(&DeviceScaling::mem_bw_only(10.0));
        let plan = Plan::fsdp_baseline(&model);
        let base = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let scaled = evaluate(&model, &fast, &plan, Workload::pretrain()).unwrap();
        assert!(scaled.lookup_time < base.lookup_time);
        assert_eq!(scaled.gemm_time, base.gemm_time);
    }

    #[test]
    fn bigger_batch_amortizes_fixed_communication() {
        // Doubling the global batch less than doubles iteration time for
        // FSDP workloads (parameter gathers are batch-independent).
        let mut model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let r1 = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        model.global_batch *= 2;
        let r2 = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        assert!(r2.iteration_time > r1.iteration_time);
        assert!(r2.iteration_time.as_secs() < 2.0 * r1.iteration_time.as_secs());
        assert!(r2.samples_per_sec() > r1.samples_per_sec());
    }

    #[test]
    fn inference_runs_forward_collectives_only() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = Plan::fsdp_baseline(&model);
        let train = evaluate(&model, &sys, &plan, Workload::pretrain()).unwrap();
        let infer = evaluate(&model, &sys, &plan, Workload::inference()).unwrap();
        use madmax_parallel::CollectiveKind;
        // No gradient reduce-scatter at inference.
        assert!(!infer
            .comm_by_collective
            .contains_key(&CollectiveKind::ReduceScatter));
        assert!(train
            .comm_by_collective
            .contains_key(&CollectiveKind::ReduceScatter));
        // Forward All2All halves (no gradient exchange).
        let a2a_t = train.comm_by_collective[&CollectiveKind::AllToAll];
        let a2a_i = infer.comm_by_collective[&CollectiveKind::AllToAll];
        assert!((a2a_t.as_secs() / a2a_i.as_secs() - 2.0).abs() < 1e-6);
    }
}
