//! Exhaustive strategy sweeps for one layer class (the x-axes of
//! Figs. 11, 12, 14, 15, 17).

use madmax_core::IterationReport;
use madmax_engine::EngineError;
use madmax_hw::ClusterSpec;
use madmax_model::{LayerClass, ModelArch};
use madmax_parallel::{HierStrategy, Plan, Workload};

use crate::Explorer;

/// Outcome of evaluating one strategy choice.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The strategy applied to the swept layer class.
    pub strategy: HierStrategy,
    /// The full plan evaluated.
    pub plan: Plan,
    /// Simulation result, or why the mapping is infeasible (OOM entries
    /// render as the gray bars of Fig. 11).
    pub outcome: Result<IterationReport, EngineError>,
}

impl SweepPoint {
    /// Throughput in samples/sec, `None` for infeasible points.
    pub fn throughput(&self) -> Option<f64> {
        self.outcome
            .as_ref()
            .ok()
            .map(IterationReport::samples_per_sec)
    }

    /// Whether this point ran out of memory.
    pub fn is_oom(&self) -> bool {
        matches!(&self.outcome, Err(e) if e.is_oom())
    }
}

/// Evaluates every hierarchical strategy valid for `class`, holding the
/// rest of `base_plan` fixed: one [`Explorer::evaluate`] batch, so the
/// swept plans share one priced table and the search's worker pool.
pub fn sweep_class(
    model: &ModelArch,
    cluster: &ClusterSpec,
    base_plan: &Plan,
    class: LayerClass,
    workload: &Workload,
) -> Vec<SweepPoint> {
    let strategies = HierStrategy::enumerate_for(class);
    let plans: Vec<Plan> = strategies
        .iter()
        .map(|&strategy| base_plan.clone().with_strategy(class, strategy))
        .collect();
    let outcomes = Explorer::new(model, cluster)
        .workload(workload.clone())
        .evaluate(&plans);
    strategies
        .into_iter()
        .zip(plans)
        .zip(outcomes)
        .map(|((strategy, plan), outcome)| SweepPoint {
            strategy,
            plan,
            outcome,
        })
        .collect()
}

/// The best point of a sweep by throughput (ignoring infeasible entries).
pub fn best_point(points: &[SweepPoint]) -> Option<&SweepPoint> {
    points
        .iter()
        .filter(|p| p.throughput().is_some())
        .max_by(|a, b| {
            a.throughput()
                .unwrap_or(0.0)
                .partial_cmp(&b.throughput().unwrap_or(0.0))
                .expect("throughput is finite")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;
    use madmax_model::ModelId;
    use madmax_parallel::Strategy;

    #[test]
    fn fig11_dense_sweep_shape() {
        // Fig. 11: over DLRM-A dense strategies, throughput varies widely,
        // (TP, DDP) is optimal among the paper's highlighted set, and plain
        // DDP is OOM.
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let base = Plan::fsdp_baseline(&model);
        let points = sweep_class(
            &model,
            &sys,
            &base,
            LayerClass::Dense,
            &Workload::pretrain(),
        );
        assert_eq!(points.len(), 12);

        let get = |s: HierStrategy| points.iter().find(|p| p.strategy == s).unwrap();
        assert!(get(HierStrategy::flat(Strategy::Ddp)).is_oom());
        let tp_ddp = get(HierStrategy::two_level(Strategy::Tp, Strategy::Ddp));
        let fsdp = get(HierStrategy::flat(Strategy::Fsdp));
        assert!(tp_ddp.throughput().unwrap() > fsdp.throughput().unwrap());

        let best = best_point(&points).unwrap();
        assert!(best.throughput().unwrap() >= tp_ddp.throughput().unwrap());
    }

    #[test]
    fn sweeps_cover_feasible_and_infeasible() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let points = sweep_class(
            &model,
            &sys,
            &base,
            LayerClass::Transformer,
            &Workload::pretrain(),
        );
        assert!(
            points.iter().any(|p| p.is_oom()),
            "replication across nodes must OOM"
        );
        assert!(points.iter().any(|p| p.throughput().is_some()));
    }
}
