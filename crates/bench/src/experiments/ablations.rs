//! Ablation studies of the performance model's design choices:
//! hierarchical vs flat collective models, FSDP prefetching, slowest-link
//! All2All, and constant vs workload-dependent compute utilization.

use crate::report::{heading, Table};
use madmax_core::{FlatWorstLink, UtilizationModel};
use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::vit::{vit, VIT_FAMILY};
use madmax_model::ModelId;
use madmax_parallel::Plan;

/// Runs every ablation and renders a combined report.
pub fn run() -> String {
    let mut out = heading("Ablations: modeling design choices");

    // 1. Hierarchical vs flat-worst-link collective model.
    out.push_str("\n(1) Collective cost model: hierarchical NCCL vs flat worst-link\n");
    let mut t = Table::new([
        "Workload",
        "Hierarchical iter (ms)",
        "Flat iter (ms)",
        "Flat overestimates comm by",
    ]);
    for id in [ModelId::DlrmA, ModelId::Gpt3] {
        let model = id.build();
        let sys = if id.is_dlrm() {
            catalog::zionex_dlrm_system()
        } else {
            catalog::llama_llm_system()
        };
        let plan = Plan::fsdp_baseline(&model);
        let hier = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .run()
            .unwrap();
        let flat_model = FlatWorstLink;
        let flat = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .collectives(&flat_model)
            .run()
            .unwrap();
        t.row([
            id.to_string(),
            format!("{:.2}", hier.iteration_time.as_ms()),
            format!("{:.2}", flat.iteration_time.as_ms()),
            format!("{:.2}x", flat.comm_time / hier.comm_time),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "Without the hierarchical decomposition, ring collectives on multi-node\n\
         systems are billed entirely at NIC bandwidth; the Table I validation\n\
         would miss by a wide margin.\n",
    );

    // 2. FSDP prefetching (the Fig. 9 optimization) across the LLM suite.
    out.push_str("\n(2) FSDP AllGather prefetching\n");
    let mut t = Table::new([
        "Workload",
        "Overlap w/o prefetch",
        "Overlap w/ prefetch",
        "Iter speedup",
    ]);
    for id in [ModelId::Gpt3, ModelId::Llama, ModelId::Llama2] {
        let model = id.build();
        let sys = catalog::llama_llm_system();
        let mut plan = Plan::fsdp_baseline(&model);
        plan.options.fsdp_prefetch = false;
        let without = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .run()
            .unwrap();
        plan.options.fsdp_prefetch = true;
        let with = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .run()
            .unwrap();
        t.row([
            id.to_string(),
            format!("{:.1}%", without.overlap_fraction() * 100.0),
            format!("{:.1}%", with.overlap_fraction() * 100.0),
            format!("{:.2}x", without.iteration_time / with.iteration_time),
        ]);
    }
    out.push_str(&t.render());

    // 3. Constant vs workload-dependent utilization on ViT scaling.
    out.push_str("\n(3) Compute-utilization model on ViT-G (global batch 4096)\n");
    let mut t = Table::new([
        "GPUs",
        "Constant-util MFU-proxy iter (ms)",
        "Workload-dependent iter (ms)",
    ]);
    let cfg = &VIT_FAMILY[2];
    for gpus in [32usize, 256, 2048] {
        let model = vit(cfg, 4096);
        let sys = catalog::zionex_dlrm_system().with_num_nodes(gpus / 8);
        let plan = Plan::fsdp_baseline(&model);
        let constant = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .utilization(UtilizationModel::Constant)
            .run()
            .unwrap();
        let dependent = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .utilization(UtilizationModel::vit_default())
            .run()
            .unwrap();
        t.row([
            gpus.to_string(),
            format!("{:.1}", constant.iteration_time.as_ms()),
            format!("{:.1}", dependent.iteration_time.as_ms()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "The workload-dependent model penalizes small per-GPU batches — the\n\
         effect the paper needed for its ViT MFU validation (Fig. 8).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn ablations_render_all_three_studies() {
        let s = super::run();
        assert!(s.contains("(1) Collective cost model"));
        assert!(s.contains("(2) FSDP AllGather prefetching"));
        assert!(s.contains("(3) Compute-utilization model"));
        assert!(s.contains("GPT-3"));
    }

    #[test]
    fn flat_model_overestimates() {
        let s = super::run();
        // The "overestimates by" column must show factors > 1.
        assert!(s.contains('x'));
        assert!(!s.contains("0.9x"));
    }
}
