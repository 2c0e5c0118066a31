//! Strategy search for a production recommendation model: reproduce the
//! paper's core workflow — start from the FSDP baseline, sweep the dense
//! layers, then run the joint search (Insights 1 and 3).
//!
//! ```bash
//! cargo run --release -p madmax-bench --example dlrm_strategy_search
//! ```

use madmax_dse::{best_point, sweep_class, Explorer};
use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{Plan, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelId::DlrmA.build();
    let system = catalog::zionex_dlrm_system();
    let baseline_plan = Plan::fsdp_baseline(&model);
    let baseline = Scenario::new(&model, &system)
        .plan(baseline_plan.clone())
        .run()?;
    println!("FSDP baseline: {:.2} MQPS\n", baseline.mqps());

    // Sweep just the dense layers (the embedding tables of a 793B-parameter
    // DLRM can only be model-parallel sharded — Insight 1).
    println!("Dense-layer strategy sweep (Fig. 11):");
    let points = sweep_class(
        &model,
        &system,
        &baseline_plan,
        LayerClass::Dense,
        &Workload::pretrain(),
    );
    for p in &points {
        match &p.outcome {
            Ok(r) => println!(
                "  {:<12} {:>6.3}x over FSDP  ({:.1} GB/device)",
                p.strategy.to_string(),
                r.samples_per_sec() / baseline.samples_per_sec(),
                r.memory.total().as_gb(),
            ),
            Err(e) => println!("  {:<12} infeasible: {e}", p.strategy.to_string()),
        }
    }
    let best = best_point(&points).expect("at least the baseline is feasible");
    println!(
        "\nBest dense strategy: {} — ordering matters because it decides which\n\
         interconnect carries activations vs weight gradients (Insight 3).\n",
        best.strategy
    );

    // Joint search over every layer class, fanned out over all cores.
    let result = Explorer::new(&model, &system)
        .workload(Workload::pretrain())
        .explore()?;
    println!(
        "Joint search: {} plans evaluated ({} pruned by the bound, {} OOM), best = {} at {:.2}x over FSDP",
        result.evaluated,
        result.telemetry.pruned,
        result.oom,
        result.winning_strategies(),
        result.speedup()
    );
    Ok(())
}
