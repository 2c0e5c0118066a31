//! Experiments regenerating the parallelization-strategy figures:
//! Figs. 10-15.

use crate::report::{bar_chart, heading, Bar, Table};
use madmax_dse::{
    best_point, pareto_frontier, sweep_class, Explorer, ParetoPoint, SearchSpace, SweepPoint,
};
use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::{DlrmVariant, LayerClass, ModelId};
use madmax_parallel::{memory_per_device, HierStrategy, Plan, Strategy, Workload};

fn system_for(id: ModelId) -> madmax_hw::ClusterSpec {
    if id.is_dlrm() {
        catalog::zionex_dlrm_system()
    } else {
        catalog::llama_llm_system()
    }
}

/// Fig. 10: pre-training throughput over the FSDP baseline across the full
/// model suite, memory-constrained (blue) and unconstrained (orange).
/// `hooks` sizes the explorer's worker pool and receives each search's
/// progress events and telemetry.
pub fn fig10(hooks: &crate::SearchHooks) -> String {
    let mut out = heading("Fig. 10: Pre-training throughput improvement over FSDP baseline");
    let mut bars = Vec::new();
    let mut t = Table::new([
        "Model",
        "Constrained speedup",
        "Unconstrained speedup",
        "Throughput-optimal strategies",
    ]);
    let mut speedups = Vec::new();
    for id in ModelId::ALL {
        let model = id.build();
        let sys = system_for(id);
        let c = hooks
            .attach(Explorer::new(&model, &sys))
            .explore()
            .expect("baseline feasible");
        let u = hooks
            .attach(Explorer::new(&model, &sys).space(SearchSpace::strategies().unconstrained()))
            .explore()
            .expect("unconstrained search runs");
        hooks.record(&format!("fig10/{id}/constrained"), &c.telemetry);
        hooks.record(&format!("fig10/{id}/unconstrained"), &u.telemetry);
        speedups.push(c.speedup());
        t.row([
            id.to_string(),
            format!("{:.2}x", c.speedup()),
            format!("{:.2}x", u.speedup()),
            c.winning_strategies(),
        ]);
        bars.push(Bar::with_note(
            id.to_string(),
            c.speedup(),
            c.winning_strategies(),
        ));
    }
    out.push_str(&bar_chart(&bars, 40, "x over FSDP"));
    out.push('\n');
    out.push_str(&t.render());
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    out.push_str(&format!(
        "\nAverage pre-training improvement: {:.1}% (paper: 65.9% average, up to\n\
         2.24x constrained / 2.43x unconstrained). LLM baselines are already\n\
         competitive under FSDP (paper's Insight 2); the largest gains come from\n\
         expert-parallel sharding of MoE layers and TP-within-node for DLRM\n\
         dense layers.\n",
        (avg - 1.0) * 100.0
    ));
    out
}

fn render_sweep(points: &[SweepPoint], baseline_tp: f64) -> String {
    let mut bars = Vec::new();
    for p in points {
        match p.throughput() {
            Some(tp) => bars.push(Bar::new(p.strategy.to_string(), tp / baseline_tp)),
            None => bars.push(Bar::with_note(p.strategy.to_string(), 0.0, "OOM")),
        }
    }
    bar_chart(&bars, 40, "x over FSDP")
}

/// Fig. 11: DLRM-A pre-training across dense-layer strategies (embedding
/// tables pinned to model-parallel sharding).
pub fn fig11() -> String {
    let mut out = heading("Fig. 11: DLRM-A pre-training across dense-layer strategies");
    let model = ModelId::DlrmA.build();
    let sys = catalog::zionex_dlrm_system();
    let base = Plan::fsdp_baseline(&model);
    let baseline = Scenario::new(&model, &sys).run().unwrap();
    let points = sweep_class(
        &model,
        &sys,
        &base,
        LayerClass::Dense,
        &Workload::pretrain(),
    );
    out.push_str(&render_sweep(&points, baseline.samples_per_sec()));
    let best = best_point(&points).unwrap();
    out.push_str(&format!(
        "\nBest dense strategy: {} at {:.2}x over FSDP (paper: (TP, DDP) at 1.14x;\n\
         range 0.19x-1.14x with ((DDP),(MP)) OOM — reproduced: flat TP {:.2}x, DDP OOM).\n",
        best.strategy,
        best.throughput().unwrap() / baseline.samples_per_sec(),
        points
            .iter()
            .find(|p| p.strategy == HierStrategy::flat(Strategy::Tp))
            .and_then(SweepPoint::throughput)
            .unwrap_or(0.0)
            / baseline.samples_per_sec(),
    ));
    out
}

/// Fig. 12: strategy sweeps for the DLRM-A variants; the optimum moves as
/// transformer layers add compute/overlap and MoE adds blocking All2All.
pub fn fig12() -> String {
    let mut out = heading("Fig. 12: DLRM-A variants: optimal strategy and improvement vary");
    for (id, class) in [
        (ModelId::DlrmA, LayerClass::Dense),
        (ModelId::DlrmATransformer, LayerClass::Transformer),
        (ModelId::DlrmAMoe, LayerClass::Moe),
    ] {
        let model = id.build();
        let sys = catalog::zionex_dlrm_system();
        // DLRM-A's dense optimum (TP, DDP) is held fixed while sweeping the
        // variant-specific layer class, as the paper does.
        let base = Plan::fsdp_baseline(&model).with_strategy(
            LayerClass::Dense,
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        );
        let baseline = Scenario::new(&model, &sys).run().unwrap();
        let points = sweep_class(&model, &sys, &base, class, &Workload::pretrain());
        out.push_str(&format!("\n{id} (sweeping {class} layers):\n"));
        out.push_str(&render_sweep(&points, baseline.samples_per_sec()));
        if let Some(best) = best_point(&points) {
            out.push_str(&format!(
                "optimum: {} at {:.2}x over FSDP\n",
                best.strategy,
                best.throughput().unwrap() / baseline.samples_per_sec()
            ));
        }
    }
    out
}

/// Fig. 13: per-device memory vs throughput Pareto curves for the DLRM-A
/// variants, pre-training and inference.
pub fn fig13() -> String {
    let mut out = heading("Fig. 13: Memory/throughput Pareto curves for DLRM-A variants");
    for task in [Workload::pretrain(), Workload::inference()] {
        out.push_str(&format!("\n--- {task} ---\n"));
        for variant in [
            DlrmVariant::Base,
            DlrmVariant::Transformer,
            DlrmVariant::Moe,
        ] {
            let model = madmax_model::dlrm::dlrm_a(variant);
            let sys = catalog::zionex_dlrm_system();
            let base = Plan::fsdp_baseline(&model);
            // Collect every feasible strategy point across the variant's
            // tunable classes.
            let mut points: Vec<ParetoPoint<String>> = Vec::new();
            for class in [LayerClass::Dense, LayerClass::Transformer, LayerClass::Moe] {
                if model.groups_of(class).next().is_none() {
                    continue;
                }
                for p in sweep_class(&model, &sys, &base, class, &task) {
                    if let Ok(r) = &p.outcome {
                        let mem = memory_per_device(&model, &sys, &p.plan, &task);
                        points.push(ParetoPoint::new(
                            mem.total().as_gb(),
                            r.samples_per_sec() / 1e6,
                            format!("{class}={}", p.strategy),
                        ));
                    }
                }
            }
            let frontier = pareto_frontier(&points);
            out.push_str(&format!(
                "\n{} ({} feasible points):\n",
                model.name,
                points.len()
            ));
            let mut t = Table::new(["Memory/GPU (GB)", "Throughput (MQPS)", "Strategy"]);
            for p in &frontier {
                t.row([
                    format!("{:.1}", p.cost),
                    format!("{:.3}", p.value),
                    p.payload.clone(),
                ]);
            }
            out.push_str(&t.render());
        }
    }
    out.push_str(
        "\nHigher memory capacity admits higher-throughput strategies; during\n\
         inference the MoE variant overtakes the transformer variant because\n\
         expert communication is cheaper without the backward pass (Insight 4).\n",
    );
    out
}

/// Fig. 14: task-level diversity — the same strategies ranked differently
/// for pre-training, inference, and the two fine-tuning scenarios.
pub fn fig14() -> String {
    let mut out = heading("Fig. 14: Task-level diversity of DLRM-A strategy performance");
    let model = ModelId::DlrmA.build();
    let sys = catalog::zionex_dlrm_system();
    let tasks: Vec<(&str, Workload)> = vec![
        ("pre-training", Workload::pretrain()),
        ("inference", Workload::inference()),
        ("finetune-MLP", Workload::finetune_only(LayerClass::Dense)),
        (
            "finetune-emb",
            Workload::finetune_only(LayerClass::Embedding),
        ),
    ];
    let strategies = [
        HierStrategy::flat(Strategy::Fsdp),
        HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        HierStrategy::two_level(Strategy::Ddp, Strategy::Tp),
        HierStrategy::flat(Strategy::Ddp),
        HierStrategy::two_level(Strategy::Fsdp, Strategy::Ddp),
    ];
    let mut t = Table::new([
        "Dense strategy",
        "pre-training",
        "inference",
        "finetune-MLP",
        "finetune-emb",
    ]);
    for strat in strategies {
        let mut cells = vec![strat.to_string()];
        for (_, task) in &tasks {
            let scenario = Scenario::new(&model, &sys).workload_ref(task);
            let baseline = scenario.run().unwrap();
            let plan = Plan::fsdp_baseline(&model).with_strategy(LayerClass::Dense, strat);
            cells.push(match scenario.plan(plan).run() {
                Ok(r) => format!("{:.2}x", r.samples_per_sec() / baseline.samples_per_sec()),
                Err(_) => "OOM".to_owned(),
            });
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nDDP dense layers are infeasible for pre-training (replicated grads +\n\
         optimizer states) but viable for inference and embedding-only\n\
         fine-tuning; fine-tuning only the embeddings behaves like inference\n\
         because frozen MLP gradient work is omitted (Insight 5).\n",
    );
    out
}

/// Fig. 15: gains from strategy tuning diminish as LLM context length
/// grows.
pub fn fig15() -> String {
    let mut out = heading("Fig. 15: Context-length scaling limits strategy-tuning gains");
    let sys = catalog::llama_llm_system();
    let mut t = Table::new([
        "Context",
        "Model",
        "Baseline tokens/s",
        "Best tokens/s",
        "Speedup over FSDP",
        "Best strategies",
    ]);
    let mut speedups = Vec::new();
    let base_model = ModelId::Llama2.build();
    for ctx in [2048usize, 4096, 8192] {
        // 2K ~= LLaMA, 4K = LLaMA2, 8K = LLaMA2 with doubled context and
        // the architecture held constant (the paper's construction).
        let model = if ctx == 4096 {
            base_model.clone()
        } else {
            base_model.with_context_length(ctx)
        };
        let r = Explorer::new(&model, &sys)
            .space(SearchSpace::strategies().unconstrained())
            .explore()
            .unwrap();
        speedups.push(r.speedup());
        t.row([
            ctx.to_string(),
            model.name.clone(),
            format!("{:.0}", r.baseline.tokens_per_sec()),
            format!("{:.0}", r.best.tokens_per_sec()),
            format!("{:.3}x", r.speedup()),
            r.winning_strategies(),
        ]);
    }
    out.push_str(&t.render());
    let monotone = speedups.windows(2).all(|w| w[1] <= w[0] + 1e-9);
    out.push_str(&format!(
        "\nSpeedup trend across 2K/4K/8K: {:.3}x -> {:.3}x -> {:.3}x ({}).\n\
         Longer contexts grow both the compute share and TP activation volumes,\n\
         so pure parallelization tuning has diminishing returns; further gains\n\
         require changing the system or the model architecture (Insight 6).\n",
        speedups[0],
        speedups[1],
        speedups[2],
        if monotone {
            "monotone non-increasing"
        } else {
            "not monotone"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_covers_suite() {
        let s = fig10(&crate::cli::TEST_HOOKS);
        for id in ModelId::ALL {
            assert!(s.contains(&id.to_string()), "missing {id}");
        }
        assert!(s.contains("Average pre-training improvement"));
    }

    #[test]
    fn fig11_shows_oom_and_best() {
        let s = fig11();
        assert!(s.contains("OOM"));
        assert!(s.contains("Best dense strategy"));
    }

    #[test]
    fn fig14_table_shape() {
        let s = fig14();
        assert!(s.contains("finetune-emb"));
        assert!(s.contains("OOM"));
    }
}
