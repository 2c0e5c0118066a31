//! Integration tests asserting the *shape* of the paper's ten evaluation
//! insights (Section VI): who wins, orderings, and crossovers — not
//! absolute numbers.

use madmax_dse::{best_point, scaling_study, sweep_class, Explorer, ScalingAxis, SearchSpace};
use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{HierStrategy, Plan, Strategy, Workload};

/// Runs `plan` on `workload` through the engine's front door.
fn run_plan(
    model: &madmax_model::ModelArch,
    system: &madmax_hw::ClusterSpec,
    plan: &Plan,
    workload: Workload,
) -> Result<madmax_core::IterationReport, madmax_engine::EngineError> {
    Scenario::new(model, system)
        .plan_ref(plan)
        .workload(workload)
        .run()
}

fn zionex() -> madmax_hw::ClusterSpec {
    catalog::zionex_dlrm_system()
}

fn llm_sys() -> madmax_hw::ClusterSpec {
    catalog::llama_llm_system()
}

#[test]
fn insight1_dlrm_embeddings_force_sharding_and_tp_ddp_wins_dense() {
    let model = ModelId::DlrmA.build();
    let sys = zionex();
    // Replicating or FSDP-sharding trillion-parameter-scale tables is not
    // viable: DDP replication of 3.17 TB per device is absurd and must OOM.
    let plan = Plan::fsdp_baseline(&model)
        .with_strategy(LayerClass::Embedding, HierStrategy::flat(Strategy::Ddp));
    assert!(run_plan(&model, &sys, &plan, Workload::pretrain()).is_err_and(|e| e.is_oom()));

    // With embeddings pinned to sharding, the dense sweep puts (TP, DDP)
    // on top and flat DDP out of memory (Fig. 11).
    let base = Plan::fsdp_baseline(&model);
    let points = sweep_class(
        &model,
        &sys,
        &base,
        LayerClass::Dense,
        &Workload::pretrain(),
    );
    let best = best_point(&points).unwrap();
    assert_eq!(
        best.strategy,
        HierStrategy::two_level(Strategy::Tp, Strategy::Ddp)
    );
    assert!(points
        .iter()
        .find(|p| p.strategy == HierStrategy::flat(Strategy::Ddp))
        .unwrap()
        .is_oom());
}

#[test]
fn insight2_llm_word_embeddings_replicate_but_compute_layers_cannot() {
    let model = ModelId::Gpt3.build();
    let sys = llm_sys();
    // GPT-3 word embeddings (<2 GB) replicate fine via DDP.
    let plan = Plan::fsdp_baseline(&model)
        .with_strategy(LayerClass::Embedding, HierStrategy::flat(Strategy::Ddp));
    assert!(run_plan(&model, &sys, &plan, Workload::pretrain()).is_ok());

    // Any replication of the transformer stack across nodes OOMs.
    for strat in [
        HierStrategy::flat(Strategy::Ddp),
        HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        HierStrategy::two_level(Strategy::Fsdp, Strategy::Ddp),
    ] {
        let plan = Plan::fsdp_baseline(&model).with_strategy(LayerClass::Transformer, strat);
        assert!(
            run_plan(&model, &sys, &plan, Workload::pretrain()).is_err_and(|e| e.is_oom()),
            "{strat} should OOM"
        );
    }

    // And the FSDP baseline is competitive: nothing in the constrained
    // search beats it by more than a few percent.
    let r = Explorer::new(&model, &sys).explore().unwrap();
    assert!(
        r.speedup() < 1.10,
        "GPT-3 constrained speedup {:.3}",
        r.speedup()
    );
}

#[test]
fn insight3_hierarchy_ordering_matters() {
    let model = ModelId::DlrmA.build();
    let sys = zionex();
    let base = Plan::fsdp_baseline(&model);
    let tp_ddp = base.clone().with_strategy(
        LayerClass::Dense,
        HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
    );
    let ddp_tp = base.clone().with_strategy(
        LayerClass::Dense,
        HierStrategy::two_level(Strategy::Ddp, Strategy::Tp),
    );
    let a = run_plan(&model, &sys, &tp_ddp, Workload::pretrain()).unwrap();
    let b = run_plan(&model, &sys, &ddp_tp, Workload::pretrain()).unwrap();
    // (TP, DDP) reduces activations over NVLink; (DDP, TP) pushes them over
    // RoCE and is much slower.
    assert!(a.iteration_time < b.iteration_time);
    assert!(
        b.iteration_time / a.iteration_time > 1.5,
        "ordering gap too small"
    );
    // Memory-wise the opposite ordering shards more (16 nodes vs 8 local).
    assert!(b.memory.total() < a.memory.total());
}

#[test]
fn insight4_variants_move_the_optimum() {
    let sys = zionex();
    // MoE's expert parallelism introduces blocking All2All but beats
    // FSDP-gathered experts decisively.
    let moe = ModelId::DlrmAMoe.build();
    let r = Explorer::new(&moe, &sys).explore().unwrap();
    let moe_strategy = r.best_plan.strategy_for(LayerClass::Moe);
    assert!(
        matches!(moe_strategy, HierStrategy::Flat(Strategy::Shard))
            || matches!(
                moe_strategy,
                HierStrategy::TwoLevel {
                    intra: Strategy::Shard,
                    ..
                }
            ),
        "expert parallelism should win, got {moe_strategy}"
    );
    assert!(r.speedup() > 1.5);
}

#[test]
fn insight5_task_diversity() {
    let model = ModelId::DlrmA.build();
    let sys = zionex();
    let ddp_dense = Plan::fsdp_baseline(&model)
        .with_strategy(LayerClass::Dense, HierStrategy::flat(Strategy::Ddp));
    // DDP dense: infeasible for pre-training, fine for inference and
    // embedding-only fine-tuning.
    assert!(run_plan(&model, &sys, &ddp_dense, Workload::pretrain()).is_err());
    assert!(run_plan(&model, &sys, &ddp_dense, Workload::inference()).is_ok());
    assert!(run_plan(
        &model,
        &sys,
        &ddp_dense,
        Workload::finetune_only(LayerClass::Embedding)
    )
    .is_ok());

    // Fine-tuning only the embeddings resembles inference in its
    // throughput-optimal dense-strategy *ordering* (the costly MLP weight
    // and input gradient work is omitted), unlike pre-training where DDP
    // is not even feasible.
    let base = Plan::fsdp_baseline(&model);
    let ranking = |task: &Workload| -> Vec<String> {
        let mut pts: Vec<_> = sweep_class(&model, &sys, &base, LayerClass::Dense, task)
            .into_iter()
            .filter_map(|p| p.throughput().map(|t| (p.strategy.to_string(), t)))
            .collect();
        pts.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        pts.into_iter().map(|(s, _)| s).take(3).collect()
    };
    let ft_rank = ranking(&Workload::finetune_only(LayerClass::Embedding));
    let inf_rank = ranking(&Workload::inference());
    assert_eq!(ft_rank[0], inf_rank[0], "top strategies should match");
    // DDP is in the feasible set for both, but not for pre-training.
    assert!(ft_rank.contains(&"(DDP)".to_owned()) || inf_rank.contains(&"(DDP)".to_owned()));
}

#[test]
fn insight6_context_length_diminishing_returns() {
    let sys = llm_sys();
    let base = ModelId::Llama2.build();
    let mut speedups = Vec::new();
    for ctx in [2048usize, 4096, 8192] {
        let model = if ctx == 4096 {
            base.clone()
        } else {
            base.with_context_length(ctx)
        };
        let r = Explorer::new(&model, &sys)
            .space(SearchSpace::strategies().unconstrained())
            .explore()
            .unwrap();
        speedups.push(r.speedup());
    }
    assert!(
        speedups[2] <= speedups[0] + 1e-9,
        "gains must not grow with context: {speedups:?}"
    );
}

#[test]
fn insight8_gpu_generations_and_superpod() {
    let model = ModelId::DlrmA.build();
    let plan = Plan::fsdp_baseline(&model);
    let a100 = run_plan(&model, &zionex(), &plan, Workload::pretrain()).unwrap();
    let h100 = run_plan(
        &model,
        &catalog::h100_cluster(16),
        &plan,
        Workload::pretrain(),
    )
    .unwrap();
    let superpod = run_plan(
        &model,
        &catalog::h100_superpod_cluster(16),
        &plan,
        Workload::pretrain(),
    )
    .unwrap();
    assert!(h100.iteration_time < a100.iteration_time);
    assert!(superpod.iteration_time < h100.iteration_time);
    // The SuperPOD's inter-node upgrade directly accelerates the blocking
    // All2All: a substantial (>1.2x) step beyond the H100 alone.
    assert!(h100.iteration_time / superpod.iteration_time > 1.2);
}

#[test]
fn insight9_commodity_platforms_simulate_and_improve() {
    let model = ModelId::DlrmA.build();
    for sys in [
        catalog::mi250x_cluster(),
        catalog::mi300x_cluster(),
        catalog::gaudi2_cluster(),
    ] {
        let r = Explorer::new(&model, &sys).explore().unwrap();
        assert!(r.speedup() >= 1.0, "{}: {:.2}", sys.name, r.speedup());
        // Larger-HBM platforms admit replication-heavy plans: fewer OOM
        // rejections than on 40 GB A100s.
        if sys.device.hbm_capacity.as_gb() >= 96.0 {
            let zionex_sys = zionex();
            let a100 = Explorer::new(&model, &zionex_sys).explore().unwrap();
            assert!(r.oom <= a100.oom, "{}: {} vs {}", sys.name, r.oom, a100.oom);
        }
    }
}

#[test]
fn insight10_joint_scaling_beats_individual() {
    let model = ModelId::DlrmA.build();
    let points = scaling_study(&model, &zionex(), &Workload::pretrain(), 10.0).unwrap();
    let all = points
        .iter()
        .find(|p| p.axis == ScalingAxis::All)
        .unwrap()
        .speedup;
    for p in points.iter().filter(|p| p.axis != ScalingAxis::All) {
        assert!(
            p.speedup < 10.0,
            "{}: single-axis {:.2} must be sub-linear",
            p.axis,
            p.speedup
        );
        assert!(p.speedup <= all, "{} exceeds all-axes", p.axis);
    }
    assert!(
        all >= 9.5,
        "joint scaling should approach/exceed the factor, got {all:.2}"
    );
}

#[test]
fn fsdp_prefetch_matches_fig9_band() {
    // With prefetching, LLaMA-70B FSDP overlap lands in the 90+% band of
    // the production observation (98% observed / 93% paper model).
    let model = ModelId::Llama2.build();
    let plan = Plan::fsdp_baseline(&model);
    let llm = llm_sys();
    let r = Scenario::new(&model, &llm)
        .plan(plan.clone())
        .run()
        .unwrap();
    assert!(
        r.overlap_fraction() > 0.85,
        "prefetch overlap {:.1}%",
        r.overlap_fraction() * 100.0
    );
    let mut vanilla = plan;
    vanilla.options.fsdp_prefetch = false;
    let v = Scenario::new(&model, &llm).plan(vanilla).run().unwrap();
    assert!(v.overlap_fraction() < r.overlap_fraction());
}
