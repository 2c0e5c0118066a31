//! Equivalence suite for the unified engine API.
//!
//! PR 2 pinned `Scenario` byte-for-byte against the legacy `Simulation` /
//! `PipelineSimulation` front doors, and PR 4 pinned the `Workload`
//! redesign against the legacy `Task` shims; both shim generations have
//! now been removed after their deprecation releases, and the absolute
//! behavior they pinned is carried by `tests/paper_validation.rs` /
//! `tests/insights.rs` (expected values predating every refactor, still
//! passing unchanged) plus the legacy-inference shape pin below.
//!
//! This file pins the evaluation fast paths the same way, one layer down:
//!
//! - the prefill-only serve workload ([`Workload::inference`]) is
//!   byte-for-byte the explicit prompt/batch serve configuration — the
//!   engine shape the removed `Task::Inference` mapped onto, so every
//!   historical inference figure is unchanged;
//! - the allocation-free cached paths — the flat `CostTable` *and* the
//!   pipeline `PipelineCostTable` — reproduce `Scenario::run` exactly
//!   (success and error shapes), across the model zoo, both pipeline
//!   schedules, training and serve workloads, with one shared scratch;
//! - the closed-form gate's hit/miss counters follow one contract in
//!   both engines, for training, prefill-only and serve runs;
//! - a shared `PipelineCostTable` reused across randomized
//!   `(microbatches, schedule, decode batch)` candidates matches fresh
//!   pricing (property test);
//! - the parallel explorer returns the identical winner at any thread
//!   count.

use proptest::prelude::*;

use madmax_dse::{Explorer, PipelineAxes, SearchSpace, ServeAxes};
use madmax_engine::{EngineScratch, Scenario};
use madmax_hw::catalog;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{
    HierStrategy, PipelineConfig, PipelineSchedule, Plan, ServeConfig, Strategy, Workload,
};

fn system_for(id: ModelId) -> madmax_hw::ClusterSpec {
    if id.is_dlrm() {
        catalog::zionex_dlrm_system()
    } else {
        catalog::llama_llm_system()
    }
}

#[test]
fn legacy_inference_is_the_prefill_only_serve_workload() {
    // Workload::inference() == a prefill-only serve with the model's own
    // context/batch; an *explicit* prompt override equal to the model
    // context produces identical numbers through the effective-model
    // path. This is the engine shape the removed Task::Inference shim
    // mapped onto.
    for id in [ModelId::DlrmA, ModelId::Gpt3, ModelId::Llama2] {
        let model = id.build();
        let sys = system_for(id);
        let plan = Plan::fsdp_baseline(&model);
        let implicit = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .workload(Workload::inference())
            .run()
            .unwrap();
        let explicit = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .workload(Workload::serve(ServeConfig {
                prompt_len: Some(model.context_length),
                decode_len: 0,
                decode_batch: Some(model.global_batch),
                kv_cache: false,
            }))
            .run()
            .unwrap();
        assert_eq!(implicit, explicit, "{id}: explicit prompt/batch differ");
        assert!(implicit.serve.is_none(), "{id}: prefill-only has no stats");
        assert_eq!(
            serde_json::to_string(&implicit).unwrap(),
            serde_json::to_string(&explicit).unwrap(),
            "{id}: serialized inference reports differ"
        );
    }
}

#[test]
fn parallel_explorer_is_deterministic() {
    // The parallel explorer returns the identical winner (plan and
    // report, bit for bit) to a forced single-threaded run — for a flat,
    // a joint pipeline, and a serve space.
    let model = ModelId::DlrmA.build();
    let sys = catalog::zionex_dlrm_system();
    let seq = Explorer::new(&model, &sys).threads(1).explore().unwrap();
    for threads in [2usize, 4, 8] {
        let par = Explorer::new(&model, &sys)
            .threads(threads)
            .explore()
            .unwrap();
        assert_eq!(seq.best_plan, par.best_plan, "threads={threads}");
        assert_eq!(seq.best, par.best, "threads={threads}");
        assert_eq!(seq.baseline, par.baseline, "threads={threads}");
        assert_eq!(
            (seq.evaluated, seq.oom, seq.unmappable, seq.invalid),
            (par.evaluated, par.oom, par.unmappable, par.invalid),
            "threads={threads}"
        );
    }

    let llm = ModelId::Llama2.build();
    let llm_sys = catalog::llama_llm_system();
    let space = SearchSpace::default().with_pipeline(PipelineAxes {
        stages: vec![1, 2, 4, 8],
        microbatches: vec![8, 16],
        schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
    });
    let seq = Explorer::new(&llm, &llm_sys)
        .space(space.clone())
        .threads(1)
        .explore()
        .unwrap();
    let par = Explorer::new(&llm, &llm_sys)
        .space(space)
        .threads(8)
        .explore()
        .unwrap();
    assert_eq!(seq.best_plan, par.best_plan);
    assert_eq!(seq.best, par.best);

    let serve_space = SearchSpace::default()
        .with_serve(ServeAxes::batches([256, 512]))
        .with_pipeline(PipelineAxes {
            stages: vec![1, 8],
            microbatches: vec![8],
            schedules: vec![PipelineSchedule::GPipe],
        });
    let workload = Workload::serve(ServeConfig::new(512, 16));
    let seq = Explorer::new(&llm, &llm_sys)
        .workload(workload.clone())
        .space(serve_space.clone())
        .threads(1)
        .explore()
        .unwrap();
    let par = Explorer::new(&llm, &llm_sys)
        .workload(workload)
        .space(serve_space)
        .threads(8)
        .explore()
        .unwrap();
    assert_eq!(seq.best_plan, par.best_plan);
    assert_eq!(seq.best_workload, par.best_workload);
    assert_eq!(seq.best, par.best);
}

#[test]
fn telemetry_instrumentation_never_perturbs_reports() {
    // Turning the telemetry layer on — evaluating through
    // `evaluate_with_telemetry` instead of `evaluate`, with a live
    // progress sink attached — must leave every report byte-identical to
    // the quiet path. The counters observe the search; they must never
    // steer it.
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug, Default)]
    struct CountingSink {
        events: AtomicU64,
    }
    impl madmax_dse::ProgressSink for CountingSink {
        fn candidate_completed(&self, _event: &madmax_dse::CandidateEvent) {
            self.events.fetch_add(1, Ordering::Relaxed);
        }
    }

    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let space = SearchSpace::strategies()
        .with_classes(vec![LayerClass::Transformer])
        .with_pipeline(PipelineAxes {
            stages: vec![1, 4],
            microbatches: vec![16],
            schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
        });
    let quiet = Explorer::new(&model, &sys).space(space.clone());
    let plans = quiet.candidates();
    let baseline_results = quiet.evaluate(&plans);

    let sink = CountingSink::default();
    let loud = Explorer::new(&model, &sys).space(space).progress(&sink);
    let (results, telemetry) = loud.evaluate_with_telemetry(&Workload::pretrain(), &plans);
    assert_eq!(results.len(), baseline_results.len());
    for (i, (a, b)) in results.iter().zip(&baseline_results).enumerate() {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "plan {i}");
                assert_eq!(
                    serde_json::to_string(a).unwrap(),
                    serde_json::to_string(b).unwrap(),
                    "plan {i}: serialized reports differ under telemetry"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "plan {i}"),
            (a, b) => panic!("plan {i}: divergent outcomes {a:?} vs {b:?}"),
        }
    }
    assert!(telemetry.reconciles(), "telemetry: {telemetry:?}");
    assert_eq!(telemetry.candidates as usize, plans.len());
    assert_eq!(sink.events.load(Ordering::Relaxed) as usize, plans.len());
}

#[test]
fn progress_sink_preserves_thread_count_determinism() {
    // The 1-vs-N-thread determinism pin holds with a shared ProgressSink
    // attached to every run: the sink sees the same number of candidate
    // events per run regardless of thread count, and the winner stays bit
    // for bit identical.
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug, Default)]
    struct CountingSink {
        events: AtomicU64,
        finished: AtomicU64,
    }
    impl madmax_dse::ProgressSink for CountingSink {
        fn candidate_completed(&self, _event: &madmax_dse::CandidateEvent) {
            self.events.fetch_add(1, Ordering::Relaxed);
        }
        fn search_finished(&self, _telemetry: &madmax_dse::SearchTelemetry) {
            self.finished.fetch_add(1, Ordering::Relaxed);
        }
    }

    let model = ModelId::DlrmA.build();
    let sys = catalog::zionex_dlrm_system();
    let sink = CountingSink::default();
    let seq = Explorer::new(&model, &sys)
        .threads(1)
        .progress(&sink)
        .explore()
        .unwrap();
    let seq_events = sink.events.swap(0, Ordering::Relaxed);
    assert!(seq_events > 0);
    for threads in [2usize, 4] {
        let par = Explorer::new(&model, &sys)
            .threads(threads)
            .progress(&sink)
            .explore()
            .unwrap();
        assert_eq!(seq.best_plan, par.best_plan, "threads={threads}");
        assert_eq!(seq.best, par.best, "threads={threads}");
        assert_eq!(
            seq.telemetry.candidates, par.telemetry.candidates,
            "threads={threads}"
        );
        assert!(par.telemetry.reconciles(), "threads={threads}");
        assert_eq!(
            sink.events.swap(0, Ordering::Relaxed),
            seq_events,
            "threads={threads}: sink saw a different number of candidates"
        );
    }
    assert_eq!(sink.finished.load(Ordering::Relaxed), 3);
}

#[test]
fn cached_fast_path_is_byte_identical_across_the_zoo() {
    // The allocation-free evaluation paths (shared CostTable /
    // PipelineCostTable + recycled EngineScratch) must reproduce
    // `Scenario::run`'s reports bit for bit — success AND error shapes —
    // for flat and pipelined plans, training and serve workloads. One
    // scratch is reused across every model and plan, so any state leaking
    // between candidates through the arena or the pipeline memo would
    // show up here.
    let mut scratch = EngineScratch::new();
    for id in ModelId::ALL {
        let model = id.build();
        let sys = system_for(id);
        let base = Plan::fsdp_baseline(&model);
        let mut plans = vec![
            base.clone(),
            // A strategy variant exercising two-level assignments (OOM for
            // some models — errors must match too).
            base.clone().with_strategy(
                LayerClass::Dense,
                HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
            ),
        ];
        // Pipelined plans route run_in through the stage engine — both
        // schedules at one (depth, microbatch) key, so the serve memo's
        // schedule collapse is exercised against fresh runs.
        for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
            let mut piped = base.clone().with_pipeline(PipelineConfig {
                stages: 4,
                microbatches: 16,
                schedule,
            });
            piped.options.ignore_memory_limits = true;
            plans.push(piped);
        }

        for workload in [
            Workload::pretrain(),
            Workload::inference(),
            Workload::serve(ServeConfig::new(256, 8)),
            // Long enough decode for the closed-form steady-state path,
            // which both runs take by default (the full-simulation
            // reference is `analytic_serve_toggle_is_report_invisible_
            // across_the_zoo`).
            Workload::serve(ServeConfig::new(256, 48)),
        ] {
            for plan in &plans {
                let scenario = Scenario::new(&model, &sys).workload_ref(&workload);
                let table = scenario.price_plans(std::slice::from_ref(plan));
                let pp_table = scenario.price_pipeline_plans(std::slice::from_ref(plan));
                let cached = Scenario::new(&model, &sys)
                    .workload_ref(&workload)
                    .plan_ref(plan)
                    .costs(&table)
                    .pipeline_costs(&pp_table)
                    .run_in(&mut scratch);
                let uncached = Scenario::new(&model, &sys)
                    .workload_ref(&workload)
                    .plan_ref(plan)
                    .run();
                match (cached, uncached) {
                    (Ok(c), Ok(u)) => {
                        assert_eq!(c, u, "{id} {workload} {}", plan.summary());
                        assert_eq!(
                            serde_json::to_string(&c).unwrap(),
                            serde_json::to_string(&u).unwrap(),
                            "{id} {workload} {}: serialized reports differ",
                            plan.summary()
                        );
                    }
                    (Err(c), Err(u)) => {
                        assert_eq!(c, u, "{id} {workload} {}: errors differ", plan.summary());
                    }
                    (c, u) => panic!("{id} {workload}: divergent outcomes {c:?} vs {u:?}"),
                }
            }
        }
    }
}

#[test]
fn analytic_serve_toggle_is_report_invisible_across_the_zoo() {
    // `Scenario::analytic_serve(false)` opts serve evaluation out of the
    // closed-form steady-state decode path; flipping it must never change
    // a report, for any model in the zoo, flat or pipelined, under either
    // pipeline schedule. The analytic counters prove both sides ran the
    // path they claim, in one contract for both engines: the `on` table
    // synthesizes exactly one report per evaluation whenever the model
    // decodes and the schedule fits the exact grid range (LLM-MoE's
    // multi-thousand-second serve spans exceed it and legitimately fall
    // back, one miss), the `off` table records exactly one miss per serve
    // evaluation, and training, prefill-only and failed runs record
    // neither a hit nor a miss.
    let mut scratch = EngineScratch::new();
    let workloads = [
        Workload::pretrain(),
        Workload::inference(),
        Workload::serve(ServeConfig::new(256, 64)),
    ];
    for id in ModelId::ALL {
        let model = id.build();
        let sys = system_for(id);
        let base = Plan::fsdp_baseline(&model);
        let mut plans = vec![base.clone()];
        for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
            let mut piped = base.clone().with_pipeline(PipelineConfig {
                stages: 4,
                microbatches: 8,
                schedule,
            });
            piped.options.ignore_memory_limits = true;
            plans.push(piped);
        }
        for (workload, plan) in workloads
            .iter()
            .flat_map(|w| plans.iter().map(move |p| (w, p)))
        {
            let ctx = format!("{id} {workload} {}", plan.summary());
            let decodes = workload.decode_model(&model).is_some();
            let on = Scenario::new(&model, &sys)
                .workload_ref(workload)
                .plan_ref(plan);
            let on_table = on.price_plans(std::slice::from_ref(plan));
            let on_pp = on.price_pipeline_plans(std::slice::from_ref(plan));
            let fast = on
                .costs(&on_table)
                .pipeline_costs(&on_pp)
                .run_in(&mut scratch);
            let off = Scenario::new(&model, &sys)
                .workload_ref(workload)
                .plan_ref(plan)
                .analytic_serve(false);
            let off_table = off.price_plans(std::slice::from_ref(plan));
            let off_pp = off.price_pipeline_plans(std::slice::from_ref(plan));
            let full = off
                .costs(&off_table)
                .pipeline_costs(&off_pp)
                .run_in(&mut scratch);
            // (hits, misses) of the closed-form gate, over both engines.
            let on_gate = [on_table.analytic_stats(), on_pp.analytic_stats()];
            let off_gate = [off_table.analytic_stats(), off_pp.analytic_stats()];
            let sum = |g: [madmax_core::CacheStats; 2]| {
                (g[0].hits + g[1].hits, g[0].misses + g[1].misses)
            };
            match (fast, full) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{ctx}");
                    let in_range = madmax_core::steady::fits_grid_range(b.iteration_time)
                        && madmax_core::steady::fits_grid_range(b.serialized_time);
                    let closed = decodes && in_range;
                    assert_eq!(
                        sum(on_gate),
                        (u64::from(closed), u64::from(decodes && !closed)),
                        "{ctx}: analytic path engagement"
                    );
                    assert_eq!(
                        sum(off_gate),
                        (0, u64::from(decodes)),
                        "{ctx}: opted-out gate"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{ctx}: errors differ");
                    assert_eq!(sum(on_gate), (0, 0), "{ctx}: failed run reached the gate");
                    assert_eq!(sum(off_gate), (0, 0), "{ctx}: failed run reached the gate");
                }
                (a, b) => panic!("{ctx}: divergent outcomes {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn serve_report_memo_is_shared_across_schedules_and_scratches() {
    // The report memo lives on the `PipelineCostTable`, not the worker
    // scratch: whichever worker evaluates a (depth, assignment,
    // microbatches) entry first saves every other worker the assembly,
    // and a serve decode stream is schedule-independent, so the
    // GPipe/1F1B pair of a joint search shares one entry. Evaluate the pair through one table with two
    // separate scratches (distinct workers) and watch the counters.
    let model = ModelId::Llama2.build();
    let sys = system_for(ModelId::Llama2);
    let workload = Workload::serve(ServeConfig::new(512, 64).with_decode_batch(512));
    let base = Plan::fsdp_baseline(&model);
    let plans = [
        base.clone().with_pipeline(PipelineConfig::gpipe(4, 8)),
        base.with_pipeline(PipelineConfig::one_f_one_b(4, 8)),
    ];
    let pricer = Scenario::new(&model, &sys)
        .workload_ref(&workload)
        .plan_ref(&plans[0]);
    let table = pricer.price_pipeline_plans(&plans);

    let mut scratch_a = EngineScratch::new();
    let gpipe = Scenario::new(&model, &sys)
        .workload_ref(&workload)
        .plan_ref(&plans[0])
        .pipeline_costs(&table)
        .run_in(&mut scratch_a)
        .unwrap();
    let first = table.memo_stats();
    assert_eq!((first.hits, first.misses), (0, 1), "first evaluation");

    let mut scratch_b = EngineScratch::new();
    let one_f_one_b = Scenario::new(&model, &sys)
        .workload_ref(&workload)
        .plan_ref(&plans[1])
        .pipeline_costs(&table)
        .run_in(&mut scratch_b)
        .unwrap();
    let second = table.memo_stats();
    assert_eq!(
        (second.hits, second.misses),
        (1, 1),
        "the other schedule from a different scratch is a memo hit"
    );
    assert_eq!(gpipe, one_f_one_b, "memoized report is byte-identical");

    // Re-evaluating either candidate stays a hit; the table never
    // reassembles a key it has seen.
    Scenario::new(&model, &sys)
        .workload_ref(&workload)
        .plan_ref(&plans[0])
        .pipeline_costs(&table)
        .run_in(&mut scratch_b)
        .unwrap();
    let third = table.memo_stats();
    assert_eq!((third.hits, third.misses), (2, 1), "revisit");

    // Training traces depend on the schedule: the pair never touches the
    // memo, and each schedule still matches a fresh run.
    let train = Workload::pretrain();
    let table = pricer.workload_ref(&train).price_pipeline_plans(&plans);
    for plan in &plans {
        let scenario = || {
            Scenario::new(&model, &sys)
                .workload_ref(&train)
                .plan_ref(plan)
        };
        let cached = scenario()
            .pipeline_costs(&table)
            .run_in(&mut scratch_a)
            .unwrap();
        assert_eq!(cached, scenario().run().unwrap(), "{}", plan.summary());
    }
    let trained = table.memo_stats();
    assert_eq!((trained.hits, trained.misses), (0, 0), "training memo");
}

#[test]
fn shared_pipeline_table_matches_fresh_runs_across_keys() {
    // One PipelineCostTable shared across every (depth, microbatch,
    // schedule) candidate of a search — for training and serve workloads,
    // at 1 and N threads through the explorer — returns exactly what
    // one-off `Scenario::run` calls produce, plan for plan.
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    for workload in [
        Workload::pretrain(),
        Workload::serve(ServeConfig::new(512, 8).with_decode_batch(512)),
    ] {
        let mut plans = Vec::new();
        for p in [2usize, 4, 8] {
            for m in [8usize, 16] {
                for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
                    let mut plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig {
                        stages: p,
                        microbatches: m,
                        schedule,
                    });
                    plan.options.ignore_memory_limits = true;
                    plans.push(plan);
                }
            }
        }
        let fresh: Vec<_> = plans
            .iter()
            .map(|p| {
                Scenario::new(&model, &sys)
                    .plan_ref(p)
                    .workload_ref(&workload)
                    .run()
            })
            .collect();
        for threads in [1usize, 4] {
            let results = Explorer::new(&model, &sys)
                .workload(workload.clone())
                .threads(threads)
                .evaluate(&plans);
            assert_eq!(results.len(), fresh.len());
            for (i, (a, b)) in results.iter().zip(&fresh).enumerate() {
                match (a, b) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "threads={threads} plan {i}"),
                    (Err(a), Err(b)) => assert_eq!(a, b, "threads={threads} plan {i}"),
                    (a, b) => panic!("threads={threads} plan {i}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

#[test]
fn explorer_fast_path_matches_fresh_scenarios_at_any_thread_count() {
    // `Explorer::evaluate` (shared cost tables, per-worker scratch,
    // borrow-based scenarios) must return exactly what one-off
    // `Scenario::run` calls produce, plan for plan, at 1 and N threads —
    // including over a joint space that mixes flat and pipelined
    // candidates.
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let space = SearchSpace::strategies()
        .with_classes(vec![LayerClass::Transformer])
        .with_pipeline(PipelineAxes {
            stages: vec![1, 8],
            microbatches: vec![16],
            schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
        });
    let explorer = Explorer::new(&model, &sys).space(space);
    let plans = explorer.candidates();
    let fresh: Vec<_> = plans
        .iter()
        .map(|p| {
            Scenario::new(&model, &sys)
                .plan_ref(p)
                .workload(Workload::pretrain())
                .run()
        })
        .collect();
    for threads in [1usize, 4] {
        let results = Explorer::new(&model, &sys)
            .space(
                SearchSpace::strategies()
                    .with_classes(vec![LayerClass::Transformer])
                    .with_pipeline(PipelineAxes {
                        stages: vec![1, 8],
                        microbatches: vec![16],
                        schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
                    }),
            )
            .threads(threads)
            .evaluate(&plans);
        assert_eq!(results.len(), fresh.len());
        for (i, (a, b)) in results.iter().zip(&fresh).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "threads={threads} plan {i}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "threads={threads} plan {i}"),
                (a, b) => panic!("threads={threads} plan {i}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn op_names_render_todays_exact_strings() {
    // The structured OpName must reproduce the historical string names
    // exactly, on real traces from both engines — plus the serve trace's
    // decode names.
    let dlrm = ModelId::DlrmA.build();
    let dlrm_sys = catalog::zionex_dlrm_system();
    let trace = Scenario::new(&dlrm, &dlrm_sys).run_with_trace().unwrap().1;
    let names: Vec<String> = trace.ops().iter().map(|o| o.name.to_string()).collect();
    for expected in [
        "fwd.embedding_tables.lookup",
        "fwd.embedding_tables.a2a",
        "fwd.bottom_mlp.ag",
        "fwd.bottom_mlp",
        "bwd.top_mlp.ag_bwd",
        "bwd.embedding_tables.a2a_bwd",
        "bwd.embedding_tables.grad_scatter",
        "update.optimizer",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }

    let llm = ModelId::Gpt3.build();
    let llm_sys = catalog::llama_llm_system();
    let trace = Scenario::new(&llm, &llm_sys).run_with_trace().unwrap().1;
    let names: Vec<String> = trace.ops().iter().map(|o| o.name.to_string()).collect();
    for expected in [
        "fwd[0].transformer_blocks",
        "fwd[95].transformer_blocks.ag",
        "bwd[95].transformer_blocks.rs",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }

    let plan = Plan::fsdp_baseline(&llm).with_pipeline(PipelineConfig::gpipe(8, 16));
    let trace = Scenario::new(&llm, &llm_sys)
        .plan(plan.clone())
        .run_with_trace()
        .unwrap()
        .1;
    let names: Vec<String> = trace.ops().iter().map(|o| o.name.to_string()).collect();
    for expected in [
        "stage0.param.AllGather",
        "stage0.fwd[0]",
        "stage0.send_act[0]",
        "stage7.bwd[15]",
        "stage1.send_grad[3]",
        "stage0.grad.ReduceScatter",
        "stage0.optimizer",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }

    // Serve traces: flat decode names and pipelined decode-stream names.
    let serve = Workload::serve(ServeConfig::new(512, 2));
    let trace = Scenario::new(&llm, &llm_sys)
        .workload(serve.clone())
        .run_with_trace()
        .unwrap()
        .1;
    let names: Vec<String> = trace.ops().iter().map(|o| o.name.to_string()).collect();
    for expected in [
        "dec[0].word_embedding.lookup",
        "dec[0][0].transformer_blocks",
        "dec[1][95].transformer_blocks",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }
    let trace = Scenario::new(&llm, &llm_sys)
        .workload(serve)
        .plan(plan)
        .run_with_trace()
        .unwrap()
        .1;
    let names: Vec<String> = trace.ops().iter().map(|o| o.name.to_string()).collect();
    for expected in ["stage0.dec[0]", "stage7.dec[31]", "stage0.send_tok[31]"] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }
}

#[test]
fn unified_error_reports_one_shape_for_both_engines() {
    // Flat OOM and pipeline OOM both surface as EngineError::OutOfMemory;
    // unmappable pipelines surface as InvalidPlan — no more matching on
    // two simulators' error conventions.
    let model = ModelId::Gpt3.build();
    let sys = catalog::llama_llm_system();

    let flat_oom = Scenario::new(&model, &sys)
        .plan(Plan::fsdp_baseline(&model).with_strategy(
            madmax_model::LayerClass::Transformer,
            madmax_parallel::HierStrategy::flat(madmax_parallel::Strategy::Ddp),
        ))
        .run()
        .unwrap_err();
    assert!(flat_oom.is_oom());

    let unmappable = Scenario::new(&model, &sys)
        .plan(Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(7, 8)))
        .run()
        .unwrap_err();
    assert!(unmappable.is_unmappable_pipeline());
    assert!(!unmappable.is_oom());
}

proptest! {
    /// One shared `PipelineCostTable` reused across randomized
    /// `(microbatches, schedule, decode batch)` candidates matches fresh
    /// (uncached) pricing bit for bit — through one recycled scratch, so
    /// the memo can never serve a stale report.
    #[test]
    fn shared_pipeline_table_matches_fresh_pricing(
        m_idx in 0usize..4,
        schedule_tag in 0usize..2,
        batch_idx in 0usize..3,
        depth_idx in 0usize..3,
        decode_len in 1usize..6,
    ) {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let microbatches = [2usize, 4, 8, 16][m_idx];
        let decode_batch = [64usize, 256, 512][batch_idx];
        let stages = [2usize, 4, 8][depth_idx];
        let schedule = [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB][schedule_tag];
        let workload = Workload::serve(
            ServeConfig::new(256, decode_len).with_decode_batch(decode_batch),
        );
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig {
            stages,
            microbatches,
            schedule,
        });
        // The shared table also covers the sibling schedule's candidate,
        // so the (depth, assignment, m) entry is genuinely reused.
        let sibling = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig {
            stages,
            microbatches,
            schedule: match schedule {
                PipelineSchedule::GPipe => PipelineSchedule::OneFOneB,
                PipelineSchedule::OneFOneB => PipelineSchedule::GPipe,
            },
        });
        let scenario = Scenario::new(&model, &sys).workload_ref(&workload);
        let table = scenario.price_pipeline_plans(&[sibling.clone(), plan.clone()]);
        let mut scratch = EngineScratch::new();
        for candidate in [&sibling, &plan, &sibling] {
            let cached = Scenario::new(&model, &sys)
                .workload_ref(&workload)
                .plan_ref(candidate)
                .pipeline_costs(&table)
                .run_in(&mut scratch);
            let fresh = Scenario::new(&model, &sys)
                .workload_ref(&workload)
                .plan_ref(candidate)
                .run();
            match (cached, fresh) {
                (Ok(c), Ok(u)) => prop_assert_eq!(c, u),
                (Err(c), Err(u)) => prop_assert_eq!(c, u),
                (c, u) => prop_assert!(false, "divergent outcomes {:?} vs {:?}", c, u),
            }
        }
    }
}

#[test]
fn absent_fault_spec_leaves_the_load_path_byte_identical() {
    // The fault-aware entry point with an empty event stream must be a
    // pure pass-through: same report, same trace records, in both
    // simulation modes. This is the no-`FaultSpec` byte-identity
    // guarantee — fault plumbing costs nothing when inactive.
    use madmax_engine::{RetryPolicy, SimMode};
    use madmax_parallel::LoadSpec;

    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let workload = Workload::serve(ServeConfig::new(256, 32).with_decode_batch(8));
    let scenario = Scenario::new(&model, &sys).workload_ref(&workload);
    for spec in [
        LoadSpec::poisson(0.1, 16, 7),
        LoadSpec::bursty(0.3, 15.0, 5.0, 16, 7),
    ] {
        let costs = scenario.price_load(&spec).unwrap();
        for mode in [SimMode::Event, SimMode::PerToken] {
            let plain = scenario
                .serve_load_priced(&spec, &costs, mode, None)
                .unwrap();
            let faulty = scenario
                .serve_load_faulty(&spec, &costs, mode, &[], &RetryPolicy::default(), None)
                .unwrap();
            assert_eq!(plain.report.requests, faulty.report.requests);
            assert_eq!(plain.report.makespan, faulty.report.makespan);
            assert_eq!(plain.report.ttft, faulty.report.ttft);
            assert_eq!(plain.trace.records, faulty.trace.records);
            assert_eq!(plain.trace.runs, faulty.trace.runs);
            assert!(faulty.trace.faults.is_empty());
        }
    }
}
