//! Property-based invariants of serve-mode workloads (prefill +
//! token-level decode), over randomized `ServeConfig`s:
//!
//! - decode traces contain no backward/gradient/optimizer work, in both
//!   engines;
//! - the KV-cache footprint grows monotonically with generated tokens
//!   and participates in the OOM feasibility check;
//! - prefill outweighs any single decode step (compute *and* reported
//!   TTFT vs TPOT);
//! - pipelining the decode stream pays off: the decode bubble shrinks as
//!   the decode batch (microbatch groups in flight) grows;
//! - the closed-form steady-state decode path (`madmax_core::steady`)
//!   produces reports byte-identical to full simulation, across
//!   randomized depths, microbatch counts, decode lengths (spanning the
//!   fallback boundary at `MIN_ANALYTIC_DECODE`), batches, and KV
//!   settings, in both engines — and the one-shot `Scenario::run`
//!   (closed form) matches `Scenario::analytic_serve(false).run()` (full
//!   simulation) on both sides of `MIN_ANALYTIC_DECODE`.

use proptest::prelude::*;

use madmax_core::{OpKind, Phase, StreamId};
use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_hw::units::{ByteCount, Seconds};
use madmax_model::ModelId;
use madmax_parallel::{
    check_memory, memory_per_device, CollectiveKind, PipelineConfig, Plan, PlanError, ServeConfig,
    Workload,
};

proptest! {
    #[test]
    fn decode_traces_have_no_backward_or_gradient_ops(
        prompt in 16usize..1024,
        decode in 1usize..8,
        batch in 64usize..512,
        kv in 0usize..2,
    ) {
        let cfg = ServeConfig {
            prompt_len: Some(prompt),
            decode_len: decode,
            decode_batch: Some(batch),
            kv_cache: kv == 1,
        };
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let workload = Workload::serve(cfg);
        // Flat engine.
        let flat = Scenario::new(&model, &sys)
            .workload(workload.clone())
            .run_with_trace()
            .unwrap()
            .1;
        // Pipelined engine (decode step as the microbatch unit).
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(4, 4));
        let piped = Scenario::new(&model, &sys)
            .workload(workload)
            .plan(plan)
            .run_with_trace()
            .unwrap()
            .1;
        for trace in [&flat, &piped] {
            for op in trace.ops() {
                prop_assert!(
                    matches!(op.phase, Phase::Forward | Phase::Decode),
                    "serve op in phase {:?}",
                    op.phase
                );
                prop_assert!(op.kind != OpKind::Optimizer, "optimizer in serve trace");
                prop_assert!(
                    !matches!(
                        op.kind,
                        OpKind::Collective { kind: CollectiveKind::ReduceScatter }
                    ),
                    "gradient reduce-scatter in serve trace"
                );
                prop_assert!(
                    !matches!(op.stream, StreamId::GradComm | StreamId::StageGradComm(_)),
                    "gradient stream in serve trace"
                );
            }
            prop_assert!(trace.ops().iter().any(|o| o.phase == Phase::Decode));
        }
    }

    #[test]
    fn kv_cache_grows_monotonically_with_generated_tokens(
        prompt in 16usize..2048,
        d1 in 0usize..512,
        extra in 1usize..512,
        batch in 64usize..1024,
    ) {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let kv = |decode: usize| {
            let cfg = ServeConfig {
                prompt_len: Some(prompt),
                decode_len: decode,
                decode_batch: Some(batch),
                kv_cache: true,
            };
            memory_per_device(&model, &sys, &plan, &Workload::serve(cfg)).kv_cache
        };
        let shorter = kv(d1);
        let longer = kv(d1 + extra);
        prop_assert!(shorter > ByteCount::ZERO, "prompt tokens are cached");
        prop_assert!(longer > shorter, "{longer:?} vs {shorter:?}");
        // Linear in the token count: (prompt + d) scales the cache exactly.
        let expected = shorter.value() / (prompt + d1) as f64 * (prompt + d1 + extra) as f64;
        prop_assert!((longer.value() / expected - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prefill_outweighs_any_single_decode_step(
        prompt in 16usize..1024,
        decode in 1usize..8,
        batch in 64usize..512,
        kv in 0usize..2,
    ) {
        let cfg = ServeConfig {
            prompt_len: Some(prompt),
            decode_len: decode,
            decode_batch: Some(batch),
            kv_cache: kv == 1,
        };
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let workload = Workload::serve(cfg);
        let r = Scenario::new(&model, &sys)
            .workload(workload.clone())
            .run()
            .unwrap();
        let stats = r.serve.unwrap();
        prop_assert!(
            stats.ttft >= stats.tpot,
            "TTFT {:?} < TPOT {:?}",
            stats.ttft,
            stats.tpot
        );
        // Duration-level: the prefill's compute-stream time beats every
        // single decode step's compute-stream time (a decode step is a
        // 1-token pass; the prefill covers the whole prompt).
        let trace = Scenario::new(&model, &sys)
            .workload(workload)
            .run_with_trace()
            .unwrap()
            .1;
        let prefill_compute: Seconds = trace
            .ops()
            .iter()
            .filter(|o| o.phase == Phase::Forward && o.stream == StreamId::Compute)
            .map(|o| o.duration)
            .sum();
        for step in 0..cfg.decode_len as u32 {
            let step_compute: Seconds = trace
                .ops()
                .iter()
                .filter(|o| {
                    matches!(
                        &o.name,
                        madmax_core::OpName::DecodeFlat { step: s, .. } if *s == step
                    ) && o.stream == StreamId::Compute
                })
                .map(|o| o.duration)
                .sum();
            prop_assert!(
                prefill_compute >= step_compute,
                "step {step}: {step_compute:?} exceeds prefill {prefill_compute:?}"
            );
        }
    }

    #[test]
    fn analytic_steady_state_reports_are_byte_identical(
        depth_idx in 0usize..3,
        groups_idx in 0usize..3,
        sched_idx in 0usize..2,
        decode in 24usize..96,
        per_group in 16usize..64,
        kv in 0usize..2,
    ) {
        use madmax_core::sim::EngineScratch;
        use madmax_core::steady::MIN_ANALYTIC_DECODE;

        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let p = [2usize, 4, 8][depth_idx];
        let m = [4usize, 8, 16][groups_idx];
        let pipe = if sched_idx == 0 {
            PipelineConfig::gpipe(p, m)
        } else {
            PipelineConfig::one_f_one_b(p, m)
        };
        let cfg = ServeConfig {
            prompt_len: Some(256),
            decode_len: decode,
            decode_batch: Some(per_group * m),
            kv_cache: kv == 1,
        };
        let workload = Workload::serve(cfg);
        let expect_analytic = u64::from(decode >= MIN_ANALYTIC_DECODE);

        // Flat engine: analytic-on vs analytic-off tables must agree
        // byte for byte, and the analytic counter must reflect whether
        // the closed form ran (the fallback boundary is exact).
        let flat_plan = Plan::fsdp_baseline(&model);
        let mut scratch = EngineScratch::new();
        let on = Scenario::new(&model, &sys)
            .workload(workload.clone())
            .plan(flat_plan.clone());
        let table_on = on.price_plans(std::slice::from_ref(&flat_plan));
        let fast = on.costs(&table_on).run_in(&mut scratch).unwrap();
        prop_assert_eq!(table_on.analytic_stats().hits, expect_analytic);
        let off = Scenario::new(&model, &sys)
            .workload(workload.clone())
            .plan(flat_plan.clone())
            .analytic_serve(false);
        let table_off = off.price_plans(std::slice::from_ref(&flat_plan));
        let full = off.costs(&table_off).run_in(&mut scratch).unwrap();
        prop_assert_eq!(table_off.analytic_stats().hits, 0);
        prop_assert_eq!(fast, full);

        // Pipelined engine: same contract per (depth, schedule, groups).
        let piped_plan = Plan::fsdp_baseline(&model).with_pipeline(pipe);
        let on = Scenario::new(&model, &sys)
            .workload(workload.clone())
            .plan(piped_plan.clone());
        let table_on = on.price_pipeline_plans(std::slice::from_ref(&piped_plan));
        let fast = on.pipeline_costs(&table_on).run_in(&mut scratch).unwrap();
        prop_assert_eq!(table_on.analytic_stats().hits, expect_analytic);
        let off = Scenario::new(&model, &sys)
            .workload(workload)
            .plan(piped_plan.clone())
            .analytic_serve(false);
        let table_off = off.price_pipeline_plans(std::slice::from_ref(&piped_plan));
        let full = off.pipeline_costs(&table_off).run_in(&mut scratch).unwrap();
        prop_assert_eq!(table_off.analytic_stats().hits, 0);
        prop_assert_eq!(fast, full);
    }

    #[test]
    fn scenario_run_is_byte_identical_to_full_simulation(
        pipelined in 0usize..2,
        decode in 24usize..44,
        per_group in 8usize..48,
        kv in 0usize..2,
    ) {
        use madmax_core::steady::MIN_ANALYTIC_DECODE;

        // The one-shot front door takes the closed form for long decodes
        // (`decode` spans MIN_ANALYTIC_DECODE); full simulation is the
        // reference on both engines.
        prop_assert!((25..44).contains(&MIN_ANALYTIC_DECODE), "the decode range must straddle it");
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let base = Plan::fsdp_baseline(&model);
        let plan = if pipelined == 1 {
            base.with_pipeline(PipelineConfig::gpipe(4, 4))
        } else {
            base
        };
        let workload = Workload::serve(ServeConfig {
            prompt_len: Some(256),
            decode_len: decode,
            decode_batch: Some(per_group * 4),
            kv_cache: kv == 1,
        });
        let scenario = Scenario::new(&model, &sys)
            .workload_ref(&workload)
            .plan_ref(&plan);
        let closed = scenario.run().unwrap();
        let full = Scenario::new(&model, &sys)
            .workload_ref(&workload)
            .plan_ref(&plan)
            .analytic_serve(false)
            .run()
            .unwrap();
        prop_assert_eq!(&closed, &full);
        // The traced run always assembles every decode step and agrees.
        let (traced, trace, sched) = scenario.run_with_trace().unwrap();
        prop_assert_eq!(&traced, &full);
        prop_assert_eq!(trace.len(), sched.windows.len());
        let decode_ops = trace.ops().iter().filter(|o| o.phase == Phase::Decode).count();
        prop_assert!(decode_ops >= decode, "{decode_ops} decode ops for {decode} steps");
    }

    #[test]
    fn pipelined_decode_bubble_shrinks_as_the_decode_batch_grows(
        prompt in 64usize..1024,
        decode in 4usize..12,
        kv in 0usize..2,
    ) {
        // Growing the serving batch with a fixed per-group size puts more
        // microbatch groups in flight, hiding the autoregressive
        // round-trip: the decode bubble (stage idle share) shrinks.
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let per_group = 64usize;
        let bubble = |groups: usize| {
            let cfg = ServeConfig {
                prompt_len: Some(prompt),
                decode_len: decode,
                decode_batch: Some(per_group * groups),
                kv_cache: kv == 1,
            };
            let plan = Plan::fsdp_baseline(&model)
                .with_pipeline(PipelineConfig::gpipe(4, groups));
            Scenario::new(&model, &sys)
                .workload(Workload::serve(cfg))
                .plan(plan)
                .run()
                .unwrap()
                .bubble_fraction
                .unwrap()
        };
        let small = bubble(2);
        let large = bubble(8);
        prop_assert!(
            large < small + 1e-9,
            "bubble grew with the decode batch: {small} -> {large}"
        );
    }
}

#[test]
fn kv_cache_is_part_of_the_oom_check() {
    // A mapping that fits without the KV-cache can OOM once the cache is
    // modeled: same plan, same batch, only `kv_cache` flipped.
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let plan = Plan::fsdp_baseline(&model);
    // An absurdly long decode stream at a large serving batch: the cache
    // alone exceeds usable HBM.
    let base = ServeConfig {
        prompt_len: Some(2048),
        decode_len: 4_000_000,
        decode_batch: Some(model.global_batch * 8),
        kv_cache: true,
    };
    let with_kv = check_memory(&model, &sys, &plan, &Workload::serve(base));
    assert!(
        matches!(with_kv, Err(PlanError::OutOfMemory { .. })),
        "{with_kv:?}"
    );
    let without = check_memory(
        &model,
        &sys,
        &plan,
        &Workload::serve(ServeConfig {
            kv_cache: false,
            ..base
        }),
    )
    .unwrap();
    assert_eq!(without.kv_cache, ByteCount::ZERO);
    // And the engines surface it as the unified OOM error.
    let err = Scenario::new(&model, &sys)
        .workload(Workload::serve(base))
        .run()
        .unwrap_err();
    assert!(err.is_oom(), "{err}");
}
