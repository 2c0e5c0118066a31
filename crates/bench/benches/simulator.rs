//! Criterion micro-benchmarks of the MAD-Max pipeline itself: trace
//! construction + scheduling for representative workloads, demonstrating
//! the "agile" (sub-millisecond) exploration cost the paper claims.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::ModelId;
use madmax_parallel::{Plan, Workload};

fn bench_simulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_iteration");
    for id in [
        ModelId::DlrmA,
        ModelId::DlrmAMoe,
        ModelId::Gpt3,
        ModelId::LlmMoe,
    ] {
        let model = id.build();
        let sys = if id.is_dlrm() {
            catalog::zionex_dlrm_system()
        } else {
            catalog::llama_llm_system()
        };
        let plan = Plan::fsdp_baseline(&model);
        group.bench_function(id.to_string(), |b| {
            b.iter(|| {
                let r = Scenario::new(black_box(&model), black_box(&sys))
                    .plan(black_box(&plan).clone())
                    .workload(Workload::pretrain())
                    .run()
                    .unwrap();
                black_box(r.iteration_time)
            });
        });
    }
    group.finish();
}

fn bench_trace_vs_schedule(c: &mut Criterion) {
    let model = ModelId::Gpt3.build();
    let sys = catalog::llama_llm_system();
    let plan = Plan::fsdp_baseline(&model);
    let sim = Scenario::new(&model, &sys)
        .plan(plan)
        .workload(Workload::pretrain());
    c.bench_function("gpt3_run_with_trace", |b| {
        b.iter(|| black_box(sim.run_with_trace().unwrap()));
    });
    let (_, trace, _) = sim.run_with_trace().unwrap();
    c.bench_function("gpt3_schedule", |b| {
        b.iter(|| black_box(madmax_core::schedule(black_box(&trace))));
    });
}

criterion_group!(benches, bench_simulate, bench_trace_vs_schedule);
criterion_main!(benches);
