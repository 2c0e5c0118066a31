//! Serving a 70B-class LLM through the unified engine: describe the
//! workload with `Workload::serve` (prompt prefill + token-level decode
//! with a KV-cache), read TTFT/TPOT off the report, watch the decode
//! batch trade latency for throughput, and let the unified `Explorer`
//! pick the best (pp, microbatches, decode batch) on a
//! network-constrained variant of the system — where pipelining the
//! decode stream wins. Every simulation goes through `Scenario`; serving
//! is just another workload.
//!
//! ```bash
//! cargo run --release -p madmax-bench --example serve_llm
//! ```

use madmax_dse::{Explorer, PipelineAxes, SearchSpace, ServeAxes};
use madmax_engine::Scenario;
use madmax_hw::{catalog, DeviceScaling};
use madmax_model::ModelId;
use madmax_parallel::{PipelineConfig, PipelineSchedule, Plan, ServeConfig, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelId::Llama2.build();
    let system = catalog::llama_llm_system();

    // 1. One serve scenario: prefill a 1K-token prompt, then decode 128
    //    tokens per sequence for 256 concurrent sequences.
    let workload = Workload::serve(ServeConfig::new(1024, 128).with_decode_batch(256));
    let report = Scenario::new(&model, &system)
        .workload(workload.clone())
        .run()?;
    let stats = report.serve.expect("serve runs report TTFT/TPOT");
    println!("{} on {}, serve ({workload:?}):", model.name, system.name);
    println!("  TTFT:      {:.1} ms (prompt prefill)", stats.ttft.as_ms());
    println!("  TPOT:      {:.2} ms per output token", stats.tpot.as_ms());
    println!(
        "  output:    {:.0} tokens/s across the batch",
        report.serve_tokens_per_sec().unwrap()
    );
    println!(
        "  KV-cache:  {:.1} GB/device at max length",
        report.memory.kv_cache.as_gb()
    );

    // 2. The decode batch trades per-token latency for throughput.
    println!("\nDecode-batch sweep (prompt 1024, decode 128):");
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "batch", "TTFT", "TPOT", "out tokens/s"
    );
    for batch in [64usize, 256, 1024] {
        let w = Workload::serve(ServeConfig::new(1024, 128).with_decode_batch(batch));
        let r = Scenario::new(&model, &system).workload(w).run()?;
        let s = r.serve.unwrap();
        println!(
            "{batch:>8} {:>10.1}ms {:>10.2}ms {:>14.0}",
            s.ttft.as_ms(),
            s.tpot.as_ms(),
            r.serve_tokens_per_sec().unwrap()
        );
    }

    // 3. Pipelined decode: each decode step flows through the stages as a
    //    microbatch unit, so the same entry point compares pp=1 and pp=8.
    let piped_plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(8, 16));
    let piped = Scenario::new(&model, &system)
        .workload(workload)
        .plan(piped_plan)
        .run()?;
    let ps = piped.serve.unwrap();
    println!(
        "\npp=8 GPipe decode: TTFT {:.1} ms, TPOT {:.2} ms, {:.0} tokens/s out",
        ps.ttft.as_ms(),
        ps.tpot.as_ms(),
        piped.serve_tokens_per_sec().unwrap()
    );

    // 4. On a bandwidth-starved scale-out network the serve search picks a
    //    pipelined mapping: stages fetch parameters once and stream decode
    //    units, instead of re-gathering FSDP shards every token.
    let constrained = system.scaled(&DeviceScaling::inter_bw_only(1.0 / 8.0));
    let serve_batches = ServeAxes::batches([128, 256, 512]);
    let flat_space = SearchSpace::strategies()
        .with_classes(vec![madmax_model::LayerClass::Transformer])
        .with_serve(serve_batches.clone());
    let flat_best = Explorer::new(&model, &constrained)
        .workload(Workload::serve(ServeConfig::new(1024, 128)))
        .space(flat_space.clone())
        .explore()?;
    let search = Explorer::new(&model, &constrained)
        .workload(Workload::serve(ServeConfig::new(1024, 128)))
        .space(flat_space.with_pipeline(PipelineAxes {
            stages: vec![1, 2, 4, 8],
            microbatches: vec![8, 16],
            schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
        }))
        .explore()?;
    println!("\nServe DSE with 8x slower scale-out links:");
    println!(
        "  evaluated:  {} (plan x batch) candidates ({} pruned by the bound, {} OOM)",
        search.evaluated, search.telemetry.pruned, search.oom
    );
    println!(
        "  best flat:  {} @ batch {} -> {:.0} tokens/s out",
        flat_best.best_plan.summary(),
        flat_best.best.serve.as_ref().unwrap().decode_batch,
        flat_best.best.serve_tokens_per_sec().unwrap()
    );
    println!(
        "  winner:     {} @ batch {}",
        search.best_plan.summary(),
        search.best.serve.as_ref().unwrap().decode_batch
    );
    println!(
        "  throughput: {:.0} tokens/s out ({:.2}x over the best flat mapping)",
        search.best.serve_tokens_per_sec().unwrap(),
        search.best.serve_tokens_per_sec().unwrap()
            / flat_best.best.serve_tokens_per_sec().unwrap()
    );
    Ok(())
}
