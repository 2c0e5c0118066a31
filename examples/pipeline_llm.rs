//! Pipeline-parallel LLM pre-training through the unified engine: map a
//! 70B-class model onto the 2048-GPU system with an 8-deep pipeline, sweep
//! the microbatch count, and print the bubble-fraction/throughput curve for
//! both schedules — then let the unified `Explorer` pick the best
//! (pp, microbatches, schedule) on a network-constrained variant of the
//! system. Every simulation goes through `Scenario`; there is no separate
//! pipeline plumbing.
//!
//! ```bash
//! cargo run --release -p madmax-bench --example pipeline_llm
//! ```

use madmax_dse::{Explorer, SearchSpace};
use madmax_engine::Scenario;
use madmax_hw::{catalog, DeviceScaling};
use madmax_model::ModelId;
use madmax_parallel::{PipelineConfig, PipelineSchedule, Plan, Workload};
use madmax_pipeline::gpipe_bubble_fraction;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelId::Llama2.build();
    let system = catalog::llama_llm_system();
    let pp = 8;

    println!("{} on {}, pp={pp}:\n", model.name, system.name);
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "mb", "analytic", "GPipe", "1F1B", "GPipe tok/s", "1F1B tok/s"
    );
    for m in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut row = format!("{m:>6} {:>9.1}%", gpipe_bubble_fraction(pp, m) * 100.0);
        let mut tput = String::new();
        for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
            let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig {
                stages: pp,
                microbatches: m,
                schedule,
            });
            let r = Scenario::new(&model, &system)
                .plan(plan)
                .workload(Workload::pretrain())
                .run()?;
            row.push_str(&format!(
                "{:>11.1}%",
                r.bubble_fraction.unwrap_or(0.0) * 100.0
            ));
            tput.push_str(&format!(" {:>11.0}", r.tokens_per_sec()));
        }
        println!("{row}{tput}");
    }

    // The same entry point runs the flat pp=1 baseline.
    let flat = Scenario::new(&model, &system).run()?;
    println!(
        "\npp=1 FSDP baseline: {:.2} s/iteration ({:.0} tokens/s)",
        flat.iteration_time.as_secs(),
        flat.tokens_per_sec()
    );

    // On a bandwidth-starved scale-out network, the joint search trades
    // FSDP's parameter gathers for pipeline stages.
    let constrained = system.scaled(&DeviceScaling::inter_bw_only(1.0 / 8.0));
    let mut space = SearchSpace::pipeline_for(&constrained);
    if let Some(axes) = space.pipeline.as_mut() {
        axes.microbatches = vec![8, 16, 32, 64];
    }
    let search = Explorer::new(&model, &constrained)
        .workload(Workload::pretrain())
        .space(space)
        .explore()?;
    println!("\nJoint (pp, mb, schedule) search with 8x slower scale-out links:");
    println!(
        "  evaluated:  {} configurations ({} pruned by the bound, {} of them by a family bound, {} OOM)",
        search.evaluated, search.telemetry.pruned, search.telemetry.family_pruned, search.oom
    );
    println!("  winner:     {}", search.best_plan.summary());
    println!(
        "  speedup:    {:.2}x over the pp=1 baseline ({:.2} s -> {:.2} s)",
        search.speedup(),
        search.baseline.iteration_time.as_secs(),
        search.best.iteration_time.as_secs()
    );
    if let Some(b) = search.best.bubble_fraction {
        println!("  bubble:     {:.1}%", b * 100.0);
    }
    Ok(())
}
