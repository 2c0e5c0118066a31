//! Serve-mode scenarios (`fig_serve`): TTFT/TPOT sweeps over prompt and
//! decode lengths for the LLM zoo, flat vs pipelined decode, plus a
//! serve-mode design-space search (pipeline axes x decode batch) on a
//! bandwidth-constrained fabric.
//!
//! This is the inference half of the paper opened up by the `Workload`
//! API: a serve run is a compute-bound prefill followed by
//! bandwidth-bound autoregressive decode steps reading a growing
//! KV-cache, and the pipeline engine treats each decode step as a
//! microbatch unit so pp hides inter-stage latency across the token
//! stream.

use madmax_dse::{Explorer, PipelineAxes, SearchSpace, ServeAxes};
use madmax_engine::Scenario;
use madmax_hw::{catalog, ClusterSpec, DeviceScaling};
use madmax_model::{ModelArch, ModelId};
use madmax_parallel::{PipelineConfig, PipelineSchedule, Plan, ServeConfig, Workload};

const PROMPTS: [usize; 2] = [512, 2048];
const DECODES: [usize; 2] = [64, 256];
const DECODE_BATCH: usize = 256;

fn serve_row(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> Result<(f64, f64, f64), String> {
    match Scenario::new(model, system)
        .plan_ref(plan)
        .workload_ref(workload)
        .run()
    {
        Ok(r) => {
            let s = r.serve.as_ref().expect("decode run has serve stats");
            Ok((
                s.ttft.as_ms(),
                s.tpot.as_ms(),
                r.serve_tokens_per_sec().unwrap_or(0.0),
            ))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Renders the serve-mode report: the (prompt x decode) latency sweep for
/// the LLM zoo over the hardware catalog's LLM systems, and the joint
/// (pipeline x decode-batch) search on a bandwidth-constrained fabric.
pub fn fig_serve(hooks: &crate::SearchHooks) -> String {
    let mut out = String::new();
    out.push_str("Serve-mode scenarios: prefill + token-level decode (Workload::serve)\n");
    out.push_str(&"=".repeat(98));
    out.push('\n');

    // ---- Part 1: TTFT/TPOT sweep, flat vs pipelined decode ----
    let systems: Vec<(String, ClusterSpec)> = vec![
        (
            catalog::llama_llm_system().name.clone(),
            catalog::llama_llm_system(),
        ),
        (
            "H100 SuperPod x16".to_owned(),
            catalog::h100_superpod_cluster(16),
        ),
    ];
    for (sys_name, system) in &systems {
        out.push_str(&format!(
            "\n--- {sys_name}: decode batch {DECODE_BATCH}, pp=1 (FSDP baseline) vs pp=8 mb=16 GPipe ---\n"
        ));
        for id in [ModelId::Llama, ModelId::Llama2, ModelId::Gpt3] {
            let model = id.build();
            let flat = Plan::fsdp_baseline(&model);
            let piped = flat.clone().with_pipeline(PipelineConfig::gpipe(8, 16));
            out.push_str(&format!("\n{}:\n", model.name));
            out.push_str(&format!(
                "{:>8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14}\n",
                "prompt",
                "decode",
                "TTFT pp1",
                "TTFT pp8",
                "TPOT pp1",
                "TPOT pp8",
                "tok/s pp1",
                "tok/s pp8"
            ));
            for prompt in PROMPTS {
                for decode in DECODES {
                    let workload = Workload::serve(
                        ServeConfig::new(prompt, decode).with_decode_batch(DECODE_BATCH),
                    );
                    let a = serve_row(&model, system, &flat, &workload);
                    let b = serve_row(&model, system, &piped, &workload);
                    match (a, b) {
                        (Ok((t1, p1, s1)), Ok((t8, p8, s8))) => {
                            out.push_str(&format!(
                                "{prompt:>8} {decode:>8} {t1:>10.1}ms {t8:>10.1}ms \
                                 {p1:>10.2}ms {p8:>10.2}ms {s1:>14.0} {s8:>14.0}\n"
                            ));
                        }
                        (a, b) => {
                            let msg = a.err().or(b.err()).unwrap_or_default();
                            out.push_str(&format!("{prompt:>8} {decode:>8}  [{msg}]\n"));
                        }
                    }
                }
            }
        }
    }

    // ---- Part 2: serve-mode DSE on a bandwidth-constrained fabric ----
    let model = ModelId::Llama2.build();
    let slow = catalog::llama_llm_system().scaled(&DeviceScaling::inter_bw_only(1.0 / 8.0));
    out.push_str(&format!(
        "\n--- Serve-mode DSE: {} on {} with 1/8 inter-node bandwidth ---\n",
        model.name, slow.name
    ));
    let workload = Workload::serve(ServeConfig::new(1024, 128));
    // The pp=1 reference is the *best flat mapping* (per-class strategies
    // and decode batch searched), not just the FSDP baseline — FSDP
    // re-gathers its shards every decode step and is a strawman for
    // serving.
    let flat_space = SearchSpace::strategies()
        .with_classes(vec![madmax_model::LayerClass::Transformer])
        .with_serve(ServeAxes::batches([128, 256, 512]));
    let flat = hooks
        .attach(
            Explorer::new(&model, &slow)
                .workload(workload.clone())
                .space(flat_space.clone()),
        )
        .explore()
        .expect("baseline serve mapping is feasible");
    hooks.record("fig_serve/flat", &flat.telemetry);
    let full_space = flat_space.with_pipeline(PipelineAxes {
        stages: vec![1, 2, 4, 8],
        microbatches: vec![8, 16],
        schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
    });
    let r = hooks
        .attach(
            Explorer::new(&model, &slow)
                .workload(workload)
                .space(full_space),
        )
        .explore()
        .expect("baseline serve mapping is feasible");
    hooks.record("fig_serve/joint", &r.telemetry);
    let best_stats = r.best.serve.as_ref().expect("serve winner has stats");
    out.push_str(&format!(
        "evaluated {} (plan x batch) candidates ({} OOM, {} unmappable)\n",
        r.evaluated, r.oom, r.unmappable
    ));
    out.push_str(&format!(
        "best flat (pp=1): {} @ batch {} -> {:.0} tokens/s out\n",
        flat.best_plan.summary(),
        flat.best.serve.as_ref().map_or(0, |s| s.decode_batch),
        flat.best.serve_tokens_per_sec().unwrap_or(0.0),
    ));
    let flat_tps = flat.best.serve_tokens_per_sec().unwrap_or(f64::MIN);
    let best_tps = r.best.serve_tokens_per_sec().unwrap_or(0.0);
    out.push_str(&format!(
        "best overall: {} @ batch {} -> {:.0} tokens/s out ({:.2}x over best flat), \
         TTFT {:.1} ms, TPOT {:.2} ms\n",
        r.best_plan.summary(),
        best_stats.decode_batch,
        best_tps,
        best_tps / flat_tps,
        best_stats.ttft.as_ms(),
        best_stats.tpot.as_ms(),
    ));
    out.push_str(&format!(
        "pipelined decode beats pp=1: {}\n",
        if r.pipeline_won() && best_tps > flat_tps {
            "yes"
        } else {
            "no"
        }
    ));

    out.push_str(
        "\nReading: prefill is compute-bound (TTFT tracks prompt length); decode is\n\
         bandwidth-bound (TPOT grows with the KV position and with parameter traffic).\n\
         The flat engine re-gathers FSDP shards every decode step — sharded weights are\n\
         not resident — while pipeline stages fetch their parameters once and then\n\
         stream decode units through, so on bandwidth-constrained fabrics pipelined\n\
         decode wins by hiding inter-stage latency across the token stream.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_dse_finds_pipelined_decode_on_constrained_fabric() {
        // The acceptance criterion: on a bandwidth-constrained system in
        // the catalog, the serve search's winner is pipelined.
        let model = ModelId::Llama2.build();
        let slow = catalog::llama_llm_system().scaled(&DeviceScaling::inter_bw_only(1.0 / 8.0));
        let r = Explorer::new(&model, &slow)
            .workload(Workload::serve(ServeConfig::new(1024, 64)))
            .space(
                SearchSpace::default()
                    .with_pipeline(PipelineAxes {
                        stages: vec![1, 8],
                        microbatches: vec![16],
                        schedules: vec![PipelineSchedule::GPipe],
                    })
                    .with_serve(ServeAxes::batches([256])),
            )
            .explore()
            .unwrap();
        assert!(r.pipeline_won(), "winner: {}", r.best_plan.summary());
        assert!(r.speedup() > 1.05, "speedup {:.3}", r.speedup());
    }

    #[test]
    fn report_renders_ttft_tpot_columns() {
        let s = fig_serve(&crate::cli::TEST_HOOKS);
        assert!(s.contains("TTFT pp1") && s.contains("TPOT pp8"));
        assert!(s.contains("Serve-mode DSE"));
        assert!(s.contains("pipelined decode beats pp=1: yes"));
    }
}
