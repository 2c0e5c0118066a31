//! Continuous-batching load scenarios (`fig_serve_load`): arrival-rate
//! sweeps over the LLM zoo — TTFT/TPOT percentile curves as offered
//! load rises from idle to saturation — plus the SLO-constrained
//! goodput search (`Explorer::explore_load`) producing the
//! latency-vs-throughput frontier of the winning deployment.
//!
//! Where `fig_serve` prices one synchronized (prefill, decode) wave,
//! this experiment drives the event-driven request-stream simulator
//! (`madmax-serve`): seeded Poisson arrivals, in-flight batching with
//! requests joining as others finish, and a paged KV budget.

use madmax_dse::{Explorer, LoadAxes, PipelineAxes, SearchSpace};
use madmax_engine::{Scenario, SimMode};
use madmax_hw::units::Seconds;
use madmax_hw::{catalog, ClusterSpec};
use madmax_model::{ModelArch, ModelId};
use madmax_parallel::{LoadSpec, PipelineSchedule, ServeConfig, Workload};
use madmax_serve::LoadReport;

const RATES: [f64; 5] = [0.01, 0.02, 0.05, 0.1, 0.5];
const REQUESTS: usize = 24;
const SEED: u64 = 2024;
const PROMPT: usize = 256;
const DECODE: usize = 64;
const BATCH: usize = 8;
/// p99 time-to-first-token SLO for the goodput search, seconds.
const SLO_TTFT_P99: f64 = 60.0;

fn load_row(model: &ModelArch, system: &ClusterSpec, rate: f64) -> Result<LoadReport, String> {
    let workload = Workload::serve(ServeConfig::new(PROMPT, DECODE).with_decode_batch(BATCH));
    let spec = LoadSpec::poisson(rate, REQUESTS, SEED).with_kv_blocks(4096);
    let scenario = Scenario::new(model, system).workload_ref(&workload);
    let costs = scenario.price_load(&spec).map_err(|e| e.to_string())?;
    scenario
        .serve_load_priced(&spec, &costs, SimMode::Event, None)
        .map(|o| o.report)
        .map_err(|e| e.to_string())
}

/// Renders the load report: per-model arrival-rate sweeps and the
/// SLO-constrained goodput search with its frontier.
pub fn fig_serve_load(hooks: &crate::SearchHooks) -> String {
    let mut out = String::new();
    out.push_str("Continuous-batching load: Poisson request streams through in-flight batching\n");
    out.push_str(&"=".repeat(98));
    out.push('\n');

    // ---- Part 1: arrival-rate sweep over the LLM zoo ----
    let system = catalog::llama_llm_system();
    for id in [ModelId::Llama, ModelId::Llama2, ModelId::Gpt3] {
        let model = id.build();
        out.push_str(&format!(
            "\n{} on {}: prompt {PROMPT}, decode {DECODE}, {BATCH} slots, \
             {REQUESTS} requests, 4096 KV blocks\n",
            model.name, system.name
        ));
        out.push_str(&format!(
            "{:>10} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}\n",
            "req/s", "TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99", "tok/s", "max queue"
        ));
        for rate in RATES {
            match load_row(&model, &system, rate) {
                Ok(r) => {
                    let (t, p) = (r.ttft, r.tpot);
                    out.push_str(&format!(
                        "{rate:>10.3} {:>10.1}ms {:>10.1}ms {:>10.2}ms {:>10.2}ms \
                         {:>10.1} {:>10}\n",
                        t.map_or(f64::NAN, |x| x.p50.as_ms()),
                        t.map_or(f64::NAN, |x| x.p99.as_ms()),
                        p.map_or(f64::NAN, |x| x.p50.as_ms()),
                        p.map_or(f64::NAN, |x| x.p99.as_ms()),
                        r.tokens_per_sec,
                        r.max_queue_depth
                    ));
                }
                Err(e) => out.push_str(&format!("{rate:>10.3}  [{e}]\n")),
            }
        }
    }

    // ---- Part 2: SLO-constrained goodput search ----
    let model = ModelId::Llama2.build();
    out.push_str(&format!(
        "\n--- SLO goodput search: {} on {}, p99 TTFT <= {SLO_TTFT_P99:.0} s ---\n",
        model.name, system.name
    ));
    let axes = LoadAxes::new(
        LoadSpec::poisson(RATES[0], REQUESTS, SEED).with_kv_blocks(4096),
        RATES,
    )
    .with_slo_ttft_p99(Seconds::new(SLO_TTFT_P99));
    let explorer = hooks.attach(
        Explorer::new(&model, &system)
            .workload(Workload::serve(
                ServeConfig::new(PROMPT, DECODE).with_decode_batch(BATCH),
            ))
            .space(SearchSpace::default().with_pipeline(PipelineAxes {
                stages: vec![1, 2, 4, 8],
                microbatches: vec![8],
                schedules: vec![PipelineSchedule::GPipe],
            })),
    );
    match explorer.explore_load(&axes) {
        Ok(r) => {
            hooks.record("fig_serve_load/search", &r.telemetry);
            out.push_str(&format!(
                "{} candidates, {} load simulations\n",
                r.candidates.len(),
                r.evaluated
            ));
            let best = r.best();
            out.push_str(&format!("winner: {}\n", best.plan.summary()));
            match best.best_point {
                Some(i) => {
                    let p = &best.points[i];
                    out.push_str(&format!(
                        "best feasible point: {:.3} req/s -> {:.1} tokens/s goodput\n",
                        p.rate, p.report.tokens_per_sec
                    ));
                }
                None => out.push_str("no rate meets the SLO at any candidate\n"),
            }
            out.push_str("frontier:  req/s     tokens/s   TTFT p99 (s)   feasible\n");
            for point in &best.points {
                out.push_str(&format!(
                    "          {:>6.3} {:>12.1} {:>14.3} {:>10}\n",
                    point.rate,
                    point.report.tokens_per_sec,
                    point.report.ttft.map_or(f64::NAN, |t| t.p99.as_secs()),
                    if point.feasible { "yes" } else { "no" }
                ));
            }
        }
        Err(e) => out.push_str(&format!("[{e}]\n")),
    }

    out.push_str(
        "\nReading: at low offered load TTFT sits at one prefill and throughput scales\n\
         with the arrival rate; past saturation the admission queue grows, tail TTFT\n\
         explodes while tokens/s plateaus, and the SLO cuts the frontier at the last\n\
         rate whose p99 TTFT stays under the bound. Pipelined deployments shift the\n\
         frontier by trading prefill latency against decode throughput.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_sweep_and_frontier() {
        let s = fig_serve_load(&crate::cli::TEST_HOOKS);
        assert!(s.contains("TTFT p99"), "{s}");
        assert!(s.contains("SLO goodput search"), "{s}");
        assert!(s.contains("frontier:"), "{s}");
        assert!(s.contains("winner:"), "{s}");
    }

    #[test]
    fn saturation_raises_tail_ttft() {
        let model = ModelId::Llama2.build();
        let system = catalog::llama_llm_system();
        let idle = load_row(&model, &system, RATES[0]).unwrap();
        let slam = load_row(&model, &system, *RATES.last().unwrap()).unwrap();
        let (i, s) = (idle.ttft.unwrap(), slam.ttft.unwrap());
        assert!(s.p99 > i.p99, "idle {:?} vs saturated {:?}", i.p99, s.p99);
        assert!(slam.tokens_per_sec >= idle.tokens_per_sec);
    }
}
