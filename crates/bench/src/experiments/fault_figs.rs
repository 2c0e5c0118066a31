//! Failure-aware goodput scenarios (`fig_fault`): training
//! checkpoint/restart goodput across MTBF and checkpoint-interval
//! grids, the goodput-ranked strategy search demonstrating a
//! plan-choice flip versus the latency ranking, and serving under a
//! materialized fault stream (availability, retries, degraded
//! capacity) on a bursty request process.
//!
//! Where every other figure assumes a fault-free fleet, this experiment
//! prices what failures cost: the closed-form Young/Daly expected
//! goodput (cross-checked against a seeded discrete-event replay), and
//! the continuous-batching simulator with fatal-fault windows dropping
//! in-flight requests.

use madmax_dse::{Explorer, FaultAxes, SearchSpace};
use madmax_engine::{FaultSpec, RetryPolicy, Scenario, SimMode};
use madmax_fault::{expected_goodput, materialize_faults, replay_goodput, young_daly_interval};
use madmax_hw::units::Seconds;
use madmax_hw::{catalog, DeviceScaling};
use madmax_model::ModelId;
use madmax_obs::SearchTelemetry;
use madmax_parallel::{LoadSpec, ServeConfig, Workload};

/// Fleet MTBF ladder, seconds: a day down to five minutes.
const MTBFS: [f64; 5] = [86_400.0, 21_600.0, 3_600.0, 900.0, 300.0];
/// Fixed checkpoint intervals (seconds) swept next to the Young/Daly
/// optimum.
const INTERVALS: [f64; 3] = [60.0, 300.0, 1800.0];
/// Capacity-recovery time per fatal fault, seconds.
const RECOVERY: f64 = 60.0;
/// Replay length for the closed-form cross-check, in checkpoint
/// segments.
const REPLAY_SEGMENTS: usize = 200_000;
/// Documented closed-form vs replay tolerance: the replay measures the
/// goodput fraction over `REPLAY_SEGMENTS` seeded segments, so it
/// carries sampling noise of a few tenths of a percent; 2% (absolute,
/// on the fraction) bounds it with a wide margin.
const REPLAY_TOLERANCE: f64 = 0.02;

/// Renders the fault report: the goodput grids, the plan-flip search,
/// the replay cross-check, and the faulty serve table.
pub fn fig_fault(hooks: &crate::SearchHooks) -> String {
    let mut out = String::new();
    out.push_str("Failure-aware goodput: checkpoint/restart for training, retries for serving\n");
    out.push_str(&"=".repeat(98));
    out.push('\n');

    // ---- Part 1: closed-form goodput vs MTBF x checkpoint interval ----
    let system = catalog::llama_llm_system();
    for id in [ModelId::Llama2, ModelId::Gpt3] {
        let model = id.build();
        let scenario = Scenario::new(&model, &system);
        // One engine run prices the plan; the grid is closed-form.
        let base = match scenario.goodput(&FaultSpec::fatal(MTBFS[0], RECOVERY, 7)) {
            Ok(o) => o,
            Err(e) => {
                out.push_str(&format!("\n{}: [{e}]\n", model.name));
                continue;
            }
        };
        let iter = base.report.iteration_time.as_secs();
        let write = base.ckpt.write.as_secs();
        let restart = base.ckpt.restart.as_secs() + RECOVERY;
        out.push_str(&format!(
            "\n{} on {}: iteration {:.2} s, checkpoint write {:.3} s \
             ({:.2} GB/device), restart {:.2} s\n",
            model.name,
            system.name,
            iter,
            write,
            base.ckpt.state_bytes.as_gb(),
            restart
        ));
        out.push_str(&format!(
            "goodput %        {:>12} {:>12} {:>12} {:>12}\n",
            "Young/Daly", "ckpt@60s", "ckpt@300s", "ckpt@1800s"
        ));
        for mtbf in MTBFS {
            let yd = young_daly_interval(write, mtbf);
            let mut cells = vec![expected_goodput(iter, write, restart, mtbf, yd)];
            cells.extend(
                INTERVALS
                    .iter()
                    .map(|&i| expected_goodput(iter, write, restart, mtbf, i)),
            );
            out.push_str(&format!("MTBF {mtbf:>8.0} s "));
            for g in &cells {
                out.push_str(&format!(" {:>11.2}%", g.goodput_fraction * 100.0));
            }
            out.push('\n');
        }
    }

    // ---- Part 2: closed form vs seeded discrete-event replay ----
    {
        let model = ModelId::Llama2.build();
        let base = Scenario::new(&model, &system)
            .goodput(&FaultSpec::fatal(3600.0, RECOVERY, 7))
            .expect("llama2 goodput prices");
        let g = base.goodput;
        let replayed = replay_goodput(
            g.checkpoint_write,
            g.restart,
            g.mtbf,
            g.interval,
            7,
            REPLAY_SEGMENTS,
        )
        .expect("the Young/Daly point at MTBF 3600 s replays");
        out.push_str(&format!(
            "\n--- replay cross-check: {} at MTBF {:.0} s, Young/Daly interval {:.1} s ---\n\
             closed form {:.3}% | replay {:.3}% over {REPLAY_SEGMENTS} segments | \
             |diff| {:.3}% (tolerance {:.0}%)\n",
            model.name,
            g.mtbf,
            g.interval,
            g.goodput_fraction * 100.0,
            replayed * 100.0,
            (g.goodput_fraction - replayed).abs() * 100.0,
            REPLAY_TOLERANCE * 100.0
        ));
    }

    // ---- Part 3: the plan flip — goodput-ranked strategy search ----
    // On a fabric with a quarter of the inter-node bandwidth, the
    // latency ranking cannot separate the replicated-embedding
    // deployment from the sharded-embedding one (their iteration times
    // tie to the model's precision), so it keeps the fat checkpoint;
    // the goodput ranking flips the choice to the sharded state, with
    // a margin that grows as the MTBF shrinks.
    {
        let model = ModelId::Llama2.build();
        let slow = catalog::llama_llm_system().scaled(&DeviceScaling::inter_bw_only(0.25));
        out.push_str(&format!(
            "\n--- goodput-ranked strategy search: {} on {} (inter-node bw x0.25) ---\n",
            model.name, slow.name
        ));
        out.push_str(&format!(
            "{:>12} {:>44} {:>10} {:>10} {:>9}\n",
            "MTBF s", "goodput-optimal plan", "ckpt s", "margin %", "flip"
        ));
        let explorer = hooks.attach(Explorer::new(&model, &slow).space(SearchSpace::strategies()));
        for mtbf in MTBFS {
            let axes = FaultAxes::new(FaultSpec::fatal(mtbf, RECOVERY, 7));
            match explorer.explore_goodput(&axes) {
                Ok(r) => {
                    hooks.record(&format!("fig_fault/goodput@{mtbf:.0}"), &r.telemetry);
                    let best = r.best();
                    let margin =
                        (r.best_effective_throughput() / r.fault_free().score() - 1.0) * 100.0;
                    out.push_str(&format!(
                        "{mtbf:>12.0} {:>44} {:>10.3} {margin:>10.4} {:>9}\n",
                        best.plan.summary(),
                        best.points.first().map_or(f64::NAN, |p| p.checkpoint_write),
                        if r.plan_flip() { "<- flip" } else { "-" }
                    ));
                    if r.plan_flip() && mtbf == MTBFS[MTBFS.len() - 1] {
                        out.push_str(&format!(
                            "plan flip: latency ranking keeps {} (fat checkpoint); goodput \
                             ranking picks {}\n",
                            r.fault_free().plan.summary(),
                            best.plan.summary()
                        ));
                    }
                }
                Err(e) => out.push_str(&format!("{mtbf:>12.0} [{e}]\n")),
            }
        }
    }

    // ---- Part 4: serving under faults — bursty load, fatal windows ----
    {
        let model = ModelId::Llama2.build();
        let workload = Workload::serve(ServeConfig::new(128, 24).with_decode_batch(4));
        let spec = LoadSpec::bursty(0.4, 20.0, 10.0, 24, 7);
        let scenario = Scenario::new(&model, &system).workload_ref(&workload);
        out.push_str(&format!(
            "\n--- serving under faults: {} on {}, bursty 0.4 req/s (on 20 s / off 10 s), \
             24 requests, retry budget 3 ---\n",
            model.name, system.name
        ));
        out.push_str(&format!(
            "{:>10} {:>8} {:>10} {:>8} {:>8} {:>13} {:>12}\n",
            "MTBF s", "windows", "completed", "retries", "failed", "availability", "TTFT p99"
        ));
        match scenario.price_load(&spec) {
            Ok(costs) => {
                let horizon = madmax_core::steady::grid_units_round(Seconds::new(400.0))
                    .expect("horizon on grid");
                for mtbf in [f64::INFINITY, 240.0, 120.0, 60.0] {
                    let events = if mtbf.is_finite() {
                        materialize_faults(&FaultSpec::fatal(mtbf, 5.0, 3), horizon)
                            .expect("fault stream materializes")
                    } else {
                        Vec::new()
                    };
                    let retry = RetryPolicy::retries(3);
                    match scenario.serve_load_faulty(
                        &spec,
                        &costs,
                        SimMode::Event,
                        &events,
                        &retry,
                        None,
                    ) {
                        Ok(o) => {
                            let t = SearchTelemetry {
                                fault_events: o.trace.faults.len() as u64,
                                ..SearchTelemetry::default()
                            };
                            hooks.record(&format!("fig_fault/serve@{mtbf:.0}"), &t);
                            let r = &o.report;
                            out.push_str(&format!(
                                "{:>10} {:>8} {:>10} {:>8} {:>8} {:>12.1}% {:>10.1} s\n",
                                if mtbf.is_finite() {
                                    format!("{mtbf:.0}")
                                } else {
                                    "none".to_owned()
                                },
                                o.trace.faults.len(),
                                r.completed,
                                r.retries,
                                r.failed,
                                r.availability * 100.0,
                                r.ttft.as_ref().map_or(f64::NAN, |t| t.p99.as_secs())
                            ));
                        }
                        Err(e) => out.push_str(&format!("{mtbf:>10.0} [{e}]\n")),
                    }
                }
            }
            Err(e) => out.push_str(&format!("[{e}]\n")),
        }
    }

    out.push_str(
        "\nReading: goodput falls with the MTBF, and the Young/Daly interval tracks the\n\
         per-plan optimum (too-frequent checkpoints pay the write, too-rare ones replay\n\
         lost work). The latency ranking is blind to checkpoint footprint, so where\n\
         iteration times tie it can keep a replicated (fat-state) deployment; the\n\
         goodput ranking flips the plan to the sharded state, and the margin grows as\n\
         the MTBF shrinks. Under serving faults, availability and tail TTFT degrade\n\
         together: each fatal window drops the in-flight batch, burns retries, and\n\
         stretches the p99 while capacity recovers.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_grids_flip_and_fault_table() {
        let s = fig_fault(&crate::cli::TEST_HOOKS);
        assert!(s.contains("Young/Daly"), "{s}");
        assert!(s.contains("replay cross-check"), "{s}");
        assert!(s.contains("<- flip"), "{s}");
        assert!(s.contains("plan flip: latency ranking keeps"), "{s}");
        assert!(s.contains("availability"), "{s}");
    }

    #[test]
    fn closed_form_matches_replay_within_tolerance() {
        let model = ModelId::Llama2.build();
        let system = catalog::llama_llm_system();
        let base = Scenario::new(&model, &system)
            .goodput(&FaultSpec::fatal(3600.0, RECOVERY, 7))
            .unwrap();
        let g = base.goodput;
        let replayed = replay_goodput(
            g.checkpoint_write,
            g.restart,
            g.mtbf,
            g.interval,
            7,
            REPLAY_SEGMENTS,
        )
        .unwrap();
        assert!(
            (g.goodput_fraction - replayed).abs() < REPLAY_TOLERANCE,
            "closed form {} vs replay {replayed}",
            g.goodput_fraction
        );
    }

    #[test]
    fn faults_degrade_the_serve_stream() {
        let model = ModelId::Llama2.build();
        let system = catalog::llama_llm_system();
        let workload = Workload::serve(ServeConfig::new(128, 24).with_decode_batch(4));
        let spec = LoadSpec::bursty(0.4, 20.0, 10.0, 24, 7);
        let scenario = Scenario::new(&model, &system).workload_ref(&workload);
        let costs = scenario.price_load(&spec).unwrap();
        let horizon = madmax_core::steady::grid_units_round(Seconds::new(400.0)).unwrap();
        let events = materialize_faults(&FaultSpec::fatal(60.0, 5.0, 3), horizon).unwrap();
        assert!(!events.is_empty());
        let retry = RetryPolicy::retries(3);
        let faulty = scenario
            .serve_load_faulty(&spec, &costs, SimMode::Event, &events, &retry, None)
            .unwrap();
        let clean = scenario
            .serve_load_faulty(&spec, &costs, SimMode::Event, &[], &retry, None)
            .unwrap();
        assert!(faulty.report.availability < 1.0);
        assert!(faulty.report.retries > 0);
        assert!((clean.report.availability - 1.0).abs() < f64::EPSILON);
        assert!(faulty.report.makespan.as_secs() >= clean.report.makespan.as_secs());
    }
}
