//! Golden-file tests for the Perfetto exporter: one flat, one 1F1B, and
//! one serve-decode schedule, each exported and compared byte-for-byte
//! against a committed trace JSON.
//!
//! Regenerate the goldens after an intentional format change with
//! `MADMAX_BLESS=1 cargo test -p madmax-obs --test perfetto`.

use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::{ModelArch, ModelId};
use madmax_obs::ChromeTrace;
use madmax_parallel::{PipelineConfig, Plan, ServeConfig, Workload};

/// Llama2 shrunk to two transformer blocks so the golden traces stay
/// reviewable (a handful of ops instead of thousands).
fn tiny_llama() -> ModelArch {
    let mut model = ModelId::Llama2.build();
    for group in &mut model.groups {
        if group.repeat > 2 {
            group.repeat = 2;
        }
    }
    model
}

fn check_golden(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("MADMAX_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name}: {e}; bless with MADMAX_BLESS=1"));
    assert_eq!(
        rendered, golden,
        "{name} drifted from its golden; if intentional, bless with MADMAX_BLESS=1"
    );
}

/// The structural invariants every exported trace must satisfy — what
/// Perfetto's importer actually needs to lay the timeline out.
fn check_schema(trace: &ChromeTrace) {
    let mut open_flows: Vec<u64> = Vec::new();
    for ev in trace.events() {
        match ev.ph.as_str() {
            "M" => {
                assert!(ev.ts.is_none() && ev.dur.is_none());
                assert!(["process_name", "thread_name", "thread_sort_index"]
                    .contains(&ev.name.as_str()));
            }
            "X" => {
                assert!(ev.ts.unwrap() >= 0.0, "negative timestamp: {ev:?}");
                assert!(ev.dur.unwrap() >= 0.0, "negative duration: {ev:?}");
            }
            "s" => open_flows.push(ev.id.unwrap()),
            "f" => {
                let id = ev.id.unwrap();
                assert_eq!(
                    ev.bp.as_deref(),
                    Some("e"),
                    "f events bind to enclosing slice"
                );
                let at = open_flows.iter().position(|&f| f == id);
                open_flows.remove(at.unwrap_or_else(|| panic!("flow finish {id} without start")));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(open_flows.is_empty(), "unfinished flows: {open_flows:?}");
}

fn export(scenario: &Scenario) -> ChromeTrace {
    let (_, trace, sched) = scenario.run_with_trace().expect("scenario runs");
    ChromeTrace::from_schedule(&trace, &sched)
}

#[test]
fn flat_trace_matches_golden() {
    let model = tiny_llama();
    let sys = catalog::llama_llm_system();
    let scenario = Scenario::new(&model, &sys)
        .plan(Plan::fsdp_baseline(&model))
        .workload(Workload::pretrain());
    let trace = export(&scenario);
    check_schema(&trace);
    check_golden("flat.json", &trace.to_json_string());
}

#[test]
fn one_f_one_b_trace_matches_golden() {
    let model = tiny_llama();
    let sys = catalog::llama_llm_system();
    let scenario = Scenario::new(&model, &sys)
        .plan(Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::one_f_one_b(2, 4)))
        .workload(Workload::pretrain());
    let trace = export(&scenario);
    check_schema(&trace);
    // Pipeline stages land on distinct tracks.
    let tids: std::collections::BTreeSet<u64> = trace
        .events()
        .iter()
        .filter(|e| e.ph == "X")
        .map(|e| e.tid)
        .collect();
    assert!(tids.len() > 3, "expected per-stage tracks, got {tids:?}");
    check_golden("pipeline_1f1b.json", &trace.to_json_string());
}

#[test]
fn serve_decode_trace_matches_golden() {
    let model = tiny_llama();
    let sys = catalog::llama_llm_system();
    let scenario = Scenario::new(&model, &sys)
        .plan(Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(2, 4)))
        .workload(Workload::serve(ServeConfig::new(512, 16)));
    let trace = export(&scenario);
    check_schema(&trace);
    check_golden("serve_decode.json", &trace.to_json_string());
}

#[test]
fn exported_json_parses_and_round_trips() {
    let model = tiny_llama();
    let sys = catalog::llama_llm_system();
    let scenario = Scenario::new(&model, &sys)
        .plan(Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::one_f_one_b(2, 4)))
        .workload(Workload::pretrain());
    let trace = export(&scenario);
    let js = trace.to_json_string();
    // The document is one valid JSON object...
    let value = serde_json::parse_value(&js).expect("trace JSON parses");
    let events = serde::field(value.as_map().expect("trace object"), "traceEvents")
        .expect("traceEvents")
        .as_seq()
        .expect("event array");
    assert_eq!(events.len(), trace.events().len());
    let first = events[0].as_map().expect("event object");
    assert_eq!(
        serde::field(first, "ph").unwrap(),
        &serde::Value::Str("M".into())
    );
    // ...and re-rendering the parsed events reproduces it byte for byte
    // (integral floats parse back as integers and render the same).
    let lines: Vec<String> = events
        .iter()
        .map(|e| format!("  {}", serde_json::to_string(e).unwrap()))
        .collect();
    assert_eq!(
        format!("{{\"traceEvents\": [\n{}\n]}}\n", lines.join(",\n")),
        js
    );
}

#[test]
fn export_is_deterministic() {
    let model = tiny_llama();
    let sys = catalog::llama_llm_system();
    let scenario = Scenario::new(&model, &sys)
        .plan(Plan::fsdp_baseline(&model))
        .workload(Workload::pretrain());
    assert_eq!(
        export(&scenario).to_json_string(),
        export(&scenario).to_json_string()
    );
}
