//! Cross-crate end-to-end tests: JSON config round trips driving the full
//! pipeline, determinism, and consistency between the simulator's views.

use madmax_core::config::{ExperimentSpec, SimulationConfig};
use madmax_core::StreamId;
use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{HierStrategy, Plan, ServeConfig, Strategy, Workload};

/// Runs `plan` on `workload` through the engine's front door.
fn run_plan(
    model: &madmax_model::ModelArch,
    system: &madmax_hw::ClusterSpec,
    plan: &Plan,
    workload: Workload,
) -> Result<madmax_core::IterationReport, madmax_engine::EngineError> {
    Scenario::new(model, system)
        .plan_ref(plan)
        .workload(workload)
        .run()
}

/// Loads the three files [`SimulationConfig::write_split`] wrote to `dir`.
fn load_split(dir: &std::path::Path) -> SimulationConfig {
    SimulationConfig::from_json_files(
        dir.join("model.json"),
        dir.join("system.json"),
        dir.join("experiment.json"),
    )
    .unwrap()
}

#[test]
fn json_round_trip_preserves_simulation_results() {
    for id in [ModelId::DlrmA, ModelId::Gpt3, ModelId::LlmMoe] {
        let model = id.build();
        let system = if id.is_dlrm() {
            catalog::zionex_dlrm_system()
        } else {
            catalog::llama_llm_system()
        };
        let plan = Plan::fsdp_baseline(&model);
        let direct = run_plan(&model, &system, &plan, Workload::pretrain()).unwrap();

        let cfg = SimulationConfig {
            model,
            system,
            experiment: ExperimentSpec {
                workload: Workload::pretrain(),
                plan,
            },
        };
        let dir =
            std::env::temp_dir().join(format!("madmax-round-trip-{id}-{}", std::process::id()));
        cfg.write_split(&dir).unwrap();
        let loaded = load_split(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let reloaded = run_plan(
            &loaded.model,
            &loaded.system,
            &loaded.experiment.plan,
            loaded.experiment.workload,
        )
        .unwrap();
        assert_eq!(direct, reloaded, "{id}: config round trip changed results");
    }
}

/// Every malformed external input, through both JSON readers (the
/// `--config-dir` configs and the `--arrival-trace` JSONL), is an error
/// value, never a panic or a stack overflow.
#[test]
fn malformed_inputs_are_errors_not_panics() {
    let model = ModelId::Llama2.build();
    let cfg = SimulationConfig {
        experiment: ExperimentSpec {
            workload: Workload::pretrain(),
            plan: Plan::fsdp_baseline(&model),
        },
        model,
        system: catalog::llama_llm_system(),
    };
    let valid = format!(
        "{{\"model\": {}, \"system\": {}, \"experiment\": {}}}",
        serde_json::to_string_pretty(&cfg.model).unwrap(),
        serde_json::to_string_pretty(&cfg.system).unwrap(),
        serde_json::to_string_pretty(&cfg.experiment).unwrap(),
    );
    assert_eq!(SimulationConfig::from_json(&valid).unwrap(), cfg);
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let edit = |from: &str, to: &str| {
        let edited = valid.replacen(from, to, 1);
        assert_ne!(edited, valid, "substitution {from} must have applied");
        edited
    };
    // Each case is (name, input, text the error message must contain).
    let config_cases = [
        (
            "truncated",
            valid[..valid.len() / 2].to_owned(),
            "JSON parse error",
        ),
        (
            "wrong type",
            edit("\"heads\": 64", "\"heads\": \"64\""),
            "usize",
        ),
        (
            "negative count",
            edit("\"repeat\": 80", "\"repeat\": -80"),
            "usize",
        ),
        (
            "fractional count",
            edit("\"repeat\": 80", "\"repeat\": 80.5"),
            "usize",
        ),
        (
            "legacy task",
            edit("\"workload\": \"Pretrain\"", "\"task\": \"Pretraining\""),
            "workload",
        ),
        (
            "depth 128",
            nested(128),
            "expected map for SimulationConfig",
        ),
        ("depth 129", nested(129), "nesting deeper than 128"),
        ("depth 200000", nested(200_000), "nesting deeper than 128"),
    ];
    for (case, input, expected) in &config_cases {
        let err = SimulationConfig::from_json(input).unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, madmax_core::config::ConfigError::Parse(_)),
            "{case}: {msg}"
        );
        assert!(msg.contains(expected), "{case}: {msg}");
    }
    // Well-formed JSON with values no model or system can have.
    let hbm_bw = "\"hbm_bw\": 1935000000000";
    let invalid_cases = [
        (
            "negative bandwidth",
            edit(hbm_bw, "\"hbm_bw\": -5"),
            "hbm_bw = -5 ",
        ),
        (
            "zero bandwidth",
            edit(hbm_bw, "\"hbm_bw\": 0"),
            "hbm_bw = 0 ",
        ),
        (
            "infinite bandwidth",
            edit(hbm_bw, "\"hbm_bw\": 1e999"),
            "hbm_bw = inf ",
        ),
        (
            "zero utilization",
            edit("\"compute\": 0.7", "\"compute\": 0"),
            "`compute` = 0 outside (0, 1]",
        ),
        (
            "zero repeat",
            edit("\"repeat\": 80", "\"repeat\": 0"),
            "repeat must be positive",
        ),
        (
            "zero nodes",
            edit("\"num_nodes\": 256", "\"num_nodes\": 0"),
            "num_nodes must be positive",
        ),
        (
            "zero devices per node",
            edit("\"devices_per_node\": 8", "\"devices_per_node\": 0"),
            "devices_per_node must be positive",
        ),
    ];
    for (case, input, expected) in &invalid_cases {
        let err = SimulationConfig::from_json(input).unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, madmax_core::config::ConfigError::Invalid(_)),
            "{case}: {msg}"
        );
        assert!(msg.contains(expected), "{case}: {msg}");
    }
    let line = r#"{"arrival": 0.5, "prompt_len": 12, "decode_len": 4}"#;
    assert_eq!(madmax_serve::parse_request_jsonl(line).unwrap().len(), 1);
    let trace_cases = [
        (
            "truncated",
            line[..line.len() / 2].to_owned(),
            "JSON parse error",
        ),
        ("wrong type", line.replace("12", "\"12\""), "usize"),
        ("negative count", line.replace("4}", "-4}"), "usize"),
        ("fractional count", line.replace("12", "12.5"), "usize"),
        (
            "missing field",
            line.replace(", \"decode_len\": 4", ""),
            "missing field",
        ),
        ("depth 128", nested(128), "expected map for RequestSpec"),
        ("depth 129", nested(129), "nesting deeper than 128"),
    ];
    for (case, input, expected) in &trace_cases {
        let err = madmax_serve::parse_request_jsonl(&format!("{line}\n{input}")).unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, madmax_serve::LoadError::Spec(_)),
            "{case}: {msg}"
        );
        assert!(
            msg.contains("trace line 2") && msg.contains(expected),
            "{case}: {msg}"
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let model = ModelId::DlrmATransformer.build();
    let sys = catalog::zionex_dlrm_system();
    let plan = Plan::fsdp_baseline(&model);
    let a = run_plan(&model, &sys, &plan, Workload::pretrain()).unwrap();
    let b = run_plan(&model, &sys, &plan, Workload::pretrain()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn schedule_respects_dependencies_and_stream_order() {
    let model = ModelId::DlrmA.build();
    let sys = catalog::zionex_dlrm_system();
    let plan = Plan::fsdp_baseline(&model);
    let (_, trace, sched) = Scenario::new(&model, &sys)
        .plan(plan)
        .run_with_trace()
        .unwrap();

    // Every dependency finishes before its dependent starts.
    for (i, op) in trace.ops().iter().enumerate() {
        for dep in &op.deps {
            assert!(
                sched.windows[dep.0].finish <= sched.windows[i].start,
                "{} starts before {} finishes",
                op.name,
                trace.ops()[dep.0].name
            );
        }
        // Durations are non-negative and windows are consistent.
        assert!(sched.windows[i].finish >= sched.windows[i].start);
    }

    // Within each stream, ops run in issue order without overlap.
    for stream in [StreamId::Compute, StreamId::Comm, StreamId::GradComm] {
        let mut last_finish = None;
        for (id, _) in trace.stream_ops(stream) {
            let w = sched.windows[id.0];
            if let Some(lf) = last_finish {
                assert!(w.start >= lf, "stream {stream:?} overlaps itself");
            }
            last_finish = Some(w.finish);
        }
    }
}

#[test]
fn accounting_identities_hold_across_suite() {
    for id in ModelId::ALL {
        let model = id.build();
        let sys = if id.is_dlrm() {
            catalog::zionex_dlrm_system()
        } else {
            catalog::llama_llm_system()
        };
        let plan = Plan::fsdp_baseline(&model);
        for task in [Workload::pretrain(), Workload::inference()] {
            let r = run_plan(&model, &sys, &plan, task).unwrap();
            // Serialized >= overlapped; exposed <= total comm; category sums
            // match totals.
            assert!(r.serialized_time >= r.iteration_time, "{id}");
            assert!(
                r.exposed_comm <= r.comm_time + madmax_hw::Seconds::from_us(1.0),
                "{id}"
            );
            let comm_sum: madmax_hw::Seconds = r.comm_by_collective.values().copied().sum();
            assert!(
                (comm_sum.as_secs() - r.comm_time.as_secs()).abs() < 1e-9,
                "{id}"
            );
            let serial_sum = r.compute_time() + r.comm_time;
            assert!(
                (serial_sum.as_secs() - r.serialized_time.as_secs()).abs() < 1e-9,
                "{id}: {} vs {}",
                serial_sum,
                r.serialized_time
            );
            assert!(r.samples_per_sec() > 0.0);
        }
    }
}

#[test]
fn more_nodes_increase_throughput_but_sublinearly_for_dlrm() {
    let model = ModelId::DlrmA.build();
    let mut throughputs = Vec::new();
    for nodes in [4usize, 8, 16] {
        let sys = catalog::zionex_dlrm_system().with_num_nodes(nodes);
        let mut scaled = model.clone();
        scaled.global_batch = 512 * sys.total_devices();
        let mut plan = Plan::fsdp_baseline(&scaled);
        plan.options.ignore_memory_limits = true; // isolate network scaling
        let r = run_plan(&scaled, &sys, &plan, Workload::pretrain()).unwrap();
        throughputs.push(r.samples_per_sec());
    }
    assert!(throughputs[1] > throughputs[0]);
    assert!(throughputs[2] > throughputs[1]);
    // Scaling efficiency below 100%: All2All spans slower links as nodes
    // grow.
    let eff = throughputs[2] / throughputs[0] / 4.0;
    assert!(eff < 1.0, "efficiency {eff:.2}");
}

#[test]
fn collective_dtype_halves_fsdp_traffic() {
    let model = ModelId::DlrmA.build();
    let sys = catalog::zionex_dlrm_system();
    let mut plan = Plan::fsdp_baseline(&model);
    plan.options.collective_dtype = madmax_hw::DType::Bf16;
    let bf16 = run_plan(&model, &sys, &plan, Workload::pretrain()).unwrap();
    plan.options.collective_dtype = madmax_hw::DType::Fp32;
    let fp32 = run_plan(&model, &sys, &plan, Workload::pretrain()).unwrap();
    // FSDP AllGather/ReduceScatter payloads double at fp32 on the wire;
    // All2All (activation) payloads are unchanged.
    let ag16 = bf16.comm_by_collective[&madmax_parallel::CollectiveKind::AllGather];
    let ag32 = fp32.comm_by_collective[&madmax_parallel::CollectiveKind::AllGather];
    assert!((ag32.as_secs() / ag16.as_secs() - 2.0).abs() < 0.01);
    let a2a16 = bf16.comm_by_collective[&madmax_parallel::CollectiveKind::AllToAll];
    let a2a32 = fp32.comm_by_collective[&madmax_parallel::CollectiveKind::AllToAll];
    assert!((a2a32.as_secs() - a2a16.as_secs()).abs() < 1e-12);
}

#[test]
fn single_node_dlrm_has_no_internode_bottleneck() {
    let model = ModelId::DlrmB.build();
    let one = catalog::zionex_dlrm_system().with_num_nodes(1);
    let sixteen = catalog::zionex_dlrm_system();
    let mut m1 = model.clone();
    m1.global_batch = 2048 * 8;
    let mut plan = Plan::fsdp_baseline(&m1);
    plan.options.ignore_memory_limits = true;
    let r1 = run_plan(&m1, &one, &plan, Workload::pretrain()).unwrap();
    let r16 = run_plan(
        &model,
        &sixteen,
        &Plan::fsdp_baseline(&model),
        Workload::pretrain(),
    )
    .unwrap();
    // Same per-device batch, but the single node exchanges embeddings over
    // NVLink only: faster per-iteration comm.
    assert!(r1.comm_time < r16.comm_time);
}

#[test]
fn moe_expert_parallelism_creates_blocking_a2a() {
    let model = ModelId::LlmMoe.build();
    let sys = catalog::llama_llm_system();
    let plan = Plan::fsdp_baseline(&model)
        .with_strategy(LayerClass::Moe, HierStrategy::flat(Strategy::Shard));
    let r = run_plan(&model, &sys, &plan, Workload::pretrain()).unwrap();
    let a2a = r.comm_by_collective[&madmax_parallel::CollectiveKind::AllToAll];
    assert!(a2a.as_secs() > 0.0);
    // MoE A2A is on the critical path: some of it must be exposed.
    let exposed_a2a = r.exposed_by_collective[&madmax_parallel::CollectiveKind::AllToAll];
    assert!(exposed_a2a.as_secs() > 0.0);
}

/// Runs the `madmax` CLI, failing the test instead of hanging when it
/// does not finish within a minute.
fn madmax(args: &[&str]) -> std::process::Output {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_madmax"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("madmax binary starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("madmax is waitable").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("`madmax {}` did not finish within 60 s", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("madmax output")
}

#[test]
fn cli_rejects_zero_decode_batch_and_prompt() {
    // The zero value replaces the serve shape's own (a flag may be given
    // only once).
    for (shape, flag, field) in [
        ("--prompt 512 --decode 16", "--decode-batch", "decode_batch"),
        ("--decode 16", "--prompt", "prompt_len"),
    ] {
        let value = "0";
        let mut args = vec![
            "simulate", "--model", "llama2", "--system", "llama", "--task", "serve",
        ];
        args.extend(shape.split_whitespace());
        args.extend([flag, value]);
        let out = madmax(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} must fail: {stderr}");
        assert!(stderr.contains(field), "{stderr}");
    }
}

#[test]
fn cli_rejects_a_serve_shape_overflowing_the_kv_cache() {
    let decode = usize::MAX.to_string();
    let out = madmax(&[
        "simulate", "--model", "llama2", "--system", "llama", "--task", "serve", "--prompt", "256",
        "--decode", &decode,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("overflows the KV-cache length"), "{stderr}");
}

#[test]
fn cli_rejects_non_finite_or_non_positive_slos() {
    let load = "--model llama2 --system llama --task serve --prompt 256 --decode 16 \
                --arrival-rate 0.1 --arrival-count 4 --slo-ttft-p99";
    for command in ["simulate", "search"] {
        for slo in ["nan", "inf", "0", "-5"] {
            let mut args = vec![command];
            args.extend(load.split_whitespace());
            args.push(slo);
            let out = madmax(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {slo}: {stderr}");
            assert!(stderr.contains("--slo-ttft-p99"), "{stderr}");
            assert!(stderr.contains("finite and positive"), "{stderr}");
            assert!(out.stdout.is_empty(), "{command} {slo}: nothing runs");
        }
    }
}

#[test]
fn json_configs_with_zero_decode_batch_or_prompt_are_rejected() {
    let model = ModelId::Llama2.build();
    let cfg = SimulationConfig {
        experiment: ExperimentSpec {
            workload: Workload::serve(ServeConfig::new(512, 16).with_decode_batch(8)),
            plan: Plan::fsdp_baseline(&model),
        },
        model,
        system: catalog::llama_llm_system(),
    };
    let json = serde_json::to_string_pretty(&cfg.experiment).unwrap();
    for (from, to, field) in [
        ("\"decode_batch\": 8", "\"decode_batch\": 0", "decode_batch"),
        ("\"prompt_len\": 512", "\"prompt_len\": 0", "prompt_len"),
    ] {
        let edited = json.replace(from, to);
        assert_ne!(edited, json, "substitution must have applied");
        let dir = std::env::temp_dir().join(format!("madmax-zero-{field}-{}", std::process::id()));
        cfg.write_split(&dir).unwrap();
        std::fs::write(dir.join("experiment.json"), edited).unwrap();
        let loaded = load_split(&dir);
        let err = run_plan(
            &loaded.model,
            &loaded.system,
            &loaded.experiment.plan,
            loaded.experiment.workload.clone(),
        )
        .unwrap_err();
        assert!(
            matches!(err, madmax_engine::EngineError::InvalidLoad { .. }),
            "{err}"
        );

        // The same config through the CLI's `--config-dir` path.
        let out = madmax(&["simulate", "--config-dir", dir.to_str().unwrap()]);
        std::fs::remove_dir_all(&dir).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{stderr}");
        assert!(stderr.contains(field), "{stderr}");
    }
}

#[test]
fn cli_config_dir_takes_the_flag_dispatch_and_rejects_scenario_flags() {
    let dir = std::env::temp_dir().join(format!("madmax-config-dir-{}", std::process::id()));
    let d = dir.to_str().unwrap();
    let serve = "--model llama2 --system llama --task serve --prompt 256 --decode 16 \
                 --decode-batch 8";
    let mut config = vec!["config", "--out", d];
    config.extend(serve.split_whitespace());
    assert!(madmax(&config).status.success());
    // Load, fault and output flags apply to the scenario of the files
    // exactly as to the one of the flags.
    let load = "--arrival-rate 0.1 --arrival-count 8 --mtbf 600 --recovery 5";
    let mut from_dir = vec!["simulate", "--config-dir", d];
    from_dir.extend(load.split_whitespace());
    let mut from_flags = vec!["simulate"];
    from_flags.extend(serve.split_whitespace().chain(load.split_whitespace()));
    let (from_dir, from_flags) = (madmax(&from_dir), madmax(&from_flags));
    let stdout = String::from_utf8_lossy(&from_dir.stdout);
    assert!(from_dir.status.success(), "{stdout}");
    assert!(stdout.contains("faults:"), "{stdout}");
    assert_eq!(from_dir.stdout, from_flags.stdout);
    // A scenario flag next to the files is an error, not ignored.
    for flag in [
        ["--model", "gpt-3"],
        ["--task", "pretraining"],
        ["--decode", "8"],
        ["--dense", "(TP, DDP)"],
    ] {
        let mut args = vec!["simulate", "--config-dir", d, "--mtbf", "600"];
        args.extend(flag);
        let out = madmax(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!(
                "unknown flag `{}` for `madmax simulate --config-dir --mtbf`",
                flag[0]
            )),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag:?}: nothing runs");
    }
    // So is a value no system can have.
    let system = std::fs::read_to_string(dir.join("system.json")).unwrap();
    let edited = system.replace("\"hbm_bw\": 1935000000000", "\"hbm_bw\": -5");
    assert_ne!(edited, system, "substitution must have applied");
    std::fs::write(dir.join("system.json"), edited).unwrap();
    let out = madmax(&["simulate", "--config-dir", d]);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("invalid config: system: device `A100-80GB`: hbm_bw = -5 "),
        "{stderr}"
    );
}

#[test]
fn cli_skips_unreplayable_goodput_instead_of_hanging() {
    for mtbf in ["60", "10"] {
        let out = madmax(&[
            "simulate",
            "--model",
            "llama2",
            "--system",
            "llama",
            "--mtbf",
            mtbf,
            "--checkpoint-interval",
            "600",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains("goodput:"), "{stdout}");
        assert!(
            stdout.contains("replay check:    skipped, not replayable"),
            "{stdout}"
        );
    }
}

#[test]
fn cli_prints_tiny_fault_times_with_significant_digits() {
    let out = madmax(&[
        "simulate", "--model", "llama2", "--system", "llama", "--mtbf", "1e-9",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("at MTBF 1.000e-9 s"), "{stdout}");
    assert!(!stdout.contains("MTBF 0 s"), "{stdout}");
    let interval = stdout
        .lines()
        .find(|l| l.starts_with("checkpoint:"))
        .and_then(|l| l.split("interval ").nth(1))
        .and_then(|rest| rest.split(' ').next())
        .expect("the checkpoint line prints the interval");
    let secs: f64 = interval.parse().expect("the interval is a number");
    assert!(secs > 0.0, "interval printed as {interval}: {stdout}");
}

#[test]
fn cli_keeps_goodput_exact_at_huge_mtbfs() {
    // At MTBF 1e40 s a checkpoint segment is ~1e-21 MTBFs long: the
    // closed form must report the checkpoint tax alone (100.00% at a 30 ms
    // write), agree with the replay, and pass the goodput-bound rule.
    let out = madmax(&[
        "simulate", "--model", "llama2", "--system", "llama", "--mtbf", "1e40", "--verify",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let line = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line: {stdout}"))
            .to_owned()
    };
    assert!(line("goodput:").contains(" 100.00% of "), "{stdout}");
    assert!(
        line("replay check:").contains(" 100.00% goodput"),
        "{stdout}"
    );
    assert!(line("verify:").contains("clean"), "{stdout}");
    // Every candidate of a search at MTBF 1e308 s keeps its throughput
    // instead of tying at 0, so no plan flip is reported.
    let out = madmax(&[
        "search", "--model", "llama2", "--system", "llama", "--mtbf", "1e308",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("-> 100.00% goodput"), "{stdout}");
    assert!(stdout.contains("no plan flip"), "{stdout}");
}

#[test]
fn cli_breaks_zero_goodput_ties_by_fault_free_throughput() {
    // At MTBF 1 s a 1800 s checkpoint segment is ~1800 MTBFs long: every
    // candidate's goodput underflows to 0, so the goodput ranking must fall
    // back to the fault-free throughput instead of picking the last
    // feasible plan and reporting a plan flip.
    let out = madmax(&[
        "search",
        "--model",
        "llama2",
        "--system",
        "llama",
        "--mtbf",
        "1",
        "--checkpoint-interval",
        "1800",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let plan_of = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line: {stdout}"))
            .trim()
            .to_owned()
    };
    assert_eq!(
        plan_of("goodput-best:"),
        plan_of("latency-best:"),
        "{stdout}"
    );
    assert!(stdout.contains("no plan flip"), "{stdout}");
}

#[test]
fn cli_load_search_writes_reconciling_telemetry() {
    let path =
        std::env::temp_dir().join(format!("madmax-load-telemetry-{}.json", std::process::id()));
    let out = madmax(&[
        "search",
        "--model",
        "llama2",
        "--system",
        "llama",
        "--task",
        "serve",
        "--prompt",
        "256",
        "--decode",
        "64",
        "--decode-batch",
        "8",
        "--arrival-rate",
        "0.02,0.2",
        "--arrival-count",
        "8",
        "--threads",
        "2",
        "--telemetry",
        path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("load search:"), "{stdout}");
    assert!(stdout.contains("telemetry:"), "{stdout}");
    let json = std::fs::read_to_string(&path).expect("telemetry file written");
    std::fs::remove_file(&path).ok();
    let t = serde_json::parse_value(&json).unwrap();
    let t = t.as_map().unwrap();
    let count =
        |m: &[(String, serde::Value)], k: &str| serde::field(m, k).unwrap().as_u64().unwrap();
    let candidates = count(t, "candidates");
    let outcomes: u64 = ["ok", "oom", "unmappable", "invalid"]
        .iter()
        .map(|k| count(t, k))
        .sum();
    assert_eq!(outcomes, candidates, "{json}");
    assert!(candidates > 0 && count(t, "ok") > 0, "{json}");
    let latency = serde::field(t, "eval_latency").unwrap().as_map().unwrap();
    assert_eq!(count(latency, "count"), candidates);
    let workers = serde::field(t, "workers").unwrap().as_seq().unwrap();
    let per_worker: u64 = workers
        .iter()
        .map(|w| count(w.as_map().unwrap(), "candidates"))
        .sum();
    assert_eq!(per_worker, candidates);
    // The candidates share the load-probe tables.
    let flat = serde::field(t, "flat_cache").unwrap().as_map().unwrap();
    assert!(count(flat, "hits") > 0, "{json}");
}

#[test]
fn cli_rejects_unknown_flags() {
    for (args, flag) in [
        (
            &[
                "search",
                "--model",
                "llama2",
                "--system",
                "llama",
                "--threds",
                "1",
                "--unconstraned",
                "true",
            ][..],
            "--threds",
        ),
        (
            &[
                "simulate", "--model", "llama2", "--system", "llama", "--verfy",
            ][..],
            "--verfy",
        ),
    ] {
        let out = madmax(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing runs on a typo");
    }
}

#[test]
fn cli_rejects_flags_the_command_does_not_read() {
    let dir = std::env::temp_dir().join(format!("madmax-unread-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (file, out_dir) = (dir.join("f.json"), dir.join("cfg"));
    let (f, d) = (file.to_str().unwrap(), out_dir.to_str().unwrap());
    let llama = "--model llama2 --system llama";
    let serve = "--task serve --prompt 256 --decode 16 --decode-batch 8 \
                 --arrival-rate 0.1 --arrival-count 8";
    // Each command drops a flag at the parent of this rule: another
    // mode's, another command's, or one no command reads.
    for (command, flag) in [
        (
            format!("search {llama} --mtbf 600 --emit-trace F"),
            "--emit-trace",
        ),
        (
            format!("search --config-dir /nonexistent {llama}"),
            "--config-dir",
        ),
        ("list --bogus".to_owned(), "--bogus"),
        (format!("search {llama} --dense (TP,DDP)"), "--dense"),
        (
            format!("simulate {llama} --mtbf 600 --emit-trace F"),
            "--emit-trace",
        ),
        (
            format!("simulate {llama} --threads 2 --telemetry F --progress 5"),
            "--threads",
        ),
        (
            format!("simulate {llama} {serve} --mtbf 600 --checkpoint-interval 60"),
            "--checkpoint-interval",
        ),
        (
            format!("search {llama} {serve} --emit-trace F --verify"),
            "--emit-trace",
        ),
        ("verify --only golden --model llama2".to_owned(), "--model"),
        (
            "config --model llama2 --out D --threads 3 --mtbf 5".to_owned(),
            "--threads",
        ),
    ] {
        let args: Vec<&str> = command
            .split_whitespace()
            .map(|a| match a {
                "F" => f,
                "D" => d,
                a => a,
            })
            .collect();
        let out = madmax(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command}: nothing runs");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}` for `madmax ")),
            "{command}: {stderr}"
        );
        assert!(
            !file.exists() && !out_dir.exists(),
            "{command} wrote a file"
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    // A switch is on when bare or `true`, off when absent or `false`.
    let stdout = |args: &str| {
        let out = madmax(&args.split_whitespace().collect::<Vec<_>>());
        assert!(out.status.success(), "{args}");
        out.stdout
    };
    let simulate = format!("simulate {llama}");
    let verified = stdout(&format!("{simulate} --verify"));
    assert!(String::from_utf8_lossy(&verified).contains("verify:"));
    assert_eq!(verified, stdout(&format!("{simulate} --verify true")));
    assert_eq!(
        stdout(&simulate),
        stdout(&format!("{simulate} --verify false"))
    );
    let search = "search --model dlrm-a --system zionex --unconstrained";
    let telemetry_free = |out: Vec<u8>| -> String {
        String::from_utf8_lossy(&out)
            .lines()
            .filter(|l| !l.starts_with("telemetry:"))
            .collect()
    };
    assert_eq!(
        telemetry_free(stdout(search)),
        telemetry_free(stdout(&format!("{search} true")))
    );
}

#[test]
fn cli_rejects_a_simulate_rate_ladder_and_repeated_flags() {
    let llama = "--model llama2 --system llama";
    let serve = "--task serve --prompt 256 --decode 16 --decode-batch 8 --arrival-count 8";
    // Each ran only one of its values before: `simulate` the first rate
    // of the ladder, a repeated flag its last copy.
    for (command, message) in [
        (
            format!("simulate {llama} {serve} --arrival-rate 0.1,5"),
            "simulate takes a single --arrival-rate; pass a comma ladder to search",
        ),
        (
            "simulate --model gpt-3 --model llama2 --system llama".to_owned(),
            "flag --model given more than once",
        ),
        (
            format!("simulate {llama} {serve} --arrival-rate 0.1 --arrival-rate 0.5"),
            "flag --arrival-rate given more than once",
        ),
        (
            format!("search {llama} {serve} --arrival-rate 0.1 --arrival-rate 0.5,1"),
            "flag --arrival-rate given more than once",
        ),
    ] {
        let out = madmax(&command.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command}: nothing runs");
        assert!(stderr.contains(message), "{command}: {stderr}");
    }
}

#[test]
fn cli_rejects_non_boolean_switches() {
    for args in [
        &[
            "search",
            "--model",
            "dlrm-a",
            "--system",
            "zionex",
            "--unconstrained",
            "yes",
        ][..],
        &[
            "simulate", "--model", "llama2", "--system", "llama", "--task", "serve", "--kv", "yes",
        ][..],
    ] {
        let out = madmax(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(&format!("{flag} expects true or false, got `yes`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing runs on a bad switch");
    }
}

#[test]
fn search_emit_trace_is_the_winners_simulate_trace() {
    let dir = std::env::temp_dir();
    let (a, b) = (
        dir.join(format!("madmax-search-trace-{}.json", std::process::id())),
        dir.join(format!("madmax-simulate-trace-{}.json", std::process::id())),
    );
    let scenario = ["--model", "llama2", "--system", "llama"];
    let mut search = vec!["search"];
    search.extend(scenario);
    search.extend(["--emit-trace", a.to_str().unwrap()]);
    let out = madmax(&search);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // `best: ... with embedding=(MP, FSDP) transformer=(FSDP)`: one
    // `--class strategy` pair per layer class.
    let winner = stdout
        .lines()
        .find(|l| l.starts_with("best:"))
        .and_then(|l| l.split(" with ").nth(1))
        .expect("search prints its winner");
    let strategies: Vec<(String, String)> = winner
        .split_inclusive(')')
        .map(|part| {
            let (class, strategy) = part.trim().split_once('=').expect("class=strategy");
            (format!("--{class}"), strategy.to_owned())
        })
        .collect();
    assert!(!strategies.is_empty(), "{winner}");
    let mut simulate = vec!["simulate"];
    simulate.extend(scenario);
    for (class, strategy) in &strategies {
        simulate.extend([class.as_str(), strategy.as_str()]);
    }
    simulate.extend(["--emit-trace", b.to_str().unwrap()]);
    let out = madmax(&simulate);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (a_json, b_json) = (
        std::fs::read_to_string(&a).expect("search wrote its trace"),
        std::fs::read_to_string(&b).expect("simulate wrote its trace"),
    );
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert!(a_json == b_json, "search and simulate traces differ");
    let trace: serde::Value = serde_json::from_str(&a_json).unwrap();
    let events = serde::field(trace.as_map().unwrap(), "traceEvents")
        .unwrap()
        .as_seq()
        .expect("traceEvents is an array");
    assert!(!events.is_empty());
    for e in events {
        let pid = serde::field(e.as_map().unwrap(), "pid").unwrap().as_u64();
        assert_eq!(pid, Some(0), "every event is on the simulation process");
    }
}
