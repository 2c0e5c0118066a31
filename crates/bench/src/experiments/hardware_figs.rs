//! Experiments regenerating the hardware-exploration figures: Fig. 1
//! (pareto teaser), Fig. 16 (cloud instances), Fig. 17 (GPU generations),
//! Fig. 18 (commodity hardware), Fig. 19 (scaling study), and Fig. 20
//! (execution breakdowns under scaling).

use crate::cloud::{frontier, sweep as cloud_sweep};
use crate::report::{bar_chart, heading, stacked_bars, Bar, Segment, Table};
use madmax_core::IterationReport;
use madmax_dse::{scaling_study, Explorer, ScalingAxis};
use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{HierStrategy, Plan, Strategy, Workload};

/// Figs. 1 and 16: training time vs normalized aggregate GPU-hours across
/// cloud instances, default FSDP vs MAD-Max-optimized mappings.
pub fn fig16(title: &str) -> String {
    let mut out = heading(title);
    let model = ModelId::DlrmA.build();
    let points = cloud_sweep(&model, &[16, 32, 64]);

    let mut t = Table::new([
        "Instance",
        "#",
        "GPUs",
        "Mapping",
        "Elapsed (hr / 1B samples)",
        "Norm. agg. GPU-hours",
    ]);
    for p in &points {
        t.row([
            p.instance.clone(),
            p.instances.to_string(),
            p.gpus.to_string(),
            if p.optimized {
                "MAD-Max".to_owned()
            } else {
                "default FSDP".to_owned()
            },
            format!("{:.3}", p.elapsed_hours),
            format!("{:.1}", p.norm_gpu_hours),
        ]);
    }
    out.push_str(&t.render());

    let default_points: Vec<_> = points.iter().filter(|p| !p.optimized).cloned().collect();
    let all_frontier = frontier(&points);
    let default_frontier = frontier(&default_points);
    out.push_str("\nPareto frontier, default FSDP mappings:\n");
    let mut t = Table::new(["Config", "Elapsed (hr)", "Norm. GPU-hours"]);
    for p in &default_frontier {
        t.row([
            format!("{} x{}", p.payload.instance, p.payload.instances),
            format!("{:.3}", p.payload.elapsed_hours),
            format!("{:.1}", p.payload.norm_gpu_hours),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nPareto frontier with MAD-Max mappings included:\n");
    let mut t = Table::new(["Config", "Mapping", "Elapsed (hr)", "Norm. GPU-hours"]);
    for p in &all_frontier {
        t.row([
            format!("{} x{}", p.payload.instance, p.payload.instances),
            if p.payload.optimized {
                "MAD-Max".to_owned()
            } else {
                "default".to_owned()
            },
            format!("{:.3}", p.payload.elapsed_hours),
            format!("{:.1}", p.payload.norm_gpu_hours),
        ]);
    }
    out.push_str(&t.render());

    // Headline deltas at matched configurations.
    let mut best_time_cut = 0.0f64;
    let mut best_resource_cut = 0.0f64;
    for d in &default_points {
        if let Some(o) = points
            .iter()
            .find(|p| p.optimized && p.instance == d.instance && p.instances == d.instances)
        {
            best_time_cut = best_time_cut.max(1.0 - o.elapsed_hours / d.elapsed_hours);
            best_resource_cut = best_resource_cut.max(1.0 - o.norm_gpu_hours / d.norm_gpu_hours);
        }
    }
    out.push_str(&format!(
        "\nLargest matched-configuration improvement from MAD-Max mappings:\n\
         {:.0}% training time and {:.0}% normalized compute-resource reduction\n\
         (paper reports up to 33% and 21% for this study).\n",
        best_time_cut * 100.0,
        best_resource_cut * 100.0
    ));
    out
}

/// Fig. 17: DLRM-A pre-training on A100 vs H100 vs H100-SuperPOD across
/// parallelization strategies.
pub fn fig17() -> String {
    let mut out = heading("Fig. 17: GPU generations (A100, H100, H100 SuperPOD)");
    let model = ModelId::DlrmA.build();
    let systems = [
        ("A100 ZionEX", catalog::zionex_dlrm_system()),
        ("H100 cluster", catalog::h100_cluster(16)),
        ("H100 SuperPOD", catalog::h100_superpod_cluster(16)),
    ];
    let strategies = [
        HierStrategy::flat(Strategy::Fsdp),
        HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        HierStrategy::two_level(Strategy::Fsdp, Strategy::Ddp),
        HierStrategy::two_level(Strategy::Tp, Strategy::Fsdp),
    ];
    let a100_fsdp = Scenario::new(&model, &systems[0].1).run().unwrap();

    let mut t = Table::new(["Dense strategy", "A100", "H100", "H100 SuperPOD"]);
    let mut best: Vec<f64> = vec![0.0; 3];
    for strat in strategies {
        let mut cells = vec![strat.to_string()];
        for (i, (_, sys)) in systems.iter().enumerate() {
            let plan = Plan::fsdp_baseline(&model).with_strategy(LayerClass::Dense, strat);
            match Scenario::new(&model, sys).plan(plan).run() {
                Ok(r) => {
                    let x = r.samples_per_sec() / a100_fsdp.samples_per_sec();
                    best[i] = best[i].max(x);
                    cells.push(format!("{x:.2}x"));
                }
                Err(_) => cells.push("OOM".to_owned()),
            }
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n(normalized to A100 FSDP) Best per system: A100 {:.2}x, H100 {:.2}x,\n\
         SuperPOD {:.2}x. Upgrading only the scale-out fabric (H100 -> SuperPOD)\n\
         yields {:.2}x because it directly accelerates the blocking All2All\n\
         (paper: ~1.82x).\n",
        best[0],
        best[1],
        best[2],
        best[2] / best[1].max(f64::MIN_POSITIVE)
    ));
    out
}

/// Fig. 18: MAD-Max-identified strategies on commodity accelerators.
/// `hooks` sizes the explorer's worker pool and receives each search's
/// progress events and telemetry.
pub fn fig18(hooks: &crate::SearchHooks) -> String {
    let mut out = heading("Fig. 18: Commodity hardware (MI250X, MI300X, Gaudi2)");
    let model = ModelId::DlrmA.build();
    let clusters = [
        catalog::zionex_dlrm_system(),
        catalog::mi250x_cluster(),
        catalog::mi300x_cluster(),
        catalog::gaudi2_cluster(),
    ];
    let mut bars = Vec::new();
    let mut t = Table::new([
        "Platform",
        "FSDP baseline (MQPS)",
        "MAD-Max (MQPS)",
        "Speedup",
        "Strategies",
    ]);
    for sys in &clusters {
        let r = hooks.attach(Explorer::new(&model, sys)).explore().unwrap();
        hooks.record(&format!("fig18/{}", sys.name), &r.telemetry);
        t.row([
            sys.name.clone(),
            format!("{:.2}", r.baseline.mqps()),
            format!("{:.2}", r.best.mqps()),
            format!("{:.2}x", r.speedup()),
            r.winning_strategies(),
        ]);
        bars.push(Bar::new(sys.name.clone(), r.speedup()));
    }
    out.push_str(&bar_chart(&bars, 40, "x over FSDP"));
    out.push('\n');
    out.push_str(&t.render());
    out.push_str(
        "\nPlatforms with larger HBM (80+ GB) let MAD-Max replicate more dense\n\
         components for higher pre-training throughput (Insight 9).\n",
    );
    out
}

/// Fig. 19: individually vs concurrently scaling hardware capabilities by
/// 10x for DLRM-A and GPT-3, pre-training and inference.
pub fn fig19() -> String {
    let mut out = heading("Fig. 19: Hardware capability scaling study (10x)");
    let cases = [
        ("DLRM-A", ModelId::DlrmA, catalog::zionex_dlrm_system()),
        ("GPT-3", ModelId::Gpt3, catalog::llama_llm_system()),
    ];
    for (name, id, sys) in cases {
        let model = id.build();
        for task in [Workload::pretrain(), Workload::inference()] {
            let points = scaling_study(&model, &sys, &task, 10.0).unwrap();
            out.push_str(&format!("\n{name} {task}:\n"));
            let bars: Vec<Bar> = points
                .iter()
                .map(|p| Bar::new(format!("10x {}", p.axis), p.speedup))
                .collect();
            out.push_str(&bar_chart(&bars, 40, "x speedup"));
            let all = points.iter().find(|p| p.axis == ScalingAxis::All).unwrap();
            let best_single = points
                .iter()
                .filter(|p| p.axis != ScalingAxis::All)
                .map(|p| p.speedup)
                .fold(0.0, f64::max);
            out.push_str(&format!(
                "single-axis best {best_single:.2}x vs all-axes {:.2}x\n",
                all.speedup
            ));
        }
    }
    out.push_str(
        "\nNo single capability upgrade approaches 10x (sub-linear); improving\n\
         everything concurrently compounds overlap and newly-unlocked mappings\n\
         (Insight 10).\n",
    );
    out
}

fn breakdown_rows(label: &str, r: &IterationReport) -> Vec<(String, Vec<Segment>)> {
    let mut serialized = vec![
        Segment {
            name: "emb-lookup".into(),
            value: r.lookup_time.as_ms(),
        },
        Segment {
            name: "gemm".into(),
            value: r.gemm_time.as_ms(),
        },
    ];
    for (k, t) in &r.comm_by_collective {
        serialized.push(Segment {
            name: k.to_string(),
            value: t.as_ms(),
        });
    }
    let mut overlap = Vec::new();
    for (k, t) in &r.comm_by_collective {
        let exposed = r.exposed_by_collective.get(k).copied().unwrap_or_default();
        overlap.push(Segment {
            name: format!("{k}-hidden"),
            value: (*t - exposed).as_ms().max(0.0),
        });
        overlap.push(Segment {
            name: format!("{k}-exposed"),
            value: exposed.as_ms(),
        });
    }
    vec![
        (format!("{label} serialized"), serialized),
        (format!("{label} comm overlap"), overlap),
    ]
}

/// Fig. 20: serialized execution and communication-overlap breakdowns
/// explaining where Fig. 19's speedups come from.
pub fn fig20() -> String {
    let mut out = heading("Fig. 20: Execution breakdowns under hardware scaling");
    let cases = [
        ("DLRM-A", ModelId::DlrmA, catalog::zionex_dlrm_system()),
        ("GPT-3", ModelId::Gpt3, catalog::llama_llm_system()),
    ];
    for (name, id, sys) in cases {
        let model = id.build();
        let plan = Plan::fsdp_baseline(&model);
        out.push_str(&format!("\n{name} pre-training:\n"));
        let mut rows = Vec::new();
        for (label, axis) in [
            ("base", None),
            ("10x compute", Some(ScalingAxis::Compute)),
            ("10x mem BW", Some(ScalingAxis::MemBandwidth)),
            ("10x inter-node BW", Some(ScalingAxis::InterBandwidth)),
            ("10x all", Some(ScalingAxis::All)),
        ] {
            let scaled = match axis {
                Some(a) => sys.scaled(&a.scaling(10.0)),
                None => sys.clone(),
            };
            let r = Scenario::new(&model, &scaled)
                .plan(plan.clone())
                .run()
                .unwrap();
            rows.extend(breakdown_rows(label, &r));
        }
        out.push_str(&stacked_bars(&rows, 60, "ms"));
    }
    out.push_str(
        "\nSpeedups come from shrinking the dominant serialized segment (All2All\n\
         for DLRM-A, GEMM for GPT-3) and from converting exposed communication\n\
         into hidden communication.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_superpod_wins() {
        let s = fig17();
        assert!(s.contains("SuperPOD"));
        assert!(s.contains("normalized to A100 FSDP"));
    }

    #[test]
    fn fig18_covers_all_platforms() {
        let s = fig18(&crate::cli::TEST_HOOKS);
        for p in ["MI250X", "MI300X", "Gaudi2"] {
            assert!(s.contains(p), "missing {p}");
        }
    }

    #[test]
    fn fig19_has_four_cases() {
        let s = fig19();
        assert_eq!(s.matches("single-axis best").count(), 4);
    }

    #[test]
    fn fig20_breaks_down_both_models() {
        let s = fig20();
        assert!(s.contains("DLRM-A pre-training"));
        assert!(s.contains("GPT-3 pre-training"));
        assert!(s.contains("All2All"));
    }
}
