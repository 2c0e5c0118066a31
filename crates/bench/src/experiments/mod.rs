//! One module per paper table/figure; each experiment exposes a `run`-style
//! function returning the rendered report. [`ALL`] is the one list of
//! experiments: `run_all` runs every row, or the rows it is named.

pub mod ablations;
pub mod characterization;
pub mod fault_figs;
pub mod hardware_figs;
pub mod pipeline_figs;
pub mod serve_figs;
pub mod serve_load_figs;
pub mod strategy_figs;
pub mod tables;
pub mod validation_figs;

use crate::SearchHooks;

/// One experiment: the name of its report (`results/<name>.txt`) and the
/// function rendering it. Experiments without searches ignore the hooks.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Registry name, also the report's file stem under `results/`.
    pub name: &'static str,
    /// Renders the report, threading the hooks into every search.
    pub run: fn(&SearchHooks) -> String,
}

impl Experiment {
    const fn new(name: &'static str, run: fn(&SearchHooks) -> String) -> Self {
        Self { name, run }
    }
}

/// Every experiment, in the order `run_all` runs them.
pub const ALL: &[Experiment] = &[
    Experiment::new("table1_validation", |_| tables::table1()),
    Experiment::new("table2_model_suite", |_| tables::table2()),
    Experiment::new("table3_systems", |_| tables::table3()),
    Experiment::new("table4_hw_specs", |_| tables::table4()),
    Experiment::new("fig01_pareto_frontier", |_| {
        hardware_figs::fig16("Fig. 1: Resource-performance pareto frontier (cloud DLRM-A)")
    }),
    Experiment::new("fig03_model_characterization", |_| {
        characterization::fig03()
    }),
    Experiment::new("fig04_fleet_characterization", |_| {
        characterization::fig04()
    }),
    Experiment::new("fig06_sample_streams", |_| validation_figs::fig06()),
    Experiment::new("fig07_dlrm_validation", |_| validation_figs::fig07()),
    Experiment::new("fig08_vit_validation", |_| validation_figs::fig08()),
    Experiment::new("fig09_fsdp_prefetch", |_| validation_figs::fig09()),
    Experiment::new("fig10_pretraining_speedup", strategy_figs::fig10),
    Experiment::new("fig11_dlrm_strategy_sweep", |_| strategy_figs::fig11()),
    Experiment::new("fig12_dlrm_variants", |_| strategy_figs::fig12()),
    Experiment::new("fig13_variant_pareto", |_| strategy_figs::fig13()),
    Experiment::new("fig14_task_diversity", |_| strategy_figs::fig14()),
    Experiment::new("fig15_context_length", |_| strategy_figs::fig15()),
    Experiment::new("fig16_cloud_instances", |_| {
        hardware_figs::fig16("Fig. 16: Cloud instance configurations and workload mappings")
    }),
    Experiment::new("fig17_gpu_generations", |_| hardware_figs::fig17()),
    Experiment::new("fig18_commodity_hardware", hardware_figs::fig18),
    Experiment::new("fig19_hardware_scaling", |_| hardware_figs::fig19()),
    Experiment::new("fig20_execution_breakdown", |_| hardware_figs::fig20()),
    Experiment::new(
        "fig_pipeline_schedules",
        pipeline_figs::fig_pipeline_schedules,
    ),
    Experiment::new("fig_serve", serve_figs::fig_serve),
    Experiment::new("fig_serve_load", serve_load_figs::fig_serve_load),
    Experiment::new("fig_fault", fault_figs::fig_fault),
    Experiment::new("ablations", |_| ablations::run()),
];

/// The registry row named `name`, if any.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<_> = ALL.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
        assert_eq!(find("fig_fault").map(|e| e.name), Some("fig_fault"));
        assert!(find("no_such_fig").is_none());
    }
}
