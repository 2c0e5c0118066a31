//! The paper's user interface: drive MAD-Max entirely from the three JSON
//! configuration files (model architecture, distributed system, task +
//! parallelization strategy) described in Section IV-A.
//!
//! ```bash
//! cargo run --release -p madmax-bench --example json_configs
//! ```

use madmax_core::config::{ExperimentSpec, SimulationConfig};
use madmax_engine::Scenario;
use madmax_hw::catalog;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::{HierStrategy, Plan, Strategy, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a configuration in code once...
    let model = ModelId::DlrmB.build();
    let plan = Plan::fsdp_baseline(&model).with_strategy(
        LayerClass::Dense,
        HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
    );
    let cfg = SimulationConfig {
        model,
        system: catalog::zionex_dlrm_system(),
        experiment: ExperimentSpec {
            workload: Workload::pretrain(),
            plan,
        },
    };

    // ...persist it as the paper's three JSON files...
    let dir = std::env::temp_dir().join("madmax_quickstart_configs");
    cfg.write_split(&dir)?;
    println!(
        "wrote model.json / system.json / experiment.json to {}",
        dir.display()
    );

    // ...then reload and simulate purely from configuration, as an
    // external user would.
    let loaded = SimulationConfig::from_json_files(
        dir.join("model.json"),
        dir.join("system.json"),
        dir.join("experiment.json"),
    )?;
    let report = Scenario::new(&loaded.model, &loaded.system)
        .plan(loaded.experiment.plan)
        .workload(loaded.experiment.workload)
        .run()?;
    println!(
        "{} on {}: {:.2} MQPS, {:.2} ms/iteration, {:.1}% comm exposed",
        loaded.model.name,
        loaded.system.name,
        report.mqps(),
        report.iteration_time.as_ms(),
        report.exposed_fraction() * 100.0
    );
    Ok(())
}
