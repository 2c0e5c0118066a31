//! JSON configuration interface (Section IV-A): "Users have to provide
//! JSON files for: 1) model architecture ..., 2) distributed system
//! specifications ..., and 3) task and parallelization strategy".
//!
//! These three files are the workspace's only JSON inputs besides the
//! JSONL request traces, so only the types they reach derive
//! `Deserialize`; `Serialize` is kept for `madmax config`, which writes
//! them. This module adds the file-level glue. An experiment spec must
//! carry a `"workload"`: the pre-`Workload` `"task"` schema is gone and
//! fails to parse.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::{Plan, Workload};

/// Workload + parallelization strategy, the third of the paper's three
/// JSON inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// The workload to simulate (pre-training / fine-tuning / serving).
    pub workload: Workload,
    /// The workload-to-system mapping.
    pub plan: Plan,
}

/// A fully-specified simulation loaded from configuration.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct SimulationConfig {
    /// Model architecture.
    pub model: ModelArch,
    /// Distributed system.
    pub system: ClusterSpec,
    /// Workload + plan.
    pub experiment: ExperimentSpec,
}

/// Errors loading or saving configuration files.
#[derive(Debug)]
pub enum ConfigError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Parse(serde_json::Error),
    /// Well-formed JSON whose values describe no simulable model or
    /// system (see `ModelArch::validate` and `ClusterSpec::validate`).
    Invalid(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Io(e) => write!(f, "config I/O error: {e}"),
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
            ConfigError::Invalid(e) => write!(f, "invalid config: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Io(e) => Some(e),
            ConfigError::Parse(e) => Some(e),
            ConfigError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for ConfigError {
    fn from(e: std::io::Error) -> Self {
        ConfigError::Io(e)
    }
}

impl From<serde_json::Error> for ConfigError {
    fn from(e: serde_json::Error) -> Self {
        ConfigError::Parse(e)
    }
}

impl SimulationConfig {
    /// Loads the three JSON files the paper describes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for missing files, schema mismatches or
    /// invalid values.
    pub fn from_json_files(
        model: impl AsRef<Path>,
        system: impl AsRef<Path>,
        experiment: impl AsRef<Path>,
    ) -> Result<Self, ConfigError> {
        Self {
            model: serde_json::from_str(&fs::read_to_string(model)?)?,
            system: serde_json::from_str(&fs::read_to_string(system)?)?,
            experiment: serde_json::from_str(&fs::read_to_string(experiment)?)?,
        }
        .validated()
    }

    /// Parses a single combined JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Parse`] on malformed input and
    /// [`ConfigError::Invalid`] on invalid values.
    pub fn from_json(json: &str) -> Result<Self, ConfigError> {
        serde_json::from_str::<Self>(json)?.validated()
    }

    /// Applies the model and system checks the asserting constructors
    /// apply, so a hand-edited file fails to load instead of simulating
    /// nonsense.
    fn validated(self) -> Result<Self, ConfigError> {
        self.model
            .validate()
            .map_err(|e| ConfigError::Invalid(format!("model: {e}")))?;
        self.system
            .validate()
            .map_err(|e| ConfigError::Invalid(format!("system: {e}")))?;
        Ok(self)
    }

    /// Writes the three JSON files to a directory
    /// (`model.json`, `system.json`, `experiment.json`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on I/O failure.
    pub fn write_split(&self, dir: impl AsRef<Path>) -> Result<(), ConfigError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        fs::write(
            dir.join("model.json"),
            serde_json::to_string_pretty(&self.model)?,
        )?;
        fs::write(
            dir.join("system.json"),
            serde_json::to_string_pretty(&self.system)?,
        )?;
        fs::write(
            dir.join("experiment.json"),
            serde_json::to_string_pretty(&self.experiment)?,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    fn sample() -> SimulationConfig {
        let model = ModelId::DlrmB.build();
        let plan = Plan::fsdp_baseline(&model);
        SimulationConfig {
            model,
            system: catalog::zionex_dlrm_system(),
            experiment: ExperimentSpec {
                workload: Workload::pretrain(),
                plan,
            },
        }
    }

    /// The single document [`SimulationConfig::from_json`] reads, built
    /// from the parts [`SimulationConfig::write_split`] writes.
    fn to_json(cfg: &SimulationConfig) -> String {
        format!(
            "{{\"model\": {}, \"system\": {}, \"experiment\": {}}}",
            serde_json::to_string_pretty(&cfg.model).unwrap(),
            serde_json::to_string_pretty(&cfg.system).unwrap(),
            serde_json::to_string_pretty(&cfg.experiment).unwrap(),
        )
    }

    #[test]
    fn json_round_trip() {
        let cfg = sample();
        let js = to_json(&cfg);
        let back = SimulationConfig::from_json(&js).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn split_files_round_trip() {
        let cfg = sample();
        let dir = std::env::temp_dir().join("madmax_config_test");
        cfg.write_split(&dir).unwrap();
        let back = SimulationConfig::from_json_files(
            dir.join("model.json"),
            dir.join("system.json"),
            dir.join("experiment.json"),
        )
        .unwrap();
        assert_eq!(cfg, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_optional_pipeline_field_parses_as_none() {
        // Hand-authored configs predating the pipeline dimension omit the
        // key entirely; `Option` fields must default to `None` (real-serde
        // behavior, preserved by the vendored stub).
        let cfg = sample();
        let js = to_json(&cfg);
        assert!(js.contains("\"pipeline\": null"), "{js}");
        let stripped = js.replace("\"pipeline\": null,", "");
        assert!(!stripped.contains("pipeline"));
        let back = SimulationConfig::from_json(&stripped).unwrap();
        assert_eq!(back.experiment.plan.pipeline, None);
        assert_eq!(back, cfg);
    }

    #[test]
    fn parse_error_is_reported() {
        let err = SimulationConfig::from_json("{not json").unwrap_err();
        assert!(matches!(err, ConfigError::Parse(_)));
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn loaded_config_is_runnable() {
        let cfg = sample();
        let js = to_json(&cfg);
        let cfg = SimulationConfig::from_json(&js).unwrap();
        let plan = &cfg.experiment.plan;
        let mut table = crate::CostTable::new(
            &cfg.model,
            &cfg.system,
            cfg.experiment.workload.clone(),
            plan.options,
            &crate::HierarchicalNccl,
            crate::UtilizationModel::Constant,
            1,
        );
        table.ensure_plan(plan);
        let report =
            crate::run_flat_cached(&table, plan, &mut crate::EngineScratch::new(), true).unwrap();
        assert!(report.iteration_time.as_ms() > 0.0);
    }
}
