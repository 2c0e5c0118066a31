//! # madmax-bench
//!
//! The MAD-Max experiment harness: one module per table and figure of the
//! paper's evaluation, listed once in the registry
//! [`experiments::ALL`]. Each experiment returns the rendered report; the
//! one figure runner, `run_all [NAME ...]`, prints it and persists a copy
//! under `results/`, and ends with a per-experiment elapsed-time summary,
//! so hot-path regressions are visible straight from the artifact run.
//! The other binary, `madmax`, is the command-line driver of the model.
//!
//! Three private modules serve only the experiments: `cloud` (the cloud
//! instance catalog and sweep of Figs. 1 and 16), `fleet` (the synthetic
//! fleet characterization of Fig. 4) and `report` (the plain-text tables,
//! bar charts and timelines every report is rendered with).
//!
//! ## Tracking explorer performance
//!
//! The standalone `perfbench/` package is the one timing tool. It runs
//! the train, serve and SLO/fault searches single-threaded with
//! host-calibrated times, end to end (`search_p50_ms`,
//! `candidates_per_s`, `peak_rss_mb`, ...) and, with `--trace 1`, per
//! layer (price, assemble, schedule, report, load simulation). A speed
//! claim is a paired run of two commits on one host:
//!
//! ```text
//! python3 scripts/pair.py --parent HEAD~1 --change HEAD \
//!     --workloads train_search --pairs 10
//! ```
//!
//! `scripts/pair.py` builds each commit once, alternates their perfbench
//! runs on shared seeds, and prints each `BENCHMARK.json` metric's
//! medians, spread, wins and verdict against its bound.

#![warn(missing_docs)]

pub mod cli;
mod cloud;
pub mod corpus;
pub mod experiments;
mod fleet;
mod report;

pub use cli::SearchHooks;
pub use corpus::{fault_corpus, verify_corpus, FaultScenario, VerifyScenario};

use std::fs;
use std::path::PathBuf;

/// Directory where experiment outputs are persisted.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Prints an experiment's report and saves it to `results/<name>.txt`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(format!("{name}.txt")), content);
    }
}

/// The default worker-pool size for DSE-heavy experiments: all available
/// cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
