//! # madmax-bench
//!
//! The MAD-Max experiment harness: one module (and one runnable binary)
//! per table and figure of the paper's evaluation. Each experiment's
//! `run()` returns the rendered report; binaries print it and persist a
//! copy under `results/`. `run_all` executes everything and ends with a
//! per-experiment elapsed-time summary, so hot-path regressions are
//! visible straight from the tier-1 artifact run.
//!
//! ## Tracking explorer performance: `bench_report`
//!
//! The `bench_report` bin is the repository's perf trajectory: it times
//! `madmax_dse::Explorer::explore()` on every fig10-style joint strategy
//! search (each model, memory-constrained and unconstrained) and writes a
//! `BENCH_PR<n>.json` at the repository root:
//!
//! ```text
//! cargo run --release -p madmax-bench --bin bench_report -- \
//!     --threads 1 --reps 5 --out BENCH_PR3.json [--baseline PRE.json]
//! ```
//!
//! Each record is `{"search", "candidates", "wall_ms", "threads"}`;
//! `wall_ms` is the best of `--reps` runs after a warm-up. Passing
//! `--baseline` (a report produced by the same bin on an older commit)
//! adds `pre_pr_wall_ms` and `speedup` per record, so the committed file
//! is a self-contained before/after comparison. PRs claiming a hot-path
//! win re-run the bin and commit the new `BENCH_PR<n>.json` point. The
//! standalone `perfbench/` package measures the searches end to end and
//! per layer (price, assemble, schedule, report, load simulation).

#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod experiments;

pub use cli::{BenchCli, SearchHooks};
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

// `--threads` parsing used to live here as `threads_from_args`; the
// DSE-heavy binaries now share the richer [`cli::BenchCli`] parser
// (threads, progress, telemetry) instead.
