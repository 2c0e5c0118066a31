//! # madmax-engine
//!
//! The unified front door to the MAD-Max distributed ML performance model
//! (Hsia et al., ISCA 2024): one [`Scenario`] entry point that executes
//! *any* parallelization plan — flat SPMD mappings through
//! `madmax-core`'s two-stream overlap engine, pipelined mappings through
//! `madmax-pipeline`'s stage engine — and returns the same
//! [`madmax_core::IterationReport`] either way, with every failure folded
//! into one [`EngineError`].
//!
//! # Quickstart
//!
//! ```
//! use madmax_engine::Scenario;
//! use madmax_hw::catalog;
//! use madmax_model::ModelId;
//! use madmax_parallel::{PipelineConfig, Plan, ServeConfig, Workload};
//!
//! # fn main() -> Result<(), madmax_engine::EngineError> {
//! // 1. Pick a workload (Table II) and a system (Table III).
//! let model = ModelId::DlrmA.build();
//! let system = catalog::zionex_dlrm_system();
//!
//! // 2. Simulate one pre-training iteration of the FSDP baseline.
//! let report = Scenario::new(&model, &system).workload(Workload::pretrain()).run()?;
//! assert!(report.mqps() > 0.5 && report.mqps() < 5.0);
//!
//! // 3. The same entry point executes pipelined plans: configure the
//! //    pipeline dimension on the plan and `run()` dispatches for you.
//! let llm = ModelId::Llama2.build();
//! let llm_system = catalog::llama_llm_system();
//! let plan = Plan::fsdp_baseline(&llm).with_pipeline(PipelineConfig::one_f_one_b(8, 32));
//! let piped = Scenario::new(&llm, &llm_system).plan(plan.clone()).run()?;
//! assert!(piped.bubble_fraction.unwrap() > 0.0);
//!
//! // 4. Serve-mode scenarios open the inference half: prefill a prompt,
//! //    decode token by token, and read TTFT/TPOT off the report.
//! let serve = Scenario::new(&llm, &llm_system)
//!     .workload(Workload::serve(ServeConfig::new(1024, 128)))
//!     .plan(plan)
//!     .run()?;
//! assert!(serve.serve.unwrap().ttft > serve.serve.unwrap().tpot);
//! # Ok(())
//! # }
//! ```
//!
//! Design-space exploration on top of `Scenario` — the unified
//! `SearchSpace` / `Explorer` pair that subsumes the old `optimize` /
//! `optimize_pipeline` searches — lives in `madmax-dse`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod probes;
pub mod scenario;

pub use error::EngineError;
pub use probes::LoadProbeTables;
pub use scenario::{GoodputOutcome, Scenario};

// Re-exported so engine consumers (the explorer, benches) can name the
// fast-path types without a direct `madmax-core` / `madmax-pipeline`
// dependency.
pub use madmax_core::EngineScratch;
pub use madmax_pipeline::PipelineCostTable;
// Likewise for the continuous-batching load path (`Scenario::serve_load_priced`)
// and the failure-aware goodput path (`Scenario::goodput`,
// `Scenario::serve_load_faulty`).
pub use madmax_fault::{
    CheckpointModel, FaultEvent, FaultSpec, GoodputReport, MaintenanceWindow, RetryPolicy,
};
pub use madmax_serve::{LoadOutcome, LoadReport, SimMode, StepCostModel};
