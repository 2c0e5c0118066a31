//! # madmax-pipeline
//!
//! Pipeline-parallel execution modeling for MAD-Max: partitions a
//! [`madmax_model::ModelArch`] into balanced contiguous stages, splits the
//! global batch into microbatches, and replays the two canonical pipeline
//! schedules — GPipe (fill-drain) and 1F1B (one-forward-one-backward) — as
//! multi-stream [`madmax_core::Trace`]s whose inter-stage activation and
//! gradient transfers are priced as point-to-point ops by the existing
//! collective cost model (Section II-B of the paper; schedules after GPipe
//! and PipeDream-Flush).
//!
//! The flat SPMD engine in `madmax-core` rejects pipelined plans;
//! [`run_pipelined_cached`] is the pipeline-aware engine, and the unified
//! `madmax_engine::Scenario` front door dispatches between the two based
//! on the plan's `PipelineConfig`.
//!
//! Serve workloads (`madmax_parallel::Workload::serve`) pipeline the
//! decode stream itself — each decode step is one microbatch unit flowing
//! through the stages (`build_serve_trace_into`) — so pipeline
//! parallelism hides inter-stage latency across the generated tokens.
//!
//! # The two-phase engine: price, then assemble
//!
//! Mirroring `madmax_core`'s flat engine, pipelined evaluation is split
//! into a **pricing** phase and an **assembly** phase so joint
//! design-space searches never pay for the same cost twice:
//!
//! 1. *Pricing* ([`table::PipelineCostTable`]) derives, once per search
//!    key, the balanced stage partition and stage sub-cluster (per
//!    depth), the per-stage sub-models and raw memory footprints (per
//!    depth × strategy assignment), and the per-stage [`StageCosts`] of
//!    every workload phase (per depth × assignment × microbatch count,
//!    summed when a candidate of the key is first priced, so a search
//!    that bounds a whole family of candidates away never sums them).
//!    The layers are priced by one model only, `madmax_core::CostTable`:
//!    the table keeps one flat table per (depth, microbatch count), priced
//!    on the stage sub-cluster at one microbatch's local batch, and a
//!    stage's costs are its units' cached per-(group, strategy) entries
//!    times their instances, summed in unit order. Only the inter-stage
//!    P2P sends, the optimizer step and the stage's dominant-class and
//!    lookup tags are priced here.
//! 2. *Assembly* ([`run_pipelined_cached`]) expands cached stage costs
//!    into the schedule's multi-stream trace inside a recycled
//!    `madmax_core::EngineScratch` — no `partition_model` run, no
//!    `ModelArch`/`ClusterSpec` clone, and no collective-model invocation
//!    per candidate. The `(microbatches × schedule × decode batch)` axes
//!    only affect assembly; for workloads without a backward pass the
//!    trace is schedule-independent, so the table memoizes one report per
//!    (depth, assignment, microbatches) entry and collapses the schedule
//!    axis entirely.
//!
//! # Closed-form serve: collapsing the token axis
//!
//! For serve workloads the per-token decode schedule is an affine
//! max-plus recurrence: every decode op's duration is `base + rate·tok`
//! (the `rate` term is KV-cache stretch), and each token's starts are
//! maxima over the previous token's finishes. [`run_pipelined_cached`]
//! therefore hands long decodes, through the evaluator both engines
//! share (`madmax_core::evaluate_priced`), to `madmax_core::steady`:
//! only the
//! prefill plus a short explicit transient is assembled as a real trace;
//! the remaining tokens advance on exact integer grid arithmetic, and a
//! certified quadratic fast-forward jumps whole constant-binding regimes
//! at once (fit from three consecutive states, every max/min/branch of
//! one token step certified symbolically over the jump range, totals
//! advanced by closed-form series sums). The synthesized
//! [`madmax_core::IterationReport`] is byte-identical to full assembly —
//! when any exactness condition fails (non-affine durations, timestamps
//! or totals leaving the exact `f64` grid range, a binding change the
//! certificate cannot localize), the engine falls back layer by layer:
//! jump → explicit per-token stepping → full trace assembly. The
//! `steady-period` rule in `madmax-verify` cross-checks the simulated
//! steady-state inter-token period against the analytic period derived
//! from cached [`StageCosts`]. `Scenario::analytic_serve(false)` opts a
//! caller out entirely.
//!
//! **PipelineCostTable sharing contract**: a single run prices a
//! one-plan table; `madmax-dse` builds one table per search
//! (`PipelineCostTable::ensure_plan_deferred` for every candidate, before
//! spawning workers) and shares it read-only (`&PipelineCostTable` is
//! `Sync`; a key's stage costs are summed once, by the first worker that
//! prices it) across the worker pool. A table is priced for one `(model, cluster,
//! workload)` combination and one set of pricing-relevant plan options
//! (asserted), and a shared table produces reports byte-identical to a
//! one-plan table's — error shapes included.
//!
//! # Example
//!
//! ```
//! use madmax_core::{EngineScratch, HierarchicalNccl, UtilizationModel};
//! use madmax_hw::catalog;
//! use madmax_model::ModelId;
//! use madmax_parallel::{PipelineConfig, Plan, Workload};
//! use madmax_pipeline::{run_pipelined_cached, PipelineCostTable};
//!
//! let model = ModelId::Llama2.build();
//! let system = catalog::llama_llm_system();
//! let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::one_f_one_b(8, 32));
//! // Price the plan once, then evaluate it (a search prices every
//! // candidate into one table and evaluates each against it).
//! let mut table = PipelineCostTable::new(
//!     &model,
//!     &system,
//!     Workload::pretrain(),
//!     plan.options,
//!     &HierarchicalNccl,
//!     UtilizationModel::Constant,
//! );
//! table.ensure_plan(&plan);
//! let report = run_pipelined_cached(&table, &plan, &mut EngineScratch::new(), true).unwrap();
//! let bubble = report.bubble_fraction.unwrap();
//! assert!(bubble > 0.0 && bubble < 0.5, "{bubble}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod memory;
pub mod partition;
pub mod schedule;
pub mod sim;
pub mod table;

pub use cost::{stage_cluster, StageCosts};
pub use schedule::{build_pipeline_trace, busy_lower_bound};
pub use sim::{pipelined_ttft_cached, run_pipelined_cached};
pub use table::{family_class, PipelineCostTable, PricedPipelineRef};

/// The analytic GPipe bubble fraction for `p` uniform stages and `m`
/// microbatches: `(p - 1) / (m + p - 1)` (delegates to
/// [`madmax_parallel::PipelineConfig::ideal_bubble_fraction`]).
pub fn gpipe_bubble_fraction(stages: usize, microbatches: usize) -> f64 {
    madmax_parallel::PipelineConfig::gpipe(stages, microbatches).ideal_bubble_fraction()
}
