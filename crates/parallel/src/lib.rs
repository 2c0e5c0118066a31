//! # madmax-parallel
//!
//! Parallelization substrate for MAD-Max: the DDP/FSDP/TP/sharding strategy
//! taxonomy (Section II-B), hierarchical `(intra, inter)` composition,
//! derivation of the communication collectives each strategy requires
//! (Section IV-C), workloads, and the per-device memory-footprint model
//! that decides which mappings are feasible.
//!
//! # Workloads and phases
//!
//! What a model executes is a [`Workload`]: [`Workload::pretrain`],
//! [`Workload::finetune`], or [`Workload::serve`]. Each workload is a
//! sequence of [`WorkloadPhase`]s with distinct FLOP, bytes-moved, and
//! memory semantics:
//!
//! - [`WorkloadPhase::FwdBwd`] — one training iteration: forward compute,
//!   backward at 2-3x the forward FLOPs, retained activations, gradient
//!   and optimizer-state memory, parameter + gradient collectives.
//! - [`WorkloadPhase::Prefill`] — a compute-bound forward pass over the
//!   prompt ([`ServeConfig::prompt_len`] tokens): forward FLOPs and
//!   activation collectives only, a transient working set, and — when
//!   [`ServeConfig::kv_cache`] is on — the prompt's keys/values written
//!   into the cache.
//! - [`WorkloadPhase::Decode`] — one autoregressive step: a single-token
//!   forward pass per sequence whose attention *reads the whole KV-cache*,
//!   making the phase bandwidth-bound; the cache grows by one token per
//!   step and its maximum footprint ([`ServeConfig::max_kv_len`]) is part
//!   of the OOM check.
//!
//! The legacy flat `Task` enum has been removed after its deprecation
//! release; `Workload` is the only task description (the old
//! `Task::Inference` shape survives as [`Workload::inference`], the
//! prefill-only serve workload with an identical engine path).
//!
//! # Example
//!
//! ```
//! use madmax_hw::catalog;
//! use madmax_model::{LayerClass, ModelId};
//! use madmax_parallel::{check_memory, HierStrategy, Plan, Strategy, Workload};
//!
//! let model = ModelId::DlrmA.build();
//! let system = catalog::zionex_dlrm_system();
//!
//! // Replicating DLRM-A's dense layers on every device runs out of memory;
//! // sharding them with TP inside each node fits (Fig. 11).
//! let ddp = Plan::fsdp_baseline(&model)
//!     .with_strategy(LayerClass::Dense, HierStrategy::flat(Strategy::Ddp));
//! assert!(check_memory(&model, &system, &ddp, &Workload::pretrain()).is_err());
//!
//! let tp_ddp = Plan::fsdp_baseline(&model)
//!     .with_strategy(LayerClass::Dense, HierStrategy::two_level(Strategy::Tp, Strategy::Ddp));
//! assert!(check_memory(&model, &system, &tp_ddp, &Workload::pretrain()).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod comm;
pub mod load;
pub mod memory;
pub mod plan;
pub mod strategy;
pub mod workload;

pub use comm::{derive_layer_comm, CollectiveKind, CommPosition, CommReq, LayerCommPlan, Urgency};
pub use load::{ArrivalSpec, LoadSpec, RequestSpec, DEFAULT_BLOCK_TOKENS};
pub use memory::{
    check_hbm, check_memory, group_memory, memory_per_device, GroupMemory, MemoryBreakdown,
};
pub use plan::{
    MemoryConfig, OptimizerKind, PipelineConfig, PipelineSchedule, Plan, PlanError, PlanOptions,
};
pub use strategy::{CommScope, HierStrategy, Strategy, StrategyLevel};
pub use workload::{ServeConfig, Workload, WorkloadPhase};
