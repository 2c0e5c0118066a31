//! # madmax-dse
//!
//! Design-space exploration on top of the MAD-Max performance model,
//! built on the unified `madmax_engine::Scenario` entry point: one
//! [`SearchSpace`] spanning the per-layer-class strategy axes and the
//! optional pipeline axes, one parallel [`Explorer`] producing a
//! [`SearchOutcome`] (Figs. 10, 18, and the joint pipeline study),
//! exhaustive per-class strategy sweeps (Figs. 11-15, 17),
//! Pareto-frontier extraction (Figs. 1, 13, 16), and the
//! future-technologies hardware scaling study (Figs. 19-20).
//!
//! Serve workloads search the same way: attach `ServeAxes` (decode
//! batch) to the space and the explorer ranks (plan, batch) combinations
//! by output tokens per second.
//!
//! Every search objective — latency or serve tokens/s
//! ([`Explorer::explore`]), failure-aware goodput
//! ([`Explorer::explore_goodput`]) and the SLO-constrained load search
//! ([`Explorer::explore_load`]) — runs on one candidate driver: the
//! worker pool, the shared tables each objective has priced once per
//! workload variant (the variant's own cost tables for `explore` and
//! `explore_goodput`, one cost table per load-probe shape for
//! `explore_load`), the [`ProgressSink`] events and the per-worker
//! [`SearchTelemetry`]. An objective contributes only its per-candidate
//! step, the tables it needs and its ranking, so results are identical
//! at any thread count.
//!
//! [`Explorer::explore`] is an exact, best-first branch-and-bound. It
//! simulates the FSDP baseline before the pool starts. Per workload
//! variant the driver then asks each candidate once for
//! `Scenario::lower_bound` (read off the priced tables: the busiest
//! stream's summed op durations, and for a pipelined training or
//! forward-only plan each stage's compute stream with its fill and drain)
//! and turns it into an optimistic score:
//! `tokens per iteration / bound` when ranking serve tokens/s, else
//! `1 / bound`. It simulates a fixed first wave, the four best optimistic
//! scores (ties to the earlier candidate), and skips the simulation of
//! every other candidate whose optimistic score cannot strictly beat the
//! incumbent, the best score of the baseline, the earlier variants and
//! that wave (with a 1e-9 relative float margin). Every stream runs one
//! op at a time in issue order, so no schedule beats its busiest stream;
//! a pipeline stage's first forward also waits for microbatch 0's
//! forward chain through the earlier stages (the fill), and its last
//! pass still has its gradient (or activation) chain to run (the drain).
//! So a skipped candidate scores strictly below the incumbent, hence
//! below the winner: the winner and its report are those of simulating
//! every candidate. The wave and the incumbent depend only on the candidates
//! and their simulated results, so the skipped set is the same at any
//! thread count. Skipped candidates count as `ok` and in
//! [`SearchTelemetry::pruned`].
//!
//! [`Explorer::explore_goodput`] runs the same branch-and-bound on two
//! scores at once: the best effective (goodput-weighted) throughput and
//! the fault-free throughput, whose winners are the goodput pick and the
//! fault-blind pick. A goodput fraction depends only on the checkpoint
//! (priced from the memory breakdown the feasibility check folds), the
//! MTBF, the restart and the interval; so the candidate's goodput points
//! priced at its iteration-time lower bound
//! (`Scenario::lower_bound_with_memory`) bound both scores before any
//! simulation. The first wave is the union of the four best candidates on
//! each score, the incumbent is kept per score, and a candidate is skipped
//! only when it cannot strictly beat either incumbent: it comes back with
//! no error, no iteration time and no goodput points, and the winners and
//! the plan flip are those of simulating every candidate. The load search
//! returns every candidate's result, so it never prunes.
//!
//! The pre-`Explorer` entry points (`optimize`, `optimize_pipeline`) have
//! been removed after their deprecation release; `Explorer` over the
//! matching `SearchSpace` is the single search API.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod explore;
pub mod fault;
pub mod load;
pub mod pareto;
pub mod scaling;
pub mod sweep;

pub use explore::{Explorer, PipelineAxes, SearchOutcome, SearchSpace, ServeAxes};
pub use fault::{FaultAxes, GoodputCandidate, GoodputSearchOutcome};
pub use load::{LoadAxes, LoadCandidate, LoadPoint, LoadSearchOutcome};
pub use madmax_obs::{
    CandidateEvent, CandidateOutcome, JsonlSink, NullSink, ProgressSink, SearchTelemetry,
    StderrTicker,
};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use scaling::{scaling_study, ScalingAxis, ScalingPoint};
pub use sweep::{best_point, sweep_class, SweepPoint};
