//! # madmax-fault
//!
//! The fault model: what happens to a MAD-Max deployment when the fleet
//! *breaks*. Three pieces, consumed across the stack:
//!
//! 1. **Fault events** ([`FaultSpec`] → [`materialize_faults`]) — a
//!    seeded, deterministic stream of [`FaultEvent`]s materialized onto
//!    the exact integer duration grid (`2^-38` s, the same discipline as
//!    `materialize_arrivals` in `madmax-serve`): per-fleet exponential
//!    MTBF for **fatal** faults (devices lost until recovery, in-flight
//!    work interrupted), exponential **transient** faults (link
//!    degradation / stragglers as a step-cost slowdown factor), and
//!    planned **maintenance** windows at fixed times. The same seed
//!    produces the same stream bit-for-bit at any thread count.
//! 2. **Checkpoint/restart pricing** ([`CheckpointModel`]) — the
//!    checkpoint write is the per-device restart-critical state
//!    (parameters + optimizer from `MemoryBreakdown`) drained through
//!    the fabric via the existing collective model; restart is the
//!    reload of the same bytes. Plans that replicate state (DDP-style)
//!    pay bigger checkpoints than plans that shard it (FSDP-style) —
//!    exactly the asymmetry that makes the goodput-optimal plan diverge
//!    from the latency-optimal one as MTBF shrinks.
//! 3. **Expected goodput** ([`expected_goodput`]) — the closed-form
//!    Young/Daly-style evaluator: with exponential failures at rate
//!    `λ = 1/MTBF`, restart cost `R`, and checkpoint segments of `τ`
//!    useful seconds plus a `δ`-second write, the expected wall time to
//!    commit one segment is `E[T] = (1/λ + R)(e^{λ(τ+δ)} − 1)` and the
//!    goodput fraction is `τ / E[T]`. [`young_daly_interval`] gives the
//!    first-order optimal interval `√(2δ·MTBF)`, and [`replay_goodput`]
//!    cross-checks the closed form against a seeded discrete-event
//!    replay of the same failure process (see `crates/fault/README.md`
//!    for the documented tolerance).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod events;
mod goodput;
mod spec;

pub use events::{materialize_faults, FaultError, FaultEvent, FaultKind};
pub use goodput::{
    expected_goodput, format_secs, replay_goodput, young_daly_interval, CheckpointModel,
    GoodputReport, MAX_REPLAY_DRAWS,
};
pub use spec::{FaultSpec, MaintenanceWindow, RetryPolicy};
