//! Checkpoint/restart pricing and the expected-goodput evaluator.
//!
//! ## Checkpoint pricing
//!
//! The restart-critical state of a training job is its parameters plus
//! optimizer state — exactly the `params` and `optimizer` terms of
//! [`MemoryBreakdown`]. [`CheckpointModel::price`] drains that
//! per-device footprint through the fabric as a point-to-point transfer
//! priced by the existing [`CollectiveModel`], so a plan that shards
//! state (FSDP) checkpoints proportionally faster than one that
//! replicates it (DDP) — the asymmetry the goodput search exploits.
//!
//! ## The closed form
//!
//! With exponential failures at rate `λ = 1/MTBF` and restart cost `R`
//! (state reload; lost work is accounted by the restart-from-checkpoint
//! semantics), a checkpoint segment of `τ` useful seconds plus a
//! `δ`-second write completes in expected wall time
//!
//! ```text
//! E[T] = (1/λ + R) · (e^{λ(τ+δ)} − 1)
//! ```
//!
//! (the classic exact result for work that must complete between
//! failures, restarting from the last checkpoint). The goodput fraction
//! is `τ / E[T]`; as `λ → 0` it approaches `τ / (τ + δ)`, the pure
//! checkpoint tax. [`young_daly_interval`] gives the first-order
//! optimal `τ ≈ √(2δ·MTBF)`, and [`replay_goodput`] validates the
//! closed form by discrete-event replay of the same process under a
//! seeded PRNG (tolerance documented in `crates/fault/README.md`).

use madmax_core::collective::CollectiveModel;
use madmax_hw::units::{ByteCount, Seconds};
use madmax_hw::ClusterSpec;
use madmax_parallel::{CollectiveKind, CommPosition, CommReq, CommScope, MemoryBreakdown, Urgency};
use serde::Serialize;

/// Priced checkpoint/restart costs of one plan on one cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointModel {
    /// Restart-critical state per device (params + optimizer).
    pub state_bytes: ByteCount,
    /// Checkpoint write time (state drained through the fabric).
    pub write: Seconds,
    /// Restart cost: state reload (lost work since the last checkpoint
    /// is accounted separately by the goodput formula).
    pub restart: Seconds,
}

impl CheckpointModel {
    /// Prices checkpoint/restart from a plan's per-device memory
    /// breakdown: the write drains `params + optimizer` bytes through
    /// the fabric (point-to-point, global scope — checkpoint traffic
    /// crosses the slowest level toward persistent storage), the
    /// restart reloads the same bytes.
    pub fn price(
        memory: &MemoryBreakdown,
        cluster: &ClusterSpec,
        collectives: &dyn CollectiveModel,
    ) -> Self {
        let state_bytes = memory.params + memory.optimizer;
        let req = CommReq {
            collective: CollectiveKind::PointToPoint,
            scope: CommScope::Global,
            group_size: 2,
            payload: state_bytes,
            urgency: Urgency::Blocking,
            position: CommPosition::AfterCompute,
            label: "ckpt.write".to_owned(),
        };
        let write = collectives.time(&req, cluster);
        CheckpointModel {
            state_bytes,
            write,
            restart: write,
        }
    }
}

/// The expected-goodput evaluation of one plan under one fault process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GoodputReport {
    /// Fleet MTBF, seconds.
    pub mtbf: f64,
    /// Checkpoint interval evaluated (useful seconds between writes).
    pub interval: f64,
    /// Checkpoint write time, seconds.
    pub checkpoint_write: f64,
    /// Restart cost, seconds.
    pub restart: f64,
    /// Iterations per second with no faults and no checkpoints.
    pub fault_free_throughput: f64,
    /// Useful time / expected wall time, in `(0, 1]`.
    pub goodput_fraction: f64,
    /// Expected iterations per second under faults:
    /// `goodput_fraction * fault_free_throughput`.
    pub effective_throughput: f64,
}

/// The Young/Daly first-order optimal checkpoint interval
/// `√(2 · write · MTBF)` seconds, floored at one checkpoint write.
pub fn young_daly_interval(write: f64, mtbf: f64) -> f64 {
    (2.0 * write * mtbf).sqrt().max(write)
}

/// Evaluates the closed-form expected goodput of a job with iteration
/// time `iter_time` seconds, checkpointing every `interval` useful
/// seconds, under exponential failures with the given fleet `mtbf` and
/// a `restart`-second restart. All times in seconds; `interval`,
/// `iter_time`, and `mtbf` must be positive (checked by callers via
/// [`FaultSpec::validate`](crate::FaultSpec::validate)).
///
/// The fraction falls as the MTBF shrinks, but not at the last few ulps:
/// `(mtbf + restart) · exp_m1(λ · span)` rounds in `λ`, in `λ · span`, in
/// `exp_m1`, in the sum and in the product. At a large MTBF that noise is
/// larger than the true change between nearby MTBFs, so the rounded
/// fraction can rise by a few ulps as the MTBF shrinks.
pub fn expected_goodput(
    iter_time: f64,
    write: f64,
    restart: f64,
    mtbf: f64,
    interval: f64,
) -> GoodputReport {
    let lambda = 1.0 / mtbf;
    let span = interval + write;
    // E[T] per segment; e^{λ·span} overflows only for spans thousands of
    // MTBFs long, where the fraction is indistinguishable from 0. `exp_m1`
    // keeps e^{λ·span} − 1 exact when λ·span is tiny (a large MTBF),
    // where `exp() - 1.0` cancels to 0.
    let expected = (mtbf + restart) * (lambda * span).exp_m1();
    let fraction = if expected.is_finite() && expected > 0.0 {
        (interval / expected).min(1.0)
    } else {
        0.0
    };
    let fault_free = 1.0 / iter_time;
    GoodputReport {
        mtbf,
        interval,
        checkpoint_write: write,
        restart,
        fault_free_throughput: fault_free,
        goodput_fraction: fraction,
        effective_throughput: fraction * fault_free,
    }
}

/// xorshift64* (the crate-wide PRNG) for the replay.
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn uniform_01(state: &mut u64) -> f64 {
    let bits = next_u64(state) >> 11;
    (bits + 1) as f64 / (1u64 << 53) as f64
}

/// The most exponential draws one [`replay_goodput`] call may make.
/// A segment retries until a failure-free draw, which takes
/// `e^{(interval + write) / mtbf}` draws on average, so a span many MTBFs
/// long cannot be replayed in bounded time.
pub const MAX_REPLAY_DRAWS: u64 = 50_000_000;

/// Formats a time in seconds with four significant digits: fixed-point
/// from 1 ms to 10^6 s (`3600`, `48.30`, `0.005000`), scientific outside
/// that range (`1.000e-9`), so sub-millisecond times never print as 0.
pub fn format_secs(secs: f64) -> String {
    if secs == 0.0 || !secs.is_finite() {
        return format!("{secs}");
    }
    let exponent = secs.abs().log10().floor();
    if (-3.0..6.0).contains(&exponent) {
        let decimals = (3.0 - exponent).max(0.0) as usize;
        format!("{secs:.decimals$}")
    } else {
        format!("{secs:.3e}")
    }
}

/// Cross-checks [`expected_goodput`] by seeded discrete-event replay:
/// simulates `segments` checkpoint segments under the same exponential
/// failure process (draw time-to-failure; a failure inside the segment
/// pays the elapsed time plus the restart and re-runs the segment from
/// the checkpoint) and returns the measured goodput fraction
/// `useful / wall`. Deterministic for a fixed seed.
///
/// # Errors
///
/// Returns why the process is not replayable when the replay would need
/// more than [`MAX_REPLAY_DRAWS`] draws — expectedly, judged up front
/// from the segment span and MTBF, or actually, counted as it runs.
pub fn replay_goodput(
    write: f64,
    restart: f64,
    mtbf: f64,
    interval: f64,
    seed: u64,
    segments: usize,
) -> Result<f64, String> {
    let span = interval + write;
    let per_segment = (span / mtbf).exp();
    let not_replayable = || {
        format!(
            "a {} s checkpoint segment at MTBF {} s takes ~{per_segment:.3e} \
             failure draws to complete; {segments} segments exceed the budget of \
             {MAX_REPLAY_DRAWS} draws",
            format_secs(span),
            format_secs(mtbf)
        )
    };
    if per_segment * segments as f64 > MAX_REPLAY_DRAWS as f64 {
        return Err(not_replayable());
    }
    let mut state = if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    };
    let mut draws = 0u64;
    let mut wall = 0.0f64;
    let mut useful = 0.0f64;
    for _ in 0..segments {
        // Memoryless failures: each attempt draws a fresh exponential
        // time-to-failure.
        loop {
            draws += 1;
            if draws > MAX_REPLAY_DRAWS {
                return Err(not_replayable());
            }
            let ttf = -uniform_01(&mut state).ln() * mtbf;
            if ttf >= span {
                wall += span;
                useful += interval;
                break;
            }
            wall += ttf + restart;
        }
    }
    Ok(if wall > 0.0 { useful / wall } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_keep_four_significant_digits() {
        assert_eq!(format_secs(3600.0), "3600");
        assert_eq!(format_secs(48.3), "48.30");
        assert_eq!(format_secs(0.005), "0.005000");
        assert_eq!(format_secs(1e-9), "1.000e-9");
        assert_eq!(format_secs(2.5e7), "2.500e7");
        assert_eq!(format_secs(0.0), "0");
    }
    use madmax_core::collective::HierarchicalNccl;
    use madmax_hw::catalog;
    use madmax_model::ModelId;
    use madmax_parallel::{memory_per_device, Plan, Workload};

    #[test]
    fn checkpoint_price_scales_with_per_device_state() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        let mem = memory_per_device(&model, &sys, &plan, &Workload::pretrain());
        let ckpt = CheckpointModel::price(&mem, &sys, &HierarchicalNccl);
        assert!(ckpt.write.as_secs() > 0.0);
        assert_eq!(ckpt.restart, ckpt.write);
        // Doubling the state doubles the drain time under a linear
        // bandwidth model.
        let double = MemoryBreakdown {
            params: mem.params * 2.0,
            optimizer: mem.optimizer * 2.0,
            ..mem
        };
        let ckpt2 = CheckpointModel::price(&double, &sys, &HierarchicalNccl);
        assert!((ckpt2.write.as_secs() / ckpt.write.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn goodput_degrades_as_mtbf_shrinks() {
        let at = |mtbf: f64| expected_goodput(1.0, 10.0, 10.0, mtbf, 100.0).goodput_fraction;
        let plentiful = at(1e6);
        let scarce = at(100.0);
        assert!(plentiful > scarce, "{plentiful} vs {scarce}");
        // With effectively no faults the only tax is the checkpoint
        // write: 100 / 110.
        assert!((plentiful - 100.0 / 110.0).abs() < 1e-3, "{plentiful}");
        assert!(scarce > 0.0 && scarce < 1.0);
    }

    #[test]
    fn goodput_stays_exact_at_very_large_mtbfs() {
        // A 30 ms checkpoint write at the Young/Daly interval: at MTBF
        // 1e40 s the segment is ~1e-21 MTBFs long, and the fraction is
        // the checkpoint tax alone, not a cancelled 0.
        let (write, restart) = (0.03, 30.03);
        let at_young_daly = |mtbf: f64| {
            expected_goodput(5.58, write, restart, mtbf, young_daly_interval(write, mtbf))
                .goodput_fraction
        };
        assert!(at_young_daly(1e40) > 0.99, "{}", at_young_daly(1e40));
        // At a fixed interval, goodput never reaches 0 and never rises as
        // the MTBF shrinks by more than rounding noise: between MTBF 1e300
        // and 1e3 it rises 46 times from one decade to the next, by at most
        // 3 ulps (see `expected_goodput`).
        const MAX_RISE_ULPS: u64 = 3;
        let mut previous = f64::INFINITY;
        for exponent in (3..=300).rev() {
            let mtbf = 10f64.powi(exponent);
            let fraction = expected_goodput(5.58, write, restart, mtbf, 600.0).goodput_fraction;
            assert!(
                fraction > 0.0 && fraction.to_bits() <= previous.to_bits() + MAX_RISE_ULPS,
                "MTBF {mtbf:e}: {fraction} after {previous}"
            );
            previous = fraction;
        }
    }

    #[test]
    fn young_daly_interval_is_near_the_closed_form_optimum() {
        let (write, restart, mtbf) = (30.0, 30.0, 3600.0);
        let tau = young_daly_interval(write, mtbf);
        let at = |t: f64| expected_goodput(1.0, write, restart, mtbf, t).goodput_fraction;
        let best = at(tau);
        // Both an aggressive and a lazy interval must do worse.
        assert!(best >= at(tau / 4.0), "{best} vs {}", at(tau / 4.0));
        assert!(best >= at(tau * 4.0), "{best} vs {}", at(tau * 4.0));
    }

    #[test]
    fn replay_matches_the_closed_form_within_tolerance() {
        // The documented cross-check: 200k seeded segments vs the exact
        // expectation, within 2% relative (see crates/fault/README.md).
        for (write, restart, mtbf, interval) in [
            (10.0, 10.0, 3600.0, 268.0),
            (30.0, 60.0, 1800.0, 300.0),
            (5.0, 5.0, 120.0, 34.0),
        ] {
            let closed = expected_goodput(1.0, write, restart, mtbf, interval).goodput_fraction;
            let replayed = replay_goodput(write, restart, mtbf, interval, 42, 200_000).unwrap();
            let rel = (closed - replayed).abs() / closed;
            assert!(
                rel < 0.02,
                "closed {closed} vs replay {replayed} (rel {rel})"
            );
        }
    }

    #[test]
    fn replay_is_seed_deterministic() {
        let a = replay_goodput(10.0, 10.0, 600.0, 100.0, 7, 10_000).unwrap();
        let b = replay_goodput(10.0, 10.0, 600.0, 100.0, 7, 10_000).unwrap();
        assert_eq!(a, b);
        let c = replay_goodput(10.0, 10.0, 600.0, 100.0, 8, 10_000).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn spans_many_mtbfs_long_are_not_replayable() {
        // A 600 s interval at MTBF 60 s needs ~e^10 draws per segment and
        // at MTBF 10 s ~e^60: both are refused up front instead of
        // spinning. The closed form still evaluates them.
        for mtbf in [60.0, 10.0] {
            let err = replay_goodput(30.0, 30.0, mtbf, 600.0, 7, 200_000).unwrap_err();
            assert!(err.contains("budget"), "{err}");
            let closed = expected_goodput(1.0, 30.0, 30.0, mtbf, 600.0);
            assert!(closed.goodput_fraction >= 0.0 && closed.goodput_fraction < 1e-3);
        }
    }
}
