//! Closed-form steady-state decode evaluation: collapses the token axis
//! of serve schedules.
//!
//! # The problem
//!
//! A serve trace is a prefill followed by `decode_len` autoregressive
//! token passes. Once the pipeline is full, the decode schedule is
//! *periodic*: every token issues the same ops on the same streams with
//! the same dependency shape, so event-scheduling tens of thousands of
//! decode ops per candidate re-derives the same steady state over and
//! over. This module simulates only the prefill and a short transient
//! prefix of explicit tokens, extracts the per-token *template* (op
//! durations, streams, and intra/inter-token dependencies), and then
//! advances the remaining tokens directly on the template in exact
//! integer arithmetic — a few dozen adds and maxes per token, with no
//! ops materialized, no scheduler heap, and no end-of-run report sweep —
//! synthesizing the full [`IterationReport`] at the end. Once the
//! pipeline is full, the recurrence settles into the analytic steady
//! period
//!
//! ```text
//! period(t) = max( Σ_s (d_s(t) + comm_s(t) + send_s(t)),  max_s m·d_s(t) )
//! ```
//!
//! over stages `s` with `m` microbatch groups in flight — chain latency
//! vs. bottleneck-stage throughput — which is the same period the
//! verifier's `steady-period` rule re-derives from fully simulated
//! traces to cross-check both paths.
//!
//! Stepping the template is already orders of magnitude cheaper than
//! event scheduling, but its cost still grows with `decode_len`. The
//! evaluator therefore *jumps* the steady region in closed form: because
//! the KV-cache read makes every duration affine in the token index,
//! once the recurrence's binding stabilizes every finish time, queue
//! timestamp, and per-token exposure is **exactly quadratic** in the
//! token index with integer Newton coefficients. Three consecutive
//! stepped states fit those quadratics; one *symbolic* token step then
//! certifies them — every max, min, and branch the concrete step would
//! take is shown to resolve identically across the whole remaining range
//! via integer quadratic inequalities in `i128` (endpoints plus the
//! convex vertex) — and must map the fitted state exactly onto its own
//! one-token shift. Induction from the live state then licenses the
//! jump: totals advance by closed-form arithmetic-series sums, the final
//! state is reconstructed by polynomial evaluation, and the drain-edge
//! flush (the last token's communication has no later compute to hide
//! behind) runs on that reconstructed state exactly as it would after
//! stepping. A certified jump always reaches the last token, so
//! per-search wall clock becomes (near-)independent of `decode_len`
//! whenever a certificate lands. A failed certificate — e.g. while the
//! pipeline-fill transient is still settling — just moves the attempt
//! point (with exponential backoff) and keeps stepping, which is exact
//! regardless. That includes a binding that genuinely changes partway
//! through the range (two timestamp quadratics with slightly different
//! KV-stretch rates crossing): there is no partial jump to just short of
//! the crossing, so such a schedule steps up to it, and a later attempt
//! past it may still jump the rest.
//!
//! A run also reports its [`crate::metrics::DecodeTail`], the makespans
//! after `L − 2`, `L − 1` and `L` tokens: read off the live state when
//! those tokens are stepped, and off the certified quadratics of the
//! stream availabilities when a jump skips them (the certificate makes
//! every intermediate state exact, not only the final one). Decode
//! tokens only depend on earlier ones, so each entry is the iteration
//! time of a separate run of that length, bit for bit: the load
//! simulator's cost model (`madmax_serve::StepCostModel`) reads three
//! decode lengths off one run.
//!
//! # The duration grid
//!
//! Byte-identical reports require *exact* arithmetic: the full simulator
//! accumulates `f64` start/finish times op by op, so any closed form must
//! reproduce its floating-point results bit for bit. To make that
//! tractable, serve traces (and only serve traces — training and
//! prefill-only assembly is untouched) are built on a duration grid of
//! `2^-38` seconds (~3.6 picoseconds, ~8 significant decimal digits of
//! headroom at millisecond scale): every op duration is rounded to the
//! nearest grid multiple at assembly time, by both the flat and the
//! pipelined builder. Grid multiples below `2^52` units (~16384 s — wide
//! enough for every in-tree serve span, including the multi-thousand-
//! second flat decode streams of the serve searches) are
//! exactly representable in `f64`, and sums, differences, `min`/`max`
//! of such multiples are again exact grid multiples, so *every* quantity
//! the scheduler and the report sweep compute — start/finish times,
//! busy-interval intersections, exposure measures, per-kind totals — is
//! exact and independent of accumulation order. The evaluator here runs
//! the same recurrence in `i64` grid units and converts back to `f64`
//! once, producing bit-identical values by construction.
//!
//! The KV-cache read makes decode durations *affine* in the step index:
//! [`decode_compute_duration`] computes
//! `quantize(base + rate * kv_start) + quantize(rate) * step`, which is
//! an exact arithmetic series on the grid, so per-token durations stay
//! exactly representable at every step (the per-token arithmetic-series
//! correction of the aperiodic KV-stretch case).
//!
//! # Exactness conditions and fallback
//!
//! Both engines call this module through one gate, the shared evaluator
//! [`crate::evaluate_priced`]. The closed form declines — and the
//! evaluator falls back to full assembly + simulation — when any of these
//! fail:
//!
//! - every duration of the prefix trace is a non-negative grid multiple
//!   below `2^52` units (assembly guarantees this for engine-built serve
//!   traces; hand-built traces may not qualify);
//! - decode ops form the trace suffix, split into `explicit_tokens`
//!   equal-length runs with identical stream/kind structure and
//!   dependencies reaching at most one token back;
//! - per-op durations across tokens follow an exact arithmetic series
//!   (constant per-token increment);
//! - no op runs on a gradient-communication stream and no collective
//!   runs on a compute stream (serve traces have one compute and at most
//!   one active comm stream per device, which makes exposed-communication
//!   accounting per-op additive);
//! - all finish times and duration sums stay below `2^52` grid units.
//!
//! Structural fallback is about *safety*, not speed — and it is layered:
//! when the *jump* certificate fails (binding not yet stable, crossing
//! quadratics, a queue shape that does not repeat), the evaluator falls
//! back to explicit per-token stepping, which is still exact and still
//! orders of magnitude cheaper than materializing and sweeping the full
//! trace; only the structural conditions above force full simulation.

use std::collections::VecDeque;

use madmax_hw::units::Seconds;
use madmax_model::{LayerClass, ModelArch};
use madmax_parallel::MemoryBreakdown;

use crate::counters::CacheCounters;
use crate::metrics::{
    class_idx, comm_stream_device, device_slot, kind_idx, to_map, DecodeTail, IterationReport,
    ServeStats, COLLECTIVES,
};
use crate::sim::EngineScratch;
use crate::trace::{OpKind, Phase, StreamId, Trace};

/// Grid resolution: durations are multiples of `2^-GRID_BITS` seconds.
/// 38 bits (~3.6 ps) keeps per-op rounding far below modeling accuracy
/// while the exact range `2^(52-38)` s covers every in-tree serve span.
pub(crate) const GRID_BITS: u32 = 38;

/// Largest exactly-safe magnitude in grid units: below `2^52` units every
/// value (and every pairwise sum) stays exactly representable in `f64`.
/// The load simulator's and the fault streams' timestamps stay below it
/// too.
pub const MAX_UNITS: i64 = 1 << 52;

/// Decode length below which the closed form declines: the
/// explicit transient prefix would cover most of the stream anyway, so
/// full simulation is just as fast.
pub const MIN_ANALYTIC_DECODE: usize = 32;

/// Explicit transient decode tokens simulated before template
/// extraction: the minimum that confirms the per-token arithmetic
/// series (reference token, two confirmation tokens, plus the token the
/// templates are anchored on). Pipeline-fill transients longer than
/// this are handled by the stepping loop — the jump certificate simply
/// fails until the binding settles.
const EXPLICIT_TOKENS: usize = 4;

/// Grid units per second, as the exact `f64` `2^GRID_BITS`.
fn unit_scale() -> f64 {
    (1u64 << GRID_BITS) as f64
}

/// Rounds a duration to the nearest grid multiple. Idempotent on grid
/// multiples; negative and non-finite inputs pass through unchanged (the
/// debug checker and the fallback path reject them downstream).
pub fn quantize(d: Seconds) -> Seconds {
    let s = d.as_secs();
    if !s.is_finite() {
        return d;
    }
    Seconds::new((s * unit_scale()).round() / unit_scale())
}

/// The decode-step compute duration at token `step`, exactly affine on
/// the grid: `quantize(base + rate * kv_start) + quantize(rate) * step`.
///
/// Both serve builders route decode compute through this helper so the
/// per-token KV-cache stretch forms an exact arithmetic series — the
/// property the steady-state evaluator's extrapolation relies on.
pub fn decode_compute_duration(
    base: Seconds,
    rate_per_token: Seconds,
    kv_start: f64,
    step: u32,
) -> Seconds {
    quantize(base + rate_per_token * kv_start) + quantize(rate_per_token) * step as f64
}

/// Whether a time span fits the exact grid range (`< 2^52` grid units,
/// about 16384 s at the current resolution). The closed form only engages
/// when every scheduled finish time *and* the serialized total stay in
/// range — beyond it, grid sums are no longer exact in `f64` and the
/// evaluator falls back to full simulation. Callers can apply this to a
/// fully simulated report's `iteration_time` and `serialized_time` to
/// predict whether the analytic path covers a scenario.
pub fn fits_grid_range(t: Seconds) -> bool {
    let u = t.as_secs() * unit_scale();
    u.is_finite() && u >= 0.0 && u < MAX_UNITS as f64
}

// --- Event-layer re-entry API -------------------------------------------
//
// The continuous-batching load simulator (`madmax-serve`) layers an
// event-driven clock on top of this module's duration grid: between
// arrival/completion/eviction events the in-flight set is stable, every
// decode step costs the same affine `c + r*k` grid units the certified
// jump already extrapolates, and the event layer advances whole runs of
// steps as closed-form series sums. These helpers expose exactly the
// integer arithmetic that jump uses — unit conversion, checked series
// totals, and the binary search that localizes the first step crossing a
// deadline — so the layer above re-enters the same exactness argument
// instead of re-deriving it.

/// The exact grid-unit count of a duration, or `None` when it is not a
/// safe grid multiple (negative, non-finite, fractional, or `>= 2^52`
/// units). Public face of the closed form's unit conversion for the
/// event-driven serve layer.
pub fn grid_units(d: Seconds) -> Option<i64> {
    let s = d.as_secs();
    if !s.is_finite() || s < 0.0 {
        return None;
    }
    let u = s * unit_scale();
    if u.fract() != 0.0 || u >= MAX_UNITS as f64 {
        return None;
    }
    Some(u as i64)
}

/// Converts grid units back to seconds; exact for `|u| < 2^52`.
pub fn grid_seconds(u: i64) -> Seconds {
    Seconds::new(u as f64 / unit_scale())
}

/// Converts an exact grid-unit total (a sum of [`grid_units`] counts)
/// back to seconds, or `None` when it is negative or leaves the exact grid
/// range.
pub fn grid_total_seconds(u: i128) -> Option<Seconds> {
    (0..i128::from(MAX_UNITS))
        .contains(&u)
        .then(|| grid_seconds(u as i64))
}

/// Rounds an arbitrary non-negative duration to the nearest on-grid unit
/// count, clamping into the exact range. The trace/Poisson arrival clocks
/// of the load simulator snap to the grid through this, so every event
/// timestamp shares the closed form's exactness domain.
pub fn grid_units_round(d: Seconds) -> Option<i64> {
    let s = d.as_secs();
    if !s.is_finite() || s < 0.0 {
        return None;
    }
    let u = (s * unit_scale()).round();
    if u >= MAX_UNITS as f64 {
        return None;
    }
    #[allow(clippy::cast_possible_truncation)]
    Some(u as i64)
}

/// Total duration of `n` consecutive affine steps where step `k`
/// (`0 <= k < n`) costs `c + r * (start + k)` grid units: the series sum
/// `n*c + r*(n*start + n*(n-1)/2)`, computed in `i128` and rejected
/// (`None`) when any intermediate step cost is negative or the total
/// leaves the exact grid range. This is the same arithmetic-series total
/// the certified jump advances its accumulators by.
pub fn affine_series_units(c: i64, r: i64, start: i64, n: i64) -> Option<i64> {
    if n < 0 || start < 0 {
        return None;
    }
    if n == 0 {
        return Some(0);
    }
    // Affine step costs are monotone in k, so the extremes bound the run.
    let first = i128::from(c) + i128::from(r) * i128::from(start);
    let last = i128::from(c) + i128::from(r) * (i128::from(start) + i128::from(n) - 1);
    if first.min(last) < 0 {
        return None;
    }
    let n128 = i128::from(n);
    let total =
        n128 * i128::from(c) + i128::from(r) * (n128 * i128::from(start) + n128 * (n128 - 1) / 2);
    if total >= i128::from(MAX_UNITS) {
        return None;
    }
    i64::try_from(total).ok()
}

/// The smallest `n` in `1..=max_n` whose cumulative series total
/// [`affine_series_units`]`(c, r, start, n)` reaches `target`, or `None`
/// when even `max_n` steps stay short (or the series leaves the exact
/// range first). Requires non-negative step costs over the whole range so
/// the cumulative total is monotone — the binary search that localizes
/// arrival/horizon crossings for the event layer.
pub fn first_series_crossing(c: i64, r: i64, start: i64, max_n: i64, target: i64) -> Option<i64> {
    if max_n < 1 {
        return None;
    }
    let total = affine_series_units(c, r, start, max_n)?;
    if total < target {
        return None;
    }
    let (mut lo, mut hi) = (1i64, max_n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // In range: the `max_n` total was, and totals are monotone.
        let t = affine_series_units(c, r, start, mid).expect("prefix of an in-range series");
        if t >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Serve-stream dimensions of the candidate under evaluation, used to
/// attach [`ServeStats`] to the synthesized report.
#[derive(Debug, Clone, Copy)]
pub struct ServeDims {
    /// Resolved prompt length.
    pub prompt_len: usize,
    /// Output tokens per sequence.
    pub decode_len: usize,
    /// Sequences decoded concurrently.
    pub decode_batch: usize,
}

/// Scalar accounting bucket of one template op (dense indices match the
/// report sweep's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Acc {
    /// GEMM time, by dense layer-class index.
    Gemm(u8),
    /// Embedding lookup time.
    Lookup,
    /// Optimizer time (never in a decode token, but kept total).
    Optimizer,
    /// Collective time, by dense collective index.
    Coll(u8),
}

/// A dependency of a template op, relative to the token structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TplDep {
    /// Op `j` of the same token.
    Same(u32),
    /// Op `j` of the previous token.
    Prev(u32),
}

/// One op of the per-token template: everything the evaluator needs to
/// advance the schedule and the report accumulators by one token.
#[derive(Debug, Clone)]
struct TplOp {
    /// Dense stream slot ([`StreamId::slot`]).
    slot: u32,
    /// Device of the stream ([`device_slot`] for compute,
    /// [`comm_stream_device`] for comm).
    device: u32,
    /// Whether the stream occupies compute resources.
    compute: bool,
    /// Pipeline stage of a `StageCompute` stream, for busy accounting.
    stage: Option<u16>,
    /// Scalar accounting bucket.
    acc: Acc,
    /// Duration at token `t` is `base + rate * t` grid units.
    base: i64,
    /// Per-token duration increment (the quantized KV read rate).
    rate: i64,
    /// Dependencies, relative to the token structure.
    deps: Vec<TplDep>,
}

/// Per-device exposure bookkeeping: retained compute windows and comm
/// ops awaiting finalization, in grid units.
#[derive(Debug, Default)]
struct DevState {
    /// Stream slot of this device's compute stream.
    compute_slot: u32,
    /// Unpruned compute windows `(start, finish)`, in start order.
    cw: VecDeque<(i64, i64)>,
    /// Comm ops `(start, finish, kind_idx)` whose exposure is not final
    /// yet (a future compute window could still overlap them).
    pending: VecDeque<(i64, i64, u8)>,
    /// Whether the token template has any comm op on this device; if not
    /// (and nothing is pending), compute windows need not be retained.
    token_comm: bool,
}

/// Reusable buffers for the closed-form evaluator
/// (behind [`crate::evaluate_priced`]), part of every `EngineScratch`.
#[derive(Debug, Default)]
pub struct SteadyScratch {
    /// Per-op finish times of the explicit prefix, by op index.
    fin: Vec<i64>,
    /// Per-stream-slot availability, in grid units.
    avail: Vec<i64>,
    /// Template-op finish times of the current / previous token.
    cur: Vec<i64>,
    prev: Vec<i64>,
    /// Per-device exposure state.
    devs: Vec<DevState>,
    /// The extracted per-token template.
    tpl: Vec<TplOp>,
    /// Per-stage compute busy time, dense by stage index.
    stage_busy: Vec<i64>,
    /// Whether device slot `d` ever ran a compute op.
    device_seen: Vec<bool>,
}

/// Scalar report accumulators, all in exact grid units.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    serialized: i64,
    gemm: i64,
    lookup: i64,
    optimizer: i64,
    comm: i64,
    comm_by: [i64; 5],
    comm_touched: [bool; 5],
    gemm_by: [i64; 4],
    gemm_touched: [bool; 4],
    exposed: i64,
    exposed_by: [i64; 5],
    exposed_touched: [bool; 5],
}

impl Totals {
    /// Records one op's duration in its scalar bucket.
    fn add(&mut self, acc: Acc, dur: i64) {
        self.serialized += dur;
        match acc {
            Acc::Gemm(c) => {
                self.gemm += dur;
                self.gemm_by[c as usize] += dur;
                self.gemm_touched[c as usize] = true;
            }
            Acc::Lookup => self.lookup += dur,
            Acc::Optimizer => self.optimizer += dur,
            Acc::Coll(k) => {
                self.comm += dur;
                self.comm_by[k as usize] += dur;
                self.comm_touched[k as usize] = true;
            }
        }
    }
}

/// Classifies one trace op into its accounting bucket, rejecting the
/// structures the additive exposure argument cannot cover: collectives on
/// compute streams and any use of a gradient-communication stream.
fn classify(stream: StreamId, kind: OpKind) -> Option<Acc> {
    if matches!(stream, StreamId::GradComm | StreamId::StageGradComm(_)) {
        return None;
    }
    match kind {
        OpKind::Gemm { class } => stream
            .is_compute()
            .then(|| Acc::Gemm(class_idx(class) as u8)),
        OpKind::Lookup => stream.is_compute().then_some(Acc::Lookup),
        OpKind::Optimizer => stream.is_compute().then_some(Acc::Optimizer),
        OpKind::Collective { kind } => stream.is_comm().then(|| Acc::Coll(kind_idx(kind) as u8)),
    }
}

/// The device a stream belongs to (compute and comm mapped consistently
/// with the report sweep's bucketing).
fn device_of(stream: StreamId) -> usize {
    if stream.is_compute() {
        device_slot(stream.stage())
    } else {
        comm_stream_device(stream.slot())
    }
}

/// Stream slot of a device's compute stream (`Compute` for the flat
/// representative device, `StageCompute(d - 1)` for stage devices).
fn compute_slot_of(device: usize) -> u32 {
    if device == 0 {
        0
    } else {
        3 * device as u32
    }
}

/// Extracts the per-token template from the explicit prefix: token 1
/// provides the structure, token 2 the per-token duration increment, and
/// every further explicit token must confirm both. Returns the ops per
/// token, or `None` when the prefix is not token-periodic.
fn extract_template(
    trace: &Trace,
    prefill_ops: usize,
    explicit_tokens: usize,
    decode_len: usize,
    out: &mut Vec<TplOp>,
) -> Option<usize> {
    out.clear();
    let tok_ops = trace.len().checked_sub(prefill_ops)?;
    if explicit_tokens < 4 || tok_ops == 0 || tok_ops % explicit_tokens != 0 {
        return None;
    }
    let k = tok_ops / explicit_tokens;
    let base1 = prefill_ops + k;
    let ops = trace.ops();
    for j in 0..k {
        let op1 = &ops[base1 + j];
        let op2 = &ops[base1 + k + j];
        if op2.stream != op1.stream || op2.kind != op1.kind {
            return None;
        }
        let acc = classify(op1.stream, op1.kind)?;
        let d1 = grid_units(op1.duration)?;
        let d2 = grid_units(op2.duration)?;
        let rate = d2 - d1;
        let base = d1 - rate;
        if rate < 0 || base < 0 {
            return None;
        }
        // The duration at the final token must stay in the exact range.
        if base as i128 + rate as i128 * (decode_len as i128 - 1) >= MAX_UNITS as i128 {
            return None;
        }
        let mut deps = Vec::with_capacity(op1.deps.len());
        for &d in &op1.deps {
            let dep = if d.0 >= base1 {
                TplDep::Same((d.0 - base1) as u32)
            } else if d.0 >= prefill_ops {
                TplDep::Prev((d.0 - prefill_ops) as u32)
            } else {
                return None; // reaches past the previous token
            };
            deps.push(dep);
        }
        // Token 2's dependencies must be token 1's shifted by one token.
        if op2.deps.len() != op1.deps.len()
            || !op1
                .deps
                .iter()
                .zip(op2.deps.iter())
                .all(|(a, b)| b.0 == a.0 + k)
        {
            return None;
        }
        out.push(TplOp {
            slot: op1.stream.slot() as u32,
            device: device_of(op1.stream) as u32,
            compute: op1.stream.is_compute(),
            stage: match op1.stream {
                StreamId::StageCompute(s) => Some(s),
                _ => None,
            },
            acc,
            base,
            rate,
            deps,
        });
    }
    // Confirm the template against every further explicit token.
    for tok in 2..explicit_tokens {
        let at = prefill_ops + tok * k;
        for (j, tpl) in out.iter().enumerate() {
            let op = &ops[at + j];
            let ref_op = &ops[base1 + j];
            if op.stream != ref_op.stream
                || op.kind != ref_op.kind
                || op.phase != Phase::Decode
                || grid_units(op.duration)? != tpl.base + tpl.rate * tok as i64
                || op.deps.len() != ref_op.deps.len()
                || !ref_op
                    .deps
                    .iter()
                    .zip(op.deps.iter())
                    .all(|(a, b)| b.0 == a.0 + (tok - 1) * k)
            {
                return None;
            }
        }
    }
    Some(k)
}

/// Finalizes the exposure of one comm op `(cs, cf, kind)` against the
/// device's retained compute windows, mirroring the report sweep's
/// per-collective walk (prune windows ending at or before the comm
/// start, then accumulate intersections until one outlasts the op).
fn expose(dev: &mut DevState, cs: i64, cf: i64, kind: u8, totals: &mut Totals) {
    while let Some(&(_, wf)) = dev.cw.front() {
        if wf <= cs {
            dev.cw.pop_front();
        } else {
            break;
        }
    }
    let mut inter = 0i64;
    for &(ws, wf) in &dev.cw {
        let lo = cs.max(ws);
        let hi = cf.min(wf);
        if hi > lo {
            inter += hi - lo;
        }
        if cf < wf {
            break;
        }
    }
    let e = cf - cs - inter;
    totals.exposed += e;
    totals.exposed_by[kind as usize] += e;
    totals.exposed_touched[kind as usize] = true;
}

/// Pops every pending comm op whose exposure can no longer change: once
/// the device's compute stream is available at or past the op's finish,
/// no future compute window can start before it.
fn finalize_ready(dev: &mut DevState, avail: &[i64], totals: &mut Totals) {
    let ca = avail.get(dev.compute_slot as usize).copied().unwrap_or(0);
    while let Some(&(cs, cf, kind)) = dev.pending.front() {
        if ca < cf {
            break;
        }
        dev.pending.pop_front();
        expose(dev, cs, cf, kind, totals);
    }
}

/// Grows `devs` so `device` is addressable, wiring each new slot's
/// compute stream.
fn ensure_device(devs: &mut Vec<DevState>, device: usize) {
    while devs.len() <= device {
        let d = devs.len();
        devs.push(DevState {
            compute_slot: compute_slot_of(d),
            ..DevState::default()
        });
    }
}

/// A quadratic sequence in Newton form, `q(u) = a + b·u + c·u(u−1)/2`,
/// with exact `i128` coefficients.
///
/// Once the pipeline is full and the max-plus recurrence's binding
/// (which dependency determines each start) stabilizes, every finish
/// time is a sum of affine durations along a fixed path — exactly
/// quadratic in the token index with integer Newton coefficients. The
/// jump fits these quadratics from three consecutive states and
/// certifies them symbolically (see [`certify_and_jump`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Quad {
    a: i128,
    b: i128,
    c: i128,
}

impl Quad {
    const ZERO: Quad = Quad { a: 0, b: 0, c: 0 };

    /// The unique quadratic through three consecutive values
    /// `q(0), q(1), q(2)`.
    fn fit(v0: i64, v1: i64, v2: i64) -> Quad {
        let b = i128::from(v1) - i128::from(v0);
        Quad {
            a: i128::from(v0),
            b,
            c: (i128::from(v2) - i128::from(v1)) - b,
        }
    }

    fn eval(self, u: i128) -> i128 {
        self.a + self.b * u + self.c * (u * (u - 1) / 2)
    }

    /// The same sequence re-anchored one step later: `q'(u) = q(u+1)`.
    fn shift(self) -> Quad {
        Quad {
            a: self.a + self.b,
            b: self.b + self.c,
            c: self.c,
        }
    }

    fn add(self, o: Quad) -> Quad {
        Quad {
            a: self.a + o.a,
            b: self.b + o.b,
            c: self.c + o.c,
        }
    }

    fn sub(self, o: Quad) -> Quad {
        Quad {
            a: self.a - o.a,
            b: self.b - o.b,
            c: self.c - o.c,
        }
    }

    /// Adds the affine duration `d0 + r·u`.
    fn add_affine(self, d0: i64, r: i64) -> Quad {
        Quad {
            a: self.a + i128::from(d0),
            b: self.b + i128::from(r),
            c: self.c,
        }
    }

    /// `Σ_{u=0}^{n−1} q(u) = a·n + b·n(n−1)/2 + c·C(n,3)`, exact.
    fn sum(self, n: i128) -> i128 {
        self.a * n + self.b * (n * (n - 1) / 2) + self.c * (n * (n - 1) * (n - 2) / 6)
    }

    /// Whether `q(u) ≥ 0` for every integer `u ∈ [0, hi]`. Endpoints
    /// always bind; a convex quadratic (`c > 0`) additionally needs the
    /// integer points flanking its real vertex.
    fn ge0_over(self, hi: i128) -> bool {
        if self.a < 0 || self.eval(hi) < 0 {
            return false;
        }
        if self.c > 0 {
            // In monomial form q = a + (b − c/2)·u + (c/2)·u², so the
            // minimum sits at u* = (c − 2b) / (2c).
            let v = (self.c - 2 * self.b).div_euclid(2 * self.c);
            for u in [v, v + 1] {
                if u > 0 && u < hi && self.eval(u) < 0 {
                    return false;
                }
            }
        }
        true
    }
}

/// `Some(true)` when `x(u) ≥ y(u)` for every integer `u ∈ [0, hi]`,
/// `Some(false)` when `x(u) < y(u)` throughout, `None` when the order
/// flips inside the range (the certificate fails).
fn cmp_ge(x: Quad, y: Quad, hi: i128) -> Option<bool> {
    let d = x.sub(y);
    if d.ge0_over(hi) {
        Some(true)
    } else if (Quad {
        a: -d.a - 1,
        b: -d.b,
        c: -d.c,
    })
    .ge0_over(hi)
    {
        Some(false)
    } else {
        None
    }
}

/// The pointwise max of two quadratics over `[0, hi]`, when one
/// dominates throughout; `None` when they cross.
fn dominant_max(x: Quad, y: Quad, hi: i128) -> Option<Quad> {
    if x.sub(y).ge0_over(hi) {
        Some(x)
    } else if y.sub(x).ge0_over(hi) {
        Some(y)
    } else {
        None
    }
}

/// The pointwise min of two quadratics over `[0, hi]`, when one is
/// dominated throughout; `None` when they cross.
fn dominant_min(x: Quad, y: Quad, hi: i128) -> Option<Quad> {
    if x.sub(y).ge0_over(hi) {
        Some(y)
    } else if y.sub(x).ge0_over(hi) {
        Some(x)
    } else {
        None
    }
}

/// One full recurrence state — previous-token finishes, per-slot
/// availability, and the per-device exposure queues — captured after a
/// token step. Three consecutive snapshots fit the jump quadratics.
#[derive(Debug, Clone)]
struct Snap {
    prev: Vec<i64>,
    avail: Vec<i64>,
    cw: Vec<Vec<(i64, i64)>>,
    pending: Vec<Vec<(i64, i64, u8)>>,
}

impl Snap {
    fn capture(prev: &[i64], avail: &[i64], devs: &[DevState]) -> Snap {
        Snap {
            prev: prev.to_vec(),
            avail: avail.to_vec(),
            cw: devs
                .iter()
                .map(|d| d.cw.iter().copied().collect())
                .collect(),
            pending: devs
                .iter()
                .map(|d| d.pending.iter().copied().collect())
                .collect(),
        }
    }
}

/// Symbolic mirror of [`DevState`] with quadratic timestamps.
struct SymDev {
    compute_slot: u32,
    token_comm: bool,
    cw: VecDeque<(Quad, Quad)>,
    pending: VecDeque<(Quad, Quad, u8)>,
}

/// Symbolic mirror of [`expose`]: every prune, overlap, and break
/// decision must hold uniformly over the certification range.
fn sym_expose(
    cw: &mut VecDeque<(Quad, Quad)>,
    cs: Quad,
    cf: Quad,
    kind: u8,
    hi: i128,
    exposed: &mut [Quad; 5],
    touched: &mut [bool; 5],
) -> Option<()> {
    while let Some(&(_, wf)) = cw.front() {
        if cmp_ge(cs, wf, hi)? {
            cw.pop_front();
        } else {
            break;
        }
    }
    let one = Quad { a: 1, b: 0, c: 0 };
    let mut inter = Quad::ZERO;
    for &(ws, wf) in cw.iter() {
        let lo = dominant_max(cs, ws, hi)?;
        let top = dominant_min(cf, wf, hi)?;
        if cmp_ge(top, lo.add(one), hi)? {
            inter = inter.add(top.sub(lo));
        }
        if cmp_ge(wf, cf.add(one), hi)? {
            break;
        }
    }
    let e = cf.sub(cs).sub(inter);
    exposed[kind as usize] = exposed[kind as usize].add(e);
    touched[kind as usize] = true;
    Some(())
}

/// Symbolic mirror of [`finalize_ready`].
fn sym_finalize_ready(
    dev: &mut SymDev,
    savail: &[Quad],
    hi: i128,
    exposed: &mut [Quad; 5],
    touched: &mut [bool; 5],
) -> Option<()> {
    let ca = savail
        .get(dev.compute_slot as usize)
        .copied()
        .unwrap_or(Quad::ZERO);
    while let Some(&(cs, cf, kind)) = dev.pending.front() {
        if cmp_ge(ca, cf, hi)? {
            dev.pending.pop_front();
            sym_expose(&mut dev.cw, cs, cf, kind, hi, exposed, touched)?;
        } else {
            break;
        }
    }
    Some(())
}

/// Outcome of a jump attempt at a token boundary.
enum JumpOutcome {
    /// State and totals were fast-forwarded over the whole range asked
    /// for. The fits of the stream availabilities come along:
    /// `fits[slot].eval(u)` is the slot's availability after `u` jumped
    /// tokens, exactly, for every `u` up to the jump length.
    Jumped(Vec<Quad>),
    /// The certificate failed somewhere in the range; explicit stepping
    /// continues (still exact).
    NotCertified,
    /// The certified horizon leaves the exact grid range, exactly as the
    /// explicit loop's per-token guard would: fall back to full
    /// simulation.
    OutOfRange,
}

/// Attempts to fast-forward all `n` remaining tokens from `tok0` in
/// closed form.
///
/// `snaps` holds the states after tokens `tok0 − 3`, `tok0 − 2`, and
/// `tok0 − 1` (the live state). Each state component is fitted to the
/// unique Newton-form [`Quad`] through the three snapshots, then one
/// token step is executed *symbolically*: every max, min, and branch the
/// concrete step would take — dependency maxima, window pruning, overlap
/// accumulation, finalization order — is certified to resolve the same
/// way for every token in the jump range via integer quadratic
/// inequalities ([`Quad::ge0_over`]). If the symbolic step maps the
/// fitted state exactly onto its own one-token shift, induction from the
/// live state makes the quadratics exact for the whole range: totals
/// advance by closed-form series sums and the final state (including the
/// exposure queues the drain-edge flush needs) is reconstructed by
/// evaluation at the certified horizon. A comparison that flips anywhere
/// inside the range fails the attempt: there is no partial jump to just
/// short of the breakpoint, so a schedule whose binding changes
/// mid-decode steps up to its crossing (the caller's backoff sets when
/// it tries again).
#[allow(clippy::too_many_arguments)]
fn certify_and_jump(
    tpl: &[TplOp],
    snaps: &[Snap],
    n: i64,
    tok0: usize,
    prev: &mut [i64],
    avail: &mut [i64],
    devs: &mut [DevState],
    stage_busy: &mut [i64],
    totals: &mut Totals,
) -> JumpOutcome {
    let [s0, s1, s2] = snaps else {
        return JumpOutcome::NotCertified;
    };
    // Queue shapes must agree across the snapshots (and with the live
    // state, which s2 captured) for positional fitting to make sense.
    for d in 0..devs.len() {
        if s0.cw[d].len() != s2.cw[d].len()
            || s1.cw[d].len() != s2.cw[d].len()
            || s0.pending[d].len() != s2.pending[d].len()
            || s1.pending[d].len() != s2.pending[d].len()
            || !s0.pending[d]
                .iter()
                .zip(&s1.pending[d])
                .zip(&s2.pending[d])
                .all(|((a, b), c)| a.2 == b.2 && b.2 == c.2)
        {
            return JumpOutcome::NotCertified;
        }
    }
    // Fit each component through the snapshots, re-anchored at the live
    // state: u = 0 is the state after token tok0 − 1.
    let fit2 = |v0, v1, v2| Quad::fit(v0, v1, v2).shift().shift();
    let k = prev.len();
    let sprev: Vec<Quad> = (0..k)
        .map(|j| fit2(s0.prev[j], s1.prev[j], s2.prev[j]))
        .collect();
    let savail0: Vec<Quad> = (0..avail.len())
        .map(|i| fit2(s0.avail[i], s1.avail[i], s2.avail[i]))
        .collect();
    let mut orig_cw: Vec<Vec<(Quad, Quad)>> = Vec::with_capacity(devs.len());
    let mut orig_pending: Vec<Vec<(Quad, Quad, u8)>> = Vec::with_capacity(devs.len());
    let mut sdevs: Vec<SymDev> = Vec::with_capacity(devs.len());
    for (d, dev) in devs.iter().enumerate() {
        let cw: Vec<(Quad, Quad)> = (0..s2.cw[d].len())
            .map(|i| {
                (
                    fit2(s0.cw[d][i].0, s1.cw[d][i].0, s2.cw[d][i].0),
                    fit2(s0.cw[d][i].1, s1.cw[d][i].1, s2.cw[d][i].1),
                )
            })
            .collect();
        let pending: Vec<(Quad, Quad, u8)> = (0..s2.pending[d].len())
            .map(|i| {
                (
                    fit2(s0.pending[d][i].0, s1.pending[d][i].0, s2.pending[d][i].0),
                    fit2(s0.pending[d][i].1, s1.pending[d][i].1, s2.pending[d][i].1),
                    s2.pending[d][i].2,
                )
            })
            .collect();
        sdevs.push(SymDev {
            compute_slot: dev.compute_slot,
            token_comm: dev.token_comm,
            cw: cw.iter().copied().collect(),
            pending: pending.iter().copied().collect(),
        });
        orig_cw.push(cw);
        orig_pending.push(pending);
    }

    // ---- One symbolic token step over u ∈ [0, n − 1] ----
    let hi = i128::from(n) - 1;
    let mut savail = savail0.clone();
    let mut scur = vec![Quad::ZERO; k];
    let mut exposed = [Quad::ZERO; 5];
    let mut etouched = [false; 5];
    for (j, op) in tpl.iter().enumerate() {
        let d0 = op.base + op.rate * tok0 as i64;
        let mut start = savail[op.slot as usize];
        for &d in &op.deps {
            let f = match d {
                TplDep::Same(s) => scur[s as usize],
                TplDep::Prev(p) => sprev[p as usize],
            };
            let Some(m) = dominant_max(start, f, hi) else {
                return JumpOutcome::NotCertified;
            };
            start = m;
        }
        let f = start.add_affine(d0, op.rate);
        scur[j] = f;
        savail[op.slot as usize] = f;
        let dev = &mut sdevs[op.device as usize];
        if op.compute {
            if dev.token_comm || !dev.pending.is_empty() {
                dev.cw.push_back((start, f));
            }
        } else {
            let Acc::Coll(kind) = op.acc else {
                return JumpOutcome::NotCertified;
            };
            dev.pending.push_back((start, f, kind));
        }
    }
    for dev in &mut sdevs {
        if sym_finalize_ready(dev, &savail, hi, &mut exposed, &mut etouched).is_none() {
            return JumpOutcome::NotCertified;
        }
    }
    // The symbolic step must map the fitted state exactly onto its own
    // one-token shift; induction from the live state then makes the
    // quadratics exact over the whole range.
    if (0..k).any(|j| scur[j] != sprev[j].shift())
        || (0..savail.len()).any(|i| savail[i] != savail0[i].shift())
    {
        return JumpOutcome::NotCertified;
    }
    for (d, dev) in sdevs.iter().enumerate() {
        if dev.cw.len() != orig_cw[d].len()
            || dev
                .cw
                .iter()
                .zip(&orig_cw[d])
                .any(|(&(s, f), &(os, of))| s != os.shift() || f != of.shift())
            || dev.pending.len() != orig_pending[d].len()
            || dev
                .pending
                .iter()
                .zip(&orig_pending[d])
                .any(|(&(s, f, kd), &(os, of, okd))| {
                    s != os.shift() || f != of.shift() || kd != okd
                })
        {
            return JumpOutcome::NotCertified;
        }
    }

    // ---- Range checks before committing anything ----
    let ni = i128::from(n);
    let mut dur_sums = Vec::with_capacity(tpl.len());
    let mut added: i128 = 0;
    for op in tpl {
        let d0 = i128::from(op.base) + i128::from(op.rate) * tok0 as i128;
        let s = d0 * ni + i128::from(op.rate) * (ni * (ni - 1) / 2);
        added += s;
        dur_sums.push(s);
    }
    if i128::from(totals.serialized) + added >= i128::from(MAX_UNITS) {
        return JumpOutcome::OutOfRange;
    }
    let final_val = |q: Quad| -> Result<i64, JumpOutcome> {
        let v = q.eval(ni);
        if v >= i128::from(MAX_UNITS) {
            Err(JumpOutcome::OutOfRange)
        } else if v < 0 {
            Err(JumpOutcome::NotCertified)
        } else {
            Ok(v as i64)
        }
    };
    let mut fprev = Vec::with_capacity(k);
    for &q in &sprev {
        match final_val(q) {
            Ok(v) => fprev.push(v),
            Err(o) => return o,
        }
    }
    let mut favail = Vec::with_capacity(savail0.len());
    for &q in &savail0 {
        match final_val(q) {
            Ok(v) => favail.push(v),
            Err(o) => return o,
        }
    }
    let mut fcw: Vec<Vec<(i64, i64)>> = Vec::with_capacity(devs.len());
    let mut fpending: Vec<Vec<(i64, i64, u8)>> = Vec::with_capacity(devs.len());
    for d in 0..devs.len() {
        let mut cw = Vec::with_capacity(orig_cw[d].len());
        for &(s, f) in &orig_cw[d] {
            match (final_val(s), final_val(f)) {
                (Ok(s), Ok(f)) => cw.push((s, f)),
                (Err(o), _) | (_, Err(o)) => return o,
            }
        }
        let mut pending = Vec::with_capacity(orig_pending[d].len());
        for &(s, f, kd) in &orig_pending[d] {
            match (final_val(s), final_val(f)) {
                (Ok(s), Ok(f)) => pending.push((s, f, kd)),
                (Err(o), _) | (_, Err(o)) => return o,
            }
        }
        fcw.push(cw);
        fpending.push(pending);
    }
    let mut expo_sums = [0i64; 5];
    for kd in 0..5 {
        if etouched[kd] {
            let s = exposed[kd].sum(ni);
            if !(0..i128::from(MAX_UNITS)).contains(&s) {
                return JumpOutcome::NotCertified;
            }
            expo_sums[kd] = s as i64;
        }
    }

    // ---- Commit: series sums into the totals, final state in place ----
    for (op, &s) in tpl.iter().zip(&dur_sums) {
        totals.add(op.acc, s as i64);
        if let Some(st) = op.stage {
            stage_busy[st as usize] += s as i64;
        }
    }
    for kd in 0..5 {
        if etouched[kd] {
            totals.exposed += expo_sums[kd];
            totals.exposed_by[kd] += expo_sums[kd];
            totals.exposed_touched[kd] = true;
        }
    }
    prev.copy_from_slice(&fprev);
    avail.copy_from_slice(&favail);
    for (d, dev) in devs.iter_mut().enumerate() {
        dev.cw.clear();
        dev.cw.extend(fcw[d].iter().copied());
        dev.pending.clear();
        dev.pending.extend(fpending[d].iter().copied());
    }
    JumpOutcome::Jumped(savail0)
}

/// The closed-form gate of [`crate::evaluate_priced`], the evaluator
/// both engines call: evaluates a serve candidate in
/// closed form when `analytic` allows it and its decode stream is at
/// least [`MIN_ANALYTIC_DECODE`] tokens long. `assemble_prefix` builds
/// the engine's prefill plus the given number of explicit decode tokens
/// into the trace, from which the full report is synthesized, and the
/// run's [`DecodeTail`] is left in `scratch.decode_tail`. `dims` is
/// `None` for workloads without decode steps.
///
/// Records one `counters` hit per synthesized report and one miss per
/// serve candidate it declines (opt-out, short decode, or a failed
/// exactness condition); the caller then simulates that candidate in
/// full. Workloads without decode steps count as neither.
pub(crate) fn closed_form_serve(
    analytic: bool,
    dims: Option<ServeDims>,
    counters: &CacheCounters,
    model: &ModelArch,
    memory: MemoryBreakdown,
    scratch: &mut EngineScratch,
    assemble_prefix: impl FnOnce(usize, &mut Trace),
) -> Option<IterationReport> {
    let dims = dims?;
    if analytic && dims.decode_len >= MIN_ANALYTIC_DECODE {
        assemble_prefix(EXPLICIT_TOKENS, &mut scratch.trace);
        if let Some((report, tail)) = evaluate_serve_prefix(
            &scratch.trace,
            EXPLICIT_TOKENS,
            &dims,
            model,
            memory,
            &mut scratch.steady,
        ) {
            counters.hit();
            scratch.decode_tail = Some(tail);
            return Some(report);
        }
    }
    counters.miss();
    None
}

/// Evaluates a serve candidate from its explicit prefix trace (prefill +
/// `explicit_tokens` decode tokens, built by the regular assembly with a
/// capped decode loop), synthesizing the [`IterationReport`] the full
/// simulation of all `dims.decode_len` tokens would produce — bit for
/// bit — and its [`DecodeTail`]: the makespans after `L − 2` and
/// `L − 1` tokens are read off the live state when stepped, or off a
/// jump's certified fits when it skips them. Returns `None` when any
/// exactness condition fails (see the module docs); callers then fall
/// back to full assembly.
fn evaluate_serve_prefix(
    trace: &Trace,
    explicit_tokens: usize,
    dims: &ServeDims,
    model: &ModelArch,
    memory: MemoryBreakdown,
    scratch: &mut SteadyScratch,
) -> Option<(IterationReport, DecodeTail)> {
    if explicit_tokens + 2 > dims.decode_len {
        return None;
    }
    let ops = trace.ops();
    let prefill_ops = ops.partition_point(|op| op.phase != Phase::Decode);

    let SteadyScratch {
        fin,
        avail,
        cur,
        prev,
        devs,
        tpl,
        stage_busy,
        device_seen,
    } = scratch;
    fin.clear();
    fin.reserve(ops.len());
    avail.clear();
    devs.clear();
    stage_busy.clear();
    device_seen.clear();
    let mut totals = Totals::default();
    let mut ttft = 0i64;

    // ---- Replay the explicit prefix (prefill + transient tokens) ----
    for (i, op) in ops.iter().enumerate() {
        if (i < prefill_ops) == (op.phase == Phase::Decode) {
            return None; // decode ops must form the trace suffix
        }
        let dur = grid_units(op.duration)?;
        let acc = classify(op.stream, op.kind)?;
        let slot = op.stream.slot();
        if slot >= avail.len() {
            avail.resize(slot + 1, 0);
        }
        let mut start = avail[slot];
        for &d in &op.deps {
            start = start.max(*fin.get(d.0)?);
        }
        let f = start + dur;
        if f >= MAX_UNITS {
            return None;
        }
        fin.push(f);
        avail[slot] = f;
        totals.add(acc, dur);
        let device = device_of(op.stream);
        ensure_device(devs, device);
        if op.stream.is_compute() {
            if device >= device_seen.len() {
                device_seen.resize(device + 1, false);
            }
            device_seen[device] = true;
            devs[device].cw.push_back((start, f));
            if let StreamId::StageCompute(s) = op.stream {
                let s = s as usize;
                if s >= stage_busy.len() {
                    stage_busy.resize(s + 1, 0);
                }
                stage_busy[s] += dur;
            }
        } else {
            let Acc::Coll(kind) = acc else { return None };
            devs[device].pending.push_back((start, f, kind));
        }
        if op.phase != Phase::Decode {
            ttft = ttft.max(f);
        }
    }

    // ---- Extract the per-token template ----
    let k = extract_template(trace, prefill_ops, explicit_tokens, dims.decode_len, tpl)?;
    let max_slot = tpl.iter().map(|o| o.slot as usize).max()?;
    if max_slot >= avail.len() {
        avail.resize(max_slot + 1, 0);
    }
    for op in &*tpl {
        ensure_device(devs, op.device as usize);
        if !op.compute {
            devs[op.device as usize].token_comm = true;
        }
        if let Some(s) = op.stage {
            if s as usize >= stage_busy.len() {
                stage_busy.resize(s as usize + 1, 0);
            }
        }
    }
    for dev in devs.iter_mut() {
        finalize_ready(dev, avail, &mut totals);
    }
    cur.clear();
    cur.resize(k, 0);
    prev.clear();
    prev.extend_from_slice(&fin[prefill_ops + (explicit_tokens - 1) * k..]);

    // ---- Advance the remaining tokens without materializing ops ----
    // Step the recurrence explicitly while rolling snapshots of the last
    // three states; at each attempt point, try to certify a closed-form
    // jump over every remaining token (see [`certify_and_jump`]). A
    // failed certificate just moves the attempt point and keeps
    // stepping — exactness never depends on the jump.
    let mut snaps: Vec<Snap> = Vec::new();
    let mut attempt_at = explicit_tokens + 3;
    let mut fails = 0u32;
    let mut t = explicit_tokens;
    // `tail[i]` is the makespan after `decode_len − 2 + i` tokens: read
    // at the loop head once that many tokens are done, or off the
    // certified fits of a jump that skips past it.
    let tail_from = dims.decode_len - 2;
    let mut tail = [0i64; 3];
    while t < dims.decode_len {
        if t >= tail_from {
            tail[t - tail_from] = avail.iter().copied().max().unwrap_or(0);
        }
        if t == attempt_at && snaps.len() == 3 {
            // One attempt certifies a jump over every remaining token;
            // a binding change anywhere in the range fails it.
            let n = (dims.decode_len - t) as i64;
            if n >= 4 {
                match certify_and_jump(
                    tpl,
                    &snaps,
                    n,
                    t,
                    prev,
                    avail,
                    devs,
                    stage_busy,
                    &mut totals,
                ) {
                    JumpOutcome::Jumped(fits) => {
                        for d in (t + 1).max(tail_from)..dims.decode_len {
                            let u = (d - t) as i128;
                            let peak = fits.iter().map(|q| q.eval(u)).max().unwrap_or(0);
                            tail[d - tail_from] = peak as i64;
                        }
                        break;
                    }
                    JumpOutcome::NotCertified => {}
                    JumpOutcome::OutOfRange => return None,
                }
            }
            snaps.clear();
            // Exponential backoff instead of giving up: a pipeline-fill
            // transient certifies after a few more steps, while a
            // genuinely aperiodic shape costs only O(log decode_len)
            // failed attempts before the steps between attempts dwarf
            // the attempts themselves.
            fails = (fails + 1).min(16);
            attempt_at = t + (8usize << fails.min(12));
        }
        let mut peak = 0i64;
        for (j, op) in tpl.iter().enumerate() {
            let dur = op.base + op.rate * t as i64;
            let mut start = avail[op.slot as usize];
            for &d in &op.deps {
                let f = match d {
                    TplDep::Same(s) => cur[s as usize],
                    TplDep::Prev(p) => prev[p as usize],
                };
                start = start.max(f);
            }
            let f = start + dur;
            cur[j] = f;
            peak = peak.max(f);
            avail[op.slot as usize] = f;
            totals.add(op.acc, dur);
            let dev = &mut devs[op.device as usize];
            if op.compute {
                if dev.token_comm || !dev.pending.is_empty() {
                    dev.cw.push_back((start, f));
                }
                if let Some(s) = op.stage {
                    stage_busy[s as usize] += dur;
                }
            } else {
                let Acc::Coll(kind) = op.acc else { return None };
                dev.pending.push_back((start, f, kind));
            }
        }
        if peak >= MAX_UNITS || totals.serialized >= MAX_UNITS {
            return None;
        }
        for dev in devs.iter_mut() {
            finalize_ready(dev, avail, &mut totals);
        }
        std::mem::swap(prev, cur);
        if t + 3 >= attempt_at {
            if snaps.len() == 3 {
                snaps.remove(0);
            }
            snaps.push(Snap::capture(prev, avail, devs));
        }
        t += 1;
    }

    // ---- Flush: no future compute windows exist ----
    for dev in devs.iter_mut() {
        while let Some((cs, cf, kind)) = dev.pending.pop_front() {
            expose(dev, cs, cf, kind, &mut totals);
        }
    }

    // ---- Synthesize the report ----
    let makespan = avail.iter().copied().max().unwrap_or(0);
    tail[2] = makespan;
    let makespan_s = grid_seconds(makespan);
    let ttft_s = grid_seconds(ttft);
    let tpot = if dims.decode_len == 0 {
        Seconds::ZERO
    } else {
        (makespan_s - ttft_s) / dims.decode_len as f64
    };
    let mut stage_count = 0usize;
    let mut stage_total = 0.0f64;
    for (s, &busy) in stage_busy.iter().enumerate() {
        if device_seen.get(1 + s).copied().unwrap_or(false) {
            stage_count += 1;
            stage_total += grid_seconds(busy).as_secs();
        }
    }
    let bubble_fraction = if stage_count == 0 || makespan_s.is_zero() {
        None
    } else {
        let mean_busy = stage_total / stage_count as f64;
        Some(f64::max(1.0 - mean_busy / makespan_s.as_secs(), 0.0))
    };
    let report = IterationReport {
        iteration_time: makespan_s,
        serialized_time: grid_seconds(totals.serialized),
        gemm_time: grid_seconds(totals.gemm),
        lookup_time: grid_seconds(totals.lookup),
        optimizer_time: grid_seconds(totals.optimizer),
        comm_time: grid_seconds(totals.comm),
        comm_by_collective: to_map(
            COLLECTIVES,
            totals.comm_touched,
            totals.comm_by.map(grid_seconds),
        ),
        gemm_by_class: to_map(
            LayerClass::ALL,
            totals.gemm_touched,
            totals.gemm_by.map(grid_seconds),
        ),
        exposed_comm: grid_seconds(totals.exposed),
        exposed_by_collective: to_map(
            COLLECTIVES,
            totals.exposed_touched,
            totals.exposed_by.map(grid_seconds),
        ),
        bubble_fraction,
        memory,
        serve: Some(ServeStats {
            prompt_len: dims.prompt_len,
            decode_len: dims.decode_len,
            decode_batch: dims.decode_batch,
            ttft: ttft_s,
            tpot,
        }),
        global_batch: model.global_batch,
        tokens_per_iteration: model.tokens_per_iteration(),
        batch_unit: model.batch_unit,
    };
    Some((report, tail.map(grid_seconds)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Deps, OpName, PassDir, TraceOp};
    use madmax_model::ModelId;

    const EXPLICIT: usize = 4;
    const DECODE_LEN: usize = 64;

    /// One grid unit, in seconds.
    fn grid(units: i64) -> Seconds {
        grid_seconds(units)
    }

    /// A minimal hand-built serve trace on the grid: one prefill GEMM
    /// (8 units) followed by `EXPLICIT` single-op decode tokens whose
    /// durations follow the arithmetic series `base + rate * t`, each
    /// token depending on the previous one (autoregressive chain).
    fn chain_trace(base: i64, rate: i64) -> Trace {
        let mut trace = Trace::new();
        let prefill = trace.push(TraceOp {
            name: OpName::flat(PassDir::Fwd, None, "prefill"),
            stream: StreamId::Compute,
            kind: OpKind::Gemm {
                class: LayerClass::Transformer,
            },
            phase: Phase::Forward,
            duration: grid(8),
            deps: Deps::none(),
        });
        let mut last = prefill;
        for t in 0..EXPLICIT {
            last = trace.push(TraceOp {
                name: OpName::decode(t as u32, None, "tok"),
                stream: StreamId::Compute,
                kind: OpKind::Gemm {
                    class: LayerClass::Transformer,
                },
                phase: Phase::Decode,
                duration: grid(base + rate * t as i64),
                deps: Deps::one(last),
            });
        }
        trace
    }

    fn dims() -> ServeDims {
        ServeDims {
            prompt_len: 128,
            decode_len: DECODE_LEN,
            decode_batch: 256,
        }
    }

    fn eval(trace: &Trace) -> Option<IterationReport> {
        let model = ModelId::Llama2.build();
        evaluate_serve_prefix(
            trace,
            EXPLICIT,
            &dims(),
            &model,
            MemoryBreakdown::default(),
            &mut SteadyScratch::default(),
        )
        .map(|(report, _)| report)
    }

    #[test]
    fn synthesizes_the_serial_chain_exactly() {
        // Constant decode durations: the chain's makespan is the prefill
        // plus decode_len equal steps, all exact grid arithmetic.
        let report = eval(&chain_trace(4, 0)).expect("closed form applies");
        let makespan = 8 + DECODE_LEN as i64 * 4;
        assert_eq!(report.iteration_time, grid(makespan));
        assert_eq!(report.serialized_time, grid(makespan));
        assert_eq!(report.gemm_time, grid(makespan));
        let serve = report.serve.expect("serve stats attached");
        assert_eq!(serve.ttft, grid(8));
        assert_eq!(serve.decode_len, DECODE_LEN);
        assert_eq!(serve.tpot, (grid(makespan) - grid(8)) / DECODE_LEN as f64);
        assert_eq!(report.comm_time, Seconds::ZERO);
        assert_eq!(report.exposed_comm, Seconds::ZERO);
        assert_eq!(report.bubble_fraction, None, "no stage devices");
    }

    #[test]
    fn kv_stretch_follows_the_arithmetic_series() {
        // Affine decode durations (KV growth): token t costs 4 + 2t
        // units, so the total is an exact arithmetic series.
        let report = eval(&chain_trace(4, 2)).expect("closed form applies");
        let n = DECODE_LEN as i64;
        let makespan = 8 + 4 * n + 2 * (n * (n - 1) / 2);
        assert_eq!(report.iteration_time, grid(makespan));
        assert_eq!(report.serialized_time, grid(makespan));
    }

    #[test]
    fn non_grid_duration_falls_back() {
        // A duration off the 2^-38 s grid defeats exact replay: the
        // evaluator must decline rather than approximate.
        let mut trace = chain_trace(4, 0);
        trace.map_durations_from(2, |_| Seconds::new(0.3));
        assert!(eval(&trace).is_none());
    }

    #[test]
    fn gradient_stream_falls_back() {
        // Serve traces never carry gradient-communication work; any op
        // on such a stream voids the additive exposure argument.
        let mut trace = chain_trace(4, 0);
        trace.push(TraceOp {
            name: OpName::custom("stray.grad"),
            stream: StreamId::GradComm,
            kind: OpKind::Collective {
                kind: madmax_parallel::CollectiveKind::ReduceScatter,
            },
            phase: Phase::Decode,
            duration: grid(1),
            deps: Deps::none(),
        });
        assert!(eval(&trace).is_none());
    }

    #[test]
    fn shorter_streams_than_the_prefix_fall_back() {
        // The explicit prefix cannot exceed the decode stream it stands
        // in for.
        let trace = chain_trace(4, 0);
        let model = ModelId::Llama2.build();
        let short = ServeDims {
            decode_len: EXPLICIT - 1,
            ..dims()
        };
        assert!(evaluate_serve_prefix(
            &trace,
            EXPLICIT,
            &short,
            &model,
            MemoryBreakdown::default(),
            &mut SteadyScratch::default(),
        )
        .is_none());
    }

    #[test]
    fn grid_range_predicate_matches_the_unit_guard() {
        assert!(fits_grid_range(grid(MAX_UNITS - 1)));
        assert!(!fits_grid_range(grid(MAX_UNITS)));
        assert!(!fits_grid_range(Seconds::new(-1.0)));
        assert!(!fits_grid_range(Seconds::new(f64::INFINITY)));
        // Off-grid values in range still fit: the predicate bounds the
        // *span*, the per-op grid check is separate.
        assert!(fits_grid_range(Seconds::new(0.3)));
    }

    #[test]
    fn series_total_matches_iterated_addition() {
        let (c, r, start) = (17i64, 3i64, 5i64);
        let mut total = 0i64;
        for n in 0..200i64 {
            assert_eq!(affine_series_units(c, r, start, n), Some(total));
            total += c + r * (start + n);
        }
        // Degenerate and rejected shapes.
        assert_eq!(affine_series_units(c, r, start, 0), Some(0));
        assert_eq!(affine_series_units(c, r, -1, 4), None, "negative start");
        assert_eq!(affine_series_units(-5, 0, 0, 3), None, "negative step");
        assert_eq!(affine_series_units(1 << 51, 0, 0, 4), None, "overflow");
    }

    #[test]
    fn first_crossing_is_the_least_n_reaching_the_target() {
        let (c, r, start) = (10i64, 2i64, 0i64);
        for target in 1..500i64 {
            let n = first_series_crossing(c, r, start, 1_000, target).unwrap();
            assert!(affine_series_units(c, r, start, n).unwrap() >= target);
            assert!(affine_series_units(c, r, start, n - 1).unwrap() < target);
        }
        // Unreachable within max_n.
        assert_eq!(first_series_crossing(1, 0, 0, 4, 100), None);
        assert_eq!(first_series_crossing(1, 0, 0, 0, 1), None);
    }

    #[test]
    fn grid_unit_conversions_round_trip() {
        for u in [0i64, 1, 7, 1 << 30, (1 << 52) - 1] {
            assert_eq!(grid_units(grid_seconds(u)), Some(u));
        }
        assert_eq!(grid_units(Seconds::new(-1.0)), None);
        // Rounding snaps off-grid durations to the nearest unit.
        let third = Seconds::new(1.0 / 3.0);
        let snapped = grid_units_round(third).unwrap();
        assert_eq!(grid_units(quantize(third)), Some(snapped));
        assert_eq!(grid_units_round(Seconds::new(f64::NAN)), None);
    }
}
