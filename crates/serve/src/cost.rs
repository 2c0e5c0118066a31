//! Per-step cost extraction: turning the synchronized-wave engines'
//! priced serve scenarios into an integer-grid **step cost model** for
//! continuous batching.
//!
//! The engines guarantee (`madmax_core::steady`) that serve iteration
//! times are exact multiples of the `2^-38` s duration grid and that
//! decode-step durations are affine in the KV-cache position.
//! [`StepCostModel::price`] therefore recovers per-step costs from one
//! or two engine runs — O(transient) each through the closed form — and
//! one prefill schedule, by finite differences:
//!
//! - `F(d)` = iteration time at decode length `d`: the first difference
//!   `F(d+1) - F(d)` is the cost of one decode step, the second
//!   difference is the per-step KV growth rate;
//! - one run per *decode ladder* (a prompt and a batch) reads every
//!   `F(d)` it needs: a run of `L` tokens reports its decode tail
//!   `F(L−2)`, `F(L−1)`, `F(L)` ([`madmax_core::DecodeTail`]), each
//!   bit-identical to a separate run of that length, so one 50-token
//!   run at batch `slots` gives `F(48..=50)` and one 49-token run at the
//!   low-batch anchor gives `F(48)` and `F(49)` there;
//! - probing at the low-batch anchor and at `slots` sequences separates
//!   the per-sequence term from the base;
//! - TTFT at the low-batch anchor prices a single request's prefill,
//!   probed at two context lengths to fit the affine `prefill(ctx)` used
//!   for admission and eviction-recompute: the low-batch decode run's own
//!   TTFT, and the TTFT of the prefill-slope anchor, which only its
//!   prefill determines, so the engines schedule that prefill alone;
//! - the worst case (`slots` sequences at the longest prompt and decode)
//!   is only checked for feasibility, never run.
//!
//! The result is a first-order interpolation of the engine's own costs:
//! exact at the probe anchors (up to integer rounding of the divided
//! coefficients), affine everywhere else — exactly the structure the
//! event layer's closed-form jumps require.

use madmax_core::steady::grid_units;
use madmax_core::DecodeTail;
use madmax_hw::units::Seconds;
use madmax_parallel::{Plan, ServeConfig};

use crate::arrival::ArrivalEvent;
use crate::LoadError;

/// Decode length of the first probe: comfortably past
/// `MIN_ANALYTIC_DECODE` so the analytic path engages and the steady
/// regime is established.
const PROBE_DECODE: usize = 48;

/// Integer grid-unit cost model of a continuously-batched serve
/// deployment:
///
/// ```text
/// prefill(ctx) = prefill_base + prefill_slope * ctx          (one request)
/// step(B, K)   = step_base + step_seq * B + step_rate * K    (one decode step)
/// ```
///
/// with `B` in-flight sequences and `K` total resident KV tokens. All
/// coefficients are grid units (`2^-38` s); see [`crate::sim`] for how
/// runs of steps advance as exact arithmetic series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepCostModel {
    /// Prefill base cost, grid units.
    pub prefill_base: i64,
    /// Prefill cost per context token, grid units.
    pub prefill_slope: i64,
    /// Decode-step base cost, grid units.
    pub step_base: i64,
    /// Decode-step cost per in-flight sequence, grid units.
    pub step_seq: i64,
    /// Decode-step cost per resident KV token, grid units.
    pub step_rate: i64,
    /// In-flight slot count this model was priced for (its upper
    /// interpolation anchor).
    pub slots: usize,
}

/// Rounds `a / b` to the nearest integer (`b > 0`), half away from zero
/// deterministic via euclidean remainder.
fn div_round(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    let q = a.div_euclid(b);
    let r = a.rem_euclid(b);
    if 2 * r >= b {
        q + 1
    } else {
        q
    }
}

/// The exact grid-unit count of a probed duration.
fn units(d: madmax_hw::units::Seconds, what: &str) -> Result<i64, LoadError> {
    grid_units(d).ok_or_else(|| LoadError::GridRange(format!("probed {what} {d:?} off-grid")))
}

/// The anchors of one pricing, read off the request shapes and the
/// plan: the shortest and longest prompt, the longest decode, and the
/// low-batch anchor `b_lo`.
struct Anchors {
    p_lo: usize,
    p_hi: usize,
    d_max: usize,
    b_lo: usize,
}

impl Anchors {
    /// The anchors of `plan` against `arrivals` with up to `slots` in
    /// flight; `None` without arrivals.
    fn new(plan: &Plan, slots: usize, arrivals: &[ArrivalEvent]) -> Option<Self> {
        let first = arrivals.first()?;
        let (mut p_lo, mut p_hi, mut d_max) = (first.prompt_len, first.prompt_len, 0usize);
        for a in arrivals {
            p_lo = p_lo.min(a.prompt_len);
            p_hi = p_hi.max(a.prompt_len);
            d_max = d_max.max(a.decode_len);
        }
        // A pipelined plan cannot run a batch smaller than its
        // microbatch count, so the low-batch anchor (and the prefill
        // probes) sit at the plan's minimum feasible batch; batches
        // below it are priced by affine extrapolation.
        let b_lo = plan
            .pipeline
            .filter(|c| c.is_pipelined())
            .map_or(1, |c| c.microbatches.max(1))
            .min(slots);
        Some(Self {
            p_lo,
            p_hi,
            d_max,
            b_lo,
        })
    }

    /// The prefill-slope anchor: the largest context a recomputed
    /// prefill can see (prompt + generated tokens).
    fn ctx_hi(&self) -> usize {
        self.p_hi.saturating_add(self.d_max)
    }

    /// Index into [`Anchors::shapes`] of the run whose TTFT prices a
    /// request's prefill at `p_lo` (`prefill_units(p_lo)`): the batch =
    /// `slots` run when the low-batch anchor is the slot count, else the
    /// batch = `b_lo` run.
    fn low_batch_shape(&self, slots: usize) -> usize {
        if self.b_lo == slots {
            1
        } else {
            2
        }
    }

    /// The probe shapes, in the order [`StepCostModel::price`] uses them.
    fn shapes(&self, serve: &ServeConfig, slots: usize) -> Vec<ServeConfig> {
        let cfg = |prompt: usize, decode: usize, batch: usize| ServeConfig {
            prompt_len: Some(prompt),
            decode_len: decode,
            decode_batch: Some(batch),
            kv_cache: serve.kv_cache,
        };
        let (p_lo, b_lo) = (self.p_lo, self.b_lo);
        let mut shapes = vec![
            // Worst-case feasibility (checked, not run): `slots`
            // sequences at the largest context.
            cfg(self.p_hi, self.d_max.max(PROBE_DECODE + 2), slots),
            // Batch = slots: one run whose tail is F(48), F(49), F(50).
            cfg(p_lo, PROBE_DECODE + 2, slots),
        ];
        // Batch = b_lo: one run whose tail ends in F(48), F(49); at
        // b_lo == slots the batch = slots run already holds them.
        if b_lo != slots {
            shapes.push(cfg(p_lo, PROBE_DECODE + 1, b_lo));
        }
        // The prefill-slope anchor.
        shapes.push(cfg(self.ctx_hi(), PROBE_DECODE, b_lo));
        shapes
    }
}

/// What one probe run reports to [`StepCostModel::price`]: its TTFT and
/// its decode tail, the makespans after its last three decode tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRun {
    /// Time to first token of the run.
    pub ttft: Seconds,
    /// `[F(L−2), F(L−1), F(L)]` of an `L`-token run: each the iteration
    /// time a separate run of that many tokens reports.
    pub tail: DecodeTail,
}

impl StepCostModel {
    /// The serve shapes [`StepCostModel::price`] uses to price `plan` for
    /// `serve`-shaped requests with up to `slots` in flight against
    /// `arrivals`, in order:
    ///
    /// 1. the worst-case shape (`slots` sequences at the longest prompt
    ///    and decode), only checked for feasibility, never run;
    /// 2. one 50-token run at batch `slots`, whose decode tail gives
    ///    F(48), F(49) and F(50);
    /// 3. one 49-token run at the plan's low-batch anchor `b_lo`, whose
    ///    tail gives F(48) and F(49) there (only when `b_lo != slots`);
    /// 4. the prefill-slope anchor at the longest context, of which only
    ///    the TTFT is read: its prefill alone is scheduled, never its
    ///    decode.
    ///
    /// A flat plan (`b_lo = 1`) thus costs two engine runs and a
    /// pipelined one with `b_lo == slots` one, each plus one feasibility
    /// check and one prefill schedule. `price` stops at the first failing
    /// shape, so it may use only a prefix of this list. Empty when `price`
    /// fails before probing (zero `slots`, no arrivals).
    ///
    /// Pricing several plans against one request set probes few distinct
    /// shapes (the list depends on the plan only through `b_lo`), so a
    /// caller can price one engine cost table per shape and share it
    /// across the plans (`madmax_engine::Scenario::price_load_probes`).
    pub fn probe_shapes(
        plan: &Plan,
        serve: &ServeConfig,
        slots: usize,
        arrivals: &[ArrivalEvent],
    ) -> Vec<ServeConfig> {
        match Anchors::new(plan, slots, arrivals) {
            Some(anchors) if slots > 0 => anchors.shapes(serve, slots),
            _ => Vec::new(),
        }
    }

    /// The two probe shapes that bound every request's prefill from
    /// below without pricing the whole model: the worst-case shape
    /// (`probe_shapes[0]`, only checked for feasibility) and the low-batch
    /// anchor, the run whose TTFT [`StepCostModel::price`] reads as
    /// `prefill_units(p_lo)` at the shortest prompt `p_lo`. Since the
    /// fitted prefill slope is never negative, that TTFT, in grid units,
    /// is at most the prefill of every request in `arrivals`. `None` when
    /// `price` fails before probing (zero `slots`, no arrivals).
    pub fn prefill_floor_shapes(
        plan: &Plan,
        serve: &ServeConfig,
        slots: usize,
        arrivals: &[ArrivalEvent],
    ) -> Option<[ServeConfig; 2]> {
        let anchors = Anchors::new(plan, slots, arrivals).filter(|_| slots > 0)?;
        let shapes = anchors.shapes(serve, slots);
        Some([shapes[0], shapes[anchors.low_batch_shape(slots)]])
    }

    /// Prices a step cost model for `plan` serving `serve`-shaped
    /// requests with up to `slots` in flight, against the request shapes
    /// in `arrivals` (their prompt/decode extremes pick the probe
    /// anchors and the worst-case feasibility check).
    ///
    /// `feasible` checks that `plan` can run one synchronized serve wave
    /// of the given shape, `probe` runs it, and `ttft` reports the time to
    /// first token that run would report, after the same feasibility
    /// checks (`madmax_engine::Scenario::price_load` passes the engine's
    /// feasibility check, its evaluator, and its prefill-only schedule);
    /// their errors pass through unchanged. They are called with the
    /// shapes of [`StepCostModel::probe_shapes`], in order (`feasible` with
    /// the first, `ttft` with the last, `probe` with the rest), until one
    /// fails.
    ///
    /// Each run reports the makespans after its last three decode tokens
    /// ([`ProbeRun::tail`]), so one run per decode ladder — a prompt and
    /// a batch — prices what separate runs at each decode length would:
    /// the model equals the one priced from one run per length, bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// Any probe error (OOM holding `slots` sequences at the worst-case
    /// context, unmappable pipeline, ...); [`LoadError::GridRange`] when
    /// probed durations are off-grid or degenerate; [`LoadError::Spec`]
    /// for an empty arrival set or zero `slots`.
    pub fn price<E: From<LoadError>>(
        plan: &Plan,
        serve: &ServeConfig,
        slots: usize,
        arrivals: &[ArrivalEvent],
        feasible: impl FnOnce(ServeConfig) -> Result<(), E>,
        mut probe: impl FnMut(ServeConfig) -> Result<ProbeRun, E>,
        ttft: impl FnOnce(ServeConfig) -> Result<Seconds, E>,
    ) -> Result<Self, E> {
        if slots == 0 {
            return Err(LoadError::Spec("slots must be >= 1".to_owned()).into());
        }
        let Some(anchors) = Anchors::new(plan, slots, arrivals) else {
            return Err(LoadError::Spec("no arrivals to price against".to_owned()).into());
        };
        let Anchors { p_lo, b_lo, .. } = anchors;
        let low_batch_shape = anchors.low_batch_shape(slots);
        let mut shapes = anchors.shapes(serve, slots).into_iter();
        let mut next = || shapes.next().expect("one probe shape per anchor");

        // Worst-case feasibility: `slots` sequences at the largest
        // context must fit device memory (the paged-block budget is a
        // separate, runtime constraint).
        feasible(next())?;

        // Batch = slots: the last three decode lengths of one run give
        // the last step's cost (first difference) and the per-step KV
        // growth (second difference).
        let cap = probe(next())?;
        let f1 = units(cap.tail[0], "iteration")?;
        let f2 = units(cap.tail[1], "iteration")?;
        let f3 = units(cap.tail[2], "iteration")?;
        let p_cap = f3 - f2;
        let r_cap = (f3 - f2) - (f2 - f1);
        if p_cap <= 0 {
            return Err(LoadError::GridRange(format!(
                "degenerate decode-step probe: step cost {p_cap} units"
            ))
            .into());
        }
        let step_rate = div_round(r_cap.max(0), slots as i64);

        // Batch = b_lo: separates the per-sequence term, and its TTFT
        // prices a request's prefill. At b_lo == slots the batch = slots
        // run already is this one.
        let (p_one, ttft_lo) = if low_batch_shape == 1 {
            (f2 - f1, units(cap.ttft, "ttft")?)
        } else {
            let low = probe(next())?;
            (
                units(low.tail[2], "iteration")? - units(low.tail[1], "iteration")?,
                units(low.ttft, "ttft")?,
            )
        };
        if p_one <= 0 {
            return Err(LoadError::GridRange(format!(
                "degenerate decode-step probe: step cost {p_one} units at batch {b_lo}"
            ))
            .into());
        }

        // Prefill slope: the second anchor sits at the largest context a
        // recomputed prefill can see (prompt + generated tokens).
        let ttft_hi = units(ttft(next())?, "ttft")?;
        debug_assert!(shapes.next().is_none(), "every probe shape was used");
        let ctx_hi = anchors.ctx_hi();
        let span = (ctx_hi - p_lo) as i64;
        let prefill_slope = div_round((ttft_hi - ttft_lo).max(0), span);
        let prefill_base = ttft_lo - prefill_slope * p_lo as i64;

        // Solve the two decode anchors for (step_base, step_seq):
        //   step(b_lo, K_lo)   = p_one,  K_lo  = b_lo * (p_lo + PROBE_DECODE)
        //   step(slots, K_cap) = p_cap,  K_cap = slots * (p_lo + PROBE_DECODE + 1)
        // (the first difference F(d+1) - F(d) is decode step d+1, which
        // reads a cache of ctx + d tokens per sequence).
        let k1 = b_lo as i64 * (p_lo + PROBE_DECODE) as i64;
        let k_cap = slots as i64 * (p_lo + PROBE_DECODE + 1) as i64;
        let q1 = p_one - step_rate * k1;
        let qc = p_cap - step_rate * k_cap;
        let (step_base, step_seq) = if slots == b_lo {
            (qc, 0)
        } else {
            let seq = div_round(qc - q1, (slots - b_lo) as i64);
            (q1 - seq * b_lo as i64, seq)
        };

        let model = StepCostModel {
            prefill_base,
            prefill_slope,
            step_base,
            step_seq,
            step_rate,
            slots,
        };
        // The model must price every anchor positively; a run that drove
        // any anchor sub-unit is outside the interpolation's domain.
        model.prefill_units(p_lo as u64)?;
        model.prefill_units(ctx_hi as u64)?;
        model.step_units(b_lo as u64, k1)?;
        model.step_units(slots as u64, k_cap)?;
        Ok(model)
    }

    /// Cost of prefilling one request with `ctx` context tokens, grid
    /// units.
    ///
    /// # Errors
    ///
    /// [`LoadError::GridRange`] when the affine model prices the prefill
    /// below one grid unit (outside its interpolation domain).
    pub fn prefill_units(&self, ctx: u64) -> Result<i64, LoadError> {
        let u = self.prefill_base + self.prefill_slope * ctx as i64;
        if u < 1 {
            return Err(LoadError::GridRange(format!(
                "prefill({ctx}) priced at {u} grid units"
            )));
        }
        Ok(u)
    }

    /// Cost of one decode step with `batch` in-flight sequences reading
    /// `kv` total resident KV tokens, grid units.
    ///
    /// # Errors
    ///
    /// [`LoadError::GridRange`] when the affine model prices the step
    /// below one grid unit (outside its interpolation domain).
    pub fn step_units(&self, batch: u64, kv: i64) -> Result<i64, LoadError> {
        let u = self.step_base + self.step_seq * batch as i64 + self.step_rate * kv;
        if u < 1 {
            return Err(LoadError::GridRange(format!(
                "step(batch={batch}, kv={kv}) priced at {u} grid units"
            )));
        }
        Ok(u)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use madmax_core::steady::grid_seconds;
    use madmax_model::ModelId;
    use madmax_parallel::{PipelineConfig, PlanError};

    fn arrivals(prompt: usize, decode: usize, n: usize) -> Vec<ArrivalEvent> {
        (0..n)
            .map(|i| ArrivalEvent {
                at: i as i64 * 1000,
                prompt_len: prompt,
                decode_len: decode,
            })
            .collect()
    }

    /// A synthetic engine with exactly the affine structure the model
    /// fits, in grid units: one request's prefill costs
    /// `PREFILL.0 + PREFILL.1 * ctx`, and decode step `j` of a
    /// `batch`-sequence wave reads `ctx + j` cached tokens per sequence
    /// and costs `STEP.0 + STEP.1 * batch + STEP.2 * batch * (ctx + j)`.
    const PREFILL: (i64, i64) = (40_000, 300);
    const STEP: (i64, i64, i64) = (9_000, 700, 3);

    /// The synthetic wave's makespan after `d` decode tokens of shape
    /// `cfg`, grid units.
    fn makespan(cfg: &ServeConfig, d: usize) -> i64 {
        let ctx = cfg.prompt_len.expect("probes pin the prompt") as i64;
        let batch = cfg.decode_batch.expect("probes pin the batch") as i64;
        let decode: i64 = (0..d as i64)
            .map(|j| STEP.0 + STEP.1 * batch + STEP.2 * batch * (ctx + j))
            .sum();
        PREFILL.0 + PREFILL.1 * ctx + decode
    }

    fn wave(cfg: ServeConfig) -> Result<ProbeRun, LoadError> {
        let l = cfg.decode_len;
        Ok(ProbeRun {
            ttft: grid_seconds(makespan(&cfg, 0)),
            tail: [l - 2, l - 1, l].map(|d| grid_seconds(makespan(&cfg, d))),
        })
    }

    fn fits(_: ServeConfig) -> Result<(), LoadError> {
        Ok(())
    }

    fn prefill(cfg: ServeConfig) -> Result<Seconds, LoadError> {
        Ok(grid_seconds(makespan(&cfg, 0)))
    }

    #[test]
    fn priced_models_predict_probe_differences() {
        let model = ModelId::Llama2.build();
        let plan = Plan::fsdp_baseline(&model);
        let serve = ServeConfig::new(256, 64).with_decode_batch(8);
        let slots = 8usize;
        let reqs = arrivals(256, 64, 4);
        let m = StepCostModel::price(&plan, &serve, slots, &reqs, fits, wave, prefill).unwrap();
        // Every coefficient of an exactly affine engine is recovered.
        assert_eq!((m.prefill_base, m.prefill_slope), PREFILL);
        assert_eq!((m.step_base, m.step_seq, m.step_rate), STEP);
        // Held-out check: the model's step cost reproduces the engine's
        // first difference at an unprobed decode length.
        let cfg = ServeConfig::new(256, 73).with_decode_batch(slots);
        let actual = makespan(&cfg, 73) - makespan(&cfg, 72);
        let predicted = m
            .step_units(slots as u64, slots as i64 * (256 + 72))
            .unwrap();
        assert_eq!(predicted, actual);
    }

    #[test]
    fn prefill_scales_with_context_and_pipelined_plans_price() {
        let model = ModelId::Llama2.build();
        let plan = Plan::fsdp_baseline(&model).with_pipeline(PipelineConfig::gpipe(4, 4));
        let serve = ServeConfig::new(128, 32).with_decode_batch(4);
        // A pipelined plan is never probed below its microbatch count.
        let above_microbatches = |cfg: &ServeConfig| {
            assert!(
                cfg.decode_batch.unwrap() >= 4,
                "probed below the microbatches"
            );
        };
        let probe = |cfg: ServeConfig| {
            above_microbatches(&cfg);
            wave(cfg)
        };
        let ttft = |cfg: ServeConfig| {
            above_microbatches(&cfg);
            prefill(cfg)
        };
        let m = StepCostModel::price(&plan, &serve, 4, &arrivals(128, 32, 2), fits, probe, ttft)
            .unwrap();
        let short = m.prefill_units(128).unwrap();
        let long = m.prefill_units(160).unwrap();
        assert!(long >= short);
        assert!(short >= 1);
    }

    #[test]
    fn price_probes_exactly_the_probe_shapes_in_order() {
        let model = ModelId::Llama2.build();
        let flat = Plan::fsdp_baseline(&model);
        // (plan, slots, shapes used, engine runs among them): the first
        // shape is only checked for feasibility, and only the TTFT of the
        // last is read.
        let cases = [
            // Flat: b_lo = 1 < slots.
            (flat.clone(), 8usize, 4usize, 2usize),
            // Pipelined below the slots: b_lo = microbatches = 2.
            (
                flat.clone().with_pipeline(PipelineConfig::gpipe(4, 2)),
                8,
                4,
                2,
            ),
            // Pipelined at or above the slots: b_lo == slots.
            (
                flat.clone().with_pipeline(PipelineConfig::gpipe(4, 8)),
                8,
                3,
                1,
            ),
            (flat.with_pipeline(PipelineConfig::gpipe(4, 16)), 8, 3, 1),
        ];
        let serve = ServeConfig::new(256, 64).with_decode_batch(8);
        let mut reqs = arrivals(256, 64, 3);
        reqs[1].prompt_len = 96;
        reqs[2].decode_len = 80;
        for (plan, slots, count, runs) in cases {
            // Every call, tagged 'f'easibility, 'r'un or 't'tft.
            let seen = RefCell::new(Vec::new());
            let checked = |cfg: ServeConfig| {
                seen.borrow_mut().push(('f', cfg));
                fits(cfg)
            };
            let probe = |cfg: ServeConfig| {
                seen.borrow_mut().push(('r', cfg));
                wave(cfg)
            };
            let ttft = |cfg: ServeConfig| {
                seen.borrow_mut().push(('t', cfg));
                prefill(cfg)
            };
            StepCostModel::price(&plan, &serve, slots, &reqs, checked, probe, ttft).unwrap();
            let shapes = StepCostModel::probe_shapes(&plan, &serve, slots, &reqs);
            let (calls, seen): (String, Vec<_>) = seen.into_inner().into_iter().unzip();
            assert_eq!(seen, shapes, "{}", plan.summary());
            assert_eq!(shapes.len(), count, "{}", plan.summary());
            assert_eq!(
                calls,
                format!("f{}t", "r".repeat(runs)),
                "{}",
                plan.summary()
            );
            // The worst case covers the longest prompt and decode.
            assert_eq!(shapes[0].prompt_len, Some(256));
            assert_eq!(shapes[0].decode_len, 80);
            // One run per decode ladder: no two runs share a prompt and
            // a batch.
            for (i, a) in shapes.iter().enumerate().skip(1) {
                assert!(
                    !shapes[1..i]
                        .iter()
                        .any(|b| (b.prompt_len, b.decode_batch) == (a.prompt_len, a.decode_batch)),
                    "{a:?} probed twice"
                );
            }
        }
        // No probe at all when pricing fails up front.
        let plan = Plan::fsdp_baseline(&model);
        assert!(StepCostModel::probe_shapes(&plan, &serve, 0, &reqs).is_empty());
        assert!(StepCostModel::probe_shapes(&plan, &serve, 8, &[]).is_empty());
    }

    #[test]
    fn a_failing_probe_stops_pricing() {
        let model = ModelId::Llama2.build();
        let plan = Plan::fsdp_baseline(&model);
        let serve = ServeConfig::new(256, 64).with_decode_batch(8);
        let reqs = arrivals(256, 64, 2);
        let shapes = StepCostModel::probe_shapes(&plan, &serve, 8, &reqs);
        let seen = RefCell::new(Vec::new());
        let checked = |cfg: ServeConfig| {
            seen.borrow_mut().push(cfg);
            fits(cfg)
        };
        // The second run (the third shape) fails.
        let probe = |cfg: ServeConfig| {
            seen.borrow_mut().push(cfg);
            if seen.borrow().len() == 3 {
                Err(LoadError::Spec("probe failed".to_owned()))
            } else {
                wave(cfg)
            }
        };
        let no_ttft = |cfg: ServeConfig| -> Result<Seconds, LoadError> {
            panic!("{cfg:?} priced after a failed run")
        };
        let err =
            StepCostModel::price(&plan, &serve, 8, &reqs, checked, probe, no_ttft).unwrap_err();
        assert!(err.to_string().contains("probe failed"), "{err}");
        assert_eq!(seen.into_inner(), shapes[..3]);
    }

    #[test]
    fn oom_probes_surface_as_plan_errors() {
        // An infeasible worst case stops pricing before any run.
        let model = ModelId::Llama2.build();
        let plan = Plan::fsdp_baseline(&model);
        let serve = ServeConfig::new(4096, 2_000_000).with_decode_batch(1 << 14);
        let oom = |_: ServeConfig| -> Result<(), LoadError> {
            Err(LoadError::Plan(PlanError::OutOfMemory {
                required: madmax_hw::units::ByteCount::from_gb(2.0),
                usable: madmax_hw::units::ByteCount::from_gb(1.0),
            }))
        };
        let no_run = |cfg: ServeConfig| -> Result<ProbeRun, LoadError> {
            panic!("{cfg:?} ran after a failed feasibility check")
        };
        let no_ttft = |cfg: ServeConfig| -> Result<Seconds, LoadError> {
            panic!("{cfg:?} priced after a failed feasibility check")
        };
        let reqs = arrivals(4096, 2_000_000, 1);
        let err =
            StepCostModel::price(&plan, &serve, 1 << 14, &reqs, oom, no_run, no_ttft).unwrap_err();
        assert!(
            matches!(err, LoadError::Plan(PlanError::OutOfMemory { .. })),
            "{err}"
        );
    }
}
