//! SLO-constrained load search: rank deployment candidates by the
//! throughput they sustain under a continuous-batching request stream
//! without violating a tail-latency SLO.
//!
//! [`Explorer::explore_load`] sweeps the space's (plan, workload)
//! candidates against a ladder of arrival rates, on the explorer's
//! candidate driver and worker pool. Each candidate prices its per-step
//! cost model once (a handful of engine probes, evaluated against cost
//! tables shared by every candidate of the workload variant), then
//! simulates every rate through `madmax_serve`'s event-driven simulator.
//! A rate point is *feasible* when its p99 TTFT meets the SLO; a
//! candidate's score is the best feasible throughput, and the winner's
//! rate sweep is the latency-vs-throughput frontier (the serving
//! counterpart of the paper's iteration-time sweeps).
//!
//! The search is an exact branch-and-bound on the driver's two-score
//! pruning. Before a candidate is priced, one prefill-only schedule
//! (`Scenario::load_prefill_floor`) floors every request's prefill, and a
//! FIFO queueing recursion over the sweep's arrivals
//! ([`madmax_serve::load_bound`]) turns that floor into upper bounds on
//! the candidate's two rankings: its best SLO-feasible throughput and the
//! reciprocal of its lowest p99 TTFT. Only the candidates that could still
//! beat the first wave on either ranking are priced and simulated.

use madmax_engine::{EngineError, EngineScratch, Scenario, SimMode};
use madmax_hw::units::Seconds;
use madmax_obs::SearchTelemetry;
use madmax_parallel::{ArrivalSpec, LoadSpec, Plan, Workload};
use madmax_serve::{load_bound, materialize_arrivals, ArrivalEvent, LoadReport};

use crate::explore::{Evaluated, Explorer, Objective, Pricing, Prune};

/// The load dimensions of a search: a base [`LoadSpec`] (queue, paging,
/// horizon knobs), the arrival rates to sweep, and the TTFT SLO.
#[derive(Debug, Clone)]
pub struct LoadAxes {
    /// The base load spec. A [`ArrivalSpec::Poisson`] or
    /// [`ArrivalSpec::Bursty`] arrival process is re-rated per sweep
    /// point; a trace is simulated as-is (one point).
    pub spec: LoadSpec,
    /// Arrival rates (requests/second) to sweep for Poisson or bursty
    /// arrivals. Ignored for trace arrivals.
    pub rates: Vec<f64>,
    /// p99 time-to-first-token SLO; `None` ranks by unconstrained
    /// throughput.
    pub slo_ttft_p99: Option<Seconds>,
}

impl LoadAxes {
    /// Axes sweeping `rates` over `spec` under `slo`.
    pub fn new(spec: LoadSpec, rates: impl IntoIterator<Item = f64>) -> Self {
        Self {
            spec,
            rates: rates.into_iter().collect(),
            slo_ttft_p99: None,
        }
    }

    /// Sets the p99 TTFT SLO.
    #[must_use]
    pub fn with_slo_ttft_p99(mut self, slo: Seconds) -> Self {
        self.slo_ttft_p99 = Some(slo);
        self
    }

    /// Validates the base spec, the SLO and the rates up front so an
    /// invalid input fails once with a clear error instead of once per
    /// candidate.
    fn validate(&self) -> Result<(), EngineError> {
        self.spec
            .validate()
            .map_err(|reason| EngineError::InvalidLoad { reason })?;
        if let Some(slo) = self
            .slo_ttft_p99
            .filter(|s| !(s.is_finite() && s.as_secs() > 0.0))
        {
            return Err(EngineError::InvalidLoad {
                reason: format!(
                    "p99 TTFT SLO {} s must be finite and positive",
                    slo.as_secs()
                ),
            });
        }
        if let ArrivalSpec::Poisson { .. } | ArrivalSpec::Bursty { .. } = &self.spec.arrivals {
            if self.rates.is_empty() {
                return Err(EngineError::InvalidLoad {
                    reason: "Poisson/bursty load axes need at least one arrival rate".to_owned(),
                });
            }
            for &r in &self.rates {
                if !(r.is_finite() && r > 0.0) {
                    return Err(EngineError::InvalidLoad {
                        reason: format!("arrival rate {r} must be finite and positive"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The spec at one sweep rate (Poisson/bursty re-rated; traces
    /// unchanged).
    fn spec_at(&self, rate: f64) -> LoadSpec {
        let mut spec = self.spec.clone();
        match &mut spec.arrivals {
            ArrivalSpec::Poisson { rate: r, .. } | ArrivalSpec::Bursty { rate: r, .. } => {
                *r = rate;
            }
            ArrivalSpec::Trace { .. } => {}
        }
        spec
    }

    /// The sweep points: every rate for Poisson/bursty arrivals, the
    /// trace itself (rate reported as 0) otherwise.
    fn sweep(&self) -> Vec<(f64, LoadSpec)> {
        match &self.spec.arrivals {
            ArrivalSpec::Poisson { .. } | ArrivalSpec::Bursty { .. } if !self.rates.is_empty() => {
                self.rates.iter().map(|&r| (r, self.spec_at(r))).collect()
            }
            _ => vec![(0.0, self.spec.clone())],
        }
    }
}

/// One (candidate, rate) simulation of a load search.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Arrival rate of this point, requests/second (0 for trace-driven
    /// arrivals).
    pub rate: f64,
    /// The simulated load report.
    pub report: LoadReport,
    /// Whether the report meets the search's TTFT SLO.
    pub feasible: bool,
}

/// One candidate's full rate sweep.
#[derive(Debug, Clone)]
pub struct LoadCandidate {
    /// The candidate plan.
    pub plan: Plan,
    /// The workload variant it served.
    pub workload: Workload,
    /// One point per swept rate, in rate order. Empty when the candidate
    /// failed to price or simulate, or was pruned.
    pub points: Vec<LoadPoint>,
    /// Index into [`LoadCandidate::points`] of the best feasible point
    /// (highest throughput meeting the SLO), if any.
    pub best_point: Option<usize>,
    /// Why the candidate failed to price or simulate, when it did.
    pub error: Option<EngineError>,
}

impl LoadCandidate {
    /// The candidate's score: completed tokens/second at its best
    /// feasible point (0 when nothing met the SLO).
    pub(crate) fn score(&self) -> f64 {
        self.best_point
            .map_or(0.0, |i| self.points[i].report.tokens_per_sec)
    }

    /// A driven candidate with its best feasible point picked (the last
    /// maximum wins).
    fn from_evaluated(c: Evaluated<Vec<LoadPoint>>) -> Self {
        let (points, error) = match c.result {
            Ok(points) => (points, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        let best_point = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.feasible)
            .max_by(|(_, a), (_, b)| a.report.tokens_per_sec.total_cmp(&b.report.tokens_per_sec))
            .map(|(i, _)| i);
        Self {
            plan: c.plan,
            workload: c.workload,
            points,
            best_point,
            error,
        }
    }
}

/// Result of one [`Explorer::explore_load`] run.
#[derive(Debug, Clone)]
pub struct LoadSearchOutcome {
    /// Every candidate's sweep, in enumeration order.
    pub candidates: Vec<LoadCandidate>,
    /// Index into [`LoadSearchOutcome::candidates`] of the winner.
    pub best_candidate: usize,
    /// The SLO the search ranked under.
    pub slo_ttft_p99: Option<Seconds>,
    /// Load simulations executed (points across all candidates).
    pub evaluated: usize,
    /// Search counters: one candidate per (plan, workload variant),
    /// outcome counters reconciling with
    /// [`LoadSearchOutcome::candidates`], per-worker throughput and the
    /// evaluation-latency histogram. The cache snapshots (`flat_cache`,
    /// `pipeline_cache`, `report_memo`, `steady_analytic`) come from the
    /// shared load-probe tables, summed over their shapes and workload
    /// variants.
    pub telemetry: SearchTelemetry,
}

impl LoadSearchOutcome {
    /// The winning candidate.
    pub fn best(&self) -> &LoadCandidate {
        &self.candidates[self.best_candidate]
    }

    /// The winner's latency-vs-throughput frontier: one
    /// `(rate, tokens_per_sec, ttft_p99_seconds)` row per swept rate
    /// that produced a first token.
    pub fn frontier(&self) -> Vec<(f64, f64, f64)> {
        self.best()
            .points
            .iter()
            .filter_map(|p| {
                let ttft = p.report.ttft?;
                Some((p.rate, p.report.tokens_per_sec, ttft.p99.as_secs()))
            })
            .collect()
    }
}

impl Explorer<'_> {
    /// Searches the space for the deployment sustaining the highest
    /// continuous-batching throughput under `axes`' TTFT SLO.
    ///
    /// Candidates are the same (plan, workload-variant) combinations
    /// [`Explorer::explore`] evaluates, and they run on the same driver
    /// (the worker pool, the attached progress sink, per-worker
    /// telemetry). Before a workload variant's candidates run, the driver
    /// prices its load-probe tables ([`Scenario::price_load_probes`]): one
    /// flat and one pipeline cost table per distinct probe shape, covering
    /// the candidates that probe it, dropped once the variant is done.
    /// Each simulated candidate's step then prices one per-step cost
    /// model, its engine probes evaluated against those shared tables
    /// (byte-identical to one-plan tables per probe), and simulates every
    /// arrival rate in event mode. Candidates whose pricing or simulation
    /// fails (OOM at the worst-case context, unmappable pipeline, a clock
    /// beyond the grid, ...) stay in the outcome with their error.
    ///
    /// Ranking: highest `LoadCandidate::score` — throughput at the
    /// best SLO-feasible rate. When *no* candidate meets the SLO at any
    /// rate, the search falls back to the lowest achieved p99 TTFT so a
    /// winner (and its frontier) still comes back.
    ///
    /// The search is an exact branch-and-bound with two scores per
    /// candidate, the two rankings: the best SLO-feasible throughput and
    /// the reciprocal of the lowest p99 TTFT. A candidate's optimistic
    /// scores come from a floor on its prefills
    /// ([`Scenario::load_prefill_floor`], which also resolves OOM
    /// candidates with `price_load`'s error) and a FIFO queueing
    /// recursion over every sweep point's arrivals, materialized once per
    /// search ([`madmax_serve::load_bound`]): no simulation reports more
    /// tokens/s or a lower p99 TTFT. Specs that can reject or cut off a
    /// request (a horizon, a queue capacity, a request over the KV budget)
    /// leave every candidate unbounded. Per workload variant the four best
    /// candidates on each score are simulated first; every other candidate
    /// whose optimistic scores lie strictly below both incumbents is
    /// pruned. A pruned [`LoadCandidate`] has no error, no points and no
    /// best point; it counts `ok` and in [`SearchTelemetry::pruned`].
    /// Since nothing is pruned unless some candidate meets the SLO, and a
    /// pruned candidate scores strictly below the winner, `best_candidate`
    /// and its points are those of simulating every candidate. A pruned
    /// candidate whose pricing or simulation would have failed comes back
    /// without its error. Results, pruned set included, are identical at
    /// any thread count.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] when the spec is invalid; the first
    /// candidate's error when every candidate failed (for a workload
    /// that is not serve, that is [`EngineError::InvalidLoad`] too).
    ///
    /// # Panics
    ///
    /// Panics when the space carries serve axes but the workload is not
    /// serve (matching [`Explorer::explore`]).
    pub fn explore_load(&self, axes: &LoadAxes) -> Result<LoadSearchOutcome, EngineError> {
        axes.validate()?;
        let started = std::time::Instant::now();
        let sweep = axes.sweep();
        // Every sweep point's arrivals, materialized once for the bounds
        // (workload variants differ only in decode batch, which no
        // arrival depends on); `None` leaves every candidate unbounded,
        // and its step reports the error.
        let arrivals: Option<Vec<Vec<ArrivalEvent>>> =
            self.workload.serve_config().and_then(|serve| {
                sweep
                    .iter()
                    .map(|(_, spec)| materialize_arrivals(&spec.arrivals, serve, self.model).ok())
                    .collect()
            });
        let optimistic = |s: &Scenario<'_>| -> Result<Option<[f64; 2]>, EngineError> {
            let floor = s.load_prefill_floor(&sweep[0].1)?;
            Ok(floor
                .zip(arrivals.as_deref())
                .and_then(|(floor, arrivals)| {
                    load_bound(arrivals, &axes.spec, floor, axes.slo_ttft_p99)
                }))
        };
        let scored = |points: &Vec<LoadPoint>| (!points.is_empty()).then(|| scores(points));
        let objective = Objective {
            pricing: Pricing::LoadProbes(&sweep[0].1),
            step: |s: &Scenario<'_>, _: &mut EngineScratch| {
                // Request shapes are rate-independent, so one cost
                // model serves the whole sweep.
                let costs = s.price_load(&sweep[0].1)?;
                sweep
                    .iter()
                    .map(|(rate, spec)| {
                        let outcome = s.serve_load_priced(spec, &costs, SimMode::Event, None)?;
                        let feasible = axes
                            .slo_ttft_p99
                            .is_none_or(|slo| outcome.report.meets_ttft_slo(slo));
                        Ok(LoadPoint {
                            rate: *rate,
                            report: outcome.report,
                            feasible,
                        })
                    })
                    .collect()
            },
            iteration_ms: |_: &Vec<LoadPoint>| None,
            prune: Some(Prune {
                optimistic: &optimistic,
                score: &scored,
                pruned: Vec::new,
                family: None,
            }),
        };
        let (driven, mut telemetry) = self.drive(None, &objective);
        let candidates: Vec<LoadCandidate> = driven
            .any_success(|| EngineError::InvalidLoad {
                reason: "the search space is empty".to_owned(),
            })?
            .into_candidates()
            .map(LoadCandidate::from_evaluated)
            .collect();
        let evaluated = candidates.iter().map(|c| c.points.len()).sum();

        // The last maximum wins (`Iterator::max_by`); when nothing met
        // the SLO, fall back to the lowest achieved p99 TTFT among
        // candidates that simulated (the first minimum, `min_by`), of
        // which `any_success` guarantees one.
        let best_candidate = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.best_point.is_some())
            .max_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))
            .or_else(|| {
                candidates
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.points.is_empty())
                    .min_by(|(_, a), (_, b)| min_ttft(&a.points).total_cmp(&min_ttft(&b.points)))
            })
            .map_or(0, |(i, _)| i);
        telemetry.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(LoadSearchOutcome {
            candidates,
            best_candidate,
            slo_ttft_p99: axes.slo_ttft_p99,
            evaluated,
            telemetry,
        })
    }
}

/// A sweep's lowest achieved p99 TTFT (infinite when nothing produced a
/// first token).
fn min_ttft(points: &[LoadPoint]) -> f64 {
    points
        .iter()
        .filter_map(|p| p.report.ttft.map(|t| t.p99.as_secs()))
        .fold(f64::INFINITY, f64::min)
}

/// A simulated sweep's two branch-and-bound scores, the two rankings of
/// [`Explorer::explore_load`]: its [`LoadCandidate::score`] (the best
/// SLO-feasible tokens/s, 0 when no point is feasible) and the reciprocal
/// of its lowest p99 TTFT, in the arithmetic of [`load_bound`].
fn scores(points: &[LoadPoint]) -> [f64; 2] {
    let best = points
        .iter()
        .filter(|p| p.feasible)
        .map(|p| p.report.tokens_per_sec)
        .fold(0.0, f64::max);
    [best, 1.0 / min_ttft(points)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{PipelineAxes, SearchSpace};
    use madmax_hw::catalog;
    use madmax_model::{LayerClass, ModelId};
    use madmax_parallel::{PipelineSchedule, ServeConfig};

    /// A Llama2 prefill at 256 tokens costs ~10 s on this system, so the
    /// interesting rate regime is fractional requests/second and SLOs are
    /// tens of seconds.
    fn axes(rates: &[f64], slo: f64) -> LoadAxes {
        LoadAxes::new(LoadSpec::poisson(rates[0], 16, 11), rates.iter().copied())
            .with_slo_ttft_p99(Seconds::new(slo))
    }

    #[test]
    fn load_search_ranks_by_slo_constrained_throughput() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(256, 32).with_decode_batch(8),
            ))
            .space(SearchSpace::default());
        // Idle at 0.02 req/s (p99 TTFT ~ one prefill), saturated at
        // 50 req/s (p99 TTFT ~ 65 s): the 30 s SLO admits only the idle
        // point even though the saturated one moves more tokens/second.
        let r = explorer.explore_load(&axes(&[0.02, 50.0], 30.0)).unwrap();
        assert_eq!(r.candidates.len(), 1, "default space = baseline plan only");
        assert_eq!(r.evaluated, 2);
        let best = r.best();
        assert!(best.error.is_none());
        assert_eq!(best.points.len(), 2);
        assert!(best.points[0].feasible && !best.points[1].feasible);
        assert_eq!(best.best_point, Some(0), "SLO overrides raw throughput");
        assert!(r.best().score() > 0.0);
        let frontier = r.frontier();
        assert_eq!(frontier.len(), 2);
        assert!(
            frontier[1].2 > frontier[0].2,
            "saturation raises tail latency: {frontier:?}"
        );
        // Reports carry the conservation invariant through the search.
        for p in &best.points {
            assert_eq!(
                p.report.completed + p.report.rejected,
                p.report.arrivals,
                "no horizon: every request resolves"
            );
        }
    }

    #[test]
    fn infeasible_slo_falls_back_to_lowest_tail_latency() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).workload(Workload::serve(
            ServeConfig::new(256, 16).with_decode_batch(4),
        ));
        let a = axes(&[100.0, 400.0], 1e-12); // nothing can meet this
        let r = explorer.explore_load(&a).unwrap();
        assert!(r.best().best_point.is_none());
        assert!(r.best().score() == 0.0);
        assert!(!r.frontier().is_empty(), "frontier still reported");
    }

    #[test]
    fn pipeline_axes_widen_the_load_space() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(256, 16).with_decode_batch(8),
            ))
            .space(SearchSpace::default().with_pipeline(PipelineAxes {
                stages: vec![1, 8],
                microbatches: vec![8],
                schedules: vec![PipelineSchedule::GPipe],
            }));
        let r = explorer.explore_load(&axes(&[0.02, 0.2], 500.0)).unwrap();
        assert_eq!(r.candidates.len(), 2);
        // Both candidates priced and swept (or recorded their error).
        for c in &r.candidates {
            assert!(c.error.is_some() || c.points.len() == 2);
        }
        assert!(r.best().best_point.is_some());
    }

    #[test]
    fn a_failing_candidate_simulation_does_not_abort_the_search() {
        // 400 requests of 2048-token prompts at 50 req/s: the
        // (DDP, FSDP) transformer mapping falls so far behind that its
        // simulated clock leaves the 2^52-unit grid. That candidate
        // carries its error; the others still rank. A queue that holds
        // every request never rejects one, so the runs are those of an
        // unbounded queue, but no load bound holds under a queue
        // capacity: every candidate is simulated, the failing one too
        // (its bound would prune it).
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let spec = LoadSpec::poisson(50.0, 400, 42).with_queue_capacity(400);
        let r = Explorer::new(&model, &sys)
            .workload(Workload::serve(
                ServeConfig::new(2048, 64).with_decode_batch(8),
            ))
            .space(SearchSpace::strategies().with_classes(vec![LayerClass::Transformer]))
            .explore_load(&LoadAxes::new(spec, [50.0]))
            .unwrap();
        let overflowed: Vec<_> = r
            .candidates
            .iter()
            .filter(|c| {
                matches!(&c.error, Some(EngineError::InvalidLoad { reason }) if reason.contains("2^52"))
            })
            .collect();
        assert_eq!(overflowed.len(), 1, "{:?}", r.candidates);
        assert!(overflowed[0].points.is_empty());
        assert!(r.best().error.is_none());
        assert!(r.best().score() > 0.0);
        let t = &r.telemetry;
        assert!(t.reconciles(), "{t:?}");
        assert_eq!(t.candidates, r.candidates.len() as u64);
        assert_eq!(t.invalid, 1, "the overflow counts as invalid");
        assert_eq!(
            t.ok as usize,
            r.candidates.iter().filter(|c| c.error.is_none()).count()
        );
        assert_eq!(
            r.evaluated, t.ok as usize,
            "one rate per simulated candidate"
        );
    }

    #[test]
    fn non_finite_or_non_positive_slos_are_rejected() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).workload(Workload::serve(
            ServeConfig::new(256, 16).with_decode_batch(4),
        ));
        for slo in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = explorer.explore_load(&axes(&[0.1], slo)).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidLoad { .. }),
                "{slo}: {err}"
            );
            assert!(err.to_string().contains("SLO"), "{err}");
        }
    }

    #[test]
    fn non_serve_workloads_are_rejected() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let err = Explorer::new(&model, &sys)
            .explore_load(&axes(&[100.0], 30.0))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidLoad { .. }), "{err}");
    }
}
