//! Failure-aware goodput search: rank deployment candidates by the
//! *effective* training throughput they sustain under a fault process,
//! not their fault-free iteration time.
//!
//! [`Explorer::explore_goodput`] sweeps the space's (plan, workload)
//! candidates against a [`FaultAxes`]: each candidate runs its
//! fault-free simulation once — on the explorer's candidate driver, with
//! its shared cost tables and worker pool — prices a checkpoint
//! write/restart from its per-device memory breakdown (replicated plans
//! carry fat checkpoints, sharded plans thin ones), then evaluates the
//! closed-form Young/Daly expected goodput at every checkpoint interval
//! on the axes. The headline result is
//! [`GoodputSearchOutcome::plan_flip`]: as the fleet MTBF shrinks, the
//! goodput-optimal plan diverges from the latency-optimal one — exactly
//! the failure-awareness the fault-free explorer cannot see.
//!
//! The search is an exact branch-and-bound on the driver's two-score
//! pruning. A goodput fraction depends only on the checkpoint (priced
//! from the memory breakdown), the MTBF, the restart and the interval,
//! never on the iteration time; so the same points priced at the
//! candidate's iteration-time lower bound give optimistic scores for both
//! rankings before any simulation. A candidate that can beat neither the
//! goodput incumbent nor the fault-free incumbent is not simulated: it
//! comes back with no error, no iteration time and no points.

use std::cmp::Ordering;

use madmax_engine::{EngineError, EngineScratch, FaultSpec, GoodputReport, Scenario};
use madmax_hw::units::Seconds;
use madmax_obs::SearchTelemetry;
use madmax_parallel::{Plan, Workload};

use crate::explore::{Evaluated, Explorer, Objective, Pricing, Prune};

/// The fault dimensions of a goodput search: one fault process (the
/// fleet MTBF must be set) and the checkpoint intervals to sweep.
#[derive(Debug, Clone)]
pub struct FaultAxes {
    /// The fault process. `fault.mtbf` is required;
    /// `fault.checkpoint_interval` is ignored when `intervals` is
    /// non-empty.
    pub fault: FaultSpec,
    /// Checkpoint intervals (seconds of useful work) to sweep per
    /// candidate. Empty sweeps a single point at the spec's interval
    /// (the Young/Daly optimum when that is `None` too).
    pub intervals: Vec<f64>,
}

impl FaultAxes {
    /// Axes evaluating `fault` at its own checkpoint interval (the
    /// Young/Daly optimum unless the spec pins one).
    pub fn new(fault: FaultSpec) -> Self {
        Self {
            fault,
            intervals: Vec::new(),
        }
    }

    /// Adds a checkpoint-interval sweep.
    #[must_use]
    pub fn with_intervals(mut self, intervals: impl IntoIterator<Item = f64>) -> Self {
        self.intervals = intervals.into_iter().collect();
        self
    }

    /// The per-candidate sweep: one spec per interval, or the base spec
    /// alone.
    fn sweep(&self) -> Vec<FaultSpec> {
        if self.intervals.is_empty() {
            vec![self.fault.clone()]
        } else {
            self.intervals
                .iter()
                .map(|&ci| self.fault.clone().with_checkpoint_interval(ci))
                .collect()
        }
    }
}

/// One candidate's checkpoint-interval sweep.
#[derive(Debug, Clone)]
pub struct GoodputCandidate {
    /// The candidate plan.
    pub plan: Plan,
    /// The workload variant it ran.
    pub workload: Workload,
    /// One goodput evaluation per swept interval, in axes order. Empty
    /// when the candidate failed to simulate or was pruned.
    pub points: Vec<GoodputReport>,
    /// Index into [`GoodputCandidate::points`] of the best interval
    /// (highest effective throughput), if any.
    pub best_point: Option<usize>,
    /// The candidate's fault-free iteration time, when it simulated
    /// (`None` when it failed or was pruned).
    pub iteration_time: Option<Seconds>,
    /// Why the candidate failed to simulate, when it did.
    pub error: Option<EngineError>,
}

impl GoodputCandidate {
    /// The candidate's score: effective (goodput-weighted) iterations
    /// per second at its best checkpoint interval (0 when it failed).
    pub fn score(&self) -> f64 {
        self.best_point
            .map_or(0.0, |i| self.points[i].effective_throughput)
    }

    /// A driven candidate with its best swept interval picked (the last
    /// maximum wins).
    fn from_evaluated(c: Evaluated<Option<(Seconds, Vec<GoodputReport>)>>) -> Self {
        let (iteration_time, points, error) = match c.result {
            Ok(Some((t, points))) => (Some(t), points, None),
            Ok(None) => (None, Vec::new(), None),
            Err(e) => (None, Vec::new(), Some(e)),
        };
        let best_point = points
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.effective_throughput.total_cmp(&b.effective_throughput))
            .map(|(i, _)| i);
        Self {
            plan: c.plan,
            workload: c.workload,
            points,
            best_point,
            iteration_time,
            error,
        }
    }
}

/// Result of one [`Explorer::explore_goodput`] run.
#[derive(Debug, Clone)]
pub struct GoodputSearchOutcome {
    /// Every candidate's sweep, in enumeration order.
    pub candidates: Vec<GoodputCandidate>,
    /// Index into [`GoodputSearchOutcome::candidates`] of the
    /// goodput-optimal winner.
    pub best_candidate: usize,
    /// Index of the *fault-free* (latency-optimal) winner: the candidate
    /// with the highest fault-free throughput, i.e. what the plain
    /// explorer would have picked.
    pub fault_free_best: usize,
    /// Goodput evaluations executed: the points of every simulated
    /// candidate. Pruned candidates contribute none (they are counted in
    /// [`SearchTelemetry::pruned`]).
    pub evaluated: usize,
    /// Search counters for the fault-free simulations (one per
    /// candidate, pruned ones counted `ok`; outcome counters reconcile,
    /// cache and per-worker stats included), plus
    /// [`SearchTelemetry::goodput_evals`] carrying `evaluated`.
    pub telemetry: SearchTelemetry,
}

impl GoodputSearchOutcome {
    /// The goodput-optimal candidate.
    pub fn best(&self) -> &GoodputCandidate {
        &self.candidates[self.best_candidate]
    }

    /// The latency-optimal candidate (the fault-free explorer's pick).
    pub fn fault_free(&self) -> &GoodputCandidate {
        &self.candidates[self.fault_free_best]
    }

    /// Whether failure-awareness changed the winning plan: the
    /// goodput-optimal candidate differs from the latency-optimal one.
    pub fn plan_flip(&self) -> bool {
        self.best_candidate != self.fault_free_best
    }

    /// The winner's best effective throughput, iterations/second.
    pub fn best_effective_throughput(&self) -> f64 {
        self.best().score()
    }
}

impl Explorer<'_> {
    /// Searches the space for the deployment with the highest
    /// **failure-aware goodput** under `axes`' fault process.
    ///
    /// Candidates are the same (plan, workload-variant) combinations
    /// [`Explorer::explore`] evaluates, and they run on the same driver
    /// (shared cost tables, the worker pool, the attached progress sink,
    /// per-worker telemetry). Each simulated candidate's step runs it
    /// once, prices its checkpoint from the report's memory breakdown, and
    /// evaluates every swept interval in closed form
    /// ([`Scenario::goodput_points`]), so a k-interval sweep costs one
    /// simulation, not k.
    ///
    /// Ranking: highest [`GoodputCandidate::score`] — effective
    /// iterations/second at the best swept checkpoint interval — with ties
    /// broken by the higher fault-free throughput.
    /// [`GoodputSearchOutcome::fault_free_best`] records what a
    /// fault-blind ranking would have picked, so
    /// [`GoodputSearchOutcome::plan_flip`] exposes divergence directly.
    /// Both rankings keep the last maximum.
    ///
    /// The search is an exact branch-and-bound with two scores per
    /// candidate, the best effective throughput and the fault-free
    /// throughput. Each candidate's optimistic scores are its goodput
    /// points priced at its iteration-time lower bound
    /// ([`Scenario::lower_bound_with_memory`]): the fractions are those of
    /// the simulated points, and the throughputs are at least theirs. Per
    /// workload variant the four best candidates on each score are
    /// simulated first; every other candidate whose optimistic scores lie
    /// strictly below both incumbents is pruned. A pruned
    /// [`GoodputCandidate`] has no error, no iteration time, no points and
    /// no best point; it counts `ok` and in [`SearchTelemetry::pruned`].
    /// Since it scores strictly below both winners, `best_candidate`,
    /// `fault_free_best` and `plan_flip` are those of simulating every
    /// candidate. Results, pruned set included, are identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidFault`] for an invalid spec, a spec without
    /// an MTBF, or a non-positive interval; the first candidate's error
    /// when every candidate failed to simulate.
    pub fn explore_goodput(&self, axes: &FaultAxes) -> Result<GoodputSearchOutcome, EngineError> {
        axes.fault
            .validate()
            .map_err(|reason| EngineError::InvalidFault { reason })?;
        let Some(mtbf) = axes.fault.mtbf else {
            return Err(EngineError::InvalidFault {
                reason: "goodput search needs a fatal-fault MTBF (FaultSpec::mtbf)".to_owned(),
            });
        };
        for &ci in &axes.intervals {
            if !ci.is_finite() || ci <= 0.0 {
                return Err(EngineError::InvalidFault {
                    reason: format!("checkpoint interval {ci} must be finite and positive"),
                });
            }
        }
        let started = std::time::Instant::now();
        let sweep = axes.sweep();
        let optimistic = |s: &Scenario<'_>| -> Result<Option<[f64; 2]>, EngineError> {
            Ok(s.lower_bound_with_memory()?.map(|(bound, memory)| {
                let (_, points) = s.goodput_points(&memory, bound, mtbf, &sweep);
                scores(&points)
            }))
        };
        let scored = |r: &Option<(Seconds, Vec<GoodputReport>)>| {
            r.as_ref().map(|(_, points)| scores(points))
        };
        let (driven, mut telemetry) = self.drive(&Objective {
            pricing: Pricing::Variant,
            known: None,
            step: |s: &Scenario<'_>, scratch: &mut EngineScratch| {
                let report = s.run_in(scratch)?;
                let (_, points) =
                    s.goodput_points(&report.memory, report.iteration_time, mtbf, &sweep);
                Ok(Some((report.iteration_time, points)))
            },
            iteration_ms: |r: &Option<(Seconds, Vec<GoodputReport>)>| {
                r.as_ref().map(|(iteration_time, _)| iteration_time.as_ms())
            },
            prune: Some(Prune {
                optimistic: &optimistic,
                score: &scored,
                pruned: || None,
                floor: [f64::NEG_INFINITY; 2],
                family: None,
            }),
        });
        let candidates: Vec<GoodputCandidate> = driven
            .any_success(|| EngineError::InvalidFault {
                reason: "the search space is empty".to_owned(),
            })?
            .into_candidates()
            .map(GoodputCandidate::from_evaluated)
            .collect();
        let evaluated = candidates.iter().map(|c| c.points.len()).sum();

        // The last maximum wins (`Iterator::max_by`); `any_success`
        // guarantees a candidate to rank, and the first wave a simulated
        // one.
        let ranked = |order: fn(&[f64; 2], &[f64; 2]) -> Ordering| {
            candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.points.is_empty())
                .max_by(|(_, a), (_, b)| order(&scores(&a.points), &scores(&b.points)))
                .map_or(0, |(i, _)| i)
        };
        // Equal effective throughputs (all 0 once the goodput fraction
        // underflows at segments hundreds of MTBFs long) fall back to the
        // fault-free throughput. Pruning stays exact: a pruned candidate
        // scores strictly below both incumbents, so it ties with neither.
        let best_candidate = ranked(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
        let fault_free_best = ranked(|a, b| a[1].total_cmp(&b[1]));
        telemetry.goodput_evals = evaluated as u64;
        telemetry.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(GoodputSearchOutcome {
            candidates,
            best_candidate,
            fault_free_best,
            evaluated,
            telemetry,
        })
    }
}

/// A candidate's two branch-and-bound scores from its goodput points:
/// the best effective throughput (its [`GoodputCandidate::score`]) and the
/// fault-free throughput (the fault-blind ranking's key).
fn scores(points: &[GoodputReport]) -> [f64; 2] {
    let best = points
        .iter()
        .map(|p| p.effective_throughput)
        .max_by(f64::total_cmp)
        .unwrap_or(0.0);
    [
        best,
        points.first().map_or(0.0, |p| p.fault_free_throughput),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::SearchSpace;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    fn axes(mtbf: f64) -> FaultAxes {
        FaultAxes::new(FaultSpec::fatal(mtbf, 60.0, 7))
    }

    #[test]
    fn goodput_search_sweeps_intervals_and_ranks_by_effective_throughput() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).space(SearchSpace::default());
        let a = axes(3600.0).with_intervals([10.0, 120.0, 1800.0]);
        let r = explorer.explore_goodput(&a).unwrap();
        assert_eq!(r.candidates.len(), 1, "default space = baseline plan only");
        assert_eq!(r.evaluated, 3);
        let best = r.best();
        assert!(best.error.is_none());
        assert_eq!(best.points.len(), 3);
        let bp = best.best_point.unwrap();
        for p in &best.points {
            assert!(p.effective_throughput <= best.points[bp].effective_throughput);
            assert!(p.goodput_fraction > 0.0 && p.goodput_fraction <= 1.0);
            assert!(p.effective_throughput <= p.fault_free_throughput);
        }
        assert!(r.best_effective_throughput() > 0.0);
        assert_eq!(r.telemetry.goodput_evals, 3);
        assert_eq!(r.telemetry.ok, 1);
        assert!(r.telemetry.reconciles());
    }

    #[test]
    fn interval_sweep_matches_per_interval_scenario_goodput() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).space(SearchSpace::default());
        let intervals = [30.0, 600.0];
        let r = explorer
            .explore_goodput(&axes(1800.0).with_intervals(intervals))
            .unwrap();
        let scenario = Scenario::new(&model, &sys);
        for (i, &ci) in intervals.iter().enumerate() {
            let direct = scenario
                .goodput(&FaultSpec::fatal(1800.0, 60.0, 7).with_checkpoint_interval(ci))
                .unwrap();
            let swept = &r.best().points[i];
            assert!((swept.goodput_fraction - direct.goodput.goodput_fraction).abs() < 1e-12);
            assert!((swept.interval - direct.goodput.interval).abs() < 1e-12);
        }
    }

    #[test]
    fn strategy_space_ranks_goodput_not_just_latency() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).space(SearchSpace::strategies());
        let r = explorer.explore_goodput(&axes(3600.0)).unwrap();
        assert!(r.candidates.len() > 1);
        // Both rankings land on simulated candidates.
        assert!(r.best().error.is_none());
        assert!(r.fault_free().error.is_none());
        // The fault-free pick is the iteration-time winner.
        let ff = r.fault_free().iteration_time.unwrap();
        for c in &r.candidates {
            if let Some(t) = c.iteration_time {
                assert!(ff.as_secs() <= t.as_secs() + 1e-12);
            }
        }
    }

    #[test]
    fn bad_axes_are_rejected_up_front() {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let explorer = Explorer::new(&model, &sys).space(SearchSpace::default());
        let err = explorer
            .explore_goodput(&FaultAxes::new(FaultSpec::none()))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidFault { .. }), "{err}");
        let err = explorer
            .explore_goodput(&axes(3600.0).with_intervals([0.0]))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidFault { .. }), "{err}");
    }
}
