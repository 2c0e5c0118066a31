//! The branch-and-bound of `Explorer::explore` on generated scenarios.
//!
//! A seeded sweep over zoo models × device-scaling draws × pre-training
//! and serve workloads (decodes below and above the closed-form threshold
//! and decode 1024, flat and pipelined at depths 2–8 under GPipe and
//! 1F1B) checks that:
//!
//! - `Scenario::lower_bound` is sound: never above the fully simulated
//!   iteration time, bit for bit;
//! - for flat plans it is exactly the busiest stream's summed op
//!   durations of the trace the engine builds for the candidate; for
//!   pipelined plans it is at least that, since it also charges each
//!   stage's compute stream its fill (microbatch 0's forward chain to the
//!   stage's first op; with decode steps, also group 0's prefill and
//!   step-0 chain to its first decode unit) and drain (the chain after
//!   its last pass or decode unit);
//! - it fails exactly when `run` does, with `run`'s own error (so the
//!   same outcome class), and only pipelined serve plans whose busiest
//!   stream leaves the duration grid's exact range go without a bound;
//! - pruning never changes the answer: `explore`'s winner plan, workload
//!   and report are byte-identical to a first-strictly-best fold over
//!   `evaluate` results, every pruned candidate scores strictly below the
//!   winner, and the pruned set is exactly the one the best-first rule
//!   predicts (a fixed first wave of the four best optimistic scores,
//!   ties to the earlier candidate), at 1 and 4 threads.
//!
//! A pinned pre-training search over every depth, microbatch count and
//! schedule checks that the fill and drain let `explore` prune most of
//! its pipelined candidates, some of them a whole family at a time. A
//! pinned decode-1024 serve search over the same axes, at two seeds,
//! checks that they let it simulate only its first wave, and a pipelined
//! decode past the grid's exact range is counted as unbounded.
//!
//! A second sweep (training and forward-only Llama2, GPT-3 and DLRM-A
//! variants at depths 2–8, microbatch counts below and above the depth,
//! both schedules) checks that `Scenario::family_lower_bound` is sound:
//! for each family of feasible pipelined candidates (one depth,
//! microbatch count, schedule and strategy of the model's dominant class)
//! the floor is at most every member's `lower_bound`, bit for bit, hence
//! its score at least theirs, and at most their simulated iteration
//! times; and that `Scenario::check_feasible` fails exactly when
//! `lower_bound` does, with its error.
//!
//! Every failure message names the scenario's seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use madmax_core::steady::{fits_grid_range, grid_seconds, MIN_ANALYTIC_DECODE};
use madmax_core::{EngineScratch, IterationReport, StreamId, Trace};
use madmax_dse::{
    CandidateEvent, CandidateOutcome, Explorer, PipelineAxes, ProgressSink, SearchSpace,
    SearchTelemetry, ServeAxes,
};
use madmax_engine::Scenario;
use madmax_hw::units::Seconds;
use madmax_hw::{catalog, ClusterSpec, DeviceScaling};
use madmax_model::{LayerClass, ModelArch, ModelId};
use madmax_parallel::{PipelineSchedule, Plan, ServeConfig, Workload};

/// splitmix64: the sweep's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One generated search.
struct Case {
    seed: u64,
    model: ModelArch,
    system: ClusterSpec,
    workload: Workload,
    space: SearchSpace,
}

impl Case {
    fn explorer(&self) -> Explorer<'_> {
        Explorer::new(&self.model, &self.system)
            .workload(self.workload.clone())
            .space(self.space.clone())
    }

    /// The workload variants the space's serve axes induce.
    fn variants(&self) -> Vec<Workload> {
        match (&self.space.serve, self.workload.serve_config()) {
            (Some(axes), Some(cfg)) => axes
                .decode_batch
                .iter()
                .map(|&b| Workload::serve(cfg.with_decode_batch(b)))
                .collect(),
            _ => vec![self.workload.clone()],
        }
    }

    fn context(&self, workload: &Workload) -> String {
        format!(
            "seed {}: {} on {} ({workload})",
            self.seed, self.model.name, self.system.name
        )
    }
}

/// Draws the system: the model's catalog system with compute scaled by
/// up to `slow`× either way and fabrics by up to `fast`× either way, so
/// the busiest stream is sometimes compute and sometimes communication.
fn system_for(id: ModelId, rng: &mut Rng, slow: f64, fast: f64) -> ClusterSpec {
    let base = if id.is_dlrm() {
        catalog::zionex_dlrm_system()
    } else {
        catalog::llama_llm_system()
    };
    base.scaled(&DeviceScaling {
        compute: rng.uniform(1.0 / slow, slow),
        intra_bw: rng.uniform(1.0 / fast, fast),
        inter_bw: rng.uniform(1.0 / fast, fast),
        ..DeviceScaling::IDENTITY
    })
}

/// Pre-training and serve searches for `seed`: Llama2 serves a decode
/// below the closed-form threshold, GPT-3 one above it.
fn cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng(seed);
    let mut out = Vec::new();
    for id in [ModelId::Llama2, ModelId::Gpt3, ModelId::DlrmA] {
        let both = vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB];
        out.push(Case {
            seed,
            model: id.build(),
            system: system_for(id, &mut rng, 2.0, 4.0),
            workload: Workload::pretrain(),
            space: SearchSpace::strategies().with_pipeline(PipelineAxes {
                stages: vec![1, 8],
                microbatches: vec![4, 16],
                schedules: both.clone(),
            }),
        });
        if id.is_dlrm() {
            continue; // no decode stream to serve
        }
        let decode = if id == ModelId::Llama2 {
            2 + rng.below(MIN_ANALYTIC_DECODE - 2)
        } else {
            MIN_ANALYTIC_DECODE + rng.below(MIN_ANALYTIC_DECODE)
        };
        let serve = ServeConfig::new(64 + rng.below(449), decode);
        out.push(Case {
            seed,
            model: id.build(),
            system: system_for(id, &mut rng, 8.0, 4.0),
            workload: Workload::serve(serve),
            // Every class, so replicated embedding and transformer
            // weights can meet: they fit only without memory limits, and
            // their comm-free decode steps make compute the busiest stream.
            space: SearchSpace::strategies()
                .with_serve(ServeAxes::batches([8 << rng.below(4)]))
                .with_pipeline(PipelineAxes {
                    stages: vec![1, 2 << rng.below(3)],
                    microbatches: vec![8],
                    schedules: both,
                })
                .unconstrained(),
        });
    }
    out
}

/// The largest per-stream sum of `trace`'s op durations, each stream
/// summed in issue order.
fn busiest_stream(trace: &Trace) -> Seconds {
    let mut sums: Vec<(StreamId, Seconds)> = Vec::new();
    for op in trace.ops() {
        match sums.iter_mut().find(|(s, _)| *s == op.stream) {
            Some((_, sum)) => *sum += op.duration,
            None => sums.push((op.stream, op.duration)),
        }
    }
    sums.into_iter()
        .map(|(_, s)| s)
        .fold(Seconds::ZERO, Seconds::max)
}

/// Checks the bound of every candidate of `case` against its full
/// simulation; returns how many candidates the bound covered.
fn check_bounds(case: &Case) -> usize {
    let mut bounded = 0;
    for workload in case.variants() {
        let ctx = case.context(&workload);
        let decodes = workload.serve_config().is_some_and(ServeConfig::has_decode);
        for plan in case.explorer().candidates() {
            let scenario = Scenario::new(&case.model, &case.system)
                .plan_ref(&plan)
                .workload_ref(&workload);
            let ctx = format!("{ctx}, {}", plan.summary());
            match scenario.lower_bound() {
                Err(e) => assert_eq!(scenario.run().unwrap_err(), e, "{ctx}"),
                Ok(None) => {
                    assert!(plan.pipeline_stages() > 1 && decodes, "{ctx}: no bound");
                    let (_, trace, _) = scenario
                        .run_with_trace()
                        .unwrap_or_else(|e| panic!("{ctx}: feasible but fails: {e}"));
                    let busiest = busiest_stream(&trace);
                    assert!(!fits_grid_range(busiest), "{ctx}: no bound for {busiest}");
                }
                Ok(Some(bound)) => {
                    let (full, trace, _) = scenario
                        .run_with_trace()
                        .unwrap_or_else(|e| panic!("{ctx}: bounded but fails: {e}"));
                    assert!(
                        bound <= full.iteration_time,
                        "{ctx}: bound {bound} above simulated {}",
                        full.iteration_time
                    );
                    let busiest = busiest_stream(&trace);
                    if plan.pipeline_stages() > 1 {
                        // The pipeline's fill and drain on top of it.
                        assert!(
                            bound >= busiest,
                            "{ctx}: bound {bound} below busiest stream {busiest}"
                        );
                    } else {
                        assert!(
                            (bound - busiest).as_secs().abs() <= 1e-12 * busiest.as_secs(),
                            "{ctx}: bound {bound} vs busiest stream {busiest}"
                        );
                    }
                    bounded += 1;
                }
            }
        }
    }
    bounded
}

/// Records the batch and index of every `ok` event without an
/// iteration time: the candidates `explore` pruned.
#[derive(Debug, Default)]
struct PrunedSink {
    batches: AtomicUsize,
    pruned: Mutex<Vec<(usize, usize)>>,
}

impl ProgressSink for PrunedSink {
    fn candidate_completed(&self, event: &CandidateEvent) {
        if event.outcome == CandidateOutcome::Ok && event.iteration_ms.is_none() {
            let batch = self.batches.load(Ordering::SeqCst);
            self.pruned.lock().unwrap().push((batch, event.index));
        }
    }

    fn search_finished(&self, _: &SearchTelemetry) {
        self.batches.fetch_add(1, Ordering::SeqCst);
    }
}

/// The pruned set `explore`'s best-first rule predicts from the bounds
/// and the fully simulated `results`: per variant, the four candidates
/// with the best optimistic scores (ties to the earlier) are simulated,
/// and so is the baseline in the first variant, outside that selection;
/// the incumbent is the best score of the earlier variants and that
/// wave, and every other candidate whose optimistic score cannot
/// strictly beat it is pruned. Scores are tokens/s for
/// serve-ranked searches and reciprocal iteration times otherwise.
/// Returns `(variant, plan index)` pairs, sorted.
fn predicted_pruned(
    case: &Case,
    variants: &[Workload],
    plans: &[Plan],
    results: &[Vec<Result<IterationReport, madmax_engine::EngineError>>],
    base_plan: &Plan,
    baseline: &IterationReport,
) -> Vec<(usize, usize)> {
    let serve_ranked = case.space.serve.is_some();
    let rank = |r: &IterationReport| {
        if serve_ranked {
            r.serve_tokens_per_sec().unwrap()
        } else {
            1.0 / r.iteration_time.as_secs()
        }
    };
    let mut incumbent = rank(baseline);
    let mut pruned = Vec::new();
    for (v, workload) in variants.iter().enumerate() {
        let mut optimistic: Vec<(usize, f64)> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            if v == 0 && plan == base_plan {
                continue; // simulated in the wave, outside its selection
            }
            let s = Scenario::new(&case.model, &case.system)
                .plan_ref(plan)
                .workload_ref(workload);
            if let Ok(Some(bound)) = s.lower_bound() {
                let score = if serve_ranked {
                    s.serve_tokens_per_iteration().unwrap() / bound.as_secs()
                } else {
                    1.0 / bound.as_secs()
                };
                optimistic.push((i, score));
            }
        }
        let mut ranked = optimistic.clone();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let wave: Vec<usize> = ranked.iter().take(4).map(|&(i, _)| i).collect();
        for &i in &wave {
            incumbent = incumbent.max(rank(results[v][i].as_ref().unwrap()));
        }
        for &(i, score) in &optimistic {
            if !wave.contains(&i) && score * (1.0 + 1e-9) < incumbent {
                pruned.push((v, i));
            }
        }
        for report in results[v].iter().flatten() {
            incumbent = incumbent.max(rank(report));
        }
    }
    pruned
}

/// Checks `explore` at 1 and 4 threads against simulating every
/// candidate: the same winner as the first-strictly-best fold (the
/// baseline, then every candidate in enumeration order replacing the best
/// only when strictly better), every pruned candidate scoring strictly
/// below the winner, and exactly [`predicted_pruned`]'s pruned set.
/// Returns the number of candidates pruned and the telemetry of the
/// 1-thread search (its pruned, family-pruned, simulated and unbounded
/// counts are the same at both thread counts).
fn check_winner(case: &Case) -> (u64, SearchTelemetry) {
    let ctx = case.context(&case.workload);
    let variants = case.variants();
    let explorer = case.explorer();
    let plans = explorer.candidates();
    let results: Vec<_> = variants
        .iter()
        .map(|w| explorer.evaluate_with_telemetry(w, &plans).0)
        .collect();
    let mut base_plan = Plan::fsdp_baseline(&case.model);
    base_plan.options.ignore_memory_limits = case.space.ignore_memory_limits;
    let baseline = Scenario::new(&case.model, &case.system)
        .plan_ref(&base_plan)
        .workload_ref(&variants[0])
        .run()
        .expect("feasible baseline");
    let score = |r: &IterationReport| {
        r.serve_tokens_per_sec()
            .unwrap_or_else(|| r.samples_per_sec())
    };
    let beats = |r: &IterationReport, best: &IterationReport| {
        if case.space.serve.is_some() {
            score(r) > score(best)
        } else {
            r.iteration_time < best.iteration_time
        }
    };
    let mut best = (&base_plan, &variants[0], &baseline);
    for (workload, reports) in variants.iter().zip(&results) {
        for (plan, report) in plans.iter().zip(reports) {
            if let Ok(report) = report {
                if beats(report, best.2) {
                    best = (plan, workload, report);
                }
            }
        }
    }
    let predicted = predicted_pruned(case, &variants, &plans, &results, &base_plan, &baseline);

    let mut first: Option<SearchTelemetry> = None;
    for threads in [1, 4] {
        let ctx = format!("{ctx} at {threads} threads");
        let sink = PrunedSink::default();
        let outcome = case
            .explorer()
            .threads(threads)
            .progress(&sink)
            .explore()
            .unwrap();
        assert_eq!(outcome.best_plan, *best.0, "{ctx}");
        assert_eq!(outcome.best_workload, *best.1, "{ctx}");
        assert_eq!(
            serde_json::to_string(&outcome.best).unwrap(),
            serde_json::to_string(best.2).unwrap(),
            "{ctx}"
        );
        let t = &outcome.telemetry;
        assert!(t.reconciles(), "{ctx}: {t:?}");
        // Infeasible candidates resolve with their own errors.
        let failed = |oom: bool| {
            let errors = results.iter().flatten().filter_map(|r| r.as_ref().err());
            errors.filter(|e| e.is_oom() == oom).count() as u64
        };
        assert_eq!(t.oom, failed(true), "{ctx}");
        assert_eq!(t.unmappable + t.invalid, failed(false), "{ctx}");
        let mut pruned = sink.pruned.into_inner().unwrap();
        pruned.sort_unstable();
        assert_eq!(pruned.len() as u64, t.pruned, "{ctx}");
        for &(batch, plan) in &pruned {
            let report = results[batch][plan]
                .as_ref()
                .expect("pruned plans are feasible");
            assert!(
                beats(best.2, report),
                "{ctx}: pruned {} does not score below the winner",
                plans[plan].summary()
            );
        }
        // The same pruned set at every thread count: the predicted one.
        assert_eq!(pruned, predicted, "{ctx}");
        let counts = |t: &SearchTelemetry| (t.family_pruned, t.simulated, t.unbounded);
        let first = first.get_or_insert_with(|| t.clone());
        assert_eq!(counts(first), counts(t), "{ctx}");
    }
    (
        predicted.len() as u64,
        first.expect("two thread counts ran"),
    )
}

/// Checks every family of `case`'s feasible pipelined candidates (see
/// the module docs); returns how many families it checked and how many
/// pipelined candidates were infeasible.
fn check_families(case: &Case) -> (usize, usize) {
    let class = madmax_pipeline::family_class(&case.model).expect("the model has layers");
    let (mut checked, mut infeasible) = (0, 0);
    for workload in case.variants() {
        let ctx = case.context(&workload);
        let candidates = case.explorer().candidates();
        // The tables a search shares: every key's stages are summed on
        // first use, as in `explore`.
        let alone = |plan| {
            Scenario::new(&case.model, &case.system)
                .plan_ref(plan)
                .workload_ref(&workload)
        };
        let table = alone(&candidates[0]).price_pipeline_deferred(&candidates);
        let scenario = |plan| alone(plan).pipeline_costs(&table);
        let mut families: Vec<(_, Vec<&Plan>)> = Vec::new();
        for plan in candidates.iter().filter(|p| p.pipeline_stages() > 1) {
            if let Err(e) = scenario(plan).check_feasible() {
                assert_eq!(alone(plan).lower_bound().unwrap_err(), e, "{ctx}");
                infeasible += 1;
                continue;
            }
            let key = (plan.pipeline, plan.strategy_for(class));
            match families.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(plan),
                None => families.push((key, vec![plan])),
            }
        }
        let mut scratch = EngineScratch::new();
        for (f, (_, members)) in families.iter().enumerate() {
            let ctx = format!("{ctx}, family of {}", members[0].summary());
            let floor = scenario(members[0])
                .family_lower_bound(members)
                .unwrap_or_else(|| panic!("{ctx}: no floor"));
            if f == 0 {
                // A scenario without tables prices its own.
                assert_eq!(alone(members[0]).family_lower_bound(members), Some(floor));
            }
            for plan in members {
                let s = scenario(plan);
                let bound = s
                    .lower_bound()
                    .unwrap()
                    .expect("training plans are bounded");
                assert!(
                    floor <= bound && 1.0 / floor.as_secs() >= 1.0 / bound.as_secs(),
                    "{ctx}: floor {floor} above {}'s bound {bound}",
                    plan.summary()
                );
                let simulated = s.run_in(&mut scratch).unwrap().iteration_time;
                assert!(floor <= simulated, "{ctx}: floor {floor} above {simulated}");
            }
            checked += 1;
        }
    }
    (checked, infeasible)
}

/// Training and forward-only searches for `seed` over every class's
/// strategies and depths 2–8, with microbatch counts below and above the
/// depth, on drawn Llama2, GPT-3 and DLRM-A systems. Training keeps the
/// memory limits (so some members are ruled out as OOM); forward-only
/// searches lift them, so more strategies meet in one family.
fn family_cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng(seed);
    let mut out = Vec::new();
    for id in [ModelId::Llama2, ModelId::Gpt3, ModelId::DlrmA] {
        for workload in [Workload::pretrain(), Workload::inference()] {
            let deep = 2 << rng.below(3);
            let space = SearchSpace::strategies().with_pipeline(PipelineAxes {
                stages: vec![2, deep],
                microbatches: vec![1 + rng.below(deep), 8 << rng.below(2)],
                schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
            });
            out.push(Case {
                seed,
                model: id.build(),
                system: system_for(id, &mut rng, 2.0, 4.0),
                space: match workload.has_backward() {
                    true => space,
                    false => space.unconstrained(),
                },
                workload,
            });
        }
    }
    out
}

#[test]
fn bounds_are_sound_and_pruning_keeps_the_winner() {
    let (mut bounded, mut pruned) = (0, 0);
    for seed in [3, 29] {
        for case in cases(seed) {
            bounded += check_bounds(&case);
            pruned += check_winner(&case).0;
        }
    }
    assert!(bounded > 100, "only {bounded} candidates were bounded");
    assert!(pruned > 0, "the sweep never pruned");
}

#[test]
fn pipelined_training_prunes_past_the_bubble() {
    // The pre-training search over every depth, microbatch count and
    // schedule: most pipelined candidates are ruled out by their fill and
    // drain alone.
    let case = Case {
        seed: 0,
        model: ModelId::Llama2.build(),
        system: catalog::llama_llm_system(),
        workload: Workload::pretrain(),
        space: SearchSpace::strategies().with_pipeline(PipelineAxes {
            stages: vec![1, 2, 4, 8],
            microbatches: vec![8, 16, 32],
            schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
        }),
    };
    // Of 2,112 feasible candidates the busiest-stream bound alone prunes
    // 1,140; with the fill and drain charged, 2,076. Whole families of
    // pipelined candidates go before any member is bounded.
    let (pruned, t) = check_winner(&case);
    assert!(pruned >= 2_000, "only {pruned} candidates pruned");
    assert!(t.family_pruned > 0, "no family was pruned");
}

#[test]
fn family_floors_are_sound() {
    let (mut checked, mut infeasible) = (0, 0);
    for seed in [5, 17] {
        for case in family_cases(seed) {
            let (c, i) = check_families(&case);
            checked += c;
            infeasible += i;
        }
    }
    assert!(checked > 100, "only {checked} families checked");
    assert!(
        infeasible > 0,
        "no member was ruled out by its feasibility check"
    );
}

#[test]
fn decode_1024_bounds_match_full_simulation() {
    // Long decodes take the closed-form path in the search but are
    // simulated in full here; the flat (DDP, FSDP) plans run past the
    // duration grid's exact range and exercise the issue-order sums, the
    // pipelined plans the grid-unit decode series of both schedules.
    let mut rng = Rng(41);
    let id = ModelId::Llama2;
    let case = Case {
        seed: 41,
        model: id.build(),
        system: catalog::llama_llm_system()
            .scaled(&DeviceScaling::inter_bw_only(rng.uniform(1.0 / 16.0, 0.25))),
        workload: Workload::serve(ServeConfig::new(512 + rng.below(513), 1024)),
        space: SearchSpace::strategies()
            .with_classes(vec![LayerClass::Transformer])
            .with_serve(ServeAxes::batches([256]))
            .with_pipeline(PipelineAxes {
                stages: vec![1, 2, 8],
                microbatches: vec![8],
                schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
            }),
    };
    assert!(check_bounds(&case) > 0);
    assert!(
        check_winner(&case).0 > 0,
        "the (DDP, FSDP) plan is prunable"
    );
    // Past 2^53 grid units the walk's `f64` stream sums round, so its
    // bit-for-bit agreement above is exercised only when some flat plan's
    // busiest stream gets there. `check_bounds` pins a flat bound to its
    // busiest stream within 1e-12; the 1e-9 slack covers that.
    let rounding = Seconds::new(grid_seconds(1 << 53).as_secs() * (1.0 + 1e-9));
    let workload = &case.variants()[0];
    assert!(
        case.explorer()
            .candidates()
            .iter()
            .filter(|plan| plan.pipeline_stages() == 1)
            .filter_map(|plan| {
                Scenario::new(&case.model, &case.system)
                    .plan_ref(plan)
                    .workload_ref(workload)
                    .lower_bound()
                    .ok()?
            })
            .any(|bound| bound >= rounding),
        "no flat plan's busiest stream reaches 2^53 grid units"
    );
}

/// A `serve_search`-shaped search: Llama2 decoding 1,024 tokens at
/// batches 256 and 512 on scale-out links slowed 4–16×, over every
/// transformer strategy and pp {1, 2, 4, 8} × mb {8, 16} × both
/// schedules.
fn serve_search_case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    Case {
        seed,
        model: ModelId::Llama2.build(),
        system: catalog::llama_llm_system()
            .scaled(&DeviceScaling::inter_bw_only(rng.uniform(1.0 / 16.0, 0.25))),
        workload: Workload::serve(ServeConfig::new(512 + rng.below(513), 1024)),
        space: SearchSpace::strategies()
            .with_classes(vec![LayerClass::Transformer])
            .with_serve(ServeAxes::batches([256, 512]))
            .with_pipeline(PipelineAxes {
                stages: vec![1, 2, 4, 8],
                microbatches: vec![8, 16],
                schedules: vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB],
            }),
    }
}

#[test]
fn pipelined_serve_search_simulates_only_its_first_wave() {
    // Every candidate after the first wave, pipelined decodes included,
    // loses to the wave's incumbent on its bound: the search simulates
    // two decode-batch variants × a first wave of four, plus the
    // baseline in the first variant's wave, and the pruned set is the
    // oracle's at 1 and 4 threads (`check_winner`).
    for seed in [7, 501] {
        let case = serve_search_case(seed);
        let (pruned, t) = check_winner(&case);
        assert_eq!(t.simulated, 2 * 4 + 1, "seed {seed}: {t:?}");
        assert_eq!(t.unbounded, 0, "seed {seed}");
        assert!(pruned > 250, "seed {seed}: only {pruned} pruned");
    }
}

#[test]
fn a_pipelined_decode_past_the_grid_counts_as_unbounded() {
    // On devices 10^6× slower the pp=8 FSDP decode's compute streams
    // total past 2^52 grid units (16,384 s): it has no bound, so the
    // search simulates it and names it, next to the flat baseline, which
    // the first wave simulates.
    let case = Case {
        seed: 0,
        model: ModelId::Llama2.build(),
        system: catalog::llama_llm_system().scaled(&DeviceScaling {
            compute: 1e-6,
            ..DeviceScaling::IDENTITY
        }),
        workload: Workload::serve(ServeConfig::new(128, 8)),
        space: SearchSpace {
            pipeline: Some(PipelineAxes {
                stages: vec![1, 8],
                microbatches: vec![8],
                schedules: vec![PipelineSchedule::GPipe],
            }),
            ..SearchSpace::default()
        },
    };
    let piped = &case.explorer().candidates()[1];
    let scenario = Scenario::new(&case.model, &case.system)
        .plan_ref(piped)
        .workload_ref(&case.workload);
    assert_eq!(scenario.lower_bound(), Ok(None), "{}", piped.summary());
    let t = case.explorer().explore().unwrap().telemetry;
    assert_eq!((t.simulated, t.unbounded), (2, 1), "{t:?}");
    assert!(t.reconciles(), "{t:?}");
}
