//! Property-based invariants of the fault-injection layer
//! (`madmax-fault` + the faulty serve/goodput paths), over randomized
//! fault processes, retry policies, and request streams:
//!
//! - **Closed-form sanity**: the Young/Daly expected goodput is a
//!   fraction in `(0, 1]`, effective throughput never exceeds the
//!   fault-free throughput, and the evaluation passes the verifier's
//!   goodput-bound rule;
//! - **MTBF monotonicity**: at a fixed checkpoint interval, a longer
//!   mean time between failures never lowers goodput;
//! - **Grid-exact materialization**: fault events are deterministic in
//!   the seed, time-ordered, inside the horizon, and carry the spec's
//!   recovery/slowdown knobs;
//! - **Retry accounting**: no request retries past the policy budget,
//!   the terminal buckets (completed / rejected / failed / queued /
//!   in-flight) partition the arrivals, and availability is a fraction;
//! - **Mode equivalence under faults**: the event-driven simulator and
//!   the per-token reference stay byte-identical given the same
//!   materialized fault stream;
//! - **Ledger corruption is caught**: seeded corruptions of a genuine
//!   faulty trace (reversed spans, phantom interruptions, inflated
//!   retry counts) trip the verifier's fault-ledger rule;
//! - **The pruned goodput search is exact**: on generated fault
//!   processes, interval ladders, systems and flat or pipelined spaces,
//!   `explore_goodput`'s branch-and-bound picks the goodput and
//!   fault-free winners of an exhaustive reference bit for bit, prunes
//!   the same candidates at any thread count, and its optimistic scores
//!   (the goodput points priced at the iteration-time lower bound) bound
//!   every simulated candidate's, with the same goodput fractions.

use proptest::prelude::*;

use madmax_core::steady::grid_units_round;
use madmax_dse::{Explorer, FaultAxes, GoodputSearchOutcome, PipelineAxes, SearchSpace};
use madmax_engine::{EngineError, FaultSpec, GoodputReport, RetryPolicy, Scenario, SimMode};
use madmax_fault::{expected_goodput, materialize_faults, young_daly_interval, FaultKind};
use madmax_hw::units::Seconds;
use madmax_hw::{catalog, ClusterSpec, DeviceScaling};
use madmax_model::{LayerClass, ModelArch, ModelId};
use madmax_parallel::{LoadSpec, PipelineSchedule, Plan, ServeConfig, Workload};
use madmax_serve::LoadOutcome;

/// Runs a faulty load simulation: Llama2 serving a Poisson stream with a
/// fatal-fault process materialized over a 400 s horizon.
#[allow(clippy::too_many_arguments)]
fn faulty_run(
    rate: f64,
    count: usize,
    stream_seed: u64,
    mtbf: f64,
    recovery: f64,
    fault_seed: u64,
    retry: &RetryPolicy,
    mode: SimMode,
) -> LoadOutcome {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let workload = Workload::serve(ServeConfig::new(128, 16).with_decode_batch(4));
    let scenario = Scenario::new(&model, &sys).workload_ref(&workload);
    let spec = LoadSpec::poisson(rate, count, stream_seed);
    let costs = scenario.price_load(&spec).unwrap();
    let horizon = grid_units_round(Seconds::new(400.0)).unwrap();
    let faults =
        materialize_faults(&FaultSpec::fatal(mtbf, recovery, fault_seed), horizon).unwrap();
    scenario
        .serve_load_faulty(&spec, &costs, mode, &faults, retry, None)
        .unwrap()
}

proptest! {
    /// The closed-form goodput is a genuine fraction: in `(0, 1]`,
    /// effective throughput bounded by (and reconciling with) the
    /// fault-free throughput, and clean under the verifier's
    /// goodput-bound rule.
    #[test]
    fn goodput_is_a_fraction_and_verifier_clean(
        iter_time in 0.1f64..30.0,
        write in 0.01f64..5.0,
        restart in 1.0f64..300.0,
        mtbf in 30.0f64..100_000.0,
        interval in 1.0f64..5_000.0,
    ) {
        let g = expected_goodput(iter_time, write, restart, mtbf, interval);
        prop_assert!(g.goodput_fraction > 0.0 && g.goodput_fraction <= 1.0,
            "fraction {} outside (0, 1]", g.goodput_fraction);
        prop_assert!(g.effective_throughput <= g.fault_free_throughput * (1.0 + 1e-9));
        prop_assert!(
            (g.effective_throughput - g.goodput_fraction * g.fault_free_throughput).abs()
                <= 1e-9 * g.fault_free_throughput
        );
        let report = madmax_verify::verify_goodput(&g);
        prop_assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    /// At a fixed checkpoint interval, more reliable fleets (longer
    /// MTBF) never see lower goodput.
    #[test]
    fn goodput_is_monotone_in_mtbf(
        iter_time in 0.1f64..30.0,
        write in 0.01f64..5.0,
        restart in 1.0f64..300.0,
        mtbf_lo in 30.0f64..10_000.0,
        factor in 1.0f64..100.0,
        interval in 1.0f64..5_000.0,
    ) {
        let lo = expected_goodput(iter_time, write, restart, mtbf_lo, interval);
        let hi = expected_goodput(iter_time, write, restart, mtbf_lo * factor, interval);
        prop_assert!(
            hi.goodput_fraction + 1e-12 >= lo.goodput_fraction,
            "goodput fell from {} to {} as MTBF rose {mtbf_lo} -> {}",
            lo.goodput_fraction, hi.goodput_fraction, mtbf_lo * factor
        );
    }

    /// The Young/Daly interval is finite, positive, and never shorter
    /// than the checkpoint write it amortizes.
    #[test]
    fn young_daly_interval_is_well_formed(
        write in 0.001f64..60.0,
        mtbf in 1.0f64..1_000_000.0,
    ) {
        let i = young_daly_interval(write, mtbf);
        prop_assert!(i.is_finite() && i >= write);
    }

    /// Materialized fault events are deterministic in the seed,
    /// time-ordered, inside the horizon, and carry the spec's knobs.
    #[test]
    fn fault_events_are_seeded_ordered_and_in_horizon(
        mtbf in 5.0f64..500.0,
        recovery in 0.5f64..30.0,
        seed in 0u64..u64::MAX,
        horizon_s in 50.0f64..2_000.0,
        transient in 0u8..2,
    ) {
        let mut spec = FaultSpec::fatal(mtbf, recovery, seed);
        if transient == 1 {
            spec = spec.with_transients(mtbf * 0.7, recovery, 140);
        }
        let horizon = grid_units_round(Seconds::new(horizon_s)).unwrap();
        let events = materialize_faults(&spec, horizon).unwrap();
        let again = materialize_faults(&spec, horizon).unwrap();
        prop_assert_eq!(&events, &again, "same seed must replay the same stream");
        let mut last = 0i64;
        for e in &events {
            prop_assert!(e.at >= last, "events out of order");
            prop_assert!(e.at < horizon, "event at {} past horizon {horizon}", e.at);
            prop_assert!(e.until >= e.at, "window [{}, {}] runs backwards", e.at, e.until);
            match e.kind {
                FaultKind::Fatal => {
                    prop_assert_eq!(e.slots_lost, spec.slots_lost);
                    prop_assert_eq!(e.slowdown_pct, 100);
                }
                FaultKind::Transient => {
                    prop_assert_eq!(e.slots_lost, 0);
                    prop_assert_eq!(e.slowdown_pct, spec.slowdown_pct);
                }
                FaultKind::Maintenance => {}
            }
            last = e.at;
        }
    }

    /// Under a fatal-fault stream: retries stay within the policy
    /// budget, the terminal buckets partition the arrivals, the
    /// aggregate retry/failure ledgers match the per-request records,
    /// and availability is a fraction.
    #[test]
    fn faulty_runs_conserve_requests_and_respect_the_retry_budget(
        rate in 0.05f64..0.5,
        count in 4usize..14,
        stream_seed in 0u64..u64::MAX,
        mtbf in 15.0f64..120.0,
        recovery in 1.0f64..10.0,
        fault_seed in 0u64..u64::MAX,
        max_retries in 0u32..4,
    ) {
        let retry = RetryPolicy::retries(max_retries);
        let outcome = faulty_run(
            rate, count, stream_seed, mtbf, recovery, fault_seed, &retry, SimMode::Event,
        );
        let r = &outcome.report;
        prop_assert_eq!(r.arrivals, count);
        prop_assert_eq!(
            r.completed + r.rejected + r.failed + r.queued_at_end + r.in_flight_at_end,
            r.arrivals,
            "terminal buckets must partition the arrivals"
        );
        prop_assert!((0.0..=1.0).contains(&r.availability), "availability {}", r.availability);
        let mut retries = 0u64;
        let mut failed = 0usize;
        for q in &r.requests {
            prop_assert!(
                q.retries <= max_retries,
                "request {} survived {} interruptions on a budget of {max_retries}",
                q.id, q.retries
            );
            prop_assert!(!(q.failed && q.completed), "request {} both failed and completed", q.id);
            retries += u64::from(q.retries);
            failed += usize::from(q.failed);
        }
        prop_assert_eq!(retries, r.retries);
        prop_assert_eq!(failed, r.failed);
        // The trace passes the verifier's fault-ledger rule as produced.
        let verdict = madmax_verify::verify_load(&outcome.trace);
        prop_assert!(verdict.is_clean(), "{:?}", verdict.diagnostics);
    }

    /// The event-driven mode stays byte-identical to the per-token
    /// reference when both consume the same materialized fault stream.
    #[test]
    fn event_mode_matches_per_token_under_faults(
        rate in 0.05f64..0.5,
        count in 4usize..12,
        stream_seed in 0u64..u64::MAX,
        mtbf in 15.0f64..120.0,
        fault_seed in 0u64..u64::MAX,
        max_retries in 0u32..4,
    ) {
        let retry = RetryPolicy::retries(max_retries);
        let event = faulty_run(
            rate, count, stream_seed, mtbf, 5.0, fault_seed, &retry, SimMode::Event,
        );
        let naive = faulty_run(
            rate, count, stream_seed, mtbf, 5.0, fault_seed, &retry, SimMode::PerToken,
        );
        prop_assert_eq!(&event.report, &naive.report);
        prop_assert_eq!(&event.trace.records, &naive.trace.records);
        prop_assert_eq!(&event.trace.faults, &naive.trace.faults);
    }

    /// An empty fault stream through the faulty entry point reproduces
    /// the fault-free simulator byte-for-byte: the fault plumbing is
    /// free when inactive.
    #[test]
    fn empty_fault_stream_is_byte_identical_to_fault_free(
        rate in 0.05f64..0.5,
        count in 4usize..12,
        stream_seed in 0u64..u64::MAX,
    ) {
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let workload = Workload::serve(ServeConfig::new(128, 16).with_decode_batch(4));
        let scenario = Scenario::new(&model, &sys).workload_ref(&workload);
        let spec = LoadSpec::poisson(rate, count, stream_seed);
        let costs = scenario.price_load(&spec).unwrap();
        let faulty = scenario
            .serve_load_faulty(&spec, &costs, SimMode::Event, &[], &RetryPolicy::default(), None)
            .unwrap();
        let plain = scenario
            .serve_load_priced(&spec, &costs, SimMode::Event, None)
            .unwrap();
        prop_assert_eq!(&faulty.report.requests, &plain.report.requests);
        prop_assert_eq!(&faulty.trace.records, &plain.trace.records);
        prop_assert_eq!(faulty.report.makespan, plain.report.makespan);
        prop_assert!((faulty.report.availability - 1.0).abs() < f64::EPSILON);
    }

    /// The pruned goodput search against an exhaustive reference: every
    /// candidate through `Scenario::run` and `goodput_points`, ranked by
    /// the last maximum (goodput ties broken by fault-free throughput).
    /// The spaces are Llama2's flat strategies, or its transformer
    /// strategies with pipelines of depth {1, 2, 4, 8} at {8, 16}
    /// microbatches; the fault process has a drawn MTBF and recovery and
    /// either an interval ladder or the Young/Daly interval.
    #[test]
    fn pruned_goodput_search_matches_the_exhaustive_reference(
        log_mtbf in 1.5f64..5.5,
        recovery in 1.0f64..600.0,
        ladder in 0usize..4,
        interval in 10.0f64..900.0,
        space_seed in 0u64..u64::MAX,
        compute in 0.5f64..2.0,
        log_inter_bw in -1.5f64..0.6,
    ) {
        // Log-uniform MTBFs (30 s to ~3.2e5 s) and inter-node fabrics
        // (x0.03 to x4): short MTBFs on slow fabrics make the goodput
        // ranking flip away from the fault-free one.
        let (mtbf, inter_bw) = (10f64.powf(log_mtbf), 10f64.powf(log_inter_bw));
        let model = ModelId::Llama2.build();
        let system = catalog::llama_llm_system().scaled(&DeviceScaling {
            compute,
            inter_bw,
            ..DeviceScaling::IDENTITY
        });
        let space = goodput_space(space_seed);
        let fault = FaultSpec::fatal(mtbf, recovery, 7);
        let intervals: Vec<f64> = (0..ladder).map(|k| interval * 6f64.powi(k as i32)).collect();
        let axes = FaultAxes::new(fault.clone()).with_intervals(intervals.clone());
        let specs: Vec<FaultSpec> = if intervals.is_empty() {
            vec![fault]
        } else {
            intervals
                .iter()
                .map(|&ci| fault.clone().with_checkpoint_interval(ci))
                .collect()
        };
        let ctx = format!("mtbf {mtbf}, recovery {recovery}, intervals {intervals:?}, space {space_seed}");
        let explorer = |threads| Explorer::new(&model, &system).space(space.clone()).threads(threads);
        let plans = explorer(1).candidates();
        let reference = exhaustive_goodput(&model, &system, &plans, mtbf, &specs);
        let one = explorer(1).explore_goodput(&axes).unwrap();
        let four = explorer(4).explore_goodput(&axes).unwrap();
        prop_assert_eq!(one.telemetry.pruned, four.telemetry.pruned, "{}", ctx);
        for outcome in [&one, &four] {
            check_against_reference(outcome, &reference).map_err(|e| format!("{ctx}: {e}"))?;
        }
    }
}

/// A goodput-search space drawn from `seed`: Llama2's flat strategies on
/// every class, or its transformer strategies with pipelines of depth
/// {1, 2, 4, 8} (1 always, the others each drawn) at {8, 16}
/// microbatches (at least one) under one schedule.
fn goodput_space(seed: u64) -> SearchSpace {
    if seed.is_multiple_of(3) {
        return SearchSpace::strategies();
    }
    let bit = |k: u32| (seed >> k) & 1 == 1;
    let stages = std::iter::once(1)
        .chain(
            [2, 4, 8]
                .into_iter()
                .enumerate()
                .filter(|&(k, _)| bit(2 + k as u32))
                .map(|(_, p)| p),
        )
        .collect();
    let microbatches = match (seed >> 5) % 3 {
        0 => vec![8],
        1 => vec![16],
        _ => vec![8, 16],
    };
    let schedule = if bit(7) {
        PipelineSchedule::GPipe
    } else {
        PipelineSchedule::OneFOneB
    };
    SearchSpace::strategies()
        .with_classes(vec![LayerClass::Transformer])
        .with_pipeline(PipelineAxes {
            stages,
            microbatches,
            schedules: vec![schedule],
        })
}

/// One candidate of the exhaustive reference: its simulation and goodput
/// points, and the points priced at its iteration-time lower bound.
struct Reference {
    plan: Plan,
    result: Result<(Seconds, Vec<GoodputReport>), EngineError>,
    bound: Option<Vec<GoodputReport>>,
}

/// A candidate's two scores from its points: its best effective
/// throughput and its fault-free throughput.
fn scores(points: &[GoodputReport]) -> [f64; 2] {
    [
        points
            .iter()
            .map(|p| p.effective_throughput)
            .max_by(f64::total_cmp)
            .unwrap(),
        points[0].fault_free_throughput,
    ]
}

/// Every candidate of `plans`, simulated on fresh scenarios, with its
/// goodput points at `mtbf` for each of `specs`, and (when it has a
/// lower bound) the same points priced at the bound.
fn exhaustive_goodput(
    model: &ModelArch,
    system: &ClusterSpec,
    plans: &[Plan],
    mtbf: f64,
    specs: &[FaultSpec],
) -> Vec<Reference> {
    plans
        .iter()
        .map(|plan| {
            let s = Scenario::new(model, system).plan_ref(plan);
            let result = s.run().map(|r| {
                let (_, points) = s.goodput_points(&r.memory, r.iteration_time, mtbf, specs);
                (r.iteration_time, points)
            });
            let bound = s
                .lower_bound_with_memory()
                .ok()
                .flatten()
                .map(|(bound, memory)| s.goodput_points(&memory, bound, mtbf, specs).1);
            Reference {
                plan: plan.clone(),
                result,
                bound,
            }
        })
        .collect()
}

/// The index of the last feasible candidate with the highest `key` of its
/// simulated points, compared lexicographically.
fn last_max(reference: &[Reference], key: impl Fn(&[GoodputReport]) -> [f64; 2]) -> usize {
    reference
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, key(&r.result.as_ref().ok()?.1))))
        .max_by(|(_, a), (_, b)| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])))
        .expect("a feasible candidate")
        .0
}

/// Checks one pruned search against the exhaustive reference.
fn check_against_reference(
    outcome: &GoodputSearchOutcome,
    reference: &[Reference],
) -> Result<(), String> {
    let bits = |points: &[GoodputReport]| -> Vec<[u64; 3]> {
        points
            .iter()
            .map(|p| {
                [
                    p.goodput_fraction.to_bits(),
                    p.effective_throughput.to_bits(),
                    p.fault_free_throughput.to_bits(),
                ]
            })
            .collect()
    };
    // Goodput ties break on the fault-free throughput.
    let best = last_max(reference, scores);
    let fault_free = last_max(reference, |p| [scores(p)[1], 0.0]);
    if (outcome.best_candidate, outcome.fault_free_best) != (best, fault_free) {
        return Err(format!(
            "winners ({}, {}) but the reference picks ({best}, {fault_free})",
            outcome.best_candidate, outcome.fault_free_best
        ));
    }
    if outcome.plan_flip() != (best != fault_free) {
        return Err("plan flip differs from the reference".to_owned());
    }
    let score_of = |i: usize| scores(&reference[i].result.as_ref().unwrap().1);
    let winners = [score_of(best)[0], score_of(fault_free)[1]];
    if outcome.candidates.len() != reference.len() {
        return Err("candidate count differs from the reference".to_owned());
    }
    let (mut pruned, mut evaluated) = (0, 0);
    for (c, r) in outcome.candidates.iter().zip(reference) {
        let name = c.plan.summary();
        if c.plan != r.plan {
            return Err(format!("{name} out of enumeration order"));
        }
        let (time, points) = match &r.result {
            Err(e) => {
                if c.error.as_ref() != Some(e) {
                    return Err(format!("{name}: error {:?}, reference {e}", c.error));
                }
                continue;
            }
            Ok(ok) => ok,
        };
        let bound = r
            .bound
            .as_ref()
            .ok_or_else(|| format!("{name}: feasible but unbounded"))?;
        // The bound's fractions are the simulated ones (the memory
        // breakdowns agree), and its throughputs are no lower.
        for (b, p) in bound.iter().zip(points) {
            if b.goodput_fraction.to_bits() != p.goodput_fraction.to_bits()
                || b.effective_throughput < p.effective_throughput
                || b.fault_free_throughput < p.fault_free_throughput
            {
                return Err(format!("{name}: bound point {b:?} vs simulated {p:?}"));
            }
        }
        let (o, s) = (scores(bound), scores(points));
        if o[0] < s[0] || o[1] < s[1] {
            return Err(format!("{name}: optimistic {o:?} below simulated {s:?}"));
        }
        if c.error.is_some() {
            return Err(format!("{name}: feasible candidate failed"));
        }
        if c.points.is_empty() {
            // Pruned: strictly below both winners.
            if c.iteration_time.is_some() || c.best_point.is_some() {
                return Err(format!("{name}: pruned candidate carries results"));
            }
            if s[0] >= winners[0] || s[1] >= winners[1] {
                return Err(format!(
                    "{name}: pruned but scores {s:?} vs winners {winners:?}"
                ));
            }
            pruned += 1;
        } else {
            if c.iteration_time != Some(*time) || bits(&c.points) != bits(points) {
                return Err(format!(
                    "{name}: simulated points differ from the reference"
                ));
            }
            evaluated += points.len();
        }
    }
    let t = &outcome.telemetry;
    if t.pruned != pruned || outcome.evaluated != evaluated || t.goodput_evals != evaluated as u64 {
        return Err(format!(
            "pruned {} / evaluated {} but {pruned} / {evaluated} candidates show it",
            t.pruned, outcome.evaluated
        ));
    }
    if !t.reconciles() {
        return Err(format!("telemetry does not reconcile: {t:?}"));
    }
    Ok(())
}

/// Seeded corruptions of a genuine faulty trace: each mutation breaks
/// exactly the ledger property the fault-ledger rule checks, and the
/// verifier must flag it.
#[test]
fn corrupted_fault_ledgers_are_flagged() {
    let retry = RetryPolicy::retries(3);
    let outcome = faulty_run(0.2, 12, 7, 40.0, 5.0, 3, &retry, SimMode::Event);
    assert!(
        !outcome.trace.faults.is_empty(),
        "corruption fixture needs at least one fault window"
    );
    assert!(madmax_verify::verify_load(&outcome.trace).is_clean());

    // Reverse a span: end before start.
    let mut t = outcome.trace.clone();
    let span = &mut t.faults[0];
    std::mem::swap(&mut span.start, &mut span.end);
    span.start += 1;
    assert!(
        madmax_verify::verify_load(&t).error_count() > 0,
        "reversed span not caught"
    );

    // Point a window at a request that never existed.
    let mut t = outcome.trace.clone();
    t.faults[0].interrupted.push(10_000);
    assert!(
        madmax_verify::verify_load(&t).error_count() > 0,
        "phantom interruption not caught"
    );

    // Inflate a request's retry count past the interruption ledger.
    let mut t = outcome.trace.clone();
    let victim = t.faults[0].interrupted[0] as usize;
    t.records[victim].retries += 1;
    assert!(
        madmax_verify::verify_load(&t).error_count() > 0,
        "inflated retries not caught"
    );

    // Push a span start past the run window.
    let mut t = outcome.trace.clone();
    let last = t.faults.len() - 1;
    t.faults[last].start = t.end + 1;
    t.faults[last].end = t.end + 2;
    assert!(
        madmax_verify::verify_load(&t).error_count() > 0,
        "out-of-window span not caught"
    );
}

/// Seeded corruptions of a genuine goodput evaluation: the
/// goodput-bound rule rejects effective throughput above the fault-free
/// bound and fractions outside `(0, 1]`.
#[test]
fn corrupted_goodput_reports_are_flagged() {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let good = Scenario::new(&model, &sys)
        .goodput(&FaultSpec::fatal(3600.0, 60.0, 7))
        .unwrap()
        .goodput;
    assert!(madmax_verify::verify_goodput(&good).is_clean());

    let mut inflated = good;
    inflated.effective_throughput = inflated.fault_free_throughput * 1.5;
    assert!(
        madmax_verify::verify_goodput(&inflated).error_count() > 0,
        "effective > fault-free not caught"
    );

    let mut out_of_range = good;
    out_of_range.goodput_fraction = 1.5;
    assert!(
        madmax_verify::verify_goodput(&out_of_range).error_count() > 0,
        "fraction > 1 not caught"
    );

    let mut unreconciled = good;
    unreconciled.goodput_fraction *= 0.5;
    assert!(
        madmax_verify::verify_goodput(&unreconciled).error_count() > 0,
        "fraction/effective mismatch not caught"
    );
}

/// A fixed fault seed reproduces bitwise-identical goodput rankings at
/// any worker-pool size: the goodput search is at most one deterministic
/// simulation per candidate, run on the explorer's shared-table pool,
/// plus closed-form arithmetic, and its branch-and-bound prunes the same
/// candidates at every size. The pool's telemetry reconciles and records
/// one evaluation latency per candidate, pruned ones included.
#[test]
fn goodput_search_is_deterministic_across_thread_counts() {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let axes = FaultAxes::new(FaultSpec::fatal(900.0, 60.0, 7)).with_intervals([60.0, 600.0]);
    let run = |threads: usize| {
        Explorer::new(&model, &sys)
            .space(SearchSpace::strategies())
            .threads(threads)
            .explore_goodput(&axes)
            .unwrap()
    };
    let one = run(1);
    for threads in [1, 2, 4] {
        let other = run(threads);
        assert_eq!(one.best_candidate, other.best_candidate);
        assert_eq!(one.fault_free_best, other.fault_free_best);
        assert_eq!(one.evaluated, other.evaluated);
        assert_eq!(one.candidates.len(), other.candidates.len());
        for (a, b) in one.candidates.iter().zip(&other.candidates) {
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.error, b.error);
            assert_eq!(a.points.len(), b.points.len());
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(pa.goodput_fraction.to_bits(), pb.goodput_fraction.to_bits());
                assert_eq!(
                    pa.effective_throughput.to_bits(),
                    pb.effective_throughput.to_bits()
                );
            }
        }
        let t = &other.telemetry;
        assert!(t.reconciles(), "{t:?}");
        assert_eq!(t.candidates, other.candidates.len() as u64);
        assert!(t.oom > 0, "some strategy mappings must be infeasible");
        assert_eq!(t.eval_latency.count, t.candidates);
        assert_eq!(t.workers.len(), threads);
        let per_worker: u64 = t.workers.iter().map(|w| w.candidates).sum();
        assert_eq!(per_worker, t.candidates);
        assert!(t.flat_cache.hits > 0, "candidates share one cost table");
        assert_eq!(t.goodput_evals, other.evaluated as u64);
        assert!(t.pruned > 0, "the bound must rule some candidate out");
        assert_eq!(t.pruned, one.telemetry.pruned);
    }
}
