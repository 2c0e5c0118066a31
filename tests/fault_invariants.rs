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
//!   retry counts) trip the verifier's fault-ledger rule.

use proptest::prelude::*;

use madmax_core::steady::grid_units_round;
use madmax_dse::{Explorer, FaultAxes, SearchSpace};
use madmax_engine::{FaultSpec, RetryPolicy, Scenario, SimMode};
use madmax_fault::{expected_goodput, materialize_faults, young_daly_interval, FaultKind};
use madmax_hw::catalog;
use madmax_hw::units::Seconds;
use madmax_model::ModelId;
use madmax_parallel::{LoadSpec, ServeConfig, Workload};
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
/// any worker-pool size: the goodput search is one deterministic
/// simulation per candidate, run on the explorer's shared-table pool,
/// plus closed-form arithmetic. The pool's telemetry reconciles and
/// records one evaluation latency per candidate.
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
    }
}
