//! Property-based invariants of the continuous-batching load simulator
//! (`madmax-serve`), over randomized Poisson request streams:
//!
//! - **Request conservation**: at the horizon every arrival is in
//!   exactly one terminal bucket — completed, rejected, still queued, or
//!   still in flight — and the output-token ledger matches the
//!   per-request records;
//! - **TTFT lower bound**: no request sees its first token earlier than
//!   its own prefill latency as priced by the [`StepCostModel`]
//!   (queueing and batching can only add to it);
//! - **Rate monotonicity** (single decode slot): with one in-flight
//!   slot the simulator is a FIFO single server, so compressing the
//!   same seeded arrival sequence to a higher rate can only push TTFT
//!   percentiles up;
//! - **Mode equivalence**: the event-driven series-jump mode produces a
//!   [`LoadReport`] and per-request records byte-identical to the naive
//!   per-token reference — the speedup is purely wall-clock;
//! - **Load-search determinism and references**: `Explorer::explore_load`
//!   returns the same candidates, errors and reports at any thread
//!   count, with reconciling telemetry and one progress event per
//!   candidate, and its closed-form probes match full simulation;
//! - **Shared probe tables**: pricing a plan's step cost model against
//!   the load-probe tables shared across a search's plans
//!   (`Scenario::price_load_probes`) is byte-identical to pricing it on
//!   its own one-plan tables, model or error;
//! - **Decode tails**: every entry of a serve run's decode tail
//!   (`EngineScratch::decode_tail`) is the iteration time of a separate
//!   run at that decode length, bit for bit, in both engines, through the
//!   closed form and full simulation, and through the pipeline report
//!   memo; its TTFT is theirs too;
//! - **An independent cost-model oracle**: `Scenario::price_load`, which
//!   prices one run per decode ladder, equals `StepCostModel::price` fed
//!   one separate engine run per decode length, field for field.
//!
//! [`StepCostModel`]: madmax_serve::StepCostModel
//! [`LoadReport`]: madmax_serve::LoadReport

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use madmax_core::EngineScratch;
use madmax_dse::{
    CandidateEvent, Explorer, LoadAxes, LoadSearchOutcome, PipelineAxes, ProgressSink, SearchSpace,
    SearchTelemetry,
};
use madmax_engine::{EngineError, Scenario, SimMode};
use madmax_hw::catalog;
use madmax_hw::units::Seconds;
use madmax_model::{LayerClass, ModelId};
use madmax_parallel::PipelineConfig;
use madmax_parallel::{HierStrategy, Plan, Strategy};
use madmax_parallel::{LoadSpec, PipelineSchedule, ServeConfig, Workload};
use madmax_serve::{
    materialize_arrivals, parse_request_jsonl, LoadOutcome, ProbeRun, StepCostModel,
};

/// A randomized but always-valid Poisson load spec: `paged = 0` leaves
/// the KV budget unbounded, anything else pages it down to a tight
/// evictable budget.
fn spec_of(rate: f64, count: usize, seed: u64, paged: usize) -> LoadSpec {
    let spec = LoadSpec::poisson(rate, count, seed);
    if paged > 0 {
        spec.with_kv_blocks(96 * paged as u64).with_eviction(true)
    } else {
        spec
    }
}

/// Prices `spec` once and simulates it in `mode`; pricing is the
/// expensive part, so callers reuse the returned model across modes.
fn run(spec: &LoadSpec, serve: ServeConfig, mode: SimMode) -> (LoadOutcome, StepCostModel) {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let scenario = Scenario::new(&model, &sys).workload(Workload::serve(serve));
    let costs = scenario.price_load(spec).unwrap();
    let outcome = scenario
        .serve_load_priced(spec, &costs, mode, None)
        .unwrap();
    (outcome, costs)
}

proptest! {
    /// Every arrival lands in exactly one terminal bucket, and the
    /// aggregate token/eviction ledgers match the per-request records.
    #[test]
    fn requests_are_conserved(
        rate in 0.01f64..0.5,
        count in 3usize..14,
        seed in 0u64..u64::MAX,
        prompt in 32usize..384,
        decode in 4usize..32,
        batch in 1usize..6,
        paged in 0usize..3,
    ) {
        let spec = spec_of(rate, count, seed, paged);
        let serve = ServeConfig::new(prompt, decode).with_decode_batch(batch);
        let (outcome, _) = run(&spec, serve, SimMode::Event);
        let r = &outcome.report;
        prop_assert_eq!(r.arrivals, spec.arrivals.count());
        prop_assert_eq!(
            r.completed + r.rejected + r.queued_at_end + r.in_flight_at_end,
            r.arrivals,
            "terminal buckets must partition the {} arrivals",
            r.arrivals
        );
        prop_assert_eq!(r.requests.len(), r.arrivals);
        let completed = r.requests.iter().filter(|q| q.completed).count();
        let rejected = r.requests.iter().filter(|q| q.rejected).count();
        prop_assert_eq!(completed, r.completed);
        prop_assert_eq!(rejected, r.rejected);
        let tokens: u64 = r.requests.iter().map(|q| q.output_tokens).sum();
        prop_assert_eq!(tokens, r.output_tokens);
        let evictions: u64 = r.requests.iter().map(|q| u64::from(q.evictions)).sum();
        prop_assert_eq!(evictions, r.evictions);
    }

    /// TTFT is bounded below by the request's own priced prefill
    /// latency: admission queueing and in-flight batching only delay
    /// the first token, never accelerate it.
    #[test]
    fn ttft_never_beats_the_prefill(
        rate in 0.01f64..0.5,
        count in 3usize..14,
        seed in 0u64..u64::MAX,
        prompt in 32usize..384,
        decode in 4usize..32,
        batch in 1usize..6,
        paged in 0usize..3,
    ) {
        let spec = spec_of(rate, count, seed, paged);
        let serve = ServeConfig::new(prompt, decode).with_decode_batch(batch);
        let (outcome, costs) = run(&spec, serve, SimMode::Event);
        for rec in &outcome.trace.records {
            let Some(first_token) = rec.first_token else { continue };
            let prefill = costs.prefill_units(rec.prompt_len as u64).unwrap();
            prop_assert!(
                first_token - rec.arrival >= prefill,
                "request {}: TTFT {} < prefill {} grid units",
                rec.id,
                first_token - rec.arrival,
                prefill
            );
        }
    }

    /// With a single decode slot the simulator degenerates to a FIFO
    /// single server over fixed service demands, so re-running the same
    /// seeded arrival sequence compressed to a strictly higher rate can
    /// only raise the TTFT percentiles. (Wider decode batches reorder
    /// work across slots, where this pointwise argument no longer
    /// holds — the bound is decode_batch = 1 by design.)
    #[test]
    fn ttft_percentiles_are_monotone_in_rate(
        rate_lo in 0.005f64..0.05,
        factor in 4.0f64..64.0,
        count in 4usize..12,
        seed in 0u64..u64::MAX,
        prompt in 32usize..256,
        decode in 4usize..24,
    ) {
        let serve = ServeConfig::new(prompt, decode).with_decode_batch(1);
        let lo_spec = LoadSpec::poisson(rate_lo, count, seed);
        let hi_spec = LoadSpec::poisson(rate_lo * factor, count, seed);
        let (lo, _) = run(&lo_spec, serve, SimMode::Event);
        let (hi, _) = run(&hi_spec, serve, SimMode::Event);
        // A horizonless Poisson run admits every request, so both sides
        // must have produced first tokens.
        prop_assert!(lo.report.ttft.is_some() && hi.report.ttft.is_some());
        let (lo, hi) = (lo.report.ttft.unwrap(), hi.report.ttft.unwrap());
        prop_assert_eq!(lo.count, hi.count);
        // Grid rounding of the scaled arrival times can move a sample
        // by a unit (~4 ps); queueing deltas dominate by orders of
        // magnitude, so compare with a hair of slack.
        const SLACK: f64 = 1e-9;
        for (name, l, h) in [
            ("p50", lo.p50, hi.p50),
            ("p95", lo.p95, hi.p95),
            ("p99", lo.p99, hi.p99),
            ("mean", lo.mean, hi.mean),
            ("max", lo.max, hi.max),
        ] {
            prop_assert!(
                h.as_secs() + SLACK >= l.as_secs(),
                "TTFT {} fell from {:.6}s to {:.6}s as the rate rose",
                name,
                l.as_secs(),
                h.as_secs()
            );
        }
    }

    /// The event-driven mode (closed-form series jumps between events)
    /// is a pure wall-clock optimization: its report and per-request
    /// records are byte-identical to the naive per-token reference.
    #[test]
    fn event_mode_matches_per_token_reference(
        rate in 0.01f64..0.5,
        count in 3usize..14,
        seed in 0u64..u64::MAX,
        prompt in 32usize..384,
        decode in 4usize..32,
        batch in 1usize..6,
        paged in 0usize..3,
    ) {
        let spec = spec_of(rate, count, seed, paged);
        let serve = ServeConfig::new(prompt, decode).with_decode_batch(batch);
        let model = ModelId::Llama2.build();
        let sys = catalog::llama_llm_system();
        let scenario = Scenario::new(&model, &sys).workload(Workload::serve(serve));
        let costs = scenario.price_load(&spec).unwrap();
        let event = scenario
            .serve_load_priced(&spec, &costs, SimMode::Event, None)
            .unwrap();
        let naive = scenario
            .serve_load_priced(&spec, &costs, SimMode::PerToken, None)
            .unwrap();
        prop_assert_eq!(&event.report, &naive.report);
        prop_assert_eq!(&event.trace.records, &naive.trace.records);
    }

    /// A serve run's decode tail holds, bit for bit, the iteration times
    /// of separate runs at its last three decode lengths, and their TTFT
    /// is the run's: for zoo LLMs, flat and pipelined plans, the closed
    /// form and full simulation, decode lengths around the explicit
    /// prefix (4 tokens) and the closed form's threshold (32), and a
    /// GPipe/1F1B sibling pair whose second run is a report-memo hit.
    #[test]
    fn decode_tail_matches_separate_runs(
        model_ix in 0usize..4,
        prompt in 16usize..512,
        decode in prop_oneof![3usize..9, 28usize..37, 47usize..51],
        batch in 1usize..9,
        depth_ix in 0usize..3,
        microbatches_ix in 0usize..3,
        tp in 0usize..2,
        analytic in 0usize..2,
    ) {
        let id = [ModelId::Llama2, ModelId::Gpt3, ModelId::Llama, ModelId::LlmMoe][model_ix];
        let model = id.build();
        let sys = catalog::llama_llm_system();
        let analytic = analytic == 1;
        let mut flat = Plan::fsdp_baseline(&model);
        if tp == 1 {
            flat = flat.with_strategy(
                LayerClass::Transformer,
                HierStrategy::two_level(Strategy::Tp, Strategy::Fsdp),
            );
        }
        let (depth, microbatches) = ([1, 2, 4][depth_ix], [1, 2, 4][microbatches_ix]);
        let serve = |d: usize| Workload::serve(ServeConfig::new(prompt, d).with_decode_batch(batch));
        let workload = serve(decode);
        // Each plan's run on the tables a search would attach, with the
        // tail it leaves in the scratch.
        let mut runs = Vec::new();
        if depth == 1 {
            let mut scratch = EngineScratch::new();
            let report = Scenario::new(&model, &sys)
                .workload_ref(&workload)
                .plan_ref(&flat)
                .analytic_serve(analytic)
                .run_in(&mut scratch);
            runs.push((flat.clone(), report, scratch.decode_tail));
        } else {
            let siblings = [
                flat.clone().with_pipeline(PipelineConfig::gpipe(depth, microbatches)),
                flat.clone().with_pipeline(PipelineConfig::one_f_one_b(depth, microbatches)),
            ];
            let table = Scenario::new(&model, &sys)
                .workload_ref(&workload)
                .price_pipeline_plans(&siblings);
            for plan in siblings {
                let mut scratch = EngineScratch::new();
                let report = Scenario::new(&model, &sys)
                    .workload_ref(&workload)
                    .plan_ref(&plan)
                    .pipeline_costs(&table)
                    .analytic_serve(analytic)
                    .run_in(&mut scratch);
                runs.push((plan, report, scratch.decode_tail));
            }
            // A feasible second sibling comes out of the first one's memo
            // entry.
            let hits = u64::from(runs[0].1.is_ok());
            prop_assert_eq!(table.memo_stats().hits, hits);
        }
        for (plan, report, tail) in runs {
            let alone = |d: usize| {
                Scenario::new(&model, &sys)
                    .workload(serve(d))
                    .plan_ref(&plan)
                    .analytic_serve(analytic)
                    .run()
            };
            let Ok(report) = report else {
                prop_assert_eq!(report.unwrap_err(), alone(decode).unwrap_err());
                continue;
            };
            let tail = tail.expect("a serve run of at least three tokens has a tail");
            let ttft = report.serve.unwrap().ttft;
            for (i, f) in tail.iter().enumerate() {
                let d = decode - 2 + i;
                let separate = alone(d).unwrap();
                prop_assert_eq!(
                    f.as_secs().to_bits(),
                    separate.iteration_time.as_secs().to_bits(),
                    "{} {:?} F({}) analytic {}", plan.summary(), id, d, analytic
                );
                prop_assert_eq!(separate.serve.unwrap().ttft, ttft);
            }
        }
    }
}

/// A Llama2 load search over the transformer strategies × pp {1, 8}
/// (24 candidates, some out of memory), two rates, a 60 s p99 TTFT SLO.
fn load_search(explorer: Explorer<'_>) -> LoadSearchOutcome {
    explorer
        .workload(Workload::serve(
            ServeConfig::new(256, 64).with_decode_batch(8),
        ))
        .space(
            SearchSpace::strategies()
                .with_classes(vec![LayerClass::Transformer])
                .with_pipeline(PipelineAxes {
                    stages: vec![1, 8],
                    microbatches: vec![8],
                    schedules: vec![PipelineSchedule::GPipe],
                }),
        )
        .explore_load(
            &LoadAxes::new(LoadSpec::poisson(0.02, 12, 11), [0.02, 0.2])
                .with_slo_ttft_p99(Seconds::new(60.0)),
        )
        .unwrap()
}

/// Asserts two load searches returned the same candidates, errors and
/// serialized points, and the same winner.
fn assert_same_search(a: &LoadSearchOutcome, b: &LoadSearchOutcome) {
    assert_eq!(a.best_candidate, b.best_candidate);
    assert_eq!(a.evaluated, b.evaluated);
    assert_eq!(a.candidates.len(), b.candidates.len());
    for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
        assert_eq!(ca.plan, cb.plan);
        assert_eq!(ca.workload, cb.workload);
        assert_eq!(ca.error, cb.error);
        assert_eq!(ca.best_point, cb.best_point);
        assert_eq!(ca.points.len(), cb.points.len());
        for (pa, pb) in ca.points.iter().zip(&cb.points) {
            assert_eq!(pa.rate.to_bits(), pb.rate.to_bits());
            assert_eq!(pa.feasible, pb.feasible);
            assert_eq!(
                serde_json::to_string(&pa.report).unwrap(),
                serde_json::to_string(&pb.report).unwrap()
            );
        }
    }
}

#[test]
fn load_search_is_deterministic_across_thread_counts() {
    #[derive(Debug, Default)]
    struct CountingSink {
        events: AtomicU64,
        finished: AtomicU64,
    }
    impl ProgressSink for CountingSink {
        fn candidate_completed(&self, event: &CandidateEvent) {
            assert!(event.index < event.total);
            assert!(event.iteration_ms.is_none(), "load candidates carry none");
            self.events.fetch_add(1, Ordering::Relaxed);
        }
        fn search_finished(&self, telemetry: &SearchTelemetry) {
            assert!(telemetry.reconciles());
            self.finished.fetch_add(1, Ordering::Relaxed);
        }
    }

    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let one = load_search(Explorer::new(&model, &sys).threads(1));
    assert!(one.best().best_point.is_some(), "some rate meets the SLO");
    for threads in [1, 2, 4] {
        let sink = CountingSink::default();
        let other = load_search(Explorer::new(&model, &sys).threads(threads).progress(&sink));
        assert_same_search(&one, &other);
        let t = &other.telemetry;
        assert!(t.reconciles(), "{t:?}");
        // The shared load-probe tables fill the cache snapshots, and
        // every thread count prices the same tables.
        assert!(
            t.flat_cache.hits > 0 && t.pipeline_cache.total() > 0,
            "{t:?}"
        );
        assert!(t.steady_analytic.hits > 0, "{t:?}");
        assert_eq!(t.flat_cache, one.telemetry.flat_cache);
        assert_eq!(t.pipeline_cache, one.telemetry.pipeline_cache);
        assert_eq!(t.candidates, other.candidates.len() as u64);
        assert!(t.oom > 0, "some strategy mappings must be infeasible");
        assert!(t.ok > 0);
        assert_eq!(t.eval_latency.count, t.candidates);
        assert_eq!(t.workers.len(), threads);
        let per_worker: u64 = t.workers.iter().map(|w| w.candidates).sum();
        assert_eq!(per_worker, t.candidates);
        assert_eq!(
            sink.events.load(Ordering::Relaxed),
            other.candidates.len() as u64
        );
        assert_eq!(
            sink.finished.load(Ordering::Relaxed),
            1,
            "one workload variant"
        );
    }
}

/// A step cost model or its error, comparable byte for byte.
fn priced(result: Result<StepCostModel, EngineError>) -> Result<StepCostModel, String> {
    result.map_err(|e| e.to_string())
}

/// The load specs the probe-table differential covers: Poisson, bursty,
/// and a JSONL trace with mixed prompt and decode lengths, each also with
/// a `slots` override.
fn probe_specs() -> Vec<LoadSpec> {
    let trace = parse_request_jsonl(
        "{\"arrival\": 0.0, \"prompt_len\": 96, \"decode_len\": 40}\n\
         {\"arrival\": 0.5, \"prompt_len\": 320, \"decode_len\": 8}\n\
         {\"arrival\": 2.0, \"prompt_len\": 200, \"decode_len\": 72}\n",
    )
    .unwrap();
    let specs = [
        LoadSpec::poisson(0.1, 6, 3),
        LoadSpec::bursty(0.4, 20.0, 10.0, 6, 9),
        LoadSpec::trace(trace),
    ];
    specs
        .iter()
        .flat_map(|s| [s.clone(), s.clone().with_slots(4)])
        .collect()
}

#[test]
fn shared_probe_tables_price_exactly_the_one_plan_models() {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let workload = Workload::serve(ServeConfig::new(256, 64).with_decode_batch(8));
    // Flat plans and pp {2, 4, 8} with microbatches below (4) and above
    // (16) the 8 decode slots.
    let explorer = Explorer::new(&model, &sys).space(
        SearchSpace::strategies()
            .with_classes(vec![LayerClass::Transformer])
            .with_pipeline(PipelineAxes {
                stages: vec![1, 2, 4, 8],
                microbatches: vec![4, 16],
                schedules: vec![PipelineSchedule::GPipe],
            }),
    );
    let mut plans = explorer.candidates();
    // Three transformer mappings (one of them out of memory under some
    // probes) keep the suite fast in debug builds.
    let keep: Vec<_> =
        plans
            .iter()
            .map(|p| p.assignments.clone())
            .fold(Vec::new(), |mut seen, a| {
                if !seen.contains(&a) && seen.len() < 3 {
                    seen.push(a);
                }
                seen
            });
    plans.retain(|p| keep.contains(&p.assignments));
    assert_eq!(plans.len(), 21);
    let mut errors = 0;
    for analytic in [true, false] {
        for spec in probe_specs() {
            let scenario = Scenario::new(&model, &sys)
                .workload_ref(&workload)
                .analytic_serve(analytic);
            let tables = scenario.price_load_probes(&spec, &plans).unwrap();
            assert!(tables.table_count() <= 2 * tables.shape_count());
            for plan in &plans {
                let alone = Scenario::new(&model, &sys)
                    .workload_ref(&workload)
                    .plan_ref(plan)
                    .analytic_serve(analytic);
                let one_plan = priced(alone.price_load(&spec));
                let shared = priced(alone.load_probes(&tables).price_load(&spec));
                assert_eq!(shared, one_plan, "{} under {spec:?}", plan.summary());
                errors += usize::from(one_plan.is_err());
            }
        }
    }
    assert!(errors > 0, "some plan must fail a probe");
}

#[test]
fn probe_tables_priced_for_another_plan_fall_back() {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let workload = Workload::serve(ServeConfig::new(256, 64).with_decode_batch(8));
    let spec = LoadSpec::poisson(0.1, 6, 3);
    let flat = Plan::fsdp_baseline(&model);
    let piped = flat
        .clone()
        .with_pipeline(madmax_parallel::PipelineConfig::gpipe(4, 4));
    let other = flat.clone().with_strategy(
        LayerClass::Transformer,
        HierStrategy::two_level(Strategy::Tp, Strategy::Fsdp),
    );
    let scenario = Scenario::new(&model, &sys).workload_ref(&workload);
    let tables = scenario
        .price_load_probes(&spec, std::slice::from_ref(&flat))
        .unwrap();
    // Flat at b_lo = 1 < slots: four shapes (the worst case, two decode
    // ladders and the prefill-slope anchor), flat tables only.
    assert_eq!((tables.shape_count(), tables.table_count()), (4, 4));
    // Only an equal plan probes the shared tables (each engine run counts
    // one serve evaluation; the worst case is only checked, not run); the
    // pipelined plan and the unpriced strategy fall back.
    let equal = flat.clone();
    for (plan, shared_probes) in [(&equal, 3), (&piped, 0), (&other, 0)] {
        let alone = Scenario::new(&model, &sys)
            .workload_ref(&workload)
            .plan_ref(plan);
        let one_plan = priced(alone.price_load(&spec));
        let before = tables.analytic_stats().total();
        let shared = priced(alone.load_probes(&tables).price_load(&spec));
        assert_eq!(shared, one_plan, "{}", plan.summary());
        let probed = tables.analytic_stats().total() - before;
        assert_eq!(probed, shared_probes, "{}", plan.summary());
    }
}

#[test]
fn load_search_on_shared_probe_tables_matches_one_plan_pricing() {
    // The search prices its probes on shared tables through the closed
    // form; the reference prices each candidate alone, once through the
    // closed form and once simulating every probe in full (every probe
    // decodes at least 48 tokens, past the closed form's threshold).
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let one = load_search(Explorer::new(&model, &sys).threads(1));
    let axes = LoadAxes::new(LoadSpec::poisson(0.02, 12, 11), [0.02, 0.2])
        .with_slo_ttft_p99(Seconds::new(60.0));
    assert!(one.candidates.iter().any(|c| c.error.is_none()));
    for analytic in [true, false] {
        for c in &one.candidates {
            let scenario = Scenario::new(&model, &sys)
                .plan_ref(&c.plan)
                .workload_ref(&c.workload)
                .analytic_serve(analytic);
            match scenario.price_load(&axes.spec) {
                Err(e) => assert_eq!(c.error.as_ref(), Some(&e), "{}", c.plan.summary()),
                Ok(costs) => {
                    assert!(c.error.is_none(), "{}", c.plan.summary());
                    for (p, rate) in c.points.iter().zip(&axes.rates) {
                        let spec = LoadSpec::poisson(*rate, 12, 11);
                        let alone = scenario
                            .serve_load_priced(&spec, &costs, SimMode::Event, None)
                            .unwrap();
                        assert_eq!(
                            serde_json::to_string(&alone.report).unwrap(),
                            serde_json::to_string(&p.report).unwrap(),
                            "{} analytic {analytic}",
                            c.plan.summary()
                        );
                    }
                }
            }
        }
    }
}

/// The cost model `StepCostModel::price` builds from one separate engine
/// run per decode length, an oracle independent of decode tails: the
/// worst-case shape is run and its report thrown away, and each probe
/// shape of `L` tokens runs at `L − 2`, `L − 1` and `L` tokens.
fn price_one_run_per_length(
    scenario: impl Fn(ServeConfig) -> Result<madmax_core::IterationReport, EngineError>,
    plan: &Plan,
    serve: &ServeConfig,
    model: &madmax_model::ModelArch,
    spec: &LoadSpec,
) -> Result<StepCostModel, EngineError> {
    let arrivals = materialize_arrivals(&spec.arrivals, serve, model)?;
    let slots = spec.slots.unwrap_or_else(|| serve.effective_batch(model));
    let at = |cfg: ServeConfig, d: usize| {
        scenario(ServeConfig {
            decode_len: d,
            ..cfg
        })
    };
    StepCostModel::price(
        plan,
        serve,
        slots,
        &arrivals,
        |cfg| scenario(cfg).map(drop),
        |cfg| {
            let l = cfg.decode_len;
            let (f0, f1, last) = (at(cfg, l - 2)?, at(cfg, l - 1)?, at(cfg, l)?);
            Ok(ProbeRun {
                ttft: last.serve.unwrap().ttft,
                tail: [f0.iteration_time, f1.iteration_time, last.iteration_time],
            })
        },
    )
}

#[test]
fn price_load_matches_one_run_per_decode_length() {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let serve = ServeConfig::new(256, 64).with_decode_batch(8);
    let workload = Workload::serve(serve);
    let flat = Plan::fsdp_baseline(&model);
    // Flat (b_lo = 1), pipelined below the slots (b_lo = 4) and at them
    // (b_lo == slots).
    let plans = [
        flat.clone(),
        flat.clone().with_pipeline(PipelineConfig::gpipe(2, 4)),
        flat.with_pipeline(PipelineConfig::gpipe(4, 8)),
    ];
    let mut priced_ok = 0;
    for analytic in [true, false] {
        for plan in &plans {
            let run = |cfg: ServeConfig| {
                Scenario::new(&model, &sys)
                    .workload(Workload::serve(cfg))
                    .plan_ref(plan)
                    .analytic_serve(analytic)
                    .run()
            };
            for spec in probe_specs() {
                let oracle = priced(price_one_run_per_length(run, plan, &serve, &model, &spec));
                let tails = priced(
                    Scenario::new(&model, &sys)
                        .workload_ref(&workload)
                        .plan_ref(plan)
                        .analytic_serve(analytic)
                        .price_load(&spec),
                );
                assert_eq!(tails, oracle, "{} under {spec:?}", plan.summary());
                priced_ok += usize::from(oracle.is_ok());
            }
        }
    }
    assert!(priced_ok > 0);
}

#[test]
fn price_load_keeps_the_pinned_coefficients() {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let workload = Workload::serve(ServeConfig::new(256, 64).with_decode_batch(8));
    let spec = LoadSpec::poisson(0.1, 6, 3);
    let flat = Plan::fsdp_baseline(&model);
    let piped = flat.clone().with_pipeline(PipelineConfig::gpipe(4, 8));
    // (prefill_base, prefill_slope, step_base, step_seq, step_rate, slots),
    // as priced from one engine run per decode length.
    for (plan, pinned) in [
        (&flat, (372_911_757_713, 1063, 372_911_759_285, 0, 0, 8)),
        (&piped, (93_593_821_652, 937_307, 673_944, 0, 28, 8)),
    ] {
        for analytic in [true, false] {
            let m = Scenario::new(&model, &sys)
                .workload_ref(&workload)
                .plan_ref(plan)
                .analytic_serve(analytic)
                .price_load(&spec)
                .unwrap();
            let got = (
                m.prefill_base,
                m.prefill_slope,
                m.step_base,
                m.step_seq,
                m.step_rate,
                m.slots,
            );
            assert_eq!(got, pinned, "{} analytic {analytic}", plan.summary());
        }
    }
}

#[test]
fn a_trace_request_overflowing_the_kv_cache_is_rejected() {
    let model = ModelId::Llama2.build();
    let sys = catalog::llama_llm_system();
    let trace = parse_request_jsonl(&format!(
        "{{\"arrival\": 0.0, \"prompt_len\": 256, \"decode_len\": {}}}\n",
        usize::MAX
    ))
    .unwrap();
    let spec = LoadSpec::trace(trace);
    let scenario = Scenario::new(&model, &sys).workload(Workload::serve(
        ServeConfig::new(256, 64).with_decode_batch(8),
    ));
    for result in [
        scenario.price_load(&spec),
        scenario
            .price_load_probes(&spec, &[Plan::fsdp_baseline(&model)])
            .and_then(|tables| scenario.load_probes(&tables).price_load(&spec)),
    ] {
        let err = result.unwrap_err();
        assert!(matches!(err, EngineError::InvalidLoad { .. }), "{err}");
        assert!(err.to_string().contains("overflows"), "{err}");
    }
}
