//! The benchmark's three workloads: seeded inputs, the search one op
//! runs, the op's work counts and the output checks.
//!
//! Every op of a workload is a search of the same shape. The seed draws
//! values (fabric bandwidths, prompt lengths, MTBFs, arrival rates) that
//! change the answer but not the amount of work; [`Kind::shape`] pins the
//! candidate and outcome counts every op must report.

use madmax_core::steady::grid_units_round;
use madmax_core::IterationReport;
use madmax_dse::{
    Explorer, FaultAxes, GoodputSearchOutcome, LoadAxes, LoadSearchOutcome, PipelineAxes,
    SearchOutcome, SearchSpace, SearchTelemetry, ServeAxes,
};
use madmax_engine::{
    EngineError, FaultEvent, FaultSpec, GoodputReport, LoadOutcome, LoadReport, RetryPolicy,
    Scenario, SimMode,
};
use madmax_fault::materialize_faults;
use madmax_hw::units::Seconds;
use madmax_hw::{catalog, ClusterSpec, DeviceScaling};
use madmax_model::{LayerClass, ModelArch};
use madmax_parallel::{ArrivalSpec, LoadSpec, PipelineSchedule, Plan, ServeConfig, Workload};
use madmax_verify::{verify_goodput, verify_load, Verifier, VerifyReport};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Pre-training `Explorer::explore`: strategies × pipeline axes.
    Train,
    /// Serve `Explorer::explore` at decode 1024 with decode-batch axes.
    Serve,
    /// `explore_goodput`, then `explore_load`, then a faulty replay of the
    /// load winner.
    SloFault,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Train, Kind::Serve, Kind::SloFault];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Train => "train_search",
            Kind::Serve => "serve_search",
            Kind::SloFault => "slo_fault_search",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The work counts every op of this workload reports, whatever its
    /// seed (the homogeneity guard).
    pub fn shape(self) -> Shape {
        match self {
            Kind::Train => Shape {
                candidates: 2736,
                ok: 2112,
                oom: 624,
                unmappable: 0,
                invalid: 0,
            },
            Kind::Serve => Shape {
                candidates: 312,
                ok: 292,
                oom: 20,
                unmappable: 0,
                invalid: 0,
            },
            Kind::SloFault => Shape {
                candidates: 336,
                ok: 260,
                oom: 76,
                unmappable: 0,
                invalid: 0,
            },
        }
    }
}

/// The work counts of one op: candidates and their outcomes. For
/// `slo_fault_search` they sum the goodput and the load search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Shape {
    pub candidates: u64,
    pub ok: u64,
    pub oom: u64,
    pub unmappable: u64,
    pub invalid: u64,
}

impl Shape {
    fn of(t: &SearchTelemetry) -> Self {
        Self {
            candidates: t.candidates,
            ok: t.ok,
            oom: t.oom,
            unmappable: t.unmappable,
            invalid: t.invalid,
        }
    }

    fn tally(&mut self, error: Option<&EngineError>) {
        self.candidates += 1;
        match error {
            None => self.ok += 1,
            Some(e) if e.is_oom() => self.oom += 1,
            Some(e) if e.is_unmappable_pipeline() => self.unmappable += 1,
            Some(_) => self.invalid += 1,
        }
    }
}

/// splitmix64: the benchmark's own seeded stream, shared with nothing in
/// the workspace.
#[derive(Debug)]
struct Rng(u64);

impl Rng {
    /// The stream of op `index` of a run seeded with `seed`.
    fn new(seed: u64, index: u64) -> Self {
        Rng(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

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
}

/// The inputs of one op.
#[derive(Debug)]
pub struct Inputs {
    /// The system searched over.
    pub system: ClusterSpec,
    /// The workload of `Explorer::explore` (pre-training for the goodput
    /// step).
    pub workload: Workload,
    /// The space of `Explorer::explore` (or of the goodput step).
    pub space: SearchSpace,
    /// The load and fault steps of `slo_fault_search`.
    pub slo: Option<SloInputs>,
}

/// The load and fault inputs of `slo_fault_search`.
#[derive(Debug)]
pub struct SloInputs {
    pub fault_axes: FaultAxes,
    pub serve_workload: Workload,
    pub serve_space: SearchSpace,
    pub load_axes: LoadAxes,
    pub faults: Vec<FaultEvent>,
    pub retry: RetryPolicy,
}

/// Arrival rates of the load sweep before the seeded scale, requests/s.
const LOAD_RATES: [f64; 4] = [0.02, 0.1, 0.5, 2.0];
/// Requests per load simulation.
const LOAD_REQUESTS: usize = 64;
/// Length of the faulty replay's fault stream, seconds.
const FAULT_HORIZON_S: f64 = 400.0;

/// Draws the inputs of op `index` of a run seeded with `seed`.
pub fn inputs(kind: Kind, seed: u64, index: u64) -> Inputs {
    let mut rng = Rng::new(seed, index);
    let llama = catalog::llama_llm_system();
    let both = vec![PipelineSchedule::GPipe, PipelineSchedule::OneFOneB];
    match kind {
        Kind::Train => Inputs {
            system: llama.scaled(&DeviceScaling {
                intra_bw: rng.uniform(0.5, 1.0),
                inter_bw: rng.uniform(0.25, 1.0),
                ..DeviceScaling::IDENTITY
            }),
            workload: Workload::pretrain(),
            space: SearchSpace::strategies().with_pipeline(PipelineAxes {
                stages: vec![1, 2, 4, 8],
                microbatches: vec![8, 16, 32],
                schedules: both,
            }),
            slo: None,
        },
        Kind::Serve => Inputs {
            system: llama.scaled(&DeviceScaling::inter_bw_only(rng.uniform(1.0 / 16.0, 0.25))),
            workload: Workload::serve(ServeConfig::new(
                512 + (rng.next_u64() % 513) as usize,
                1024,
            )),
            space: SearchSpace::strategies()
                .with_classes(vec![LayerClass::Transformer])
                .with_serve(ServeAxes::batches([256, 512]))
                .with_pipeline(PipelineAxes {
                    stages: vec![1, 2, 4, 8],
                    microbatches: vec![8, 16],
                    schedules: both,
                }),
            slo: None,
        },
        Kind::SloFault => {
            let interval = rng.uniform(30.0, 120.0);
            let fault_axes = FaultAxes::new(FaultSpec::fatal(
                rng.uniform(1800.0, 7200.0),
                60.0,
                rng.next_u64(),
            ))
            .with_intervals([interval, 5.0 * interval, 30.0 * interval]);
            let scale = rng.uniform(0.5, 2.0);
            let rates: Vec<f64> = LOAD_RATES.iter().map(|r| r * scale).collect();
            // Poisson and bursty ops alternate, so every run has the same
            // mix of the two whatever its length.
            let arrival_seed = rng.next_u64();
            let spec = if index.is_multiple_of(2) {
                LoadSpec::poisson(rates[0], LOAD_REQUESTS, arrival_seed)
            } else {
                LoadSpec::bursty(rates[0], 20.0, 10.0, LOAD_REQUESTS, arrival_seed)
            };
            let spec = spec.with_kv_blocks(8192);
            let load_axes = LoadAxes::new(spec, rates).with_slo_ttft_p99(Seconds::new(60.0));
            let horizon = grid_units_round(Seconds::new(FAULT_HORIZON_S))
                .expect("the horizon is on the grid");
            let fault = FaultSpec::fatal(rng.uniform(60.0, 240.0), 5.0, rng.next_u64());
            let faults =
                materialize_faults(&fault, horizon).expect("the fault stream materializes");
            Inputs {
                system: llama,
                workload: Workload::pretrain(),
                space: SearchSpace::strategies().with_pipeline(PipelineAxes {
                    stages: vec![1, 8],
                    microbatches: vec![16],
                    schedules: vec![PipelineSchedule::OneFOneB],
                }),
                slo: Some(SloInputs {
                    fault_axes,
                    serve_workload: Workload::serve(ServeConfig::new(256, 64).with_decode_batch(8)),
                    serve_space: SearchSpace::strategies()
                        .with_classes(vec![LayerClass::Transformer])
                        .with_pipeline(PipelineAxes {
                            stages: vec![1, 2, 4, 8],
                            microbatches: vec![8],
                            schedules: vec![PipelineSchedule::GPipe],
                        }),
                    load_axes,
                    faults,
                    retry: RetryPolicy::retries(3),
                }),
            }
        }
    }
}

/// `axes`' load spec re-rated to `rate`, as `explore_load` simulates it
/// at that sweep point.
pub fn spec_at(axes: &LoadAxes, rate: f64) -> LoadSpec {
    let mut spec = axes.spec.clone();
    if let ArrivalSpec::Poisson { rate: r, .. } | ArrivalSpec::Bursty { rate: r, .. } =
        &mut spec.arrivals
    {
        *r = rate;
    }
    spec
}

/// What one op returns.
#[derive(Debug)]
pub enum Answer {
    Explore(SearchOutcome),
    Slo {
        goodput: GoodputSearchOutcome,
        load: LoadSearchOutcome,
        faulty: LoadOutcome,
    },
}

/// Runs one op: the timed region.
pub fn search(model: &ModelArch, inp: &Inputs) -> Result<Answer, EngineError> {
    let explorer = Explorer::new(model, &inp.system)
        .workload(inp.workload.clone())
        .space(inp.space.clone())
        .threads(1);
    let Some(slo) = &inp.slo else {
        return explorer.explore().map(Answer::Explore);
    };
    let goodput = explorer.explore_goodput(&slo.fault_axes)?;
    let load = Explorer::new(model, &inp.system)
        .workload(slo.serve_workload.clone())
        .space(slo.serve_space.clone())
        .threads(1)
        .explore_load(&slo.load_axes)?;
    let best = load.best();
    let spec = spec_at(
        &slo.load_axes,
        winner_rate(best.points.iter().map(|p| p.rate), best.best_point),
    );
    let scenario = Scenario::new(model, &inp.system)
        .plan_ref(&best.plan)
        .workload_ref(&best.workload);
    let costs = scenario.price_load(&spec)?;
    let faulty =
        scenario.serve_load_faulty(&spec, &costs, SimMode::Event, &slo.faults, &slo.retry, None)?;
    Ok(Answer::Slo {
        goodput,
        load,
        faulty,
    })
}

/// The arrival rate of the load winner's best point: its first point when
/// nothing met the SLO and `explore_load` fell back to the lowest tail.
pub fn winner_rate(mut rates: impl Iterator<Item = f64>, best_point: Option<usize>) -> f64 {
    rates
        .nth(best_point.unwrap_or(0))
        .expect("the load winner simulated every rate")
}

impl Answer {
    pub fn shape(&self) -> Shape {
        match self {
            Answer::Explore(o) => Shape::of(&o.telemetry),
            Answer::Slo { goodput, load, .. } => {
                let mut shape = Shape::of(&goodput.telemetry);
                for c in &load.candidates {
                    shape.tally(c.error.as_ref());
                }
                shape
            }
        }
    }

    /// The explorer's telemetry (the goodput step's for
    /// `slo_fault_search`: the load step reports none).
    pub fn telemetry(&self) -> &SearchTelemetry {
        match self {
            Answer::Explore(o) => &o.telemetry,
            Answer::Slo { goodput, .. } => &goodput.telemetry,
        }
    }

    /// Simulated gain of the winner: over the FSDP baseline for
    /// `explore`, over the fault-blind pick for the goodput step.
    pub fn speedup(&self) -> f64 {
        match self {
            Answer::Explore(o) => o.speedup(),
            Answer::Slo { goodput, .. } => {
                goodput.best_effective_throughput() / goodput.fault_free().score()
            }
        }
    }

    /// 64-bit digest of every winner's plan summary and serialized
    /// report.
    pub fn digest(&self) -> u64 {
        match self {
            Answer::Explore(o) => explore_digest(&o.best_plan, &o.best_workload, &o.best),
            Answer::Slo {
                goodput,
                load,
                faulty,
            } => {
                let (g, l) = (goodput.best(), load.best());
                slo_digest(
                    &g.plan,
                    &g.points,
                    &l.plan,
                    l.points.iter().map(|p| &p.report),
                    &faulty.report,
                )
            }
        }
    }
}

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    fn json<T: serde::Serialize>(&mut self, value: &T) -> &mut Self {
        self.bytes(json(value).as_bytes())
    }
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("reports serialize")
}

/// Digest of an `explore` winner.
pub fn explore_digest(plan: &Plan, workload: &Workload, report: &IterationReport) -> u64 {
    Digest::new()
        .bytes(plan.summary().as_bytes())
        .bytes(workload.to_string().as_bytes())
        .json(report)
        .0
}

/// Digest of a `slo_fault_search` answer: the goodput winner and its
/// interval sweep, the load winner and its rate sweep, the faulty replay.
pub fn slo_digest<'a>(
    goodput_plan: &Plan,
    goodput_points: &[GoodputReport],
    load_plan: &Plan,
    load_points: impl Iterator<Item = &'a LoadReport>,
    faulty: &LoadReport,
) -> u64 {
    let mut d = Digest::new();
    d.bytes(goodput_plan.summary().as_bytes());
    for p in goodput_points {
        d.json(p);
    }
    d.bytes(load_plan.summary().as_bytes());
    for r in load_points {
        d.json(r);
    }
    d.json(faulty).0
}

/// The output checks of one op, run outside the timed region. Returns
/// the first check that failed.
pub fn check(model: &ModelArch, inp: &Inputs, answer: &Answer) -> Result<(), String> {
    reconciles(answer.telemetry())?;
    match answer {
        Answer::Explore(o) => verify_winner(
            model,
            &inp.system,
            &o.best_plan,
            &o.best_workload,
            Some(&o.best),
        ),
        Answer::Slo {
            goodput,
            load,
            faulty,
        } => {
            for p in goodput.candidates.iter().flat_map(|c| &c.points) {
                clean("goodput point", &verify_goodput(p))?;
            }
            let g = goodput.best();
            verify_winner(model, &inp.system, &g.plan, &g.workload, None)?;
            let axes = &inp.slo.as_ref().expect("slo inputs").load_axes;
            let l = load.best();
            let scenario = Scenario::new(model, &inp.system)
                .plan_ref(&l.plan)
                .workload_ref(&l.workload);
            let costs = scenario
                .price_load(&spec_at(axes, axes.rates[0]))
                .map_err(|e| format!("load winner re-pricing failed: {e}"))?;
            for p in &l.points {
                let per_token = scenario
                    .serve_load_priced(&spec_at(axes, p.rate), &costs, SimMode::PerToken, None)
                    .map_err(|e| format!("per-token load run failed: {e}"))?;
                same_bytes(
                    "load winner point in per-token mode",
                    &per_token.report,
                    &p.report,
                )?;
            }
            clean("faulty replay", &verify_load(&faulty.trace))
        }
    }
}

fn reconciles(t: &SearchTelemetry) -> Result<(), String> {
    if t.reconciles() {
        Ok(())
    } else {
        Err(format!("telemetry does not reconcile: {t:?}"))
    }
}

/// Re-simulates a winner in full (no closed-form decode), verifies its
/// trace and schedule, and, given the search's report, requires the two
/// reports to be byte-identical.
fn verify_winner(
    model: &ModelArch,
    system: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
    report: Option<&IterationReport>,
) -> Result<(), String> {
    let (full, trace, sched) = Scenario::new(model, system)
        .plan_ref(plan)
        .workload_ref(workload)
        .analytic_serve(false)
        .run_with_trace()
        .map_err(|e| format!("winner re-run failed: {e}"))?;
    clean(
        "winner",
        &Verifier::for_plan(plan, workload).verify(&trace, &sched),
    )?;
    report.map_or(Ok(()), |r| {
        same_bytes("winner vs its full simulation", &full, r)
    })
}

fn clean(what: &str, report: &VerifyReport) -> Result<(), String> {
    if report.error_count() == 0 {
        Ok(())
    } else {
        Err(format!("{what} fails verification: {report}"))
    }
}

fn same_bytes<T: serde::Serialize>(what: &str, a: &T, b: &T) -> Result<(), String> {
    if json(a) == json(b) {
        Ok(())
    } else {
        Err(format!("{what}: reports differ"))
    }
}
