//! The traced run: each op replayed as the public calls it makes, with
//! one span per call, so per-layer time is measured from the benchmark's
//! own files rather than from probes inside the program.
//!
//! A replay must return the winner the explorer returns for the same
//! inputs (the caller compares digests), so it mirrors the explorer's
//! enumeration, baseline skip and ranking rules exactly.

use std::time::Instant;

use madmax_core::{schedule_into, CostTable, EngineScratch, IterationReport};
use madmax_dse::Explorer;
use madmax_engine::{EngineError, FaultSpec, GoodputReport, LoadReport, Scenario, SimMode};
use madmax_fault::{expected_goodput, young_daly_interval};
use madmax_model::ModelArch;
use madmax_parallel::{Plan, Workload};

use crate::workloads::{self, Inputs, SloInputs};

/// `Explorer::candidates`.
pub const CANDIDATES: &str = "dse.candidates";
/// `Scenario::price_plans`.
pub const PRICE_FLAT: &str = "core.price_plans";
/// `Scenario::price_pipeline_plans`.
pub const PRICE_PIPELINE: &str = "pipeline.price_plans";
/// `Scenario::run_in` on a flat candidate.
pub const RUN_IN: &str = "engine.run_in";
/// `Scenario::run_in` on a pipelined candidate.
pub const RUN_IN_PIPELINE: &str = "pipeline.run_in";
/// `CostTable::assemble_into` (inside a flat training `run_in`).
pub const ASSEMBLE: &str = "core.assemble";
/// `schedule_into` (inside a flat training `run_in`).
pub const SCHEDULE: &str = "core.schedule";
/// `IterationReport::from_schedule_in` (inside a flat training `run_in`).
pub const REPORT: &str = "core.report";
/// `Scenario::run` on the FSDP baseline.
pub const BASELINE: &str = "engine.baseline";
/// `Scenario::goodput`.
pub const GOODPUT: &str = "fault.goodput";
/// `expected_goodput`.
pub const CLOSED_FORM: &str = "fault.expected_goodput";
/// `Scenario::price_load`.
pub const PRICE_LOAD: &str = "serve.price_load";
/// `Scenario::serve_load_priced` in event mode.
pub const LOAD_SIM: &str = "serve.load_sim";
/// `Scenario::serve_load_faulty`.
pub const FAULTY: &str = "fault.faulty_replay";

/// Parent of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op the call belongs to.
    pub search: u32,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The spans of a whole run, kept in memory until it ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    search: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
            search: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            search: self.search,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id as u32);
        id
    }

    fn close(&mut self, id: usize) {
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }
}

/// What a replay returns: the winner's digest plus counts only the
/// replay's own calls can see.
#[derive(Debug, Default)]
pub struct Replayed {
    pub digest: u64,
    /// Trace ops assembled by flat training candidates.
    pub trace_ops: u64,
    /// Load-simulator work counters, summed over the op's load runs.
    pub decode_runs: u64,
    pub decode_steps: u64,
    pub evictions: u64,
}

/// Replays op `search` of a run.
pub fn replay(
    model: &ModelArch,
    inp: &Inputs,
    rec: &mut Recorder,
    search: u32,
) -> Result<Replayed, EngineError> {
    rec.search = search;
    rec.open.clear();
    match &inp.slo {
        None => replay_explore(model, inp, rec),
        Some(slo) => replay_slo(model, inp, slo, rec),
    }
}

fn is_pipelined(plan: &Plan) -> bool {
    plan.pipeline.is_some_and(|c| c.is_pipelined())
}

/// `Explorer::explore`: the baseline, then per workload variant the
/// candidates, one price per table and one `run_in` per candidate.
fn replay_explore(
    model: &ModelArch,
    inp: &Inputs,
    rec: &mut Recorder,
) -> Result<Replayed, EngineError> {
    let system = &inp.system;
    let explorer = Explorer::new(model, system)
        .workload(inp.workload.clone())
        .space(inp.space.clone())
        .threads(1);
    let mut base_plan = Plan::fsdp_baseline(model);
    base_plan.options.ignore_memory_limits = inp.space.ignore_memory_limits;
    let variants: Vec<Workload> = match (&inp.space.serve, inp.workload.serve_config()) {
        (Some(axes), Some(cfg)) if !axes.decode_batch.is_empty() => axes
            .decode_batch
            .iter()
            .map(|&b| Workload::serve(cfg.with_decode_batch(b)))
            .collect(),
        _ => vec![inp.workload.clone()],
    };
    let serve_ranked =
        variants.len() > 1 || (inp.space.serve.is_some() && inp.workload.serve_config().is_some());
    let score = |r: &IterationReport| {
        r.serve_tokens_per_sec()
            .unwrap_or_else(|| r.samples_per_sec())
    };

    let baseline = rec.span(BASELINE, || {
        Scenario::new(model, system)
            .plan_ref(&base_plan)
            .workload_ref(&variants[0])
            .run()
    })?;
    let mut best = (base_plan.clone(), 0usize, baseline);
    let mut out = Replayed::default();
    let mut scratch = EngineScratch::new();
    for (vi, workload) in variants.iter().enumerate() {
        let candidates = rec.span(CANDIDATES, || explorer.candidates());
        let to_run: Vec<Plan> = if vi == 0 {
            candidates
                .into_iter()
                .filter(|p| {
                    p.assignments != base_plan.assignments || p.pipeline != base_plan.pipeline
                })
                .collect()
        } else {
            candidates
        };
        let scenario = Scenario::new(model, system).workload_ref(workload);
        let table = rec.span(PRICE_FLAT, || scenario.price_plans(&to_run));
        let pipeline_table = to_run
            .iter()
            .any(is_pipelined)
            .then(|| rec.span(PRICE_PIPELINE, || scenario.price_pipeline_plans(&to_run)));
        let training = workload.serve_config().is_none();
        for plan in to_run {
            let result = {
                let s = Scenario::new(model, system)
                    .plan_ref(&plan)
                    .workload_ref(workload)
                    .costs(&table);
                if is_pipelined(&plan) {
                    let t = pipeline_table
                        .as_ref()
                        .expect("pipelined plans were priced");
                    let s = s.pipeline_costs(t);
                    rec.span(RUN_IN_PIPELINE, || s.run_in(&mut scratch))
                } else if training {
                    let id = rec.open(RUN_IN);
                    let r = run_flat_split(&table, &plan, &mut scratch, rec, &mut out);
                    rec.close(id);
                    r
                } else {
                    rec.span(RUN_IN, || s.run_in(&mut scratch))
                }
            };
            if let Ok(r) = result {
                let better = if serve_ranked {
                    score(&r) > score(&best.2)
                } else {
                    r.iteration_time < best.2.iteration_time
                };
                if better {
                    best = (plan, vi, r);
                }
            }
        }
    }
    out.digest = workloads::explore_digest(&best.0, &variants[best.1], &best.2);
    Ok(out)
}

/// `run_in` on a flat training candidate (`run_flat_cached`), split
/// into its assemble, schedule and report calls.
fn run_flat_split(
    table: &CostTable,
    plan: &Plan,
    scratch: &mut EngineScratch,
    rec: &mut Recorder,
    out: &mut Replayed,
) -> Result<IterationReport, EngineError> {
    let memory = table.memory_for(plan)?;
    rec.span(ASSEMBLE, || table.assemble_into(plan, &mut scratch.trace));
    out.trace_ops += scratch.trace.len() as u64;
    rec.span(SCHEDULE, || {
        schedule_into(&scratch.trace, &mut scratch.sched, &mut scratch.streams);
    });
    Ok(rec.span(REPORT, || {
        let mut report = IterationReport::from_schedule_in(
            &scratch.trace,
            &scratch.sched,
            table.report_model(),
            memory,
            &mut scratch.report,
        );
        report.serve = table.serve_stats(&scratch.trace, &scratch.sched);
        report
    }))
}

/// One simulated point of a load candidate's rate sweep.
struct LoadPoint {
    rate: f64,
    report: LoadReport,
    feasible: bool,
}

/// `explore_goodput`, then `explore_load`, then the faulty replay of the
/// load winner.
fn replay_slo(
    model: &ModelArch,
    inp: &Inputs,
    slo: &SloInputs,
    rec: &mut Recorder,
) -> Result<Replayed, EngineError> {
    let system = &inp.system;
    let mut out = Replayed::default();

    // Goodput: one simulation and checkpoint pricing per candidate, the
    // other intervals in closed form.
    let axes = &slo.fault_axes;
    let mtbf = axes.fault.mtbf.expect("the seeded fault spec has an MTBF");
    let sweep: Vec<FaultSpec> = axes
        .intervals
        .iter()
        .map(|&ci| axes.fault.clone().with_checkpoint_interval(ci))
        .collect();
    let explorer = Explorer::new(model, system)
        .space(inp.space.clone())
        .threads(1);
    let goodput_plans = rec.span(CANDIDATES, || explorer.candidates());
    let mut sweeps: Vec<Vec<GoodputReport>> = Vec::with_capacity(goodput_plans.len());
    for plan in &goodput_plans {
        let scenario = Scenario::new(model, system)
            .plan_ref(plan)
            .workload_ref(&inp.workload);
        let Ok(base) = rec.span(GOODPUT, || scenario.goodput(&sweep[0])) else {
            sweeps.push(Vec::new());
            continue;
        };
        let iter_time = base.report.iteration_time.as_secs();
        let (write, restart) = (base.ckpt.write.as_secs(), base.ckpt.restart.as_secs());
        let mut points = vec![base.goodput];
        for spec in &sweep[1..] {
            let interval = spec
                .checkpoint_interval
                .unwrap_or_else(|| young_daly_interval(write, mtbf));
            points.push(rec.span(CLOSED_FORM, || {
                expected_goodput(iter_time, write, restart + spec.recovery, mtbf, interval)
            }));
        }
        sweeps.push(points);
    }
    let goodput_score = |points: &[GoodputReport]| {
        points
            .iter()
            .map(|p| p.effective_throughput)
            .max_by(f64::total_cmp)
            .unwrap_or(0.0)
    };
    let goodput_best = sweeps
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .max_by(|(_, a), (_, b)| goodput_score(a).total_cmp(&goodput_score(b)))
        .map(|(i, _)| i)
        .ok_or_else(|| EngineError::InvalidFault {
            reason: "every goodput candidate failed".to_owned(),
        })?;

    // Load: one cost model per candidate, one event-mode simulation per
    // rate, ranked by SLO-feasible throughput.
    let la = &slo.load_axes;
    let specs: Vec<_> = la
        .rates
        .iter()
        .map(|&r| workloads::spec_at(la, r))
        .collect();
    let explorer = Explorer::new(model, system)
        .workload(slo.serve_workload.clone())
        .space(slo.serve_space.clone())
        .threads(1);
    let load_plans = rec.span(CANDIDATES, || explorer.candidates());
    let mut sweeps_load: Vec<Vec<LoadPoint>> = Vec::with_capacity(load_plans.len());
    for plan in &load_plans {
        let scenario = Scenario::new(model, system)
            .plan_ref(plan)
            .workload_ref(&slo.serve_workload)
            .analytic_serve(true);
        let Ok(costs) = rec.span(PRICE_LOAD, || scenario.price_load(&specs[0])) else {
            sweeps_load.push(Vec::new());
            continue;
        };
        let mut points = Vec::with_capacity(specs.len());
        for (&rate, spec) in la.rates.iter().zip(&specs) {
            let o = rec.span(LOAD_SIM, || {
                scenario.serve_load_priced(spec, &costs, SimMode::Event, None)
            })?;
            out.decode_runs += o.counters.decode_runs;
            out.decode_steps += o.counters.decode_steps;
            out.evictions += o.counters.evictions;
            let feasible = la
                .slo_ttft_p99
                .is_none_or(|slo| o.report.meets_ttft_slo(slo));
            points.push(LoadPoint {
                rate,
                report: o.report,
                feasible,
            });
        }
        sweeps_load.push(points);
    }
    let best_point = |points: &[LoadPoint]| {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.feasible)
            .max_by(|(_, a), (_, b)| a.report.tokens_per_sec.total_cmp(&b.report.tokens_per_sec))
            .map(|(i, _)| i)
    };
    let load_score =
        |points: &[LoadPoint]| best_point(points).map_or(0.0, |i| points[i].report.tokens_per_sec);
    let min_ttft = |points: &[LoadPoint]| {
        points
            .iter()
            .filter_map(|p| p.report.ttft.map(|t| t.p99.as_secs()))
            .fold(f64::INFINITY, f64::min)
    };
    let load_best = sweeps_load
        .iter()
        .enumerate()
        .filter(|(_, p)| best_point(p).is_some())
        .max_by(|(_, a), (_, b)| load_score(a).total_cmp(&load_score(b)))
        .or_else(|| {
            sweeps_load
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.is_empty())
                .min_by(|(_, a), (_, b)| min_ttft(a).total_cmp(&min_ttft(b)))
        })
        .map(|(i, _)| i)
        .ok_or_else(|| EngineError::InvalidLoad {
            reason: "every load candidate failed".to_owned(),
        })?;

    // The faulty replay of the load winner at its chosen rate.
    let winner = &sweeps_load[load_best];
    let rate = workloads::winner_rate(winner.iter().map(|p| p.rate), best_point(winner));
    let spec = workloads::spec_at(la, rate);
    let scenario = Scenario::new(model, system)
        .plan_ref(&load_plans[load_best])
        .workload_ref(&slo.serve_workload);
    let costs = rec.span(PRICE_LOAD, || scenario.price_load(&spec))?;
    let faulty = rec.span(FAULTY, || {
        scenario.serve_load_faulty(&spec, &costs, SimMode::Event, &slo.faults, &slo.retry, None)
    })?;
    out.decode_runs += faulty.counters.decode_runs;
    out.decode_steps += faulty.counters.decode_steps;
    out.evictions += faulty.counters.evictions;

    out.digest = workloads::slo_digest(
        &goodput_plans[goodput_best],
        &sweeps[goodput_best],
        &load_plans[load_best],
        winner.iter().map(|p| &p.report),
        &faulty.report,
    );
    Ok(out)
}
