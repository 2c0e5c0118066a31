//! Schedule legality and analysis: causality, per-stream exclusivity,
//! duration/makespan consistency, the schedule-dependent pipeline rules
//! (1F1B in-flight bound, GPipe bubble floor), the critical-path makespan
//! lower bound, and per-stream slack lints.

use std::collections::HashMap;

use madmax_core::{OpId, OpName, PassDir, Phase, Schedule, StreamId, Trace};
use madmax_hw::units::Seconds;
use madmax_parallel::{PipelineConfig, PipelineSchedule};

use crate::diag::{CriticalPath, Diagnostic, Location, RuleId, VerifyReport};

/// A compute stream idle for more than this share of the makespan draws a
/// [`RuleId::StreamSlack`] warning.
const SLACK_WARN_FRACTION: f64 = 0.75;

/// Computes the longest dependency chain of `trace`: its total duration
/// is a makespan lower bound for any legal schedule, independent of how
/// ops are packed onto streams.
pub(crate) fn critical_path(trace: &Trace) -> CriticalPath {
    let ops = trace.ops();
    let mut finish_at = vec![0.0f64; ops.len()];
    let mut chain_len = vec![0usize; ops.len()];
    let mut best = 0.0f64;
    let mut sink = None;
    for (i, op) in ops.iter().enumerate() {
        let mut base = 0.0;
        let mut len = 0;
        for d in op.deps.as_slice() {
            if d.0 < i && finish_at[d.0] > base {
                base = finish_at[d.0];
                len = chain_len[d.0];
            }
        }
        finish_at[i] = base + op.duration.as_secs();
        chain_len[i] = len + 1;
        if finish_at[i] > best {
            best = finish_at[i];
            sink = Some(OpId(i));
        }
    }
    CriticalPath {
        lower_bound: Seconds::new(best),
        ops: sink.map_or(0, |s| chain_len[s.0]),
        sink,
    }
}

/// Checks schedule legality for `(trace, sched)` and runs the analyses;
/// `pipeline` enables the schedule-dependent pipeline rules.
pub(crate) fn check_schedule(
    trace: &Trace,
    sched: &Schedule,
    pipeline: Option<&PipelineConfig>,
    out: &mut VerifyReport,
) {
    let ops = trace.ops();
    if sched.windows.len() != ops.len() {
        out.push(Diagnostic::error(
            RuleId::Makespan,
            Location::Global,
            format!(
                "schedule has {} windows for {} trace ops",
                sched.windows.len(),
                ops.len()
            ),
        ));
        return;
    }

    let makespan = sched.makespan.as_secs();
    let tol = 1e-9 * makespan.abs().max(1.0);

    let mut max_finish = 0.0f64;
    for (i, (op, w)) in ops.iter().zip(&sched.windows).enumerate() {
        let (start, finish) = (w.start.as_secs(), w.finish.as_secs());
        max_finish = max_finish.max(finish);
        if op.duration.as_secs() < 0.0 {
            out.push(Diagnostic::error(
                RuleId::Duration,
                Location::Op(OpId(i)),
                format!(
                    "op {} ({}) has negative duration {}",
                    i, op.name, op.duration
                ),
            ));
        }
        if ((finish - start) - op.duration.as_secs()).abs() > tol {
            out.push(Diagnostic::error(
                RuleId::Duration,
                Location::Op(OpId(i)),
                format!(
                    "op {} ({}) occupies [{start}, {finish}] but lasts {}",
                    i, op.name, op.duration
                ),
            ));
        }
        for d in op.deps.as_slice() {
            if d.0 >= sched.windows.len() {
                continue; // dep-order rule already fired
            }
            let dep_finish = sched.windows[d.0].finish.as_secs();
            if start + tol < dep_finish {
                out.push(Diagnostic::error(
                    RuleId::Causality,
                    Location::Op(OpId(i)),
                    format!(
                        "op {} ({}) starts at {start} before dependency {} finishes at \
                         {dep_finish}",
                        i, op.name, d.0
                    ),
                ));
            }
        }
    }

    if (makespan - max_finish).abs() > tol {
        out.push(Diagnostic::error(
            RuleId::Makespan,
            Location::Global,
            format!("makespan {makespan} does not match the last window finish {max_finish}"),
        ));
    }

    check_stream_exclusivity(trace, sched, tol, out);

    let cp = critical_path(trace);
    if cp.lower_bound.as_secs() > makespan + tol {
        out.push(Diagnostic::error(
            RuleId::CriticalPath,
            cp.sink.map_or(Location::Global, Location::Op),
            format!(
                "critical-path lower bound {} exceeds the makespan {}",
                cp.lower_bound, sched.makespan
            ),
        ));
    }
    out.critical_path = Some(cp);

    check_stream_slack(trace, sched, out);

    if let Some(cfg) = pipeline {
        check_in_flight(trace, sched, cfg, out);
        check_bubble_floor(trace, sched, cfg, out);
        check_steady_period(trace, sched, cfg, out);
    }
}

/// Windows on one stream must not overlap — re-derived from the windows
/// alone, independently of the in-order `StreamTable` scheduler.
fn check_stream_exclusivity(trace: &Trace, sched: &Schedule, tol: f64, out: &mut VerifyReport) {
    let mut per_stream: HashMap<StreamId, Vec<usize>> = HashMap::new();
    for (i, op) in trace.ops().iter().enumerate() {
        per_stream.entry(op.stream).or_default().push(i);
    }
    let mut streams: Vec<_> = per_stream.into_iter().collect();
    streams.sort_by_key(|(s, _)| s.slot());
    for (stream, mut idx) in streams {
        idx.sort_by(|&a, &b| {
            sched.windows[a]
                .start
                .partial_cmp(&sched.windows[b].start)
                .expect("finite start times")
        });
        for pair in idx.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if sched.windows[b].start.as_secs() + tol < sched.windows[a].finish.as_secs() {
                out.push(Diagnostic::error(
                    RuleId::StreamOverlap,
                    Location::Stream(stream),
                    format!(
                        "ops {} ({}) and {} ({}) overlap on {stream:?}: [{}, {}] vs [{}, {}]",
                        a,
                        trace.ops()[a].name,
                        b,
                        trace.ops()[b].name,
                        sched.windows[a].start,
                        sched.windows[a].finish,
                        sched.windows[b].start,
                        sched.windows[b].finish,
                    ),
                ));
            }
        }
    }
}

/// Warn-level slack lint: a compute stream that sits idle for most of the
/// makespan points at scheduling inefficiency (e.g. a bubble-heavy
/// pipeline configuration).
fn check_stream_slack(trace: &Trace, sched: &Schedule, out: &mut VerifyReport) {
    let makespan = sched.makespan.as_secs();
    if makespan <= 0.0 {
        return;
    }
    let mut busy: HashMap<StreamId, (f64, usize)> = HashMap::new();
    for op in trace.ops() {
        if op.stream.is_compute() {
            let e = busy.entry(op.stream).or_insert((0.0, 0));
            e.0 += op.duration.as_secs();
            e.1 += 1;
        }
    }
    let mut streams: Vec<_> = busy.into_iter().collect();
    streams.sort_by_key(|(s, _)| s.slot());
    for (stream, (busy, ops)) in streams {
        let idle = 1.0 - busy / makespan;
        if ops >= 2 && idle > SLACK_WARN_FRACTION {
            out.push(Diagnostic::warn(
                RuleId::StreamSlack,
                Location::Stream(stream),
                format!(
                    "compute stream {stream:?} is idle {:.0}% of the makespan \
                     ({busy:.3e}s busy of {makespan:.3e}s)",
                    idle * 100.0
                ),
            ));
        }
    }
}

/// 1F1B bounds the number of microbatches in flight (forward started,
/// backward not yet finished) at `p` per stage — that is the schedule's
/// entire point versus GPipe's fill-drain.
fn check_in_flight(trace: &Trace, sched: &Schedule, cfg: &PipelineConfig, out: &mut VerifyReport) {
    if cfg.schedule != PipelineSchedule::OneFOneB {
        return;
    }
    // (stage, +1 at forward start / -1 at backward finish, time)
    let mut events: HashMap<u16, Vec<(f64, i32)>> = HashMap::new();
    let mut has_bwd = false;
    for (i, op) in trace.ops().iter().enumerate() {
        if let OpName::StagePass { stage, dir, .. } = op.name {
            match dir {
                PassDir::Fwd => events
                    .entry(stage)
                    .or_default()
                    .push((sched.windows[i].start.as_secs(), 1)),
                PassDir::Bwd => {
                    has_bwd = true;
                    events
                        .entry(stage)
                        .or_default()
                        .push((sched.windows[i].finish.as_secs(), -1));
                }
                PassDir::Dec => {}
            }
        }
    }
    if !has_bwd {
        return;
    }
    let mut stages: Vec<_> = events.into_iter().collect();
    stages.sort_by_key(|(s, _)| *s);
    for (stage, mut ev) in stages {
        // Releases before acquires at equal timestamps.
        ev.sort_by(|a, b| a.partial_cmp(b).expect("finite event times"));
        let mut in_flight = 0i32;
        let mut peak = 0i32;
        for (_, delta) in ev {
            in_flight += delta;
            peak = peak.max(in_flight);
        }
        if peak as usize > cfg.stages {
            out.push(Diagnostic::error(
                RuleId::InFlight,
                Location::Stage(stage),
                format!(
                    "1F1B keeps {peak} microbatches in flight on stage {stage}, above the \
                     pipeline depth {}",
                    cfg.stages
                ),
            ));
        }
    }
}

/// Shortest decode a steady-period check needs: the first tokens carry
/// the prefill-drain and pipeline-fill transient, so the rule examines
/// the last quarter of a decode run and wants that window clear of it.
const MIN_STEADY_DECODE: usize = 24;

/// Element-wise near-equality for per-group duration triples (engine
/// traces are exact on the duration grid; the slack only tolerates
/// non-quantized hand-built traces).
fn durations_match(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()))
}

/// Steady-state decode periodicity of pipelined serve schedules.
///
/// With `m` microbatch groups in flight, decode token `t` costs each
/// stage `s` one compute op of duration `d_s(t)` per group plus blocking
/// collectives `comm_s(t)` and the P2P token send `send_s(t)`. Two
/// independent arguments bound how fast token completions can follow one
/// another in steady state:
///
/// - **traversal**: a group's token must cross every stage after its
///   previous token left the last one, so consecutive completions are at
///   least `chain(t) = Σ_s (d_s(t) + comm_s(t) + send_s(t))` apart;
/// - **throughput**: stage `s` serializes `m` compute ops per token on
///   its stream, so the steady period is at least `m · d_s(t)`.
///
/// The analytic period `P(t) = max(chain(t), max_s m·d_s(t))` is exact
/// for the engine's dense FIFO schedules: the measured inter-token gap
/// equals `P(t)` when durations are token-independent and lands in
/// `[P(t-1), P(t) + p·growth(t)]` when the KV read stretches decode
/// steps (the compute-bound regime lags the growth by one token, the
/// chain-bound regime leads it by up to one traversal). A gap below
/// `P(t-1)` is impossible for any legal schedule of the trace — error;
/// a gap above the upper edge means the scheduler left steady-state
/// throughput on the table — warning.
///
/// The rule quietly skips traces outside the closed form's domain:
/// decodes shorter than [`MIN_STEADY_DECODE`], groups with non-uniform
/// durations, or tokens with missing ops (those are flagged by the
/// structural rules instead).
fn check_steady_period(
    trace: &Trace,
    sched: &Schedule,
    cfg: &PipelineConfig,
    out: &mut VerifyReport,
) {
    let m = cfg.microbatches;
    let p = cfg.stages;
    if m == 0 || p == 0 {
        return;
    }
    // Per-(stage, token, group) durations: [compute, collectives, send].
    let mut per: HashMap<(usize, usize, usize), [f64; 3]> = HashMap::new();
    let mut decode_len = 0usize;
    for op in trace.ops() {
        if op.phase != Phase::Decode {
            continue;
        }
        let (stage, mb, slot) = match op.name {
            OpName::StagePass {
                stage,
                dir: PassDir::Dec,
                mb,
            } => (stage, mb, 0),
            OpName::StagePassColl {
                stage,
                dir: PassDir::Dec,
                mb,
                ..
            } => (stage, mb, 1),
            OpName::StageSendTok { stage, mb } => (stage, mb, 2),
            _ => continue,
        };
        let (s, t, g) = (stage as usize, mb as usize / m, mb as usize % m);
        if s >= p {
            return; // stage out of range: the structural rules flag it
        }
        decode_len = decode_len.max(t + 1);
        per.entry((s, t, g)).or_default()[slot] += op.duration.as_secs();
    }
    if decode_len < MIN_STEADY_DECODE {
        return;
    }
    // One duration triple per (stage, token), uniform across groups.
    let mut dur = vec![[0.0f64; 3]; p * decode_len];
    for s in 0..p {
        for t in 0..decode_len {
            let Some(base) = per.get(&(s, t, 0)) else {
                return;
            };
            for g in 1..m {
                match per.get(&(s, t, g)) {
                    Some(v) if durations_match(v, base) => {}
                    _ => return,
                }
            }
            dur[s * decode_len + t] = *base;
        }
    }
    let mut completion = vec![0.0f64; decode_len];
    for (i, op) in trace.ops().iter().enumerate() {
        let mb = match op.name {
            OpName::StagePass {
                dir: PassDir::Dec,
                mb,
                ..
            } if op.phase == Phase::Decode => mb,
            OpName::StagePassColl {
                dir: PassDir::Dec,
                mb,
                ..
            } if op.phase == Phase::Decode => mb,
            OpName::StageSendTok { mb, .. } => mb,
            _ => continue,
        };
        let t = mb as usize / m;
        let f = sched.windows[i].finish.as_secs();
        if f > completion[t] {
            completion[t] = f;
        }
    }
    let period = |t: usize| {
        let mut chain = 0.0f64;
        let mut throughput = 0.0f64;
        for s in 0..p {
            let [d, comm, send] = dur[s * decode_len + t];
            chain += d + comm + send;
            throughput = throughput.max(m as f64 * d);
        }
        chain.max(throughput)
    };
    // Steady window: the last quarter of the decode run (at least two
    // tokens), past the prefill-drain and fill transients.
    let lo = (decode_len - (decode_len / 4).max(2)).max(1);
    for t in lo..decode_len {
        let measured = completion[t] - completion[t - 1];
        let floor = period(t - 1);
        let ceiling = period(t);
        let growth: f64 = (0..p)
            .map(|s| (dur[s * decode_len + t][0] - dur[s * decode_len + t - 1][0]).max(0.0))
            .sum();
        let slack = growth * p as f64;
        let tol = 1e-9 * ceiling.max(1e-30);
        if measured + tol < floor {
            out.push(Diagnostic::error(
                RuleId::SteadyPeriod,
                Location::Global,
                format!(
                    "decode token {t} completes {measured:.6e}s after token {}, below the \
                     analytic steady period {floor:.6e}s — faster than the stage costs allow",
                    t - 1
                ),
            ));
        } else if measured > ceiling + slack + tol {
            out.push(Diagnostic::warn(
                RuleId::SteadyPeriod,
                Location::Global,
                format!(
                    "decode token {t} completes {measured:.6e}s after token {}, above the \
                     analytic steady period {ceiling:.6e}s (+ {slack:.1e}s KV-growth slack) — \
                     steady-state throughput left on the table",
                    t - 1
                ),
            ));
        }
    }
}

/// GPipe's fill-drain bubble cannot beat the analytic floor
/// `(p - 1) / (m + p - 1)`; a measured bubble below it means the schedule
/// overlapped work that the dependency structure forbids.
fn check_bubble_floor(
    trace: &Trace,
    sched: &Schedule,
    cfg: &PipelineConfig,
    out: &mut VerifyReport,
) {
    if cfg.schedule != PipelineSchedule::GPipe {
        return;
    }
    let ops = trace.ops();
    if ops.iter().any(|o| o.phase == Phase::Decode) {
        return; // serve traces have their own decode-stream shape
    }
    // Busy time per stage-compute stream and the span of the fwd/bwd
    // region, both excluding the update phase (the optimizer tail is not
    // part of the fill-drain argument).
    let mut busy: HashMap<u16, f64> = HashMap::new();
    let mut span = 0.0f64;
    for (i, op) in ops.iter().enumerate() {
        if op.phase == Phase::Update {
            continue;
        }
        span = span.max(sched.windows[i].finish.as_secs());
        if let StreamId::StageCompute(s) = op.stream {
            *busy.entry(s).or_default() += op.duration.as_secs();
        }
    }
    if busy.len() != cfg.stages || span <= 0.0 {
        return; // stage count mismatch is flagged elsewhere
    }
    let mean_busy = busy.values().sum::<f64>() / busy.len() as f64;
    let bubble = (1.0 - mean_busy / span).max(0.0);
    let floor = cfg.ideal_bubble_fraction();
    if bubble + 1e-9 < floor {
        out.push(Diagnostic::error(
            RuleId::BubbleFloor,
            Location::Global,
            format!(
                "measured GPipe bubble {bubble:.6} is below the analytic floor {floor:.6} \
                 for p={} m={}",
                cfg.stages, cfg.microbatches
            ),
        ));
    }
}
