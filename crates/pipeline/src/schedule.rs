//! Pipeline schedule construction: expands per-stage costs into a
//! multi-stream [`Trace`] for the GPipe (fill-drain) and 1F1B
//! (one-forward-one-backward) schedules.
//!
//! Each stage contributes two streams — [`StreamId::StageCompute`] and
//! [`StreamId::StageComm`] — representing one device of that stage's
//! group. Cross-stage data flow is explicit: microbatch `j`'s forward on
//! stage `s` depends on stage `s-1`'s P2P activation send of `j`; its
//! backward depends on stage `s+1`'s gradient send. The per-stage *order*
//! of forwards and backwards is exactly the schedule's prescription, and
//! the in-order stream semantics of [`madmax_core::schedule`] turn those
//! orders plus the dependencies into start times — fill/drain bubbles
//! emerge rather than being closed-form assumptions.

use std::collections::VecDeque;

use madmax_hw::units::Seconds;
use madmax_parallel::{CollectiveKind, PipelineConfig, PipelineSchedule};

use madmax_core::{
    affine_series_units, decode_compute_duration, grid_total_seconds, grid_units, quantize, Deps,
    OpId, OpKind, OpName, PassDir, Phase, ServeDims, StreamId, Trace, TraceOp,
};

use crate::cost::StageCosts;

/// One scheduled event in a stage's local order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Forward of microbatch `j`.
    F(usize),
    /// Backward of microbatch `j`.
    B(usize),
}

/// The per-stage order of microbatch work prescribed by a schedule.
fn local_order(schedule: PipelineSchedule, s: usize, p: usize, m: usize, train: bool) -> Vec<Ev> {
    if !train {
        return (0..m).map(Ev::F).collect();
    }
    match schedule {
        PipelineSchedule::GPipe => {
            // Fill-drain: all forwards, then backwards in reverse (LIFO
            // activation stack).
            (0..m).map(Ev::F).chain((0..m).rev().map(Ev::B)).collect()
        }
        PipelineSchedule::OneFOneB => {
            // Warm-up of min(m, p - s) forwards, then strict 1B1F
            // alternation, draining backwards once forwards are exhausted.
            let warm = m.min(p - s);
            let mut order: Vec<Ev> = (0..warm).map(Ev::F).collect();
            let mut next_f = warm;
            for j in 0..m {
                order.push(Ev::B(j));
                if next_f < m {
                    order.push(Ev::F(next_f));
                    next_f += 1;
                }
            }
            order
        }
    }
}

fn comm_ops(
    trace: &mut Trace,
    stage: u16,
    phase: Phase,
    dir: PassDir,
    mb: u32,
    comm: &[(CollectiveKind, Seconds)],
    mut dep: OpId,
) -> OpId {
    for &(kind, duration) in comm {
        dep = trace.push(TraceOp {
            name: OpName::StagePassColl {
                stage,
                dir,
                mb,
                kind,
            },
            stream: StreamId::StageComm(stage),
            kind: OpKind::Collective { kind },
            phase,
            duration,
            deps: Deps::one(dep),
        });
    }
    dep
}

/// Builds the multi-stream trace for `costs` under `cfg`.
///
/// With `train = false` only the forward waves are emitted (inference
/// pipelines have no backward or optimizer work).
///
/// # Panics
///
/// Panics if `costs` is empty, `cfg.microbatches` is zero, or the schedule
/// deadlocks (which would indicate a bug in the order generators).
pub fn build_pipeline_trace(costs: &[StageCosts], cfg: &PipelineConfig, train: bool) -> Trace {
    let mut trace = Trace::new();
    build_pipeline_trace_into(costs, cfg, train, &mut trace);
    trace
}

/// [`build_pipeline_trace`], writing into a caller-owned trace arena
/// (cleared first, capacity retained) so repeated evaluation recycles one
/// allocation.
///
/// # Panics
///
/// Same conditions as [`build_pipeline_trace`].
pub fn build_pipeline_trace_into(
    costs: &[StageCosts],
    cfg: &PipelineConfig,
    train: bool,
    trace: &mut Trace,
) {
    let _ = build_main_into(costs, cfg, train, trace);
}

/// A sound lower bound on the makespan of the trace
/// [`build_pipeline_trace_into`] builds for `(costs, cfg, train)`, or,
/// with `decode` set to the decode-phase stage costs and the serve
/// dimensions, of the trace [`build_serve_trace_into`] builds for the
/// same prefill.
///
/// Without decode steps it is the largest per-stage stream bound. Each
/// stream runs one op at a time in issue order, so:
///
/// - the comm stream (parameter gathers, blocking collectives, activation
///   sends) and the gradient-comm stream (gradient sends, weight-gradient
///   collectives) finish no earlier than their summed op durations;
/// - the compute stream finishes no earlier than `fill + busy + tail`,
///   which charges the pipeline's fill and drain bubble. `F(0)` is the
///   first op on every stage's compute stream under both schedules, and
///   it waits for the stage's parameter prefetch and for microbatch 0's
///   forward chain through the earlier stages (each one's prefetch,
///   forward compute, blocking collectives and activation send): the
///   fill. The stream then runs its microbatch passes back to back: the
///   busy time, `m·(f + b)` for the stage's forward and backward compute
///   `f` and `b` (`m·f` forward-only). After its last pass a
///   dependency chain remains: in training, the last backward's gradient
///   chain down to stage 0 (collectives, gradient sends and the earlier
///   stages' backward compute) or the stage's weight-gradient collectives
///   and optimizer, whichever ends later; forward-only, the last
///   forward's chain up to the last stage. That is the tail.
///
/// For uniform stages with free transfers the bound is the scheduled
/// makespan, `(m + p − 1)·(f + b)`. Every sum adds in the order the
/// scheduler's finish times accumulate (a stream's issue order, a chain's
/// hop order), and `f64` rounding is monotone, so each term is dominated
/// by the scheduled time it stands for bit for bit. Like the builders,
/// the bound assumes at least one microbatch.
///
/// Serve traces with decode steps live on the duration grid
/// (`madmax_core::steady`), where sums are exact in any order: their
/// busiest stream total is computed in grid units instead, the
/// KV-stretched decode compute as an arithmetic series over the steps,
/// with no fill or drain term, and there is no bound (`None`) when a
/// duration or a stream total leaves the grid's exact range.
pub fn busy_lower_bound(
    costs: &[StageCosts],
    cfg: &PipelineConfig,
    train: bool,
    decode: Option<(&[StageCosts], ServeDims)>,
) -> Option<Seconds> {
    if let Some((decode, dims)) = decode {
        return serve_busy_in_grid_units(costs, decode, cfg, dims);
    }
    let p = costs.len();
    let mut busiest = Seconds::ZERO;
    // When microbatch 0's activations reach stage `s`: the end of its
    // forward chain through the earlier stages.
    let mut fill = Seconds::ZERO;
    for (s, c) in costs.iter().enumerate() {
        let param = chain(Seconds::ZERO, &c.param_comm);
        let (mut comm, mut grad) = (param, Seconds::ZERO);
        // `F(0)`'s earliest start, then the compute stream's finish.
        let first = fill.max(param);
        let mut compute = first;
        for ev in local_order(cfg.schedule, s, p, cfg.microbatches, train) {
            match ev {
                Ev::F(_) => {
                    compute += c.fwd_compute;
                    comm = chain(comm, &c.fwd_comm);
                    if s + 1 < p {
                        comm += c.send_fwd;
                    }
                }
                Ev::B(_) => {
                    compute += c.bwd_compute;
                    comm = chain(comm, &c.bwd_comm);
                    if s > 0 {
                        grad += c.send_bwd;
                    }
                }
            }
        }
        compute = if train {
            grad = chain(grad, &c.grad_comm);
            let update = chain(compute, &c.grad_comm) + c.optimizer;
            update.max(backward_drain(costs, s, compute))
        } else {
            forward_drain(costs, s, compute)
        };
        busiest = busiest.max(compute).max(comm).max(grad);
        fill = chain(first + c.fwd_compute, &c.fwd_comm);
        if s + 1 < p {
            fill += c.send_fwd;
        }
    }
    Some(busiest)
}

/// `start` followed by `comm`'s collectives back to back, summed in issue
/// order.
fn chain(start: Seconds, comm: &[(CollectiveKind, Seconds)]) -> Seconds {
    comm.iter().fold(start, |t, &(_, d)| t + d)
}

/// The end of the gradient chain that follows a backward on stage `s`
/// finishing at `t`: its blocking collectives and gradient send, then each
/// earlier stage's backward compute, collectives and send, down to
/// stage 0.
fn backward_drain(costs: &[StageCosts], s: usize, mut t: Seconds) -> Seconds {
    for (k, c) in costs[..=s].iter().enumerate().rev() {
        if k < s {
            t += c.bwd_compute;
        }
        t = chain(t, &c.bwd_comm);
        if k > 0 {
            t += c.send_bwd;
        }
    }
    t
}

/// The end of the activation chain that follows a forward on stage `s`
/// finishing at `t`: its blocking collectives and activation send, then
/// each later stage's forward compute, collectives and send, up to the
/// last stage.
fn forward_drain(costs: &[StageCosts], s: usize, mut t: Seconds) -> Seconds {
    let p = costs.len();
    for (k, c) in costs.iter().enumerate().skip(s) {
        if k > s {
            t += c.fwd_compute;
        }
        t = chain(t, &c.fwd_comm);
        if k + 1 < p {
            t += c.send_fwd;
        }
    }
    t
}

/// [`busy_lower_bound`] of a serve trace with decode steps, in exact grid
/// units: per stage, `m` prefill waves and `m * decode_len` decode units
/// on the compute and comm streams (the gradient-comm streams stay
/// empty). `None` when a duration or a stream total leaves the grid's
/// exact range.
fn serve_busy_in_grid_units(
    prefill: &[StageCosts],
    decode: &[StageCosts],
    cfg: &PipelineConfig,
    dims: ServeDims,
) -> Option<Seconds> {
    let units = |d: Seconds| grid_units(quantize(d));
    let p = prefill.len();
    let waves = cfg.microbatches as i128;
    let steps = dims.decode_len as i128;
    let mut busiest = 0i128;
    for (s, (pre, dec)) in prefill.iter().zip(decode).enumerate() {
        // One wave's comm-stream ops: its blocking collectives, then the
        // activation send to the next stage.
        let wave_comm = |c: &StageCosts| -> Option<i128> {
            let mut sum = if s + 1 < p { units(c.send_fwd)? } else { 0 };
            for &(_, d) in &c.fwd_comm {
                sum += units(d)?;
            }
            Some(i128::from(sum))
        };
        let mut comm = waves * (wave_comm(pre)? + steps * wave_comm(dec)?);
        for &(_, d) in &pre.param_comm {
            comm += i128::from(units(d)?);
        }
        // Step `t` computes for `first + per_token * t` units
        // (`decode_compute_duration`'s exact series), once per wave.
        let first = units(decode_compute_duration(
            dec.fwd_compute,
            dec.kv_read_per_token,
            dims.prompt_len as f64,
            0,
        ))?;
        let per_token = units(dec.kv_read_per_token)?;
        let series = affine_series_units(first, per_token, 0, dims.decode_len as i64)?;
        let compute = waves * i128::from(units(pre.fwd_compute)? + series);
        busiest = busiest.max(compute).max(comm);
    }
    grid_total_seconds(busiest)
}

/// The shared schedule expansion behind [`build_pipeline_trace_into`] and
/// the serve builder: emits the (training or forward-only) schedule and
/// returns each stage's per-microbatch forward-completion ops, which the
/// serve builder chains decode steps onto.
fn build_main_into(
    costs: &[StageCosts],
    cfg: &PipelineConfig,
    train: bool,
    trace: &mut Trace,
) -> Vec<Vec<Option<OpId>>> {
    let p = costs.len();
    let m = cfg.microbatches;
    assert!(p > 0, "at least one stage");
    assert!(m > 0, "at least one microbatch");

    trace.clear();

    // Once-per-iteration prefetchable parameter gathers, issued at t=0 on
    // each stage's comm stream.
    let mut prefetch: Vec<Option<OpId>> = vec![None; p];
    for (s, c) in costs.iter().enumerate() {
        let mut dep: Option<OpId> = None;
        for &(kind, duration) in &c.param_comm {
            let id = trace.push(TraceOp {
                name: OpName::StageParam {
                    stage: s as u16,
                    kind,
                },
                stream: StreamId::StageComm(s as u16),
                kind: OpKind::Collective { kind },
                phase: Phase::Forward,
                duration,
                deps: dep.into_iter().collect(),
            });
            dep = Some(id);
        }
        prefetch[s] = dep;
    }

    let mut orders: Vec<VecDeque<Ev>> = (0..p)
        .map(|s| local_order(cfg.schedule, s, p, m, train).into())
        .collect();

    // Cross-stage handshake ids.
    let mut fwd_send: Vec<Vec<Option<OpId>>> = vec![vec![None; m]; p];
    let mut bwd_send: Vec<Vec<Option<OpId>>> = vec![vec![None; m]; p];
    let mut fwd_done: Vec<Vec<Option<OpId>>> = vec![vec![None; m]; p];
    let mut last_bwd: Vec<Option<OpId>> = vec![None; p];

    loop {
        let mut progressed = false;
        let mut remaining = false;
        for s in 0..p {
            while let Some(&ev) = orders[s].front() {
                let ready = match ev {
                    Ev::F(j) => s == 0 || fwd_send[s - 1][j].is_some(),
                    Ev::B(j) => s + 1 == p || bwd_send[s + 1][j].is_some(),
                };
                if !ready {
                    break;
                }
                orders[s].pop_front();
                progressed = true;
                let c = &costs[s];
                let stage = s as u16;
                match ev {
                    Ev::F(j) => {
                        let mut deps: Deps = prefetch[s].into_iter().collect();
                        if s > 0 {
                            deps.push(fwd_send[s - 1][j].expect("checked ready"));
                        }
                        let kind = if c.lookup_dominated {
                            OpKind::Lookup
                        } else {
                            OpKind::Gemm {
                                class: c.dominant_class,
                            }
                        };
                        let compute = trace.push(TraceOp {
                            name: OpName::StagePass {
                                stage,
                                dir: PassDir::Fwd,
                                mb: j as u32,
                            },
                            stream: StreamId::StageCompute(stage),
                            kind,
                            phase: Phase::Forward,
                            duration: c.fwd_compute,
                            deps,
                        });
                        let out = comm_ops(
                            trace,
                            stage,
                            Phase::Forward,
                            PassDir::Fwd,
                            j as u32,
                            &c.fwd_comm,
                            compute,
                        );
                        fwd_done[s][j] = Some(out);
                        if s + 1 < p {
                            let send = trace.push(TraceOp {
                                name: OpName::StageSendAct {
                                    stage,
                                    mb: j as u32,
                                },
                                stream: StreamId::StageComm(stage),
                                kind: OpKind::Collective {
                                    kind: CollectiveKind::PointToPoint,
                                },
                                phase: Phase::Forward,
                                duration: c.send_fwd,
                                deps: Deps::one(out),
                            });
                            fwd_send[s][j] = Some(send);
                        }
                    }
                    Ev::B(j) => {
                        let mut deps =
                            Deps::one(fwd_done[s][j].expect("forward precedes backward"));
                        if s + 1 < p {
                            deps.push(bwd_send[s + 1][j].expect("checked ready"));
                        }
                        let kind = if c.lookup_dominated {
                            OpKind::Lookup
                        } else {
                            OpKind::Gemm {
                                class: c.dominant_class,
                            }
                        };
                        let compute = trace.push(TraceOp {
                            name: OpName::StagePass {
                                stage,
                                dir: PassDir::Bwd,
                                mb: j as u32,
                            },
                            stream: StreamId::StageCompute(stage),
                            kind,
                            phase: Phase::Backward,
                            duration: c.bwd_compute,
                            deps,
                        });
                        let out = comm_ops(
                            trace,
                            stage,
                            Phase::Backward,
                            PassDir::Bwd,
                            j as u32,
                            &c.bwd_comm,
                            compute,
                        );
                        last_bwd[s] = Some(compute);
                        if s > 0 {
                            let send = trace.push(TraceOp {
                                name: OpName::StageSendGrad {
                                    stage,
                                    mb: j as u32,
                                },
                                stream: StreamId::StageGradComm(stage),
                                kind: OpKind::Collective {
                                    kind: CollectiveKind::PointToPoint,
                                },
                                phase: Phase::Backward,
                                duration: c.send_bwd,
                                deps: Deps::one(out),
                            });
                            bwd_send[s][j] = Some(send);
                        }
                    }
                }
            }
            if !orders[s].is_empty() {
                remaining = true;
            }
        }
        if !remaining {
            break;
        }
        assert!(progressed, "pipeline schedule deadlocked");
    }

    // Drain weight-gradient collectives and run the optimizer per stage.
    if train {
        for (s, c) in costs.iter().enumerate() {
            let stage = s as u16;
            let Some(tail) = last_bwd[s] else { continue };
            let mut dep = tail;
            for &(kind, duration) in &c.grad_comm {
                dep = trace.push(TraceOp {
                    name: OpName::StageGrad { stage, kind },
                    stream: StreamId::StageGradComm(stage),
                    kind: OpKind::Collective { kind },
                    phase: Phase::Backward,
                    duration,
                    deps: Deps::one(dep),
                });
            }
            if !c.optimizer.is_zero() {
                trace.push(TraceOp {
                    name: OpName::StageOptimizer { stage },
                    stream: StreamId::StageCompute(stage),
                    kind: OpKind::Optimizer,
                    phase: Phase::Update,
                    duration: c.optimizer,
                    deps: Deps::one(dep),
                });
            }
        }
    }

    fwd_done
}

/// Builds the serve-mode trace: the prompt's prefill as a forward-only
/// pipeline over `cfg.microbatches` microbatch groups, then `decode_len`
/// decode waves flowing through the same stages — **the decode step is
/// the microbatch unit**. The serving batch is split into the same `m`
/// groups; decode unit `(t, g)` (stage-trace microbatch index
/// `t * m + g`) is group `g`'s step-`t` token:
///
/// - on stage 0 it waits for the *same group's previous token* to leave
///   the last stage (autoregressive feedback; the token itself is a few
///   bytes, so the return hop is not priced),
/// - on later stages it waits for the previous stage's P2P activation
///   send of the same unit,
/// - its compute is the decode-phase stage cost stretched by the
///   KV-cache read at token position `kv_start + t`.
///
/// With `m` groups in flight the feedback round-trip hides behind the
/// other groups' work — the decode bubble shrinks as the decode batch
/// (groups in flight) grows, which is exactly what pipelining buys on
/// bandwidth-constrained fabrics.
///
/// # Panics
///
/// Panics if `prefill` and `decode` disagree on the stage count, or on
/// [`build_pipeline_trace`]'s conditions.
#[allow(clippy::too_many_arguments)] // engine-internal plumbing
pub fn build_serve_trace_into(
    prefill: &[StageCosts],
    decode: &[StageCosts],
    cfg: &PipelineConfig,
    decode_len: usize,
    kv_start: usize,
    trace: &mut Trace,
) {
    let p = prefill.len();
    assert_eq!(decode.len(), p, "prefill/decode stage counts differ");
    let m = cfg.microbatches;

    let fwd_done = build_main_into(prefill, cfg, false, trace);

    // The op that produced microbatch group g's latest token: initially
    // its prefill completing the last stage.
    let mut latest_token: Vec<Option<OpId>> = (0..m).map(|g| fwd_done[p - 1][g]).collect();

    for t in 0..decode_len {
        for (g, token) in latest_token.iter_mut().enumerate() {
            let unit = (t * m + g) as u32;
            let mut carry: Option<OpId> = None; // previous stage's send
            for (s, c) in decode.iter().enumerate() {
                let stage = s as u16;
                let mut deps = Deps::none();
                if s == 0 {
                    if let Some(prev) = *token {
                        deps.push(prev);
                    }
                } else if let Some(send) = carry {
                    deps.push(send);
                }
                let kind = if c.lookup_dominated {
                    OpKind::Lookup
                } else {
                    OpKind::Gemm {
                        class: c.dominant_class,
                    }
                };
                let compute = trace.push(TraceOp {
                    name: OpName::StagePass {
                        stage,
                        dir: PassDir::Dec,
                        mb: unit,
                    },
                    stream: StreamId::StageCompute(stage),
                    kind,
                    phase: Phase::Decode,
                    duration: decode_compute_duration(
                        c.fwd_compute,
                        c.kv_read_per_token,
                        kv_start as f64,
                        t as u32,
                    ),
                    deps,
                });
                let out = comm_ops(
                    trace,
                    stage,
                    Phase::Decode,
                    PassDir::Dec,
                    unit,
                    &c.fwd_comm,
                    compute,
                );
                if s + 1 < p {
                    let send = trace.push(TraceOp {
                        name: OpName::StageSendTok { stage, mb: unit },
                        stream: StreamId::StageComm(stage),
                        kind: OpKind::Collective {
                            kind: CollectiveKind::PointToPoint,
                        },
                        phase: Phase::Decode,
                        duration: c.send_fwd,
                        deps: Deps::one(out),
                    });
                    carry = Some(send);
                } else {
                    *token = Some(out);
                }
            }
        }
    }

    // Serve traces live on the duration grid (see `madmax_core::steady`):
    // quantizing every duration — prefill and decode alike — makes all
    // scheduled times exact, which is what lets the closed-form decode
    // evaluator reproduce the full simulation bit for bit.
    trace.map_durations_from(0, quantize);
}

/// Builds uniform synthetic stage costs — handy for schedule-shape tests
/// and the analytic-bubble validation.
pub fn uniform_costs(p: usize, fwd: Seconds, bwd: Seconds, send: Seconds) -> Vec<StageCosts> {
    (0..p)
        .map(|s| StageCosts {
            fwd_compute: fwd,
            bwd_compute: bwd,
            fwd_comm: Vec::new(),
            bwd_comm: Vec::new(),
            send_fwd: if s + 1 < p { send } else { Seconds::ZERO },
            send_bwd: if s > 0 { send } else { Seconds::ZERO },
            param_comm: Vec::new(),
            grad_comm: Vec::new(),
            optimizer: Seconds::ZERO,
            dominant_class: madmax_model::LayerClass::Dense,
            lookup_dominated: false,
            kv_read_per_token: Seconds::ZERO,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_core::schedule;

    fn run(p: usize, m: usize, sched: PipelineSchedule, tf: f64, tb: f64) -> f64 {
        let costs = uniform_costs(p, Seconds::new(tf), Seconds::new(tb), Seconds::ZERO);
        let cfg = PipelineConfig {
            stages: p,
            microbatches: m,
            schedule: sched,
        };
        let trace = build_pipeline_trace(&costs, &cfg, true);
        schedule(&trace).makespan.as_secs()
    }

    #[test]
    fn gpipe_uniform_makespan_matches_analytic() {
        // (m + p - 1) * (tf + tb) for uniform stages and free transfers.
        for (p, m) in [(2usize, 2usize), (4, 8), (8, 4), (8, 32), (3, 1)] {
            let got = run(p, m, PipelineSchedule::GPipe, 1.0, 2.0);
            let want = (m + p - 1) as f64 * 3.0;
            assert!((got - want).abs() < 1e-9, "p={p} m={m}: {got} vs {want}");
        }
    }

    #[test]
    fn one_f_one_b_matches_gpipe_for_uniform_stages() {
        for (p, m) in [(2usize, 4usize), (4, 4), (8, 16)] {
            let g = run(p, m, PipelineSchedule::GPipe, 1.0, 2.0);
            let o = run(p, m, PipelineSchedule::OneFOneB, 1.0, 2.0);
            assert!((g - o).abs() < 1e-9, "p={p} m={m}: gpipe {g} vs 1f1b {o}");
        }
    }

    #[test]
    fn single_stage_has_no_bubble() {
        let costs = uniform_costs(1, Seconds::new(1.0), Seconds::new(2.0), Seconds::ZERO);
        let cfg = PipelineConfig::gpipe(1, 4);
        let trace = build_pipeline_trace(&costs, &cfg, true);
        let s = schedule(&trace);
        assert!((s.makespan.as_secs() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn inference_emits_forward_only() {
        let costs = uniform_costs(4, Seconds::new(1.0), Seconds::new(2.0), Seconds::new(0.1));
        let cfg = PipelineConfig::one_f_one_b(4, 8);
        let trace = build_pipeline_trace(&costs, &cfg, false);
        assert!(trace.ops().iter().all(|o| o.phase == Phase::Forward));
        // Fill + steady state: (m + p - 1) forwards plus the 3 crossed
        // transfers on the critical path.
        let makespan = schedule(&trace).makespan.as_secs();
        assert!((makespan - (11.0 + 0.3)).abs() < 1e-9, "{makespan}");
    }

    #[test]
    fn bound_is_the_makespan_for_uniform_stages_and_free_transfers() {
        let (f, b) = (1.0, 2.0);
        let costs = |p| uniform_costs(p, Seconds::new(f), Seconds::new(b), Seconds::ZERO);
        for (p, m) in [
            (1usize, 1usize),
            (1, 4),
            (2, 1),
            (2, 8),
            (3, 5),
            (4, 4),
            (8, 16),
        ] {
            for sched in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
                let cfg = PipelineConfig {
                    stages: p,
                    microbatches: m,
                    schedule: sched,
                };
                for (train, per_mb) in [(true, f + b), (false, f)] {
                    let trace = build_pipeline_trace(&costs(p), &cfg, train);
                    let makespan = schedule(&trace).makespan;
                    let bound = busy_lower_bound(&costs(p), &cfg, train, None).unwrap();
                    let ctx = format!("p={p} m={m} {sched:?} train={train}");
                    assert_eq!(makespan.as_secs(), (m + p - 1) as f64 * per_mb, "{ctx}");
                    assert_eq!(bound, makespan, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn serve_decode_bubble_shrinks_with_more_groups_in_flight() {
        // 4 stages, free transfers, uniform decode cost: with one group in
        // flight every decode token costs a full round trip; with m >= p
        // the pipeline stays full and per-token cost approaches one stage
        // time.
        let p = 4;
        let decode_len = 8;
        let per_token_makespan = |m: usize| {
            let prefill = uniform_costs(p, Seconds::new(1.0), Seconds::ZERO, Seconds::ZERO);
            let decode = uniform_costs(p, Seconds::new(0.25), Seconds::ZERO, Seconds::ZERO);
            let cfg = PipelineConfig::gpipe(p, m);
            let mut trace = Trace::new();
            build_serve_trace_into(&prefill, &decode, &cfg, decode_len, 128, &mut trace);
            let s = schedule(&trace);
            // Measure the decode span only (prefill cost is m-dependent).
            let prefill_end = trace
                .ops()
                .iter()
                .zip(&s.windows)
                .filter(|(op, _)| op.phase == Phase::Forward)
                .map(|(_, w)| w.finish)
                .fold(Seconds::ZERO, Seconds::max);
            (s.makespan - prefill_end).as_secs() / (decode_len * m) as f64
        };
        let one = per_token_makespan(1);
        let four = per_token_makespan(4);
        let eight = per_token_makespan(8);
        assert!(four < one, "{four} vs {one}");
        assert!(eight <= four, "{eight} vs {four}");
        // With one group the round trip is fully exposed: p stage-times
        // per token.
        assert!((one - 1.0).abs() < 1e-9, "{one}");
    }

    #[test]
    fn serve_decode_is_forward_then_decode_phases_only() {
        let prefill = uniform_costs(3, Seconds::new(1.0), Seconds::ZERO, Seconds::new(0.1));
        let decode = uniform_costs(3, Seconds::new(0.2), Seconds::ZERO, Seconds::new(0.01));
        let cfg = PipelineConfig::gpipe(3, 2);
        let mut trace = Trace::new();
        build_serve_trace_into(&prefill, &decode, &cfg, 4, 64, &mut trace);
        assert!(trace
            .ops()
            .iter()
            .all(|o| matches!(o.phase, Phase::Forward | Phase::Decode)));
        // KV growth: a later decode wave is never cheaper than an earlier
        // one on the same stage.
        let decode_kv = uniform_costs(3, Seconds::new(0.2), Seconds::ZERO, Seconds::ZERO)
            .into_iter()
            .map(|mut c| {
                c.kv_read_per_token = Seconds::new(1e-3);
                c
            })
            .collect::<Vec<_>>();
        let mut t2 = Trace::new();
        build_serve_trace_into(&prefill, &decode_kv, &cfg, 4, 64, &mut t2);
        let wave_cost = |step: u32| -> Seconds {
            t2.ops()
                .iter()
                .filter(|o| {
                    matches!(o.name, OpName::StagePass { dir: PassDir::Dec, mb, .. } if mb / 2 == step)
                        && o.stream == StreamId::StageCompute(0)
                })
                .map(|o| o.duration)
                .sum()
        };
        assert!(wave_cost(3) > wave_cost(0));
    }

    #[test]
    fn serve_bound_is_the_busiest_stream_of_the_serve_trace() {
        let prefill = uniform_costs(3, Seconds::new(1.0), Seconds::ZERO, Seconds::new(0.1));
        let busiest = |decode: &[StageCosts], cfg: &PipelineConfig| {
            let mut trace = Trace::new();
            build_serve_trace_into(&prefill, decode, cfg, 40, 64, &mut trace);
            let mut sums = std::collections::HashMap::new();
            for op in trace.ops() {
                *sums.entry(op.stream).or_insert(Seconds::ZERO) += op.duration;
            }
            let busiest = sums.into_values().fold(Seconds::ZERO, Seconds::max);
            (busiest, schedule(&trace).makespan)
        };
        let dims = ServeDims {
            prompt_len: 64,
            decode_len: 40,
            decode_batch: 8,
        };
        for (send, kv) in [(0.01, 0.0), (0.5, 1e-3)] {
            let decode: Vec<StageCosts> =
                uniform_costs(3, Seconds::new(0.2), Seconds::ZERO, Seconds::new(send))
                    .into_iter()
                    .map(|c| StageCosts {
                        kv_read_per_token: Seconds::new(kv),
                        fwd_comm: vec![(CollectiveKind::AllReduce, Seconds::new(0.05))],
                        ..c
                    })
                    .collect();
            for cfg in [
                PipelineConfig::gpipe(3, 2),
                PipelineConfig::one_f_one_b(3, 4),
            ] {
                let bound = busy_lower_bound(&prefill, &cfg, false, Some((&decode, dims)))
                    .expect("in the grid's range");
                let (busiest, makespan) = busiest(&decode, &cfg);
                assert_eq!(bound, busiest, "send {send}, kv {kv}, {cfg:?}");
                assert!(bound <= makespan);
            }
        }
        // A stream total past the grid's exact range has no bound.
        let huge = uniform_costs(3, Seconds::new(1e4), Seconds::ZERO, Seconds::ZERO);
        let cfg = PipelineConfig::gpipe(3, 2);
        assert_eq!(
            busy_lower_bound(&prefill, &cfg, false, Some((&huge, dims))),
            None
        );
    }

    #[test]
    fn transfers_extend_the_critical_path() {
        let free = run(4, 8, PipelineSchedule::GPipe, 1.0, 2.0);
        let costs = uniform_costs(4, Seconds::new(1.0), Seconds::new(2.0), Seconds::new(0.5));
        let cfg = PipelineConfig::gpipe(4, 8);
        let taxed = schedule(&build_pipeline_trace(&costs, &cfg, true))
            .makespan
            .as_secs();
        assert!(taxed > free);
    }
}
