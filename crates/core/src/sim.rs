//! Two-stream overlap simulator: executes a [`Trace`] with in-order streams
//! and data-dependency stalls, assuming kernels launch as soon as their
//! dependencies resolve (Section IV-C: "Computation-Communication
//! Overlap").
//!
//! Per-stream availability is tracked in a dense slot table
//! ([`StreamTable`], indexed by [`StreamId::slot`]) rather than an ordered
//! map: streams are a tiny enum times a stage index, so the flat engine
//! touches three slots and a `p`-stage pipeline `3 + 3p`. The scheduler
//! also supports writing into caller-owned buffers
//! ([`schedule_into`] / [`EngineScratch`]) so the design-space-exploration
//! hot path reuses one allocation set across candidates.

use madmax_hw::units::Seconds;

use crate::trace::{StreamId, Trace};

/// Start/finish times of one op after scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpWindow {
    /// Time the op begins executing.
    pub start: Seconds,
    /// Time the op completes.
    pub finish: Seconds,
}

/// The scheduled timeline of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// Per-op windows, parallel to `trace.ops()`.
    pub windows: Vec<OpWindow>,
    /// Completion time of the last op (the overlapped iteration time).
    pub makespan: Seconds,
}

/// Dense per-stream availability table, indexed by [`StreamId::slot`].
/// Missing slots read as `t = 0`; the table grows on first write to a
/// stage's slot triple and keeps its capacity across `StreamTable::reset`
/// calls.
#[derive(Debug, Clone, Default)]
pub struct StreamTable {
    avail: Vec<Seconds>,
}

impl StreamTable {
    /// Time at which `stream` is free to start its next op.
    #[inline]
    pub(crate) fn available(&self, stream: StreamId) -> Seconds {
        self.avail
            .get(stream.slot())
            .copied()
            .unwrap_or(Seconds::ZERO)
    }

    /// Marks `stream` busy until `t`.
    #[inline]
    pub(crate) fn occupy_until(&mut self, stream: StreamId, t: Seconds) {
        let slot = stream.slot();
        if slot >= self.avail.len() {
            self.avail.resize(slot + 1, Seconds::ZERO);
        }
        self.avail[slot] = t;
    }

    /// Clears every slot (keeping capacity) for the next trace.
    pub(crate) fn reset(&mut self) {
        self.avail.clear();
    }
}

/// Executes `trace` with list scheduling: each stream runs its ops in issue
/// order, and an op starts at `max(stream available, deps finished)`.
///
/// The trace's issue order is a topological order (enforced by
/// [`Trace::push`]), so one forward sweep suffices and the result is
/// deterministic.
pub fn schedule(trace: &Trace) -> Schedule {
    let mut sched = Schedule::default();
    let mut streams = StreamTable::default();
    schedule_into(trace, &mut sched, &mut streams);
    sched
}

/// [`schedule`], writing into caller-owned buffers: `sched` and `streams`
/// are cleared and refilled, retaining their allocations so repeated
/// evaluation recycles one buffer set.
pub fn schedule_into(trace: &Trace, sched: &mut Schedule, streams: &mut StreamTable) {
    sched.windows.clear();
    sched.windows.reserve(trace.len());
    streams.reset();
    let mut makespan = Seconds::ZERO;

    for op in trace.ops() {
        let avail = streams.available(op.stream);
        let deps_done = op
            .deps
            .iter()
            .map(|d| sched.windows[d.0].finish)
            .fold(Seconds::ZERO, Seconds::max);
        let start = avail.max(deps_done);
        let finish = start + op.duration;
        streams.occupy_until(op.stream, finish);
        makespan = makespan.max(finish);
        sched.windows.push(OpWindow { start, finish });
    }
    sched.makespan = makespan;
}

/// Debug-build cross-check of a `(trace, schedule)` pair: window count,
/// non-negative durations, window/duration agreement, dependency
/// causality, in-order per-stream exclusivity, and makespan consistency —
/// one O(ops) pass with no allocation beyond a stream-slot table.
///
/// This is the engines' `debug_assertions` contract: the evaluator both
/// engines share ([`crate::evaluate_priced`]) and [`crate::prefill_ttft`]
/// run it after every fresh assembly (memo hits are exempt — their schedule was checked when it
/// was first produced), so a scheduler or builder regression panics in
/// debug test runs instead of silently skewing reports. Release builds never pay for it. The full
/// rule set — pipeline structure, bubble floors, critical-path analysis,
/// structured diagnostics instead of panics — lives in `madmax-verify`.
///
/// The per-stream check exploits the scheduler's in-order guarantee
/// (each stream runs its ops in issue order), so it only compares
/// consecutive windows per slot.
pub(crate) fn debug_check_schedule(trace: &Trace, sched: &Schedule) {
    assert_eq!(
        sched.windows.len(),
        trace.len(),
        "schedule has {} windows for {} trace ops",
        sched.windows.len(),
        trace.len()
    );
    let tol = 1e-9 * sched.makespan.as_secs().abs().max(1.0);
    let mut last_finish: Vec<f64> = Vec::new();
    let mut max_finish = 0.0f64;
    for (i, (op, w)) in trace.ops().iter().zip(&sched.windows).enumerate() {
        let (start, finish) = (w.start.as_secs(), w.finish.as_secs());
        assert!(
            op.duration.as_secs() >= 0.0,
            "op {i} ({}) has negative duration {}",
            op.name,
            op.duration
        );
        assert!(
            ((finish - start) - op.duration.as_secs()).abs() <= tol,
            "op {i} ({}) occupies [{start}, {finish}] but lasts {}",
            op.name,
            op.duration
        );
        for d in op.deps.as_slice() {
            assert!(d.0 < i, "op {i} ({}) depends on later op {}", op.name, d.0);
            let dep_finish = sched.windows[d.0].finish.as_secs();
            assert!(
                start + tol >= dep_finish,
                "op {i} ({}) starts at {start} before dependency {} finishes at {dep_finish}",
                op.name,
                d.0
            );
        }
        let slot = op.stream.slot();
        if slot >= last_finish.len() {
            last_finish.resize(slot + 1, 0.0);
        }
        assert!(
            start + tol >= last_finish[slot],
            "op {i} ({}) starts at {start} while {:?} is busy until {}",
            op.name,
            op.stream,
            last_finish[slot]
        );
        last_finish[slot] = finish;
        max_finish = max_finish.max(finish);
    }
    assert!(
        (sched.makespan.as_secs() - max_finish).abs() <= tol,
        "makespan {} does not match the last window finish {max_finish}",
        sched.makespan
    );
}

/// Reusable evaluation buffers: one trace arena, one schedule, and one
/// stream-slot table. A design-space-exploration worker thread keeps one
/// `EngineScratch` and evaluates every candidate through it, so the
/// per-candidate cost is the simulation itself — not allocator traffic.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Trace arena, cleared (capacity retained) per candidate.
    pub trace: Trace,
    /// Schedule buffer, cleared per candidate.
    pub sched: Schedule,
    /// Stream availability slots, cleared per candidate.
    pub streams: StreamTable,
    /// Report-construction interval buffers, cleared per candidate.
    pub report: crate::metrics::ReportScratch,
    /// Closed-form serve evaluation buffers (see [`crate::steady`]).
    pub steady: crate::steady::SteadyScratch,
    /// The [`crate::metrics::DecodeTail`] of the last run evaluated
    /// through this scratch: set by both engines on every successful run,
    /// `None` unless it was a serve run of at least three decode tokens.
    pub decode_tail: Option<crate::metrics::DecodeTail>,
}

impl EngineScratch {
    /// A fresh buffer set.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Merges a non-decreasing-start interval list into a sorted, disjoint
/// union written into a caller-owned buffer (cleared first, capacity
/// retained). Inputs out of order are not detected; callers pass
/// per-stream busy intervals, which are in issue order.
pub(crate) fn merged_into(sorted: &[(f64, f64)], out: &mut Vec<(f64, f64)>) {
    out.clear();
    for &(s, e) in sorted {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpId, OpKind, Phase, TraceOp};
    use madmax_model::LayerClass;

    fn op(name: &str, stream: StreamId, ms: f64, deps: Vec<OpId>) -> TraceOp {
        TraceOp {
            name: name.to_owned().into(),
            stream,
            kind: OpKind::Gemm {
                class: LayerClass::Dense,
            },
            phase: Phase::Forward,
            duration: Seconds::from_ms(ms),
            deps: deps.into(),
        }
    }

    #[test]
    fn independent_streams_overlap() {
        let mut t = Trace::new();
        t.push(op("c", StreamId::Compute, 10.0, vec![]));
        t.push(op("k", StreamId::Comm, 10.0, vec![]));
        let s = schedule(&t);
        assert!((s.makespan.as_ms() - 10.0).abs() < 1e-9, "full overlap");
        assert!((t.serialized_time().as_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_stall() {
        let mut t = Trace::new();
        let a = t.push(op("a", StreamId::Compute, 10.0, vec![]));
        t.push(op("b", StreamId::Comm, 5.0, vec![a]));
        let s = schedule(&t);
        assert!((s.windows[1].start.as_ms() - 10.0).abs() < 1e-9);
        assert!((s.makespan.as_ms() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn streams_are_in_order() {
        let mut t = Trace::new();
        let a = t.push(op("blocker", StreamId::Compute, 10.0, vec![]));
        t.push(op("k1", StreamId::Comm, 5.0, vec![a])); // waits for a
        t.push(op("k2", StreamId::Comm, 5.0, vec![])); // no deps, but queued after k1
        let s = schedule(&t);
        assert!(
            (s.windows[2].start.as_ms() - 15.0).abs() < 1e-9,
            "in-order stream"
        );
        assert!((s.makespan.as_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn diamond_dependencies() {
        let mut t = Trace::new();
        let a = t.push(op("a", StreamId::Compute, 2.0, vec![]));
        let b = t.push(op("b", StreamId::Comm, 8.0, vec![a]));
        let c = t.push(op("c", StreamId::Compute, 3.0, vec![a]));
        t.push(op("d", StreamId::Compute, 1.0, vec![b, c]));
        let s = schedule(&t);
        // d waits for the slower branch (b finishes at 10).
        assert!((s.windows[3].start.as_ms() - 10.0).abs() < 1e-9);
        assert!((s.makespan.as_ms() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_schedules() {
        let t = Trace::new();
        let s = schedule(&t);
        assert_eq!(s.makespan, Seconds::ZERO);
        assert!(s.windows.is_empty());
    }
}
