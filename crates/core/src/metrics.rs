//! Iteration-level performance metrics and breakdowns: overall throughput,
//! serialized and overlapped execution, exposed communication, and the
//! per-collective / per-layer-class splits used across Figs. 4, 7, and 20.

use std::collections::BTreeMap;

use serde::Serialize;

use madmax_hw::units::Seconds;
use madmax_model::{BatchUnit, LayerClass, ModelArch};
use madmax_parallel::{CollectiveKind, MemoryBreakdown};

use crate::sim::{merged_into, Schedule};
use crate::trace::{OpKind, Phase, StreamId, Trace};

/// Serve-mode metrics of one iteration: the latency split between the
/// prompt's prefill and the autoregressive decode stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServeStats {
    /// Prompt length (tokens per sequence).
    pub prompt_len: usize,
    /// Output tokens generated per sequence.
    pub decode_len: usize,
    /// Sequences decoded concurrently.
    pub decode_batch: usize,
    /// Time to first token: when the prefill of every in-flight sequence
    /// completes (the last non-decode op finishes).
    pub ttft: Seconds,
    /// Time per output token: the mean decode-step latency,
    /// `(iteration_time - ttft) / decode_len`.
    pub tpot: Seconds,
}

impl ServeStats {
    /// Output tokens produced per iteration (`decode_batch * decode_len`).
    pub fn output_tokens_per_iteration(&self) -> f64 {
        (self.decode_batch * self.decode_len) as f64
    }
}

/// Computes the serve metrics of a scheduled serve trace: TTFT is the
/// completion of the last non-decode op (prefill + once-per-iteration
/// parameter traffic), TPOT the mean decode-step time after it.
///
/// Both engines emit every decode op after every prefill op, so the
/// non-decode prefix is located with one binary search instead of
/// sweeping the (decode-dominated) trace.
pub(crate) fn serve_stats_from(
    trace: &Trace,
    schedule: &Schedule,
    prompt_len: usize,
    decode_len: usize,
    decode_batch: usize,
) -> ServeStats {
    let boundary = trace.ops().partition_point(|op| op.phase != Phase::Decode);
    debug_assert!(
        trace.ops()[boundary..]
            .iter()
            .all(|op| op.phase == Phase::Decode),
        "decode ops must form the trace suffix"
    );
    let ttft = schedule.windows[..boundary]
        .iter()
        .map(|w| w.finish)
        .fold(Seconds::ZERO, Seconds::max);
    let tpot = if decode_len == 0 {
        Seconds::ZERO
    } else {
        (schedule.makespan - ttft) / decode_len as f64
    };
    ServeStats {
        prompt_len,
        decode_len,
        decode_batch,
        ttft,
        tpot,
    }
}

/// The makespans after the last three decode tokens of an `L`-token
/// serve run, `[F(L−2), F(L−1), F(L)]`.
///
/// Both serve builders emit the decode ops as the trace suffix in `L`
/// equal per-token runs, each token depending only on earlier ones, so
/// the first `d` tokens of a run schedule exactly as a separate `d`-token
/// run: `F(d)` is that run's iteration time, bit for bit, and `F(L)` is
/// the run's own. Both engines leave the tail of every serve run of at
/// least three tokens in [`crate::EngineScratch::decode_tail`].
pub type DecodeTail = [Seconds; 3];

/// The [`DecodeTail`] of a scheduled serve trace of `decode_len` tokens:
/// the largest finish time before each of the last three token
/// boundaries. `None` below three tokens, or when the decode suffix does
/// not split into `decode_len` equal per-token runs.
pub(crate) fn decode_tail_from(
    trace: &Trace,
    schedule: &Schedule,
    decode_len: usize,
) -> Option<DecodeTail> {
    let boundary = trace.ops().partition_point(|op| op.phase != Phase::Decode);
    let decode_ops = trace.len() - boundary;
    if decode_len < 3 || !decode_ops.is_multiple_of(decode_len) {
        return None;
    }
    let at = |d: usize| boundary + d * (decode_ops / decode_len);
    let latest = |from: Seconds, windows: &[crate::sim::OpWindow]| {
        windows.iter().map(|w| w.finish).fold(from, Seconds::max)
    };
    let w = &schedule.windows;
    let f0 = latest(Seconds::ZERO, &w[..at(decode_len - 2)]);
    let f1 = latest(f0, &w[at(decode_len - 2)..at(decode_len - 1)]);
    let f2 = latest(f1, &w[at(decode_len - 1)..]);
    Some([f0, f1, f2])
}

/// Everything MAD-Max reports about one training/inference iteration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IterationReport {
    /// Overlapped (wall-clock) iteration time: the schedule makespan.
    pub iteration_time: Seconds,
    /// Serialized iteration time: the sum of every op's duration.
    pub serialized_time: Seconds,
    /// Total GEMM time on the compute stream.
    pub gemm_time: Seconds,
    /// Total embedding lookup/scatter time.
    pub lookup_time: Seconds,
    /// Optimizer-step time.
    pub optimizer_time: Seconds,
    /// Sum of all collective durations.
    pub comm_time: Seconds,
    /// Collective durations by primitive.
    pub comm_by_collective: BTreeMap<CollectiveKind, Seconds>,
    /// GEMM durations by layer class.
    pub gemm_by_class: BTreeMap<LayerClass, Seconds>,
    /// Wall-clock time when communication channels are busy but the
    /// compute stream is idle (the paper's *exposed communication*). For
    /// pipelined traces this is computed per stage device against that
    /// device's own compute stream and summed, matching `comm_time`'s
    /// all-device total.
    pub exposed_comm: Seconds,
    /// Per-collective exposure (each op's window minus compute-busy time;
    /// may sum to slightly more than `exposed_comm` when the two comm
    /// streams are simultaneously exposed).
    pub exposed_by_collective: BTreeMap<CollectiveKind, Seconds>,
    /// Pipeline-bubble fraction: the share of the iteration each stage's
    /// compute stream sits idle on average, `1 - mean(stage busy) /
    /// makespan`. `None` for flat (non-pipelined) traces; for uniform
    /// stages and a GPipe schedule it equals the analytic
    /// `(p - 1) / (m + p - 1)`.
    pub bubble_fraction: Option<f64>,
    /// Per-device memory footprint of this mapping.
    pub memory: MemoryBreakdown,
    /// Serve-mode metrics (TTFT / TPOT); `None` for training and
    /// prefill-only runs. Attached by the engines after scheduling.
    pub serve: Option<ServeStats>,
    /// Global batch (samples or sequences) per iteration.
    pub global_batch: usize,
    /// Tokens per iteration (== samples for sample-based models).
    pub tokens_per_iteration: f64,
    /// Throughput accounting unit.
    pub batch_unit: BatchUnit,
}

/// One comm op's coordinates, captured during the main sweep so the
/// per-collective exposure pass re-reads a compact record instead of the
/// full trace.
#[derive(Debug, Clone, Copy)]
struct CommOpRec {
    /// Dense stream slot ([`StreamId::slot`]) of the op's comm stream.
    stream_slot: u32,
    /// Dense collective index ([`kind_idx`]).
    kind: u8,
    /// Scheduled window.
    span: (f64, f64),
}

/// Reusable interval buffers for report construction: per-stream and
/// per-device busy lists and their merged unions (device slot 0 is the
/// flat trace's representative device; slot `1 + s` is pipeline stage
/// `s`). Keeping one `ReportScratch` per evaluation worker removes the
/// per-candidate allocation of every interval list.
#[derive(Debug, Default)]
pub struct ReportScratch {
    compute_busy: Vec<Vec<(f64, f64)>>,
    /// Comm busy intervals per *stream slot* (each list is in
    /// non-decreasing start order, because streams execute in order).
    comm_busy: Vec<Vec<(f64, f64)>>,
    merged_compute: Vec<Vec<(f64, f64)>>,
    comm_scratch: Vec<(f64, f64)>,
    /// Per-stream monotone cursors into the device's merged compute list.
    cursors: Vec<usize>,
    /// Comm ops captured by the main sweep, in trace order.
    comm_ops: Vec<CommOpRec>,
    /// Per-stage compute busy time, dense by stage index.
    stage_busy: Vec<Seconds>,
}

/// Dense buffer slot of a device: the flat representative device, or one
/// pipeline stage. Slot order equals the `Option<u16>` sort order, so
/// per-device folds visit devices exactly as the previous ordered-map
/// implementation did.
pub(crate) fn device_slot(device: Option<u16>) -> usize {
    match device {
        None => 0,
        Some(s) => 1 + s as usize,
    }
}

/// The device slot a comm *stream slot* belongs to: the flat `Comm` /
/// `GradComm` slots (1, 2) map to the representative device, and each
/// stage's comm slots (`4 + 3s`, `5 + 3s`) to that stage's device.
pub(crate) fn comm_stream_device(stream_slot: usize) -> usize {
    if stream_slot < 3 {
        0
    } else {
        1 + (stream_slot - 3) / 3
    }
}

/// Dense index of a layer class, matching [`LayerClass::ALL`]'s order.
pub(crate) fn class_idx(class: LayerClass) -> usize {
    match class {
        LayerClass::Embedding => 0,
        LayerClass::Dense => 1,
        LayerClass::Transformer => 2,
        LayerClass::Moe => 3,
    }
}

/// Every collective primitive, in dense-index order (see [`kind_idx`]).
pub(crate) const COLLECTIVES: [CollectiveKind; 5] = [
    CollectiveKind::AllReduce,
    CollectiveKind::AllGather,
    CollectiveKind::ReduceScatter,
    CollectiveKind::AllToAll,
    CollectiveKind::PointToPoint,
];

/// Dense index of a collective primitive, matching [`COLLECTIVES`].
pub(crate) fn kind_idx(kind: CollectiveKind) -> usize {
    match kind {
        CollectiveKind::AllReduce => 0,
        CollectiveKind::AllGather => 1,
        CollectiveKind::ReduceScatter => 2,
        CollectiveKind::AllToAll => 3,
        CollectiveKind::PointToPoint => 4,
    }
}

/// Builds the ordered map a dense accumulator row stands in for: one entry
/// per *touched* index (zero-duration ops still create entries, exactly
/// like the previous per-op `entry()` calls).
pub(crate) fn to_map<K: Ord + Copy, const N: usize>(
    keys: [K; N],
    touched: [bool; N],
    totals: [Seconds; N],
) -> BTreeMap<K, Seconds> {
    let mut out = BTreeMap::new();
    for i in 0..N {
        if touched[i] {
            out.insert(keys[i], totals[i]);
        }
    }
    out
}

fn clear_buckets(buckets: &mut [Vec<(f64, f64)>]) {
    for b in buckets {
        b.clear();
    }
}

fn push_span(buckets: &mut Vec<Vec<(f64, f64)>>, slot: usize, span: (f64, f64)) {
    if slot >= buckets.len() {
        buckets.resize_with(slot + 1, Vec::new);
    }
    buckets[slot].push(span);
}

/// Lazily yields the canonical disjoint union segments of a
/// sorted-by-start interval list, with [`merged_into`]'s exact merge rule
/// (`start <= current end` extends the segment).
#[derive(Debug)]
struct UnionSegments<'a> {
    list: &'a [(f64, f64)],
    i: usize,
}

impl Iterator for UnionSegments<'_> {
    type Item = (f64, f64);

    fn next(&mut self) -> Option<(f64, f64)> {
        let &(start, mut end) = self.list.get(self.i)?;
        self.i += 1;
        while let Some(&(s, e)) = self.list.get(self.i) {
            if s > end {
                break;
            }
            end = end.max(e);
            self.i += 1;
        }
        Some((start, end))
    }
}

/// Measures `|a \ b|`, the time covered by the union of `a` but not by
/// `b`, for a sorted-by-start `a` against an already-merged `b` (see
/// [`crate::sim::merged_into`]) — allocation-free and sort-free.
fn difference_measure_presorted(a_sorted: &[(f64, f64)], b_merged: &[(f64, f64)]) -> f64 {
    let segments = |list| UnionSegments { list, i: 0 };
    let a_measure: f64 = segments(a_sorted).map(|(s, e)| e - s).sum();
    if b_merged.is_empty() {
        return a_measure;
    }
    let mut inter = 0.0;
    let mut a_segs = segments(a_sorted);
    let mut cur = a_segs.next();
    let mut j = 0;
    while let Some((a_start, a_end)) = cur {
        if j >= b_merged.len() {
            break;
        }
        let (b_start, b_end) = b_merged[j];
        let lo = a_start.max(b_start);
        let hi = a_end.min(b_end);
        if hi > lo {
            inter += hi - lo;
        }
        if a_end < b_end {
            cur = a_segs.next();
        } else {
            j += 1;
        }
    }
    a_measure - inter
}

/// Merges two sorted-by-start interval lists into `out` (cleared first),
/// keeping the result sorted by start. Ties may resolve either way: the
/// downstream union/difference measures are tie-order independent (equal
/// starts produce the same merged segments either way).
fn merge_sorted_into(a: &[(f64, f64)], b: &[(f64, f64)], out: &mut Vec<(f64, f64)>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 <= b[j].0 {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl IterationReport {
    /// Builds the report by sweeping the scheduled trace.
    pub fn from_schedule(
        trace: &Trace,
        schedule: &Schedule,
        model: &ModelArch,
        memory: MemoryBreakdown,
    ) -> Self {
        Self::from_schedule_in(
            trace,
            schedule,
            model,
            memory,
            &mut ReportScratch::default(),
        )
    }

    /// [`IterationReport::from_schedule`] with caller-owned interval
    /// buffers — the evaluation hot path. The report is byte-identical to
    /// the buffer-free call.
    pub fn from_schedule_in(
        trace: &Trace,
        schedule: &Schedule,
        model: &ModelArch,
        memory: MemoryBreakdown,
        scratch: &mut ReportScratch,
    ) -> Self {
        let mut serialized_time = Seconds::ZERO;
        let mut gemm_time = Seconds::ZERO;
        let mut lookup_time = Seconds::ZERO;
        let mut optimizer_time = Seconds::ZERO;
        let mut comm_time = Seconds::ZERO;
        // Per-key totals accumulate into dense rows (indexed by
        // `class_idx` / `kind_idx`) in trace order — the same additions in
        // the same order the previous per-op `BTreeMap::entry` calls made
        // — and materialize as maps at the end.
        let mut comm_totals = [Seconds::ZERO; COLLECTIVES.len()];
        let mut comm_touched = [false; COLLECTIVES.len()];
        let mut gemm_totals = [Seconds::ZERO; LayerClass::ALL.len()];
        let mut gemm_touched = [false; LayerClass::ALL.len()];

        // Busy intervals are kept per device (compute) and per stream
        // (comm): flat traces model one representative device (slot 0);
        // pipelined traces model one device per stage (slot `1 + stage`).
        // Exposure must compare a comm interval against *its own device's*
        // compute stream — merging all stages' compute would let stage 0's
        // GEMMs "hide" stage 1's transfers, which run on different
        // hardware.
        clear_buckets(&mut scratch.compute_busy);
        clear_buckets(&mut scratch.comm_busy);
        scratch.comm_ops.clear();
        for b in &mut scratch.stage_busy {
            *b = Seconds::ZERO;
        }
        let compute_busy = &mut scratch.compute_busy;
        let comm_busy = &mut scratch.comm_busy;

        for (op, w) in trace.ops().iter().zip(&schedule.windows) {
            serialized_time += op.duration;
            let span = (w.start.as_secs(), w.finish.as_secs());
            match op.kind {
                OpKind::Gemm { class } => {
                    gemm_time += op.duration;
                    let i = class_idx(class);
                    gemm_totals[i] += op.duration;
                    gemm_touched[i] = true;
                }
                OpKind::Lookup => lookup_time += op.duration,
                OpKind::Optimizer => optimizer_time += op.duration,
                OpKind::Collective { kind } => {
                    comm_time += op.duration;
                    let i = kind_idx(kind);
                    comm_totals[i] += op.duration;
                    comm_touched[i] = true;
                    scratch.comm_ops.push(CommOpRec {
                        stream_slot: op.stream.slot() as u32,
                        kind: i as u8,
                        span,
                    });
                }
            }
            if op.stream.is_compute() {
                push_span(compute_busy, device_slot(op.stream.stage()), span);
                if let StreamId::StageCompute(s) = op.stream {
                    // A stream never overlaps itself, so busy time is the
                    // plain sum of durations.
                    let s = s as usize;
                    if s >= scratch.stage_busy.len() {
                        scratch.stage_busy.resize(s + 1, Seconds::ZERO);
                    }
                    scratch.stage_busy[s] += op.duration;
                }
            } else {
                // Comm intervals are bucketed per stream: each stream runs
                // in order, so its list stays sorted by start.
                push_span(comm_busy, op.stream.slot(), span);
            }
        }

        // Stage `s` appeared iff its compute device slot (1 + s) is
        // non-empty; visit stages in ascending order, exactly like the
        // previous ordered-map fold.
        let mut stage_count = 0usize;
        let mut stage_total = 0.0f64;
        for (s, busy) in scratch.stage_busy.iter().enumerate() {
            if compute_busy.get(1 + s).is_some_and(|v| !v.is_empty()) {
                stage_count += 1;
                stage_total += busy.as_secs();
            }
        }
        let bubble_fraction = if stage_count == 0 || schedule.makespan.is_zero() {
            None
        } else {
            let mean_busy = stage_total / stage_count as f64;
            Some(f64::max(1.0 - mean_busy / schedule.makespan.as_secs(), 0.0))
        };

        // Merge each device's compute intervals once; both exposure
        // measures below read the merged lists.
        if scratch.merged_compute.len() < compute_busy.len() {
            scratch
                .merged_compute
                .resize_with(compute_busy.len(), Vec::new);
        }
        clear_buckets(&mut scratch.merged_compute);
        for (slot, busy) in compute_busy.iter().enumerate() {
            merged_into(busy, &mut scratch.merged_compute[slot]);
        }

        // Exposed communication per device, summed across devices in slot
        // (device) order. A flat trace has one device, so this is the
        // paper's metric unchanged; for pipelined traces the sum is
        // consistent with `comm_time` and `serialized_time` (also
        // all-device totals), keeping `exposed_fraction = exposed_comm /
        // comm_time` meaningful. A device's comm intervals are the merge
        // of its (already sorted) comm streams, so the difference measure
        // runs allocation- and sort-free against the pre-merged compute.
        let comm_devices = comm_busy
            .len()
            .checked_sub(1)
            .map_or(0, |last| comm_stream_device(last) + 1);
        let devices = compute_busy.len().max(comm_devices);
        let mut exposed = 0.0;
        let empty: &[(f64, f64)] = &[];
        for device in 0..devices {
            let (a, b) = if device == 0 {
                (1usize, 2usize)
            } else {
                (3 * (device - 1) + 4, 3 * (device - 1) + 5)
            };
            let slice = |slot: usize| comm_busy.get(slot).map_or(empty, |v| v.as_slice());
            let compute = compute_busy.get(device).map_or(empty, |v| v.as_slice());
            let (ca, cb) = (slice(a), slice(b));
            if ca.is_empty() && cb.is_empty() && compute.is_empty() {
                continue; // device never appeared
            }
            merge_sorted_into(ca, cb, &mut scratch.comm_scratch);
            let merged = scratch
                .merged_compute
                .get(device)
                .map_or(empty, |v| v.as_slice());
            exposed += difference_measure_presorted(&scratch.comm_scratch, merged);
        }

        // Per-collective exposure: each comm op's own window minus its own
        // device's compute-busy time (summed like `exposed_comm`, in trace
        // order). Each comm op advances its stream's monotone cursor into
        // the merged list (window starts never decrease within a stream)
        // instead of binary-searching from scratch.
        // Cursors are indexed by the comm op's *stream* slot, which can
        // exceed the comm-stream buckets when a hand-built trace places a
        // collective on a compute stream — size for the largest slot seen.
        let max_comm_slot = scratch
            .comm_ops
            .iter()
            .map(|rec| rec.stream_slot as usize + 1)
            .max()
            .unwrap_or(0);
        scratch.cursors.clear();
        scratch
            .cursors
            .resize(comm_busy.len().max(max_comm_slot), 0);
        let mut exposed_totals = [Seconds::ZERO; COLLECTIVES.len()];
        let mut exposed_touched = [false; COLLECTIVES.len()];
        for rec in &scratch.comm_ops {
            let slot = rec.stream_slot as usize;
            let compute = scratch
                .merged_compute
                .get(comm_stream_device(slot))
                .map_or(empty, |v| v.as_slice());
            let cursor = &mut scratch.cursors[slot];
            let (a_start, a_end) = rec.span;
            // Advance past intervals that end at or before this window;
            // they cannot intersect it or any later window of this stream.
            while *cursor < compute.len() && compute[*cursor].1 <= a_start {
                *cursor += 1;
            }
            let mut inter = 0.0;
            let mut j = *cursor;
            while j < compute.len() {
                let (b_start, b_end) = compute[j];
                let lo = a_start.max(b_start);
                let hi = a_end.min(b_end);
                if hi > lo {
                    inter += hi - lo;
                }
                if a_end < b_end {
                    break;
                }
                j += 1;
            }
            let i = rec.kind as usize;
            exposed_totals[i] += Seconds::new(a_end - a_start - inter);
            exposed_touched[i] = true;
        }

        Self {
            iteration_time: schedule.makespan,
            serialized_time,
            gemm_time,
            lookup_time,
            optimizer_time,
            comm_time,
            comm_by_collective: to_map(COLLECTIVES, comm_touched, comm_totals),
            gemm_by_class: to_map(LayerClass::ALL, gemm_touched, gemm_totals),
            exposed_comm: Seconds::new(exposed),
            exposed_by_collective: to_map(COLLECTIVES, exposed_touched, exposed_totals),
            bubble_fraction,
            memory,
            serve: None,
            global_batch: model.global_batch,
            tokens_per_iteration: model.tokens_per_iteration(),
            batch_unit: model.batch_unit,
        }
    }

    /// Total compute-stream time (GEMM + lookups + optimizer).
    pub fn compute_time(&self) -> Seconds {
        self.gemm_time + self.lookup_time + self.optimizer_time
    }

    /// Samples (or sequences) processed per second.
    pub fn samples_per_sec(&self) -> f64 {
        self.global_batch as f64 / self.iteration_time.as_secs()
    }

    /// Throughput in millions of queries per second (the paper's DLRM
    /// metric).
    pub fn mqps(&self) -> f64 {
        self.samples_per_sec() / 1e6
    }

    /// Tokens processed per second (the LLM metric).
    pub fn tokens_per_sec(&self) -> f64 {
        self.tokens_per_iteration / self.iteration_time.as_secs()
    }

    /// Output tokens generated per second, for serve runs with decode
    /// steps (`None` otherwise).
    pub fn serve_tokens_per_sec(&self) -> Option<f64> {
        self.serve
            .map(|s| s.output_tokens_per_iteration() / self.iteration_time.as_secs())
    }

    /// Fraction of communication time that is exposed (not hidden behind
    /// compute), in `[0, 1]`.
    pub fn exposed_fraction(&self) -> f64 {
        if self.comm_time.is_zero() {
            0.0
        } else {
            (self.exposed_comm / self.comm_time).min(1.0)
        }
    }

    /// Fraction of communication hidden behind compute (Fig. 4b's
    /// "overlapped" share).
    pub fn overlap_fraction(&self) -> f64 {
        1.0 - self.exposed_fraction()
    }

    /// Wall-clock speedup of this mapping over `baseline` (same workload).
    pub fn speedup_over(&self, baseline: &IterationReport) -> f64 {
        baseline.iteration_time / self.iteration_time
    }

    /// Serialized-time fraction spent in a collective.
    pub fn comm_share(&self, kind: CollectiveKind) -> f64 {
        let t = self
            .comm_by_collective
            .get(&kind)
            .copied()
            .unwrap_or(Seconds::ZERO);
        if self.comm_time.is_zero() {
            0.0
        } else {
            t / self.comm_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::schedule;
    use crate::trace::{OpId, Phase, TraceOp};

    fn toy_model() -> ModelArch {
        madmax_model::ModelId::DlrmB.build()
    }

    fn op(name: &str, stream: StreamId, kind: OpKind, ms: f64, deps: Vec<OpId>) -> TraceOp {
        TraceOp {
            name: name.to_owned().into(),
            stream,
            kind,
            phase: Phase::Forward,
            duration: Seconds::from_ms(ms),
            deps: deps.into(),
        }
    }

    #[test]
    fn collectives_on_compute_streams_are_handled() {
        // Hand-built traces may place a collective on a compute stream
        // (no comm stream exists at all here); the per-collective
        // exposure cursors must size to the op's stream slot, not the
        // comm-bucket count.
        let mut t = Trace::new();
        t.push(op(
            "fused_ar",
            StreamId::Compute,
            OpKind::Collective {
                kind: CollectiveKind::AllReduce,
            },
            5.0,
            vec![],
        ));
        t.push(op(
            "stage_fused",
            StreamId::StageCompute(2),
            OpKind::Collective {
                kind: CollectiveKind::PointToPoint,
            },
            3.0,
            vec![],
        ));
        let s = schedule(&t);
        let model = toy_model();
        let r = IterationReport::from_schedule(&t, &s, &model, MemoryBreakdown::default());
        assert!((r.comm_time.as_ms() - 8.0).abs() < 1e-9);
        // The ops sit on their own device's compute stream, so they are
        // "hidden" behind themselves: per-collective exposure is zero.
        assert_eq!(
            r.exposed_by_collective[&CollectiveKind::AllReduce],
            Seconds::ZERO
        );
        // No comm-stream intervals exist, so total exposed comm is zero.
        assert_eq!(r.exposed_comm, Seconds::ZERO);
    }

    #[test]
    fn report_accounts_all_categories() {
        let mut t = Trace::new();
        let a = t.push(op("lookup", StreamId::Compute, OpKind::Lookup, 4.0, vec![]));
        let b = t.push(op(
            "a2a",
            StreamId::Comm,
            OpKind::Collective {
                kind: CollectiveKind::AllToAll,
            },
            6.0,
            vec![a],
        ));
        t.push(op(
            "mlp",
            StreamId::Compute,
            OpKind::Gemm {
                class: LayerClass::Dense,
            },
            5.0,
            vec![b],
        ));
        let s = schedule(&t);
        let model = toy_model();
        let r = IterationReport::from_schedule(&t, &s, &model, MemoryBreakdown::default());

        assert!((r.serialized_time.as_ms() - 15.0).abs() < 1e-9);
        assert!(
            (r.iteration_time.as_ms() - 15.0).abs() < 1e-9,
            "fully serial chain"
        );
        assert!((r.lookup_time.as_ms() - 4.0).abs() < 1e-9);
        assert!((r.gemm_time.as_ms() - 5.0).abs() < 1e-9);
        assert!((r.comm_time.as_ms() - 6.0).abs() < 1e-9);
        // The A2A runs [4,10] with no concurrent compute: fully exposed.
        assert!((r.exposed_comm.as_ms() - 6.0).abs() < 1e-9);
        assert!((r.exposed_fraction() - 1.0).abs() < 1e-9);
        assert_eq!(r.overlap_fraction(), 0.0);
        assert!((r.comm_share(CollectiveKind::AllToAll) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlapped_comm_is_hidden() {
        let mut t = Trace::new();
        t.push(op(
            "mlp",
            StreamId::Compute,
            OpKind::Gemm {
                class: LayerClass::Dense,
            },
            10.0,
            vec![],
        ));
        t.push(op(
            "ar",
            StreamId::GradComm,
            OpKind::Collective {
                kind: CollectiveKind::AllReduce,
            },
            8.0,
            vec![],
        ));
        let s = schedule(&t);
        let model = toy_model();
        let r = IterationReport::from_schedule(&t, &s, &model, MemoryBreakdown::default());
        assert!((r.iteration_time.as_ms() - 10.0).abs() < 1e-9);
        assert_eq!(r.exposed_comm, Seconds::ZERO);
        assert!((r.overlap_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_units() {
        let mut t = Trace::new();
        t.push(op(
            "mlp",
            StreamId::Compute,
            OpKind::Gemm {
                class: LayerClass::Dense,
            },
            100.0,
            vec![],
        ));
        let s = schedule(&t);
        let model = toy_model(); // 256K global batch, sample-based
        let r = IterationReport::from_schedule(&t, &s, &model, MemoryBreakdown::default());
        assert!((r.samples_per_sec() - 262_144.0 / 0.1).abs() < 1.0);
        assert!((r.mqps() - 2.62144).abs() < 1e-3);
        assert_eq!(r.batch_unit, BatchUnit::Samples);
    }

    #[test]
    fn speedup_is_ratio_of_iteration_times() {
        let mut t1 = Trace::new();
        t1.push(op("a", StreamId::Compute, OpKind::Lookup, 10.0, vec![]));
        let mut t2 = Trace::new();
        t2.push(op("a", StreamId::Compute, OpKind::Lookup, 5.0, vec![]));
        let model = toy_model();
        let r1 =
            IterationReport::from_schedule(&t1, &schedule(&t1), &model, MemoryBreakdown::default());
        let r2 =
            IterationReport::from_schedule(&t2, &schedule(&t2), &model, MemoryBreakdown::default());
        assert!((r2.speedup_over(&r1) - 2.0).abs() < 1e-9);
    }
}
