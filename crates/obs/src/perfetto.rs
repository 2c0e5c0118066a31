//! Chrome trace-event (Perfetto) export of simulated schedules.
//!
//! The [trace-event format] is the JSON dialect both `chrome://tracing`
//! and <https://ui.perfetto.dev> open natively: an object with a
//! `traceEvents` array of phase-tagged events. This module maps the
//! simulator's output onto it:
//!
//! - every [`StreamId`] becomes a named track (`ph:"M"` thread-name
//!   metadata; the dense [`StreamId::slot`] index is the `tid` and the
//!   sort key, so stage triples group together);
//! - every [`TraceOp`] becomes one complete duration event (`ph:"X"`)
//!   whose window comes from the [`Schedule`], with the op's phase,
//!   kind, stage, and collective carried in `args`;
//! - every **cross-stream** dependency becomes a flow arrow (`ph:"s"` at
//!   the producer's finish, `ph:"f"` with `bp:"e"` at the consumer's
//!   start) — same-stream deps are implicit in track order and would
//!   only add noise.
//!
//! The simulated schedule is process `SIMULATION_PID`; a load run's
//! request timeline is a process of its own (see [`crate::load`]). The
//! explorer's own wall time is not in these files: perfbench's `--trace 1`
//! spans and [`crate::SearchTelemetry`] measure it.
//!
//! Timestamps are microseconds (the format's native unit); the simulated
//! schedule starts at `ts = 0`.
//!
//! [trace-event format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Determinism
//!
//! Event order, flow-arrow ids, and float rendering are all functions of
//! the input trace alone, so exporting the same schedule twice produces
//! byte-identical JSON — which is what makes the golden-file tests in
//! `tests/perfetto.rs` possible.

use std::io::Write;
use std::path::Path;

use madmax_core::{OpKind, Schedule, StreamId, Trace, TraceOp};
use serde::{Serialize, Value};

/// Process id of the simulated schedule's events.
pub(crate) const SIMULATION_PID: u64 = 0;

/// One trace event, covering the subset of the format this exporter
/// emits: metadata (`M`), complete durations (`X`), and flow arrows
/// (`s` / `f`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (op display name, request name, or metadata key).
    pub name: String,
    /// Comma-free category tag, e.g. `"op"`, `"dep"`.
    pub cat: Option<String>,
    /// Phase tag: `"M"`, `"X"`, `"s"`, or `"f"`.
    pub ph: String,
    /// Timestamp in microseconds (absent for metadata events).
    pub ts: Option<f64>,
    /// Duration in microseconds (`X` events only).
    pub dur: Option<f64>,
    /// Process id.
    pub pid: u64,
    /// Thread id (the stream's dense slot, or a load-run track).
    pub tid: u64,
    /// Flow-binding id shared by an `s`/`f` pair.
    pub id: Option<u64>,
    /// Flow binding point (`"e"` on `f` events: bind to enclosing slice).
    pub bp: Option<String>,
    /// Event arguments (insertion-ordered).
    pub args: Vec<(String, Value)>,
}

impl TraceEvent {
    pub(crate) fn meta(name: &str, pid: u64, tid: u64, args: Vec<(String, Value)>) -> Self {
        TraceEvent {
            name: name.to_owned(),
            cat: None,
            ph: "M".to_owned(),
            ts: None,
            dur: None,
            pid,
            tid,
            id: None,
            bp: None,
            args,
        }
    }
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = Vec::with_capacity(10);
        m.push(("name".to_owned(), Value::Str(self.name.clone())));
        if let Some(cat) = &self.cat {
            m.push(("cat".to_owned(), Value::Str(cat.clone())));
        }
        m.push(("ph".to_owned(), Value::Str(self.ph.clone())));
        if let Some(ts) = self.ts {
            m.push(("ts".to_owned(), Value::Float(ts)));
        }
        if let Some(dur) = self.dur {
            m.push(("dur".to_owned(), Value::Float(dur)));
        }
        m.push(("pid".to_owned(), Value::UInt(self.pid)));
        m.push(("tid".to_owned(), Value::UInt(self.tid)));
        if let Some(id) = self.id {
            m.push(("id".to_owned(), Value::UInt(id)));
        }
        if let Some(bp) = &self.bp {
            m.push(("bp".to_owned(), Value::Str(bp.clone())));
        }
        if !self.args.is_empty() {
            m.push(("args".to_owned(), Value::Map(self.args.clone())));
        }
        Value::Map(m)
    }
}

/// Human-readable track name of a stream.
fn stream_name(stream: StreamId) -> String {
    match stream {
        StreamId::Compute => "compute".to_owned(),
        StreamId::Comm => "comm".to_owned(),
        StreamId::GradComm => "grad_comm".to_owned(),
        StreamId::StageCompute(s) => format!("stage{s}.compute"),
        StreamId::StageComm(s) => format!("stage{s}.comm"),
        StreamId::StageGradComm(s) => format!("stage{s}.grad_comm"),
    }
}

/// The `args` payload of one op's duration event.
fn op_args(op: &TraceOp) -> Vec<(String, Value)> {
    let mut args = vec![("phase".to_owned(), Value::Str(format!("{:?}", op.phase)))];
    let kind = match op.kind {
        OpKind::Gemm { class } => format!("gemm.{class:?}"),
        OpKind::Lookup => "lookup".to_owned(),
        OpKind::Collective { kind } => format!("collective.{kind:?}"),
        OpKind::Optimizer => "optimizer".to_owned(),
    };
    args.push(("kind".to_owned(), Value::Str(kind)));
    if let Some(stage) = op.stream.stage() {
        args.push(("stage".to_owned(), Value::UInt(u64::from(stage))));
    }
    args
}

/// A Chrome trace-event file under construction: compose schedules and
/// load timelines, then [`ChromeTrace::write`] the JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// An empty trace file.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Convenience constructor: one simulated schedule.
    pub fn from_schedule(trace: &Trace, sched: &Schedule) -> Self {
        let mut t = Self::new();
        t.add_schedule(trace, sched);
        t
    }

    /// The events emitted so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Adds one simulated schedule: track metadata for every stream the
    /// trace uses, a duration event per op, and a flow arrow per
    /// cross-stream dependency.
    ///
    /// # Panics
    ///
    /// Panics when `sched` does not cover `trace` (fewer windows than
    /// ops) — the pair must come from one scheduling run.
    pub(crate) fn add_schedule(&mut self, trace: &Trace, sched: &Schedule) {
        let ops = trace.ops();
        assert!(
            sched.windows.len() >= ops.len(),
            "schedule covers {} of {} ops; trace and schedule must come \
             from the same run",
            sched.windows.len(),
            ops.len()
        );
        self.events.push(TraceEvent::meta(
            "process_name",
            SIMULATION_PID,
            0,
            vec![(
                "name".to_owned(),
                Value::Str("simulated schedule".to_owned()),
            )],
        ));
        // One track per stream, ordered by dense slot.
        let mut streams: Vec<StreamId> = Vec::new();
        for op in ops {
            if !streams.contains(&op.stream) {
                streams.push(op.stream);
            }
        }
        streams.sort_by_key(|s| s.slot());
        for stream in streams {
            let tid = stream.slot() as u64;
            self.events.push(TraceEvent::meta(
                "thread_name",
                SIMULATION_PID,
                tid,
                vec![("name".to_owned(), Value::Str(stream_name(stream)))],
            ));
            self.events.push(TraceEvent::meta(
                "thread_sort_index",
                SIMULATION_PID,
                tid,
                vec![("sort_index".to_owned(), Value::UInt(tid))],
            ));
        }
        for (i, op) in ops.iter().enumerate() {
            let w = &sched.windows[i];
            self.events.push(TraceEvent {
                name: op.name.to_string(),
                cat: Some("op".to_owned()),
                ph: "X".to_owned(),
                ts: Some(w.start.as_us()),
                dur: Some(w.finish.as_us() - w.start.as_us()),
                pid: SIMULATION_PID,
                tid: op.stream.slot() as u64,
                id: None,
                bp: None,
                args: op_args(op),
            });
        }
        // Flow arrows for cross-stream deps, ids in consumer order.
        let mut flow_id = 0u64;
        for (i, op) in ops.iter().enumerate() {
            for dep in &op.deps {
                let src = &ops[dep.0];
                if src.stream == op.stream {
                    continue;
                }
                let name = format!("{} -> {}", src.name, op.name);
                self.events.push(TraceEvent {
                    name: name.clone(),
                    cat: Some("dep".to_owned()),
                    ph: "s".to_owned(),
                    ts: Some(sched.windows[dep.0].finish.as_us()),
                    dur: None,
                    pid: SIMULATION_PID,
                    tid: src.stream.slot() as u64,
                    id: Some(flow_id),
                    bp: None,
                    args: Vec::new(),
                });
                self.events.push(TraceEvent {
                    name,
                    cat: Some("dep".to_owned()),
                    ph: "f".to_owned(),
                    ts: Some(sched.windows[i].start.as_us()),
                    dur: None,
                    pid: SIMULATION_PID,
                    tid: op.stream.slot() as u64,
                    id: Some(flow_id),
                    bp: Some("e".to_owned()),
                    args: Vec::new(),
                });
                flow_id += 1;
            }
        }
    }

    /// Renders the trace-event JSON: one compact event per line inside
    /// the `traceEvents` array (reviewable diffs, still a single valid
    /// JSON document).
    ///
    /// # Panics
    ///
    /// Never in practice — event serialization is infallible.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&serde_json::to_string(ev).expect("events serialize"));
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the JSON to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_valid_json() {
        let t = ChromeTrace::new();
        let js = serde_json::parse_value(&t.to_json_string()).unwrap();
        let events = serde::field(js.as_map().unwrap(), "traceEvents").unwrap();
        assert_eq!(events.as_seq().map(Vec::len), Some(0));
    }

    #[test]
    fn event_serializes_without_null_fields() {
        let ev = TraceEvent::meta("process_name", 0, 0, Vec::new());
        let js = serde_json::to_string(&ev).unwrap();
        assert!(!js.contains("null"), "{js}");
        assert!(!js.contains("ts"), "{js}");
    }
}
