//! Load-run observability: per-request completion events for
//! [`ProgressSink`]s, load-run telemetry counters, and Perfetto
//! export of a [`LoadTrace`].
//!
//! The serve simulator itself reports completions through a plain
//! callback (it does not depend on this crate); [`RequestEvent::from`] a
//! `RequestRecord` is the bridge a runner uses to forward those
//! callbacks into a [`ProgressSink`].

use madmax_core::steady::grid_seconds;
use madmax_fault::FaultKind;
use madmax_serve::{LoadOutcome, LoadTrace, RequestRecord, SimMode};
use serde::Value;

use crate::perfetto::{ChromeTrace, TraceEvent};
use crate::progress::ProgressSink;

/// Process id of load-simulator events in exported traces (the simulated
/// schedule is pid 0; pid 1 stays unused so exported files keep their
/// bytes).
pub(crate) const LOAD_PID: u64 = 2;

/// Request tracks exported to Perfetto before the exporter stops adding
/// per-request detail (the engine and queue tracks are always complete).
const REQUEST_TRACK_CAP: usize = 64;

/// One request-completed event, in wall-clock seconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestEvent {
    /// Request id (arrival order).
    pub id: u32,
    /// Arrival time, seconds.
    pub arrival: f64,
    /// Time to first token, seconds.
    pub ttft: f64,
    /// Completion time, seconds.
    pub completion: f64,
    /// Output tokens produced (first token + decode tokens).
    pub output_tokens: u64,
    /// Times the request was evicted and recomputed.
    pub evictions: u32,
}

impl From<&RequestRecord> for RequestEvent {
    fn from(rec: &RequestRecord) -> Self {
        let first = rec.first_token.unwrap_or(rec.arrival);
        RequestEvent {
            id: rec.id,
            arrival: grid_seconds(rec.arrival).as_secs(),
            ttft: grid_seconds(first - rec.arrival).as_secs(),
            completion: grid_seconds(rec.completion.unwrap_or(first)).as_secs(),
            output_tokens: 1 + rec.decode_len,
            evictions: rec.evictions,
        }
    }
}

/// Summary counters of one load simulation, the load
/// counterpart of [`crate::SearchTelemetry`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTelemetry {
    /// Simulation mode (`"event"` or `"per-token"`).
    pub mode: String,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests rejected at arrival.
    pub rejected: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Decode-run actions executed.
    pub decode_runs: u64,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Longest single decode run, in steps.
    pub max_run: u64,
    /// Completed output tokens per simulated second.
    pub tokens_per_sec: f64,
    /// p99 time to first token, milliseconds, when anything completed a
    /// prefill.
    pub ttft_p99_ms: Option<f64>,
    /// p50 time per output token, milliseconds, when anything completed.
    pub tpot_p50_ms: Option<f64>,
    /// Host wall-clock the simulation took, milliseconds.
    pub wall_ms: f64,
}

impl LoadTelemetry {
    /// Summarizes one simulation outcome (`wall_ms` is the host
    /// wall-clock the caller measured around the run).
    pub fn from_outcome(outcome: &LoadOutcome, mode: SimMode, wall_ms: f64) -> Self {
        let r = &outcome.report;
        LoadTelemetry {
            mode: match mode {
                SimMode::Event => "event".to_owned(),
                SimMode::PerToken => "per-token".to_owned(),
            },
            arrivals: r.arrivals as u64,
            completed: r.completed as u64,
            rejected: r.rejected as u64,
            evictions: r.evictions,
            decode_runs: outcome.counters.decode_runs,
            decode_steps: outcome.counters.decode_steps,
            max_run: outcome.counters.max_run,
            tokens_per_sec: r.tokens_per_sec,
            ttft_p99_ms: r.ttft.map(|p| p.p99.as_secs() * 1e3),
            tpot_p50_ms: r.tpot.map(|p| p.p50.as_secs() * 1e3),
            wall_ms,
        }
    }

    /// One-line human summary.
    pub(crate) fn summary(&self) -> String {
        format!(
            "{} mode: {}/{} completed ({} rejected, {} evictions), \
             {:.1} tok/s, {} steps in {} runs, {:.1} ms wall",
            self.mode,
            self.completed,
            self.arrivals,
            self.rejected,
            self.evictions,
            self.tokens_per_sec,
            self.decode_steps,
            self.decode_runs,
            self.wall_ms
        )
    }
}

/// The completion callback that forwards a load run's per-request
/// completions into a [`ProgressSink`]: bind the result to a local and
/// pass `Some(&mut it)` to [`madmax_serve::simulate_load`].
pub fn forward_to_sink(sink: &dyn ProgressSink) -> impl FnMut(&RequestRecord) + '_ {
    |rec| sink.request_completed(&RequestEvent::from(rec))
}

fn usecs(units: i64) -> f64 {
    grid_seconds(units).as_secs() * 1e6
}

fn slice(name: String, cat: &str, tid: u64, start: i64, end: i64) -> TraceEvent {
    TraceEvent {
        name,
        cat: Some(cat.to_owned()),
        ph: "X".to_owned(),
        ts: Some(usecs(start)),
        dur: Some(usecs(end - start)),
        pid: LOAD_PID,
        tid,
        id: None,
        bp: None,
        args: Vec::new(),
    }
}

impl ChromeTrace {
    /// Convenience constructor: one load run.
    pub fn from_load_trace(trace: &LoadTrace) -> Self {
        let mut t = Self::new();
        t.add_load_trace(trace);
        t
    }

    /// Adds one load run under its own process: an engine track with
    /// every prefill and decode run, a queue-depth counter, and one
    /// track per request (capped at 64) with its queue wait and KV
    /// residency spans.
    pub(crate) fn add_load_trace(&mut self, trace: &LoadTrace) {
        let meta = |name: &str, tid: u64, value: String| {
            TraceEvent::meta(
                name,
                LOAD_PID,
                tid,
                vec![("name".to_owned(), Value::Str(value))],
            )
        };
        self.push(meta("process_name", 0, "serve load".to_owned()));
        self.push(meta("thread_name", 0, "engine".to_owned()));
        for p in &trace.prefills {
            let mut ev = slice(
                format!(
                    "prefill r{}{}",
                    p.request,
                    if p.resumed { " (recompute)" } else { "" }
                ),
                "prefill",
                0,
                p.start,
                p.end,
            );
            ev.args
                .push(("ctx_tokens".to_owned(), Value::UInt(p.ctx_tokens as u64)));
            self.push(ev);
        }
        for r in &trace.runs {
            let mut ev = slice(
                format!("decode x{} (B={})", r.steps, r.participants.len()),
                "decode",
                0,
                r.start,
                r.end,
            );
            ev.args
                .push(("kv_total_start".to_owned(), Value::Int(r.kv_total_start)));
            ev.args
                .push(("blocks_held".to_owned(), Value::UInt(r.blocks_held)));
            self.push(ev);
        }
        // Fault windows as their own track (absent for fault-free runs,
        // keeping their export byte-identical to the pre-fault layout).
        if !trace.faults.is_empty() {
            self.push(meta("thread_name", 2, "faults".to_owned()));
            for f in &trace.faults {
                let name = match f.kind {
                    FaultKind::Fatal => format!("fatal (-{} slots)", f.slots_lost),
                    FaultKind::Transient => {
                        format!(
                            "transient (x{:.2} slowdown)",
                            f64::from(f.slowdown_pct) / 100.0
                        )
                    }
                    FaultKind::Maintenance => format!("maintenance (-{} slots)", f.slots_lost),
                };
                // Perfetto drops zero-width slices, so give instantaneous
                // windows one grid unit of visual width.
                let mut ev = slice(name, "fault", 2, f.start, f.end.max(f.start + 1));
                ev.args.push((
                    "interrupted".to_owned(),
                    Value::UInt(f.interrupted.len() as u64),
                ));
                ev.args
                    .push(("slots_lost".to_owned(), Value::UInt(f.slots_lost as u64)));
                self.push(ev);
            }
        }
        // Queue depth as a counter track.
        for &(at, depth) in &trace.queue_depth {
            self.push(TraceEvent {
                name: "queue depth".to_owned(),
                cat: Some("queue".to_owned()),
                ph: "C".to_owned(),
                ts: Some(usecs(at)),
                dur: None,
                pid: LOAD_PID,
                tid: 1,
                id: None,
                bp: None,
                args: vec![("depth".to_owned(), Value::UInt(u64::from(depth)))],
            });
        }
        // Per-request tracks: queue wait + residency episodes.
        for rec in trace.records.iter().take(REQUEST_TRACK_CAP) {
            let tid = 16 + u64::from(rec.id);
            self.push(meta("thread_name", tid, format!("request {}", rec.id)));
            if let Some(admitted) = rec.admitted {
                if admitted > rec.arrival {
                    self.push(slice(
                        "queued".to_owned(),
                        "wait",
                        tid,
                        rec.arrival,
                        admitted,
                    ));
                }
            }
            for span in trace.residency.iter().filter(|s| s.request == rec.id) {
                let end = span.end.unwrap_or(trace.end);
                let mut ev = slice("resident".to_owned(), "kv", tid, span.start, end);
                ev.args
                    .push(("blocks".to_owned(), Value::UInt(span.blocks)));
                self.push(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_model::ModelId;
    use madmax_parallel::{LoadSpec, RequestSpec, ServeConfig};
    use madmax_serve::{simulate_load, StepCostModel};

    fn toy_outcome(mode: SimMode) -> LoadOutcome {
        let costs = StepCostModel {
            prefill_base: 100,
            prefill_slope: 1,
            step_base: 10,
            step_seq: 2,
            step_rate: 1,
            slots: 2,
        };
        let spec = LoadSpec::trace(
            (0..3)
                .map(|i| RequestSpec {
                    arrival: f64::from(i) * 1e-9,
                    prompt_len: 8,
                    decode_len: 4,
                })
                .collect(),
        );
        let serve = ServeConfig::new(8, 4);
        simulate_load(&spec, &serve, &ModelId::Llama2.build(), &costs, mode, None).unwrap()
    }

    #[test]
    fn load_trace_exports_engine_queue_and_request_tracks() {
        let out = toy_outcome(SimMode::Event);
        let trace = ChromeTrace::from_load_trace(&out.trace);
        let events = trace.events();
        assert!(events
            .iter()
            .any(|e| e.ph == "M" && e.name == "process_name"));
        assert!(events.iter().any(|e| e.cat.as_deref() == Some("prefill")));
        assert!(events.iter().any(|e| e.cat.as_deref() == Some("decode")));
        assert!(events.iter().any(|e| e.ph == "C"));
        assert!(events.iter().any(|e| e.cat.as_deref() == Some("kv")));
        // Deterministic export.
        let again = ChromeTrace::from_load_trace(&out.trace);
        assert_eq!(trace, again);
    }

    #[test]
    fn fault_windows_export_their_own_track() {
        use madmax_fault::{FaultEvent, RetryPolicy};
        use madmax_serve::simulate_load_faulty;

        let costs = StepCostModel {
            prefill_base: 100,
            prefill_slope: 1,
            step_base: 10,
            step_seq: 2,
            step_rate: 1,
            slots: 2,
        };
        let spec = LoadSpec::trace(
            (0..3)
                .map(|_| RequestSpec {
                    arrival: 0.0,
                    prompt_len: 8,
                    decode_len: 4,
                })
                .collect(),
        );
        let serve = ServeConfig::new(8, 4);
        let faults = [FaultEvent {
            at: 250,
            until: 300,
            kind: FaultKind::Fatal,
            slots_lost: 1,
            slowdown_pct: 100,
        }];
        let out = simulate_load_faulty(
            &spec,
            &serve,
            &ModelId::Llama2.build(),
            &costs,
            SimMode::Event,
            &faults,
            &RetryPolicy::retries(3),
            None,
        )
        .unwrap();
        assert!(!out.trace.faults.is_empty());
        let trace = ChromeTrace::from_load_trace(&out.trace);
        let fault_slices: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.cat.as_deref() == Some("fault"))
            .cloned()
            .collect();
        assert_eq!(fault_slices.len(), out.trace.faults.len());
        assert!(fault_slices[0].name.starts_with("fatal"));

        // Fault-free exports carry no fault track at all.
        let plain = toy_outcome(SimMode::Event);
        assert!(ChromeTrace::from_load_trace(&plain.trace)
            .events()
            .iter()
            .all(|e| e.cat.as_deref() != Some("fault")));
    }

    #[test]
    fn telemetry_summarizes_the_outcome() {
        let out = toy_outcome(SimMode::Event);
        let t = LoadTelemetry::from_outcome(&out, SimMode::Event, 1.5);
        assert_eq!(t.mode, "event");
        assert_eq!((t.arrivals, t.completed), (3, 3));
        assert_eq!(t.wall_ms, 1.5);
        assert_eq!(
            t.ttft_p99_ms,
            out.report.ttft.map(|p| p.p99.as_secs() * 1e3)
        );
        assert!(
            t.summary().contains("event mode: 3/3 completed"),
            "{}",
            t.summary()
        );
    }

    #[test]
    fn request_events_flow_through_sinks() {
        use std::sync::Mutex;

        #[derive(Debug, Default)]
        struct Collector(Mutex<Vec<u32>>);
        impl ProgressSink for Collector {
            fn candidate_completed(&self, _: &crate::CandidateEvent) {}
            fn request_completed(&self, event: &RequestEvent) {
                self.0.lock().unwrap().push(event.id);
            }
        }

        let costs = StepCostModel {
            prefill_base: 100,
            prefill_slope: 1,
            step_base: 10,
            step_seq: 2,
            step_rate: 1,
            slots: 2,
        };
        let spec = LoadSpec::trace(vec![RequestSpec {
            arrival: 0.0,
            prompt_len: 8,
            decode_len: 4,
        }]);
        let sink = Collector::default();
        let mut hook = forward_to_sink(&sink);
        simulate_load(
            &spec,
            &ServeConfig::new(8, 4),
            &ModelId::Llama2.build(),
            &costs,
            SimMode::Event,
            Some(&mut hook),
        )
        .unwrap();
        assert_eq!(*sink.0.lock().unwrap(), vec![0]);
    }
}
