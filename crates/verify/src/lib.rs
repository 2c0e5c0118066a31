//! # madmax-verify
//!
//! A compiler-style static verifier and lint pass over the simulator's
//! three IR layers, producing structured [`Diagnostic`]s instead of
//! panics:
//!
//! 1. **Trace well-formedness** ([`Verifier::verify_trace`]) —
//!    dependencies acyclic and backward-pointing, sorted and deduped;
//!    stream/name/kind agreement; phase consistency (no backward ops in
//!    serve traces); decode steps chained on the previous token; and the
//!    structural pipeline rules (cross-stage edges only through
//!    adjacent-stage P2P handoffs).
//! 2. **Schedule legality + analysis** ([`Verifier::verify`]) —
//!    causality, per-stream window exclusivity (an independent check of
//!    the dense `StreamTable` scheduler), non-negative durations,
//!    makespan consistency; the 1F1B in-flight bound and the GPipe
//!    analytic bubble floor; plus the `critical_path` analyzer, whose
//!    longest dependency chain is a makespan lower bound and whose
//!    per-stream slack findings surface scheduling inefficiency as
//!    warnings.
//! 3. **Load-trace rules** ([`verify_load`]) — request-lifecycle
//!    causality and paged-KV residency over the continuous-batching
//!    simulator's integer ledger (`madmax_serve::LoadTrace`): arrival ≤
//!    admission < first token ≤ completion, rejected requests never run,
//!    completed requests decode exactly their requested tokens, prefills
//!    and decode runs serialize, decode participants hold resident KV
//!    blocks for whole runs, and occupancy stays within the paged budget.
//!    Fault-aware runs add fault-ledger consistency: interruption counts
//!    reconcile with retry/failure accounting, retries respect the policy
//!    ceiling, and decode runs inside capacity-loss windows respect the
//!    degraded slot count.
//! 4. **Goodput rules** ([`verify_goodput`]) — internal consistency of a
//!    closed-form failure-aware goodput evaluation: the goodput fraction
//!    is in (0, 1] and effective throughput reconciles with (and never
//!    exceeds) the fault-free throughput.
//!
//! The verifier is *producer-independent*: it re-derives every invariant
//! from the IR values alone, trusting neither the trace builders nor the
//! scheduler. The engines' shared evaluator
//! (`madmax_core::evaluate_priced`) additionally runs a cheap subset of
//! the schedule rules under `debug_assertions`; this crate is the full
//! rule set for tests, CI, `madmax --verify`, and the explorer's
//! winner-verification option.
//!
//! # Example
//!
//! ```
//! use madmax_hw::catalog;
//! use madmax_model::ModelId;
//! use madmax_parallel::{Plan, Workload};
//! use madmax_verify::Verifier;
//!
//! let model = ModelId::DlrmA.build();
//! let system = catalog::zionex_dlrm_system();
//! let plan = Plan::fsdp_baseline(&model);
//! let workload = Workload::pretrain();
//!
//! let (_, trace, sched) = madmax_engine::Scenario::new(&model, &system)
//!     .plan_ref(&plan)
//!     .workload_ref(&workload)
//!     .run_with_trace()
//!     .unwrap();
//! let report = Verifier::for_plan(&plan, &workload).verify(&trace, &sched);
//! assert!(report.is_clean(), "{report}");
//! let cp = report.critical_path.unwrap();
//! assert!(cp.lower_bound <= sched.makespan);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod diag;
mod fault;
mod load;
mod sched;
mod trace;

pub use diag::{CriticalPath, Diagnostic, Location, RuleId, Severity, VerifyReport};
pub use fault::verify_goodput;
pub use load::verify_load;

use madmax_core::{Schedule, Trace};
use madmax_parallel::{PipelineConfig, Plan, Workload};

/// The trace/schedule verifier. Context (the plan's pipeline config, the
/// workload) is optional: without it the context-dependent rules
/// (pipelined decode chaining, 1F1B in-flight, GPipe bubble floor,
/// workload-directed phase checks) are skipped and everything else still
/// runs.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    pipeline: Option<PipelineConfig>,
    workload: Option<Workload>,
}

impl Verifier {
    /// The full context for traces produced by running `plan` under
    /// `workload`.
    pub fn for_plan(plan: &Plan, workload: &Workload) -> Self {
        Self {
            pipeline: plan.pipeline.filter(|c| c.is_pipelined()),
            workload: Some(workload.clone()),
        }
    }

    /// Runs the trace well-formedness pass alone (no schedule required).
    pub fn verify_trace(&self, trace: &Trace) -> VerifyReport {
        let mut out = VerifyReport::new();
        trace::check_trace(
            trace,
            self.workload.as_ref(),
            self.pipeline.as_ref(),
            &mut out,
        );
        out
    }

    /// Runs the full pass: trace well-formedness, schedule legality, the
    /// pipeline rules, and the critical-path/slack analyses.
    pub fn verify(&self, trace: &Trace, sched: &Schedule) -> VerifyReport {
        let mut out = self.verify_trace(trace);
        sched::check_schedule(trace, sched, self.pipeline.as_ref(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_core::{
        schedule, Deps, OpId, OpKind, OpName, PassDir, Phase, StreamId, Trace, TraceOp,
    };
    use madmax_hw::units::Seconds;
    use madmax_parallel::CollectiveKind;

    fn op(
        name: OpName,
        stream: StreamId,
        kind: OpKind,
        phase: Phase,
        duration: f64,
        deps: Deps,
    ) -> TraceOp {
        TraceOp {
            name,
            stream,
            kind,
            phase,
            duration: Seconds::new(duration),
            deps,
        }
    }

    fn gemm(duration: f64, deps: Deps) -> TraceOp {
        op(
            OpName::custom("g"),
            StreamId::Compute,
            OpKind::Gemm {
                class: madmax_model::LayerClass::Dense,
            },
            Phase::Forward,
            duration,
            deps,
        )
    }

    #[test]
    fn simple_chain_verifies_clean_with_matching_critical_path() {
        let mut t = Trace::new();
        let a = t.push(gemm(1.0, Deps::none()));
        let b = t.push(op(
            OpName::custom("coll"),
            StreamId::Comm,
            OpKind::Collective {
                kind: CollectiveKind::AllGather,
            },
            Phase::Forward,
            0.5,
            Deps::one(a),
        ));
        t.push(gemm(2.0, Deps::one(b)));
        let s = schedule(&t);
        let r = Verifier::default().verify(&t, &s);
        assert!(r.is_clean(), "{r}");
        let cp = r.critical_path.unwrap();
        assert_eq!(cp.ops, 3);
        assert!((cp.lower_bound.as_secs() - 3.5).abs() < 1e-12);
        assert_eq!(cp.sink, Some(OpId(2)));
        assert!((cp.lower_bound - s.makespan).as_secs().abs() < 1e-12);
    }

    #[test]
    fn unsorted_deps_flagged() {
        let mut t = Trace::new();
        let a = t.push(gemm(1.0, Deps::none()));
        let b = t.push(gemm(1.0, Deps::none()));
        // Deps::push now insert-sorts, so force an unsorted list through
        // the order-preserving From<Vec> path.
        t.push(gemm(1.0, Deps::from(vec![b, a])));
        let r = Verifier::default().verify_trace(&t);
        assert!(r.has(RuleId::DepSorted), "{r}");
    }

    #[test]
    fn stream_and_kind_mismatches_flagged() {
        let mut t = Trace::new();
        // A stage op on the wrong stage's stream.
        t.push(op(
            OpName::StagePass {
                stage: 2,
                dir: PassDir::Fwd,
                mb: 0,
            },
            StreamId::StageCompute(1),
            OpKind::Gemm {
                class: madmax_model::LayerClass::Dense,
            },
            Phase::Forward,
            1.0,
            Deps::none(),
        ));
        // A collective on a compute stream.
        t.push(op(
            OpName::custom("ag"),
            StreamId::Compute,
            OpKind::Collective {
                kind: CollectiveKind::AllGather,
            },
            Phase::Forward,
            1.0,
            Deps::none(),
        ));
        let r = Verifier::default().verify_trace(&t);
        assert_eq!(r.of(RuleId::StreamMismatch).count(), 2, "{r}");
    }

    #[test]
    fn serve_trace_with_backward_op_flagged() {
        let mut t = Trace::new();
        let a = t.push(op(
            OpName::decode(0, None, "blocks"),
            StreamId::Compute,
            OpKind::Gemm {
                class: madmax_model::LayerClass::Dense,
            },
            Phase::Decode,
            1.0,
            Deps::none(),
        ));
        t.push(op(
            OpName::flat(PassDir::Bwd, None, "blocks"),
            StreamId::Compute,
            OpKind::Gemm {
                class: madmax_model::LayerClass::Dense,
            },
            Phase::Backward,
            1.0,
            Deps::one(a),
        ));
        // Inferred from the decode op even without workload context.
        let r = Verifier::default().verify_trace(&t);
        assert!(r.has(RuleId::PhaseMismatch), "{r}");
    }

    #[test]
    fn unchained_decode_steps_flagged() {
        let mut t = Trace::new();
        t.push(op(
            OpName::decode(0, None, "blocks"),
            StreamId::Compute,
            OpKind::Gemm {
                class: madmax_model::LayerClass::Dense,
            },
            Phase::Decode,
            1.0,
            Deps::none(),
        ));
        // Step 1 exists but does not depend on step 0.
        t.push(op(
            OpName::decode(1, None, "blocks"),
            StreamId::Compute,
            OpKind::Gemm {
                class: madmax_model::LayerClass::Dense,
            },
            Phase::Decode,
            1.0,
            Deps::none(),
        ));
        let r = Verifier::default().verify_trace(&t);
        assert!(r.has(RuleId::DecodeChain), "{r}");
    }

    #[test]
    fn corrupt_schedule_is_flagged_by_causality_and_overlap() {
        let mut t = Trace::new();
        let a = t.push(gemm(1.0, Deps::none()));
        t.push(gemm(1.0, Deps::one(a)));
        let mut s = schedule(&t);
        // Pull op 1 before its dependency finishes: violates causality
        // and overlaps op 0 on the shared compute stream.
        s.windows[1].start = Seconds::new(0.25);
        s.windows[1].finish = Seconds::new(1.25);
        s.makespan = Seconds::new(1.25);
        let r = Verifier::default().verify(&t, &s);
        assert!(r.has(RuleId::Causality), "{r}");
        assert!(r.has(RuleId::StreamOverlap), "{r}");
    }

    #[test]
    fn makespan_and_duration_inconsistencies_flagged() {
        let mut t = Trace::new();
        t.push(gemm(1.0, Deps::none()));
        let mut s = schedule(&t);
        s.makespan = Seconds::new(9.0);
        let r = Verifier::default().verify(&t, &s);
        assert!(r.has(RuleId::Makespan), "{r}");
        // Critical path exceeding the (shrunk) makespan is its own rule.
        let mut s2 = schedule(&t);
        s2.windows[0].finish = Seconds::new(0.25);
        s2.makespan = Seconds::new(0.25);
        let r2 = Verifier::default().verify(&t, &s2);
        assert!(r2.has(RuleId::Duration), "{r2}");
        assert!(r2.has(RuleId::CriticalPath), "{r2}");
    }
}
