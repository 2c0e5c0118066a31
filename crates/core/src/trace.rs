//! Execution-trace representation: the "detailed record capturing the
//! sequence and duration of both compute and communication events (i.e.,
//! streams) on each device" (Section IV-A).
//!
//! Because execution is SPMD, MAD-Max builds the trace of one
//! representative device.
//!
//! The trace types are built for the design-space-exploration hot path,
//! where millions of ops are created and thrown away per search:
//!
//! - [`OpName`] is a structured name (shared-label handle or fully inline
//!   stage coordinates) rendered to a string only for display, so naming
//!   an op never allocates;
//! - [`Deps`] stores up to two dependencies inline (almost every op has at
//!   most two) and spills to the heap only for join points like the
//!   feature-interaction and optimizer ops;
//! - [`Trace::clear`] recycles the op arena so a worker thread reuses one
//!   allocation across all candidates it evaluates.

use std::sync::Arc;

use madmax_hw::units::Seconds;
use madmax_model::LayerClass;
use madmax_parallel::CollectiveKind;

/// Hardware queue an op occupies.
///
/// Flat SPMD traces use the first three variants (one representative
/// device). Pipeline-parallel traces are *multi-stream*: each stage `s`
/// contributes its own compute and communication streams, representing one
/// device of that stage's group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamId {
    /// SMs + HBM: GEMMs, embedding lookups, optimizer updates.
    Compute,
    /// Blocking/prefetchable collectives (the "communication stream").
    Comm,
    /// Weight-gradient collectives (FSDP/DDP issue these on a separate
    /// lower-priority channel so they drain behind blocking traffic).
    GradComm,
    /// Compute stream of one pipeline stage.
    StageCompute(u16),
    /// Forward communication stream of one pipeline stage (intra-stage
    /// blocking collectives and activation P2P sends).
    StageComm(u16),
    /// Backward/deferred communication stream of one pipeline stage
    /// (gradient P2P sends and weight-gradient collectives), mirroring the
    /// flat trace's `Comm`/`GradComm` split so backward traffic does not
    /// serialize behind activation transfers.
    StageGradComm(u16),
}

impl StreamId {
    /// Whether this stream moves bytes between devices.
    pub fn is_comm(self) -> bool {
        matches!(
            self,
            StreamId::Comm
                | StreamId::GradComm
                | StreamId::StageComm(_)
                | StreamId::StageGradComm(_)
        )
    }

    /// Whether this stream occupies the device's compute resources.
    pub fn is_compute(self) -> bool {
        matches!(self, StreamId::Compute | StreamId::StageCompute(_))
    }

    /// The pipeline stage this stream belongs to, if any.
    pub fn stage(self) -> Option<u16> {
        match self {
            StreamId::StageCompute(s) | StreamId::StageComm(s) | StreamId::StageGradComm(s) => {
                Some(s)
            }
            _ => None,
        }
    }

    /// Dense index of this stream for slot-table lookups: the three flat
    /// streams occupy slots 0-2 and each pipeline stage's three streams
    /// follow as a contiguous triple, so the scheduler can track per-stream
    /// state in a plain `Vec` instead of an ordered map.
    pub fn slot(self) -> usize {
        match self {
            StreamId::Compute => 0,
            StreamId::Comm => 1,
            StreamId::GradComm => 2,
            StreamId::StageCompute(s) => 3 + 3 * s as usize,
            StreamId::StageComm(s) => 4 + 3 * s as usize,
            StreamId::StageGradComm(s) => 5 + 3 * s as usize,
        }
    }
}

/// Iteration phase an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Forward pass (training forward, or the serve prefill).
    Forward,
    /// Backward pass (gradient flow).
    Backward,
    /// Parameter update.
    Update,
    /// Autoregressive decode step of a serve workload.
    Decode,
}

/// What an op does, for breakdown accounting (Figs. 4, 7, 20).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Matrix compute (MLP/transformer/MoE/interaction).
    Gemm {
        /// The layer class executing.
        class: LayerClass,
    },
    /// HBM-bound embedding lookup or gradient scatter.
    Lookup,
    /// A communication collective.
    Collective {
        /// Which primitive.
        kind: CollectiveKind,
    },
    /// Optimizer step.
    Optimizer,
}

/// Index of an op within its [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// Direction tag of a flat-trace or stage-trace pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassDir {
    /// Forward-pass op (`fwd` prefix).
    Fwd,
    /// Backward-pass op (`bwd` prefix).
    Bwd,
    /// Decode-step op of a serve trace (`dec` prefix); the stage-trace
    /// microbatch index then counts positions in the decode stream.
    Dec,
}

impl std::fmt::Display for PassDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PassDir::Fwd => "fwd",
            PassDir::Bwd => "bwd",
            PassDir::Dec => "dec",
        })
    }
}

/// Structured op name, rendered to a display string on demand.
///
/// Creating an `OpName` never allocates — or touches a refcount — on the
/// evaluation hot path: flat ops copy an interned `intern_label`
/// `&'static str` label (priced once per search by the cost table), and
/// stage ops carry their coordinates inline. The rendered
/// forms reproduce the historical string names exactly, e.g.
/// `fwd.embedding_tables.a2a`, `bwd[3].blocks.ag_bwd`, `stage0.fwd[2]`,
/// `update.optimizer`.
///
/// Hand-built traces name their ops with [`OpName::Custom`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpName {
    /// Flat-trace op: `"{dir}[{inst}].{label}"` (the `[{inst}]` part is
    /// omitted for single-instance layer groups). The label covers both
    /// compute ops (`"bottom_mlp"`, `"embedding_tables.lookup"`) and
    /// collectives (`"top_mlp.ag"`).
    Flat {
        /// Pass direction prefix.
        dir: PassDir,
        /// Layer-group instance, for groups with `repeat > 1`.
        inst: Option<u32>,
        /// Interned display label.
        label: &'static str,
    },
    /// Flat-trace decode-step op: `"dec[{step}].{label}"` (or
    /// `"dec[{step}][{inst}].{label}"` for groups with `repeat > 1`). One
    /// name per (decode step, layer instance) pair of a serve trace.
    DecodeFlat {
        /// Decode step index (token position in the output stream).
        step: u32,
        /// Layer-group instance, for groups with `repeat > 1`.
        inst: Option<u32>,
        /// Interned display label.
        label: &'static str,
    },
    /// The flat trace's single optimizer step: `"update.optimizer"`.
    UpdateOptimizer,
    /// Once-per-iteration stage parameter collective:
    /// `"stage{s}.param.{kind}"`.
    StageParam {
        /// Pipeline stage.
        stage: u16,
        /// Collective primitive.
        kind: CollectiveKind,
    },
    /// Stage compute of one microbatch: `"stage{s}.{dir}[{mb}]"`.
    StagePass {
        /// Pipeline stage.
        stage: u16,
        /// Pass direction.
        dir: PassDir,
        /// Microbatch index.
        mb: u32,
    },
    /// Blocking stage collective of one microbatch:
    /// `"stage{s}.{dir}[{mb}].{kind}"`.
    StagePassColl {
        /// Pipeline stage.
        stage: u16,
        /// Pass direction.
        dir: PassDir,
        /// Microbatch index.
        mb: u32,
        /// Collective primitive.
        kind: CollectiveKind,
    },
    /// Activation send to the next stage: `"stage{s}.send_act[{mb}]"`.
    StageSendAct {
        /// Pipeline stage.
        stage: u16,
        /// Microbatch index.
        mb: u32,
    },
    /// Decode-stream activation send to the next stage:
    /// `"stage{s}.send_tok[{mb}]"` (`mb` counts positions in the decode
    /// stream, so the name never collides with a prefill send).
    StageSendTok {
        /// Pipeline stage.
        stage: u16,
        /// Decode-stream unit index.
        mb: u32,
    },
    /// Gradient send to the previous stage: `"stage{s}.send_grad[{mb}]"`.
    StageSendGrad {
        /// Pipeline stage.
        stage: u16,
        /// Microbatch index.
        mb: u32,
    },
    /// Deferred stage weight-gradient collective:
    /// `"stage{s}.grad.{kind}"`.
    StageGrad {
        /// Pipeline stage.
        stage: u16,
        /// Collective primitive.
        kind: CollectiveKind,
    },
    /// Per-stage optimizer step: `"stage{s}.optimizer"`.
    StageOptimizer {
        /// Pipeline stage.
        stage: u16,
    },
    /// Free-form name, for hand-built traces.
    Custom(Arc<str>),
}

/// Interns `s` into the global label registry, returning the canonical
/// `&'static str` the flat [`OpName`] variants carry. Labels are priced
/// once per search (layer-group and collective names), so the leaked set
/// is bounded by the distinct label strings of the process; interning the
/// same string twice returns the same reference. Interning unbounded
/// *distinct* labels would grow the registry for the process lifetime;
/// engine-generated traces only ever carry the bounded label set priced
/// from the model.
pub(crate) fn intern_label(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static LABELS: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = LABELS
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("label registry poisoned");
    if let Some(&interned) = set.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

impl OpName {
    /// A flat-trace name with an interned label.
    pub fn flat(dir: PassDir, inst: Option<u32>, label: &'static str) -> Self {
        OpName::Flat { dir, inst, label }
    }

    /// A flat-trace decode-step name with an interned label.
    pub fn decode(step: u32, inst: Option<u32>, label: &'static str) -> Self {
        OpName::DecodeFlat { step, inst, label }
    }

    /// A free-form name (allocates; intended for hand-built traces).
    pub fn custom(name: impl AsRef<str>) -> Self {
        OpName::Custom(Arc::from(name.as_ref()))
    }
}

impl From<String> for OpName {
    fn from(s: String) -> Self {
        OpName::Custom(Arc::from(s.as_str()))
    }
}

impl From<&str> for OpName {
    fn from(s: &str) -> Self {
        OpName::Custom(Arc::from(s))
    }
}

impl std::fmt::Display for OpName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpName::Flat {
                dir,
                inst: None,
                label,
            } => write!(f, "{dir}.{label}"),
            OpName::Flat {
                dir,
                inst: Some(i),
                label,
            } => write!(f, "{dir}[{i}].{label}"),
            OpName::DecodeFlat {
                step,
                inst: None,
                label,
            } => write!(f, "dec[{step}].{label}"),
            OpName::DecodeFlat {
                step,
                inst: Some(i),
                label,
            } => write!(f, "dec[{step}][{i}].{label}"),
            OpName::UpdateOptimizer => f.write_str("update.optimizer"),
            OpName::StageParam { stage, kind } => write!(f, "stage{stage}.param.{kind}"),
            OpName::StagePass { stage, dir, mb } => write!(f, "stage{stage}.{dir}[{mb}]"),
            OpName::StagePassColl {
                stage,
                dir,
                mb,
                kind,
            } => write!(f, "stage{stage}.{dir}[{mb}].{kind}"),
            OpName::StageSendAct { stage, mb } => write!(f, "stage{stage}.send_act[{mb}]"),
            OpName::StageSendTok { stage, mb } => write!(f, "stage{stage}.send_tok[{mb}]"),
            OpName::StageSendGrad { stage, mb } => write!(f, "stage{stage}.send_grad[{mb}]"),
            OpName::StageGrad { stage, kind } => write!(f, "stage{stage}.grad.{kind}"),
            OpName::StageOptimizer { stage } => write!(f, "stage{stage}.optimizer"),
            OpName::Custom(s) => f.write_str(s),
        }
    }
}

/// Maximum dependencies stored without a heap allocation.
pub(crate) const INLINE_DEPS: usize = 2;

/// Dependency list of one op: up to `INLINE_DEPS` ids inline, spilling
/// to a `Vec` only for wide join points (feature interaction consuming
/// many embedding outputs, the optimizer consuming every gradient).
///
/// Equality compares the dependency *list* ([`Deps::as_slice`]), not the
/// representation: an inline list equals its spilled twin, and stale
/// inactive inline slots are ignored.
#[derive(Debug, Clone)]
pub enum Deps {
    /// The common case, stored inline.
    Inline {
        /// Number of valid entries in `ids`.
        len: u8,
        /// Dependency ids (`..len` are valid).
        ids: [OpId; INLINE_DEPS],
    },
    /// More than `INLINE_DEPS` dependencies.
    Spilled(Vec<OpId>),
}

impl Default for Deps {
    fn default() -> Self {
        Deps::Inline {
            len: 0,
            ids: [OpId(0); INLINE_DEPS],
        }
    }
}

impl Deps {
    /// No dependencies.
    pub fn none() -> Self {
        Deps::default()
    }

    /// A single dependency.
    pub fn one(id: OpId) -> Self {
        Deps::Inline {
            len: 1,
            ids: [id, OpId(0)],
        }
    }

    /// The dependencies as a slice.
    pub fn as_slice(&self) -> &[OpId] {
        match self {
            Deps::Inline { len, ids } => &ids[..*len as usize],
            Deps::Spilled(v) => v,
        }
    }

    /// Number of dependencies.
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the list is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the dependency ids.
    pub fn iter(&self) -> std::slice::Iter<'_, OpId> {
        self.as_slice().iter()
    }

    /// Inserts a dependency at its sorted position, spilling to the heap
    /// past `INLINE_DEPS`.
    ///
    /// Insertion (rather than appending) keeps a sorted list sorted, so a
    /// push after `Deps::sort_dedup` cannot silently break the sorted
    /// invariant the scheduler and verifier rely on. Duplicates are still
    /// allowed (they land adjacent); `sort_dedup` removes them. Ascending
    /// pushes — the builders' common case — insert at the tail, so this
    /// stays O(log n) + amortized O(1) for them.
    pub fn push(&mut self, id: OpId) {
        match self {
            Deps::Inline { len, ids } => {
                let n = *len as usize;
                if n < INLINE_DEPS {
                    let at = if n == 0 || ids[n - 1] <= id {
                        n // ascending push: plain append
                    } else {
                        ids[..n].partition_point(|&d| d <= id)
                    };
                    ids.copy_within(at..n, at + 1);
                    ids[at] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_DEPS + 2);
                    v.extend_from_slice(&ids[..]);
                    let at = v.partition_point(|&d| d <= id);
                    v.insert(at, id);
                    *self = Deps::Spilled(v);
                }
            }
            Deps::Spilled(v) => {
                if v.last().is_none_or(|&d| d <= id) {
                    v.push(id);
                } else {
                    let at = v.partition_point(|&d| d <= id);
                    v.insert(at, id);
                }
            }
        }
    }

    /// Removes all dependencies (keeps any spilled capacity).
    pub(crate) fn clear(&mut self) {
        match self {
            Deps::Inline { len, .. } => *len = 0,
            Deps::Spilled(v) => v.clear(),
        }
    }

    /// Appends every dependency of `other`.
    pub(crate) fn extend_from(&mut self, other: &Deps) {
        for &id in other.as_slice() {
            self.push(id);
        }
    }

    /// Sorts and deduplicates the list in place.
    pub(crate) fn sort_dedup(&mut self) {
        match self {
            Deps::Inline { len, ids } => {
                let n = *len as usize;
                ids[..n].sort_unstable();
                if n == 2 && ids[0] == ids[1] {
                    *len = 1;
                }
            }
            Deps::Spilled(v) => {
                v.sort_unstable();
                v.dedup();
            }
        }
    }
}

impl PartialEq for Deps {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<OpId>> for Deps {
    fn from(v: Vec<OpId>) -> Self {
        match v.as_slice() {
            [] => Deps::none(),
            [a] => Deps::one(*a),
            [a, b] => Deps::Inline {
                len: 2,
                ids: [*a, *b],
            },
            _ => Deps::Spilled(v),
        }
    }
}

impl FromIterator<OpId> for Deps {
    fn from_iter<I: IntoIterator<Item = OpId>>(iter: I) -> Self {
        let mut deps = Deps::none();
        for id in iter {
            deps.push(id);
        }
        deps
    }
}

impl<'a> IntoIterator for &'a Deps {
    type Item = &'a OpId;
    type IntoIter = std::slice::Iter<'a, OpId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq<Vec<OpId>> for Deps {
    fn eq(&self, other: &Vec<OpId>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Deps> for Vec<OpId> {
    fn eq(&self, other: &Deps) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One event on a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOp {
    /// Structured display name, e.g. `"fwd.embedding_tables.a2a"`.
    pub name: OpName,
    /// Queue this op occupies.
    pub stream: StreamId,
    /// Category for breakdowns.
    pub kind: OpKind,
    /// Iteration phase.
    pub phase: Phase,
    /// Modeled execution time.
    pub duration: Seconds,
    /// Ops that must finish before this one starts (data dependencies).
    pub deps: Deps,
}

/// A per-device execution trace: ops in issue order (which is also a
/// topological order of the dependency graph).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if any dependency refers to a later op (the trace must stay
    /// topologically ordered).
    pub fn push(&mut self, op: TraceOp) -> OpId {
        let id = OpId(self.ops.len());
        assert!(
            op.deps.iter().all(|d| d.0 < id.0),
            "dependency cycle: op {} depends on a later op",
            op.name
        );
        self.ops.push(op);
        id
    }

    /// Removes all ops, keeping the allocation for arena-style reuse
    /// across evaluation candidates.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// All ops in issue order.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Sum of all op durations: the paper's *serialized* execution time.
    pub fn serialized_time(&self) -> Seconds {
        self.ops.iter().map(|o| o.duration).sum()
    }

    /// Applies `f` to every op duration from index `start` on. Used by
    /// the serve builders to round an assembled prefix onto the analytic
    /// grid (see [`crate::steady`]); durations are the only op field a
    /// builder may rewrite after the fact (names, streams, and deps are
    /// structural).
    pub fn map_durations_from(&mut self, start: usize, mut f: impl FnMut(Seconds) -> Seconds) {
        for op in &mut self.ops[start..] {
            op.duration = f(op.duration);
        }
    }

    /// Ops on a given stream.
    pub fn stream_ops(&self, stream: StreamId) -> impl Iterator<Item = (OpId, &TraceOp)> {
        self.ops
            .iter()
            .enumerate()
            .filter(move |(_, o)| o.stream == stream)
            .map(|(i, o)| (OpId(i), o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &str, stream: StreamId, ms: f64, deps: Vec<OpId>) -> TraceOp {
        TraceOp {
            name: OpName::custom(name),
            stream,
            kind: OpKind::Lookup,
            phase: Phase::Forward,
            duration: Seconds::from_ms(ms),
            deps: deps.into(),
        }
    }

    #[test]
    fn push_returns_sequential_ids() {
        let mut t = Trace::new();
        let a = t.push(op("a", StreamId::Compute, 1.0, vec![]));
        let b = t.push(op("b", StreamId::Comm, 2.0, vec![a]));
        assert_eq!(a, OpId(0));
        assert_eq!(b, OpId(1));
        assert_eq!(t.len(), 2);
        assert!((t.serialized_time().as_ms() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn forward_dependency_rejected() {
        let mut t = Trace::new();
        t.push(op("bad", StreamId::Compute, 1.0, vec![OpId(5)]));
    }

    #[test]
    fn stream_filtering() {
        let mut t = Trace::new();
        t.push(op("a", StreamId::Compute, 1.0, vec![]));
        t.push(op("b", StreamId::Comm, 1.0, vec![]));
        t.push(op("c", StreamId::Compute, 1.0, vec![]));
        assert_eq!(t.stream_ops(StreamId::Compute).count(), 2);
        assert_eq!(t.stream_ops(StreamId::Comm).count(), 1);
        assert_eq!(t.stream_ops(StreamId::GradComm).count(), 0);
    }

    #[test]
    fn comm_stream_classification() {
        assert!(!StreamId::Compute.is_comm());
        assert!(StreamId::Comm.is_comm());
        assert!(StreamId::GradComm.is_comm());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t = Trace::new();
        for _ in 0..64 {
            t.push(op("x", StreamId::Compute, 1.0, vec![]));
        }
        let cap = t.ops.capacity();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.ops.capacity(), cap);
    }

    #[test]
    fn stream_slots_are_dense_and_unique() {
        let streams = [
            StreamId::Compute,
            StreamId::Comm,
            StreamId::GradComm,
            StreamId::StageCompute(0),
            StreamId::StageComm(0),
            StreamId::StageGradComm(0),
            StreamId::StageCompute(1),
            StreamId::StageComm(1),
            StreamId::StageGradComm(1),
        ];
        let slots: Vec<usize> = streams.iter().map(|s| s.slot()).collect();
        assert_eq!(slots, (0..streams.len()).collect::<Vec<_>>());
    }

    #[test]
    fn op_name_renders_exact_legacy_strings() {
        use madmax_parallel::CollectiveKind as Ck;
        assert_eq!(
            OpName::flat(PassDir::Fwd, None, "embedding_tables.a2a").to_string(),
            "fwd.embedding_tables.a2a"
        );
        assert_eq!(
            OpName::flat(PassDir::Bwd, Some(3), "blocks.ag_bwd").to_string(),
            "bwd[3].blocks.ag_bwd"
        );
        assert_eq!(OpName::UpdateOptimizer.to_string(), "update.optimizer");
        assert_eq!(
            OpName::decode(0, None, "transformer_blocks").to_string(),
            "dec[0].transformer_blocks"
        );
        assert_eq!(
            OpName::decode(31, Some(95), "transformer_blocks").to_string(),
            "dec[31][95].transformer_blocks"
        );
        assert_eq!(
            OpName::StageParam {
                stage: 0,
                kind: Ck::AllGather
            }
            .to_string(),
            "stage0.param.AllGather"
        );
        assert_eq!(
            OpName::StagePass {
                stage: 2,
                dir: PassDir::Fwd,
                mb: 7
            }
            .to_string(),
            "stage2.fwd[7]"
        );
        assert_eq!(
            OpName::StagePassColl {
                stage: 1,
                dir: PassDir::Bwd,
                mb: 0,
                kind: Ck::AllReduce
            }
            .to_string(),
            "stage1.bwd[0].AllReduce"
        );
        assert_eq!(
            OpName::StageSendAct { stage: 0, mb: 4 }.to_string(),
            "stage0.send_act[4]"
        );
        assert_eq!(
            OpName::StageSendGrad { stage: 3, mb: 11 }.to_string(),
            "stage3.send_grad[11]"
        );
        assert_eq!(
            OpName::StageGrad {
                stage: 5,
                kind: Ck::ReduceScatter
            }
            .to_string(),
            "stage5.grad.ReduceScatter"
        );
        assert_eq!(
            OpName::StageOptimizer { stage: 7 }.to_string(),
            "stage7.optimizer"
        );
    }

    #[test]
    fn op_names_render_their_display_forms() {
        use madmax_parallel::CollectiveKind as Ck;
        let names = [
            (
                OpName::flat(PassDir::Fwd, None, "embedding_tables.a2a"),
                "fwd.embedding_tables.a2a",
            ),
            (
                OpName::flat(PassDir::Bwd, Some(95), "blocks"),
                "bwd[95].blocks",
            ),
            (OpName::UpdateOptimizer, "update.optimizer"),
            (
                OpName::StageParam {
                    stage: 0,
                    kind: Ck::AllGather,
                },
                "stage0.param.AllGather",
            ),
            (
                OpName::StagePass {
                    stage: 2,
                    dir: PassDir::Fwd,
                    mb: 7,
                },
                "stage2.fwd[7]",
            ),
            (
                OpName::StagePassColl {
                    stage: 1,
                    dir: PassDir::Bwd,
                    mb: 0,
                    kind: Ck::AllToAll,
                },
                "stage1.bwd[0].All2All",
            ),
            (
                OpName::StageSendAct { stage: 0, mb: 4 },
                "stage0.send_act[4]",
            ),
            (
                OpName::StageSendTok { stage: 2, mb: 47 },
                "stage2.send_tok[47]",
            ),
            (
                OpName::StageSendGrad { stage: 3, mb: 11 },
                "stage3.send_grad[11]",
            ),
            (
                OpName::StageGrad {
                    stage: 5,
                    kind: Ck::ReduceScatter,
                },
                "stage5.grad.ReduceScatter",
            ),
            (OpName::StageOptimizer { stage: 7 }, "stage7.optimizer"),
            (
                OpName::decode(0, None, "word_embedding.lookup"),
                "dec[0].word_embedding.lookup",
            ),
            (
                OpName::decode(63, Some(12), "transformer_blocks.tp_ar"),
                "dec[63][12].transformer_blocks.tp_ar",
            ),
            (OpName::custom("op17"), "op17"),
        ];
        for (name, rendered) in names {
            assert_eq!(name.to_string(), rendered);
        }
    }

    #[test]
    fn deps_inline_up_to_two_then_spill() {
        let mut d = Deps::none();
        assert!(d.is_empty());
        d.push(OpId(3));
        d.push(OpId(1));
        assert!(matches!(d, Deps::Inline { len: 2, .. }));
        d.sort_dedup();
        assert_eq!(d.as_slice(), &[OpId(1), OpId(3)]);
        d.push(OpId(2));
        assert!(matches!(d, Deps::Spilled(_)));
        d.sort_dedup();
        assert_eq!(d.as_slice(), &[OpId(1), OpId(2), OpId(3)]);
        assert_eq!(d, vec![OpId(1), OpId(2), OpId(3)]);
    }

    #[test]
    fn deps_push_after_sort_dedup_keeps_sorted_invariant() {
        // Regression: push used to append, so pushing a smaller id after
        // sort_dedup left the list unsorted and the dedup in sort_dedup
        // (which assumes adjacency) could miss duplicates.
        let mut d = Deps::from(vec![OpId(4), OpId(9)]);
        d.sort_dedup();
        d.push(OpId(1));
        assert_eq!(d.as_slice(), &[OpId(1), OpId(4), OpId(9)]);
        d.push(OpId(6));
        assert_eq!(d.as_slice(), &[OpId(1), OpId(4), OpId(6), OpId(9)]);
        // Duplicates land adjacent, so a later sort_dedup still removes
        // them even without re-sorting.
        d.push(OpId(4));
        assert_eq!(d.as_slice(), &[OpId(1), OpId(4), OpId(4), OpId(6), OpId(9)]);
        d.sort_dedup();
        assert_eq!(d.as_slice(), &[OpId(1), OpId(4), OpId(6), OpId(9)]);
        // The inline representation keeps the invariant too.
        let mut inline = Deps::one(OpId(7));
        inline.push(OpId(2));
        assert_eq!(inline.as_slice(), &[OpId(2), OpId(7)]);
        assert!(matches!(inline, Deps::Inline { len: 2, .. }));
    }

    #[test]
    fn deps_equality_ignores_representation() {
        // Dedup leaves a stale inactive slot; equality must not see it.
        let mut d = Deps::from(vec![OpId(5), OpId(5)]);
        d.sort_dedup();
        assert_eq!(d, Deps::one(OpId(5)));
        // Spilled and inline forms of the same list are equal.
        let spilled = Deps::Spilled(vec![OpId(1), OpId(2)]);
        assert_eq!(spilled, Deps::from(vec![OpId(1), OpId(2)]));
    }

    #[test]
    fn deps_sort_dedup_inline_pair() {
        let mut d = Deps::from(vec![OpId(5), OpId(5)]);
        d.sort_dedup();
        assert_eq!(d.as_slice(), &[OpId(5)]);
        let mut d = Deps::from(vec![OpId(9), OpId(2)]);
        d.sort_dedup();
        assert_eq!(d.as_slice(), &[OpId(2), OpId(9)]);
    }
}
