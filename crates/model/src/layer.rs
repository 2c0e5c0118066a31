//! Layer taxonomy and per-layer analytical resource math.
//!
//! MAD-Max treats ML model layers as discrete blocks characterized by their
//! primary system requirement (Section IV-B): compute blocks are bound by
//! FLOPs, embedding bags by HBM lookup bytes. This module provides the
//! per-layer counting rules for parameters, forward FLOPs, lookup bytes,
//! activation sizes, and the tensor-parallel/All2All communication volumes
//! that the parallelization layer needs.

use serde::{Deserialize, Serialize};

use madmax_hw::units::{ByteCount, FlopCount};
use madmax_hw::DType;

/// A fully-connected stack: `dims = [in, h1, ..., out]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpSpec {
    /// Layer widths, input first. Must contain at least two entries.
    pub dims: Vec<usize>,
}

impl MlpSpec {
    /// Creates an MLP from its layer widths.
    ///
    /// # Panics
    ///
    /// Panics if [`MlpSpec::validate`] rejects the widths.
    pub(crate) fn new(dims: impl Into<Vec<usize>>) -> Self {
        let mlp = Self { dims: dims.into() };
        mlp.validate().unwrap_or_else(|e| panic!("{e}"));
        mlp
    }

    /// Checks for at least two widths, none of them zero.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.dims.len() < 2 {
            return Err("an MLP needs at least input and output widths".to_owned());
        }
        if self.dims.contains(&0) {
            return Err("zero-width MLP layer".to_owned());
        }
        Ok(())
    }

    /// Weight parameters (biases are counted as one per output unit).
    pub(crate) fn params(&self) -> f64 {
        self.dims
            .windows(2)
            .map(|w| (w[0] * w[1] + w[1]) as f64)
            .sum()
    }

    /// Forward FLOPs for one sample: 2 multiply-accumulates per weight.
    pub(crate) fn flops_fwd_per_sample(&self) -> f64 {
        self.dims
            .windows(2)
            .map(|w| 2.0 * (w[0] * w[1]) as f64)
            .sum()
    }

    /// Bytes of intermediate activations retained per sample for backward.
    pub(crate) fn activation_bytes_per_sample(&self, act_dtype: DType) -> f64 {
        let elems: usize = self.dims[1..].iter().sum();
        elems as f64 * f64::from(act_dtype.size_bytes())
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        *self.dims.last().expect("validated non-empty")
    }

    /// Input width.
    pub(crate) fn in_dim(&self) -> usize {
        self.dims[0]
    }
}

/// A set of categorical-feature embedding tables accessed with pooled
/// lookups (the dominant component of DLRMs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingBagSpec {
    /// Number of embedding tables.
    pub num_tables: usize,
    /// Rows per table (average).
    pub rows_per_table: f64,
    /// Embedding vector dimension.
    pub dim: usize,
    /// Average pooled lookups per table per sample (may be fractional).
    pub avg_lookups_per_table: f64,
    /// Element precision of the stored embeddings.
    pub dtype: DType,
}

impl EmbeddingBagSpec {
    /// Total embedding parameters.
    pub(crate) fn params(&self) -> f64 {
        self.num_tables as f64 * self.rows_per_table * self.dim as f64
    }

    /// Bytes fetched from HBM per sample across all tables — the paper's
    /// "Lookup bytes" quantity.
    pub(crate) fn lookup_bytes_per_sample(&self) -> f64 {
        self.num_tables as f64
            * self.avg_lookups_per_table
            * self.dim as f64
            * f64::from(self.dtype.size_bytes())
    }

    /// Bytes of pooled output per sample (one vector per table) — the unit
    /// of the All2All exchange when tables are sharded.
    pub fn pooled_output_bytes_per_sample(&self) -> f64 {
        self.num_tables as f64 * self.dim as f64 * f64::from(self.dtype.size_bytes())
    }
}

/// A token-embedding table (LLM word embeddings).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenEmbeddingSpec {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding/hidden dimension.
    pub dim: usize,
    /// Element precision.
    pub dtype: DType,
}

impl TokenEmbeddingSpec {
    /// Total parameters.
    pub(crate) fn params(&self) -> f64 {
        self.vocab as f64 * self.dim as f64
    }

    /// Bytes looked up per token.
    pub(crate) fn lookup_bytes_per_token(&self) -> f64 {
        self.dim as f64 * f64::from(self.dtype.size_bytes())
    }
}

/// Pairwise-dot-product feature interaction (canonical DLRM).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractionSpec {
    /// Number of interacting feature vectors.
    pub num_features: usize,
    /// Dimension of each feature vector.
    pub dim: usize,
}

impl InteractionSpec {
    /// Forward FLOPs per sample (2 per multiply-accumulate over all pairs).
    pub(crate) fn flops_fwd_per_sample(&self) -> f64 {
        let f = self.num_features as f64;
        2.0 * f * f * self.dim as f64
    }

    /// Width of the interaction output (upper-triangular pairs plus a dense
    /// passthrough of one feature vector).
    pub fn out_dim(&self) -> usize {
        self.num_features * (self.num_features - 1) / 2 + self.dim
    }
}

/// Feed-forward style inside a transformer block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FfnKind {
    /// Two matrices (up + down), GELU-style: GPT-3, ViT.
    Gelu,
    /// Three matrices (gate + up + down), SwiGLU-style: LLaMA.
    SwiGlu,
}

impl FfnKind {
    fn matrices(self) -> f64 {
        match self {
            FfnKind::Gelu => 2.0,
            FfnKind::SwiGlu => 3.0,
        }
    }
}

/// Where a transformer block obtains its sequence length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeqSource {
    /// Use the model-level context length (LLMs; enables context scaling
    /// studies that keep the architecture constant, Fig. 15).
    ModelContext,
    /// A fixed sequence length owned by the block (DLRM feature-interaction
    /// transformers use a down-sampled length of 80).
    Fixed(usize),
}

/// One transformer encoder/decoder block: self-attention + feed-forward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformerBlockSpec {
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Combined key/value projection width (`hidden` for MHA; smaller for
    /// grouped-query attention, e.g. 1024 for LLaMA-2 70B).
    pub kv_dim: usize,
    /// Feed-forward inner width.
    pub ffn_hidden: usize,
    /// Feed-forward flavor.
    pub ffn: FfnKind,
    /// Sequence-length source.
    pub seq: SeqSource,
}

impl TransformerBlockSpec {
    /// Linear-layer parameters of one block (QKVO + FFN + layer norms).
    pub(crate) fn params(&self) -> f64 {
        let h = self.hidden as f64;
        let kv = self.kv_dim as f64;
        let ff = self.ffn_hidden as f64;
        let attn = 2.0 * h * h + 2.0 * h * kv; // Q,O: h*h; K,V: h*kv
        let ffn = self.ffn.matrices() * h * ff;
        let norms = 4.0 * h;
        attn + ffn + norms
    }

    /// Sequence length seen by this block given the model context.
    pub fn seq_len(&self, model_context: usize) -> usize {
        match self.seq {
            SeqSource::ModelContext => model_context,
            SeqSource::Fixed(s) => s,
        }
    }

    /// Forward FLOPs per *token*: `2 * params` for the linear layers plus
    /// `4 * seq * hidden` for the attention score/value matmuls (the term
    /// that makes compute grow with context length, Fig. 15).
    pub(crate) fn flops_fwd_per_token(&self, model_context: usize) -> f64 {
        let s = self.seq_len(model_context) as f64;
        2.0 * self.params() + 4.0 * s * self.hidden as f64
    }

    /// Bytes of activations retained per token for backward when full
    /// activations are kept (no checkpointing); a standard first-order
    /// estimate of ~16 hidden-sized tensors per block.
    pub(crate) fn activation_bytes_per_token_full(&self, act_dtype: DType) -> f64 {
        16.0 * self.hidden as f64 * f64::from(act_dtype.size_bytes())
    }

    /// Bytes retained per token with activation checkpointing (block inputs
    /// only).
    pub(crate) fn activation_bytes_per_token_checkpointed(&self, act_dtype: DType) -> f64 {
        2.0 * self.hidden as f64 * f64::from(act_dtype.size_bytes())
    }

    /// Bytes all-reduced per token by tensor parallelism in the forward
    /// pass (two partial-sum reductions per block, Megatron-style).
    pub(crate) fn tp_allreduce_bytes_per_token(&self, act_dtype: DType) -> f64 {
        2.0 * self.hidden as f64 * f64::from(act_dtype.size_bytes())
    }

    /// KV-cache bytes per cached token per sequence: one key and one value
    /// row of `kv_dim` each (grouped-query attention caches the shared KV
    /// heads only, which is what makes GQA serve-friendly).
    pub(crate) fn kv_cache_bytes_per_token(&self, act_dtype: DType) -> f64 {
        2.0 * self.kv_dim as f64 * f64::from(act_dtype.size_bytes())
    }
}

/// A mixture-of-experts layer: `num_experts` parallel expert MLPs of which
/// `active_experts` fire per sample/token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoeSpec {
    /// Total experts.
    pub num_experts: usize,
    /// Experts activated per sample/token.
    pub active_experts: usize,
    /// One expert's architecture.
    pub expert: MlpSpec,
}

impl MoeSpec {
    /// Creates an MoE layer.
    ///
    /// # Panics
    ///
    /// Panics if [`MoeSpec::validate`] rejects the layer.
    pub(crate) fn new(num_experts: usize, active_experts: usize, expert: MlpSpec) -> Self {
        let moe = Self {
            num_experts,
            active_experts,
            expert,
        };
        moe.validate().unwrap_or_else(|e| panic!("{e}"));
        moe
    }

    /// Checks that between one and `num_experts` experts fire and that
    /// the expert is a valid MLP.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.active_experts == 0 || self.active_experts > self.num_experts {
            return Err(format!(
                "invalid expert activation: {} of {} experts",
                self.active_experts, self.num_experts
            ));
        }
        self.expert.validate()
    }

    /// Total parameters across all experts.
    pub(crate) fn params(&self) -> f64 {
        self.num_experts as f64 * self.expert.params()
    }

    /// Forward FLOPs per sample: only active experts compute, so FLOPs grow
    /// slower than capacity (Section II-A).
    pub(crate) fn flops_fwd_per_sample(&self) -> f64 {
        self.active_experts as f64 * self.expert.flops_fwd_per_sample()
    }

    /// Bytes each sample contributes to the expert-dispatch All2All (input
    /// routed to each active expert), one direction.
    pub(crate) fn dispatch_bytes_per_sample(&self, act_dtype: DType) -> f64 {
        self.active_experts as f64 * self.expert.in_dim() as f64 * f64::from(act_dtype.size_bytes())
    }
}

/// Any layer MAD-Max can model, dispatched by its primary system
/// requirement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerKind {
    /// Compute-bound fully-connected stack.
    Mlp(MlpSpec),
    /// HBM-bound pooled embedding lookups.
    EmbeddingBag(EmbeddingBagSpec),
    /// LLM token embedding.
    TokenEmbedding(TokenEmbeddingSpec),
    /// DLRM pairwise feature interaction.
    Interaction(InteractionSpec),
    /// Transformer block (self-attention + FFN).
    TransformerBlock(TransformerBlockSpec),
    /// Mixture-of-experts layer.
    Moe(MoeSpec),
}

impl LayerKind {
    /// Parameter count of one instance of this layer.
    pub fn params(&self) -> f64 {
        match self {
            LayerKind::Mlp(m) => m.params(),
            LayerKind::EmbeddingBag(e) => e.params(),
            LayerKind::TokenEmbedding(t) => t.params(),
            LayerKind::Interaction(_) => 0.0,
            LayerKind::TransformerBlock(t) => t.params(),
            LayerKind::Moe(m) => m.params(),
        }
    }

    /// Forward FLOPs per sample. `tokens_per_sample` is the model context
    /// length for token-based layers (1 for DLRM sample-based layers).
    pub fn flops_fwd_per_sample(&self, tokens_per_sample: usize) -> FlopCount {
        let f = match self {
            LayerKind::Mlp(m) => m.flops_fwd_per_sample(),
            LayerKind::EmbeddingBag(e) => {
                // Pooling additions, negligible but nonzero.
                e.num_tables as f64 * e.avg_lookups_per_table * e.dim as f64
            }
            LayerKind::TokenEmbedding(_) => 0.0,
            LayerKind::Interaction(i) => i.flops_fwd_per_sample(),
            LayerKind::TransformerBlock(t) => {
                let s = t.seq_len(tokens_per_sample) as f64;
                t.flops_fwd_per_token(tokens_per_sample) * s
            }
            // MoE routing happens per token: one sample of `tokens_per_sample`
            // tokens dispatches each token to its active experts (DLRMs have
            // one "token" per sample).
            LayerKind::Moe(m) => m.flops_fwd_per_sample() * tokens_per_sample as f64,
        };
        FlopCount::new(f)
    }

    /// HBM bytes fetched per sample for sparse lookups.
    pub fn lookup_bytes_per_sample(&self, tokens_per_sample: usize) -> ByteCount {
        let b = match self {
            LayerKind::EmbeddingBag(e) => e.lookup_bytes_per_sample(),
            LayerKind::TokenEmbedding(t) => t.lookup_bytes_per_token() * tokens_per_sample as f64,
            _ => 0.0,
        };
        ByteCount::new(b)
    }

    /// Whether this layer is served by embedding lookups rather than
    /// matrix compute.
    pub fn is_memory_bound(&self) -> bool {
        matches!(
            self,
            LayerKind::EmbeddingBag(_) | LayerKind::TokenEmbedding(_)
        )
    }

    /// Activation bytes retained per sample for the backward pass.
    ///
    /// With `checkpointing`, transformer blocks keep only their inputs and
    /// recompute internals during backward (standard for LLM pre-training).
    pub fn activation_bytes_per_sample(
        &self,
        tokens_per_sample: usize,
        act_dtype: DType,
        checkpointing: bool,
    ) -> ByteCount {
        let bytes = f64::from(act_dtype.size_bytes());
        let b = match self {
            LayerKind::Mlp(m) => m.activation_bytes_per_sample(act_dtype),
            LayerKind::EmbeddingBag(e) => e.pooled_output_bytes_per_sample(),
            LayerKind::TokenEmbedding(t) => t.dim as f64 * bytes * tokens_per_sample as f64,
            LayerKind::Interaction(i) => i.out_dim() as f64 * bytes,
            LayerKind::TransformerBlock(t) => {
                let per_token = if checkpointing {
                    t.activation_bytes_per_token_checkpointed(act_dtype)
                } else {
                    t.activation_bytes_per_token_full(act_dtype)
                };
                per_token * t.seq_len(tokens_per_sample) as f64
            }
            LayerKind::Moe(m) => {
                let per_token = if checkpointing {
                    // Only the routed input is retained; expert internals
                    // are recomputed.
                    m.expert.in_dim() as f64 * bytes
                } else {
                    m.active_experts as f64 * m.expert.activation_bytes_per_sample(act_dtype)
                };
                per_token * tokens_per_sample as f64
            }
        };
        ByteCount::new(b)
    }

    /// Bytes of partial sums all-reduced per sample by tensor parallelism
    /// in one direction (forward activations; the backward gradient volume
    /// is symmetric). This is the volume that grows with context length and
    /// drives Insight 3/6.
    pub fn tp_comm_bytes_per_sample(
        &self,
        tokens_per_sample: usize,
        act_dtype: DType,
    ) -> ByteCount {
        let bytes = f64::from(act_dtype.size_bytes());
        // Megatron-style TP pairs a column-split with a row-split layer and
        // all-reduces once per pair, so MLP stacks reduce roughly half of
        // their intermediate activations; transformer blocks reduce twice
        // per block (attention out + FFN out).
        let mlp_volume =
            |m: &MlpSpec| -> f64 { m.dims[1..].iter().sum::<usize>() as f64 * bytes / 2.0 };
        let b = match self {
            LayerKind::Mlp(m) => mlp_volume(m),
            LayerKind::EmbeddingBag(_) | LayerKind::TokenEmbedding(_) => 0.0,
            LayerKind::Interaction(_) => 0.0,
            LayerKind::TransformerBlock(t) => {
                t.tp_allreduce_bytes_per_token(act_dtype) * t.seq_len(tokens_per_sample) as f64
            }
            LayerKind::Moe(m) => {
                m.active_experts as f64 * mlp_volume(&m.expert) * tokens_per_sample as f64
            }
        };
        ByteCount::new(b)
    }

    /// KV-cache bytes per cached token per sequence: what serving retains
    /// (and a decode step re-reads) for every token already processed.
    /// Only attention layers cache keys/values.
    pub fn kv_cache_bytes_per_token(&self, act_dtype: DType) -> ByteCount {
        let b = match self {
            LayerKind::TransformerBlock(t) => t.kv_cache_bytes_per_token(act_dtype),
            _ => 0.0,
        };
        ByteCount::new(b)
    }

    /// Bytes each sample contributes to an expert-parallel All2All dispatch
    /// (one direction; a combine of the same size follows).
    pub fn moe_dispatch_bytes_per_sample(
        &self,
        tokens_per_sample: usize,
        act_dtype: DType,
    ) -> ByteCount {
        let b = match self {
            LayerKind::Moe(m) => m.dispatch_bytes_per_sample(act_dtype) * tokens_per_sample as f64,
            _ => 0.0,
        };
        ByteCount::new(b)
    }

    /// Bytes of pooled embedding output each sample contributes to the
    /// sharded-embedding All2All (one direction).
    pub fn embedding_exchange_bytes_per_sample(&self, tokens_per_sample: usize) -> ByteCount {
        let b = match self {
            LayerKind::EmbeddingBag(e) => e.pooled_output_bytes_per_sample(),
            LayerKind::TokenEmbedding(t) => t.lookup_bytes_per_token() * tokens_per_sample as f64,
            _ => 0.0,
        };
        ByteCount::new(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_math() {
        let m = MlpSpec::new([4, 8, 2]);
        assert_eq!(m.params(), (4 * 8 + 8 + 8 * 2 + 2) as f64);
        assert_eq!(m.flops_fwd_per_sample(), (2 * (4 * 8 + 8 * 2)) as f64);
        assert_eq!(m.activation_bytes_per_sample(DType::Fp32), (10 * 4) as f64);
        assert_eq!(m.in_dim(), 4);
        assert_eq!(m.out_dim(), 2);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_needs_two_dims() {
        let _ = MlpSpec::new([4]);
    }

    #[test]
    fn embedding_bag_math() {
        // 700 tables x 63.1 lookups x 128 dim x fp32 = DLRM-A's 22.61 MB.
        let e = EmbeddingBagSpec {
            num_tables: 700,
            rows_per_table: 8.85e6,
            dim: 128,
            avg_lookups_per_table: 63.1,
            dtype: DType::Fp32,
        };
        assert!((e.lookup_bytes_per_sample() / 1e6 - 22.61).abs() < 0.02);
        assert!((e.params() / 1e9 - 793.0).abs() < 1.0);
        assert_eq!(e.pooled_output_bytes_per_sample(), 700.0 * 128.0 * 4.0);
    }

    #[test]
    fn token_embedding_matches_gpt3_lookup_bytes() {
        // GPT-3: 12288-dim fp32 embedding = 49.2 KB per token.
        let t = TokenEmbeddingSpec {
            vocab: 50257,
            dim: 12288,
            dtype: DType::Fp32,
        };
        assert!((t.lookup_bytes_per_token() / 1e3 - 49.152).abs() < 1e-9);
    }

    #[test]
    fn transformer_block_gpt3_scale() {
        let b = TransformerBlockSpec {
            hidden: 12288,
            heads: 96,
            kv_dim: 12288,
            ffn_hidden: 4 * 12288,
            ffn: FfnKind::Gelu,
            seq: SeqSource::ModelContext,
        };
        // ~12 h^2 per block.
        assert!((b.params() / (12.0 * 12288.0f64.powi(2)) - 1.0).abs() < 1e-3);
        // flops/token ~ 2 * params + attention term.
        let f = b.flops_fwd_per_token(2048);
        assert!(f > 2.0 * b.params());
        assert!((f - (2.0 * b.params() + 4.0 * 2048.0 * 12288.0)).abs() < 1.0);
    }

    #[test]
    fn transformer_flops_grow_with_context() {
        let b = TransformerBlockSpec {
            hidden: 8192,
            heads: 64,
            kv_dim: 8192,
            ffn_hidden: 22016,
            ffn: FfnKind::SwiGlu,
            seq: SeqSource::ModelContext,
        };
        assert!(b.flops_fwd_per_token(8192) > b.flops_fwd_per_token(2048));
        // Fixed-seq blocks ignore model context.
        let fixed = TransformerBlockSpec {
            seq: SeqSource::Fixed(80),
            ..b
        };
        assert_eq!(
            fixed.flops_fwd_per_token(2048),
            fixed.flops_fwd_per_token(8192)
        );
        assert_eq!(fixed.seq_len(4096), 80);
    }

    #[test]
    fn gqa_reduces_params() {
        let mha = TransformerBlockSpec {
            hidden: 8192,
            heads: 64,
            kv_dim: 8192,
            ffn_hidden: 28672,
            ffn: FfnKind::SwiGlu,
            seq: SeqSource::ModelContext,
        };
        let gqa = TransformerBlockSpec {
            kv_dim: 1024,
            ..mha.clone()
        };
        assert!(gqa.params() < mha.params());
    }

    #[test]
    fn kv_cache_bytes_follow_kv_dim() {
        let mha = TransformerBlockSpec {
            hidden: 8192,
            heads: 64,
            kv_dim: 8192,
            ffn_hidden: 28672,
            ffn: FfnKind::SwiGlu,
            seq: SeqSource::ModelContext,
        };
        let gqa = TransformerBlockSpec {
            kv_dim: 1024,
            ..mha.clone()
        };
        // K + V at bf16: 2 * kv_dim * 2 bytes per cached token.
        assert_eq!(
            mha.kv_cache_bytes_per_token(DType::Bf16),
            2.0 * 8192.0 * 2.0
        );
        assert_eq!(
            gqa.kv_cache_bytes_per_token(DType::Bf16),
            mha.kv_cache_bytes_per_token(DType::Bf16) / 8.0
        );
        // Only attention layers cache.
        let block = LayerKind::TransformerBlock(mha);
        assert!(!block.kv_cache_bytes_per_token(DType::Bf16).is_zero());
        let mlp = LayerKind::Mlp(MlpSpec::new([8, 8]));
        assert!(mlp.kv_cache_bytes_per_token(DType::Bf16).is_zero());
    }

    #[test]
    fn moe_flops_scale_with_active_not_total() {
        let expert = MlpSpec::new([1024, 4096, 1024]);
        let a = MoeSpec::new(16, 2, expert.clone());
        let b = MoeSpec::new(64, 2, expert.clone());
        assert_eq!(a.flops_fwd_per_sample(), b.flops_fwd_per_sample());
        assert!(b.params() > a.params());
        assert_eq!(a.dispatch_bytes_per_sample(DType::Fp16), 2.0 * 1024.0 * 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid expert activation")]
    fn moe_rejects_zero_active() {
        let _ = MoeSpec::new(16, 0, MlpSpec::new([8, 8]));
    }

    #[test]
    fn layer_kind_dispatch() {
        let emb = LayerKind::EmbeddingBag(EmbeddingBagSpec {
            num_tables: 10,
            rows_per_table: 100.0,
            dim: 16,
            avg_lookups_per_table: 2.0,
            dtype: DType::Fp32,
        });
        assert!(emb.is_memory_bound());
        assert!(emb.lookup_bytes_per_sample(1).value() > 0.0);
        let mlp = LayerKind::Mlp(MlpSpec::new([16, 16]));
        assert!(!mlp.is_memory_bound());
        assert!(mlp.lookup_bytes_per_sample(1).is_zero());
        assert!(mlp.flops_fwd_per_sample(1).value() > 0.0);
    }

    #[test]
    fn interaction_output_dim() {
        let i = InteractionSpec {
            num_features: 128,
            dim: 256,
        };
        assert_eq!(i.out_dim(), 128 * 127 / 2 + 256);
        assert_eq!(i.flops_fwd_per_sample(), 2.0 * 128.0 * 128.0 * 256.0);
    }
}
