//! Builders for the paper's large language models: GPT-3 175B, LLaMA-65B,
//! LLaMA-2 70B, and the hypothetical 1.8T-parameter LLM-MoE (Table II).

use madmax_hw::DType;

use crate::arch::{BatchUnit, LayerClass, LayerGroup, ModelArch};
use crate::layer::{
    FfnKind, LayerKind, MlpSpec, MoeSpec, SeqSource, TokenEmbeddingSpec, TransformerBlockSpec,
};

fn token_embedding(vocab: usize, dim: usize) -> LayerGroup {
    LayerGroup::single(
        "word_embedding",
        LayerClass::Embedding,
        LayerKind::TokenEmbedding(TokenEmbeddingSpec {
            vocab,
            dim,
            dtype: DType::Fp32,
        }),
    )
}

fn block(hidden: usize, heads: usize, kv_dim: usize, ffn_hidden: usize, ffn: FfnKind) -> LayerKind {
    LayerKind::TransformerBlock(TransformerBlockSpec {
        hidden,
        heads,
        kv_dim,
        ffn_hidden,
        ffn,
        seq: SeqSource::ModelContext,
    })
}

#[allow(clippy::too_many_arguments)] // private builder; call sites are tabular
fn llm_arch(
    name: &str,
    vocab: usize,
    hidden: usize,
    heads: usize,
    kv_dim: usize,
    ffn_hidden: usize,
    ffn: FfnKind,
    layers: usize,
    context_length: usize,
    global_batch_sequences: usize,
) -> ModelArch {
    ModelArch {
        name: name.to_owned(),
        groups: vec![
            token_embedding(vocab, hidden),
            LayerGroup::repeated(
                "transformer_blocks",
                LayerClass::Transformer,
                block(hidden, heads, kv_dim, ffn_hidden, ffn),
                layers,
            ),
        ],
        context_length,
        batch_unit: BatchUnit::Tokens,
        global_batch: global_batch_sequences,
        compute_dtype: DType::Bf16,
        param_dtype: DType::Bf16,
    }
}

/// GPT-3 175B [Brown et al. 2020]: 96 layers, hidden 12288, 2K context,
/// 350 GFLOPs/token, ~4M-token global batches.
pub(crate) fn gpt3_175b() -> ModelArch {
    llm_arch(
        "GPT-3 175B",
        50_257,
        12_288,
        96,
        12_288,
        4 * 12_288,
        FfnKind::Gelu,
        96,
        2048,
        2048,
    )
}

/// LLaMA-65B [Touvron et al. 2023]: 80 layers, hidden 8192, SwiGLU FFN of
/// 22016, 2K context, 4M-token batches.
pub(crate) fn llama_65b() -> ModelArch {
    llm_arch(
        "LLaMA-65B",
        32_000,
        8192,
        64,
        8192,
        22_016,
        FfnKind::SwiGlu,
        80,
        2048,
        2048,
    )
}

/// LLaMA-2 70B [Touvron et al. 2023]: grouped-query attention (8 KV heads),
/// FFN 28672, 4K context, 4M-token batches.
pub(crate) fn llama2_70b() -> ModelArch {
    llm_arch(
        "LLaMA2-70B",
        32_000,
        8192,
        64,
        1024,
        28_672,
        FfnKind::SwiGlu,
        80,
        4096,
        1024,
    )
}

/// The hypothetical 1.8T-parameter LLM-MoE of Table II: GPT-3-scale
/// attention with the FFN replaced by 16 experts (2 active), 8K context.
pub(crate) fn llm_moe_1_8t() -> ModelArch {
    let hidden = 12_288;
    let layers = 90;
    // An "attention-only" transformer block: FFN width 0 is invalid, so we
    // model the block as attention (kv = hidden, tiny FFN elided) plus an
    // explicit MoE group carrying the expert FFNs.
    let attn_block = LayerKind::TransformerBlock(TransformerBlockSpec {
        hidden,
        heads: 96,
        kv_dim: hidden,
        ffn_hidden: 1, // negligible placeholder; experts replace the FFN
        ffn: FfnKind::Gelu,
        seq: SeqSource::ModelContext,
    });
    let expert = MlpSpec::new([hidden, 4 * hidden, hidden]);
    ModelArch {
        name: "LLM-MoE 1.8T".to_owned(),
        groups: vec![
            token_embedding(50_257, hidden),
            LayerGroup::repeated(
                "attention_blocks",
                LayerClass::Transformer,
                attn_block,
                layers,
            ),
            LayerGroup::repeated(
                "moe_ffn",
                LayerClass::Moe,
                LayerKind::Moe(MoeSpec::new(16, 2, expert)),
                layers,
            ),
        ],
        context_length: 8192,
        batch_unit: BatchUnit::Tokens,
        global_batch: 512,
        compute_dtype: DType::Bf16,
        param_dtype: DType::Bf16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct_err(got: f64, want: f64) -> f64 {
        ((got - want) / want).abs() * 100.0
    }

    #[test]
    fn gpt3_matches_table_ii() {
        let s = gpt3_175b().stats();
        assert!(
            pct_err(s.params_total, 175e9) < 1.0,
            "params {}",
            s.params_total
        );
        assert!(
            pct_err(s.flops_fwd_per_token().value(), 350e9) < 3.0,
            "flops/token {}",
            s.flops_fwd_per_token()
        );
        // 12288-dim fp32 word embedding -> 49.2 KB lookup per token.
        assert!(pct_err(s.lookup_bytes_per_token().value(), 49.2e3) < 0.5);
        // Insight 2: word embeddings are ~0.37% of GPT-3 parameters (<2 GB).
        let frac = s.embedding_param_fraction();
        assert!(frac > 0.003 && frac < 0.004, "emb fraction {frac}");
        // 2K sequences x 2048 tokens = ~4M-token batch.
        assert_eq!(s.global_batch, 2048);
        assert_eq!(gpt3_175b().tokens_per_iteration(), 2048.0 * 2048.0);
    }

    #[test]
    fn llama_65b_matches_table_ii() {
        let s = llama_65b().stats();
        assert!(
            pct_err(s.params_total, 65.2e9) < 1.0,
            "params {}",
            s.params_total
        );
        // Paper reports 2*P = 130.4 GF/token; our count adds the attention
        // score term (+~3%), kept deliberately for context-length studies.
        assert!(pct_err(s.flops_fwd_per_token().value(), 130.4e9) < 5.0);
        assert!(pct_err(s.lookup_bytes_per_token().value(), 32.8e3) < 0.5);
    }

    #[test]
    fn llama2_70b_matches_table_ii() {
        let s = llama2_70b().stats();
        assert!(
            pct_err(s.params_total, 70e9) < 3.0,
            "params {}",
            s.params_total
        );
        assert!(pct_err(s.flops_fwd_per_token().value(), 140e9) < 6.0);
        assert_eq!(s.context_length, 4096);
        // Same 4M-token budget as LLaMA-1 at twice the context.
        assert_eq!(llama2_70b().tokens_per_iteration(), 1024.0 * 4096.0);
    }

    #[test]
    fn llm_moe_matches_table_ii() {
        let s = llm_moe_1_8t().stats();
        assert!(
            pct_err(s.params_total, 1.8e12) < 2.0,
            "params {}",
            s.params_total
        );
        assert!(
            pct_err(s.flops_fwd_per_token().value(), 550e9) < 6.0,
            "flops/token {}",
            s.flops_fwd_per_token()
        );
        assert_eq!(s.context_length, 8192);
        // FLOPs per token grow slower than capacity: 1.8T params but only
        // ~550 GF/token vs GPT-3's 175B params at 350 GF/token.
        let gpt3 = gpt3_175b().stats();
        let capacity_ratio = s.params_total / gpt3.params_total;
        let flop_ratio = s.flops_fwd_per_token().value() / gpt3.flops_fwd_per_token().value();
        assert!(capacity_ratio > 5.0 * flop_ratio);
    }

    #[test]
    fn context_doubling_preserves_architecture() {
        let base = llama2_70b();
        let doubled = base.with_context_length(8192);
        assert_eq!(doubled.stats().params_total, base.stats().params_total);
        assert!(
            doubled.stats().flops_fwd_per_token().value()
                > base.stats().flops_fwd_per_token().value()
        );
    }
}
