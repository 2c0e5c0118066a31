//! Builders for the paper's production-scale recommendation models:
//! DLRM-A, DLRM-B, and their Transformer / MoE feature-interaction variants
//! (Table II, Section II-A).
//!
//! The architectures below are synthesized to match the published
//! model-level characteristics (parameter count and split, forward FLOPs
//! per sample, sparse lookup bytes per sample, global batch size); exact
//! production layer dimensions are Meta-internal. Tests in this module and
//! `table2` assert the match.

use madmax_hw::DType;

use crate::arch::{BatchUnit, LayerClass, LayerGroup, ModelArch};
use crate::layer::{
    EmbeddingBagSpec, FfnKind, InteractionSpec, LayerKind, MlpSpec, MoeSpec, SeqSource,
    TransformerBlockSpec,
};

/// Flavor of the feature-interaction stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlrmVariant {
    /// Concatenation/dot-product interaction (canonical DLRM).
    Base,
    /// Transformer-encoder feature interaction (4 layers, seq 80).
    Transformer,
    /// Mixture-of-experts top MLPs (16 experts, 2 active).
    Moe,
}

impl std::fmt::Display for DlrmVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DlrmVariant::Base => "",
            DlrmVariant::Transformer => " Transformer",
            DlrmVariant::Moe => " MoE",
        };
        f.write_str(s)
    }
}

/// Down-sampled sequence length of the transformer interaction variants.
pub(crate) const DLRM_TRANSFORMER_SEQ: usize = 80;
/// Experts per MoE layer (2 active) for all MoE variants.
pub(crate) const DLRM_MOE_EXPERTS: usize = 16;
/// Active experts per sample.
pub(crate) const DLRM_MOE_ACTIVE: usize = 2;

fn interaction_transformer() -> LayerKind {
    LayerKind::TransformerBlock(TransformerBlockSpec {
        hidden: 512,
        heads: 8,
        kv_dim: 512,
        ffn_hidden: 1920,
        ffn: FfnKind::Gelu,
        seq: SeqSource::Fixed(DLRM_TRANSFORMER_SEQ),
    })
}

/// DLRM-A: the 793-billion-parameter production recommendation model of
/// [Mudigere et al., ISCA'22]; 638 MFLOPs and 22.61 MB of sparse lookups
/// per sample, 64K global batch.
pub fn dlrm_a(variant: DlrmVariant) -> ModelArch {
    // 99.96% of parameters are embeddings.
    let (tables, rows, lookups) = match variant {
        // 700 x 8.85M x 128 = 793B params; 700 * 63.1 * 128 * 4B = 22.61 MB.
        DlrmVariant::Base | DlrmVariant::Moe => (700, 8.85e6, 63.1),
        // The transformer variant models sequence relationships instead of
        // wide pooling: fewer tables/lookups (13.19 MB) but more rows.
        DlrmVariant::Transformer => (409, 15.18e6, 63.1),
    };
    let emb = LayerGroup::single(
        "embedding_tables",
        LayerClass::Embedding,
        LayerKind::EmbeddingBag(EmbeddingBagSpec {
            num_tables: tables,
            rows_per_table: rows,
            dim: 128,
            avg_lookups_per_table: lookups,
            dtype: DType::Fp32,
        }),
    );
    let bottom = LayerGroup::single(
        "bottom_mlp",
        LayerClass::Dense,
        LayerKind::Mlp(MlpSpec::new([2048, 4096, 4096, 256])),
    );
    let interaction = LayerGroup::single(
        "feature_interaction",
        LayerClass::Dense,
        LayerKind::Interaction(InteractionSpec {
            num_features: 128,
            dim: 256,
        }),
    );
    let top_dims = [8384, 8192, 8192, 8192, 8192, 2048, 512, 1];

    let mut groups = vec![emb, bottom, interaction];
    match variant {
        DlrmVariant::Base => {
            groups.push(LayerGroup::single(
                "top_mlp",
                LayerClass::Dense,
                LayerKind::Mlp(MlpSpec::new(top_dims)),
            ));
        }
        DlrmVariant::Transformer => {
            groups.push(LayerGroup::repeated(
                "interaction_transformer",
                LayerClass::Transformer,
                interaction_transformer(),
                4,
            ));
            groups.push(LayerGroup::single(
                "top_mlp",
                LayerClass::Dense,
                LayerKind::Mlp(MlpSpec::new(top_dims)),
            ));
        }
        DlrmVariant::Moe => {
            groups.push(LayerGroup::single(
                "moe_top_mlps",
                LayerClass::Moe,
                LayerKind::Moe(MoeSpec::new(
                    DLRM_MOE_EXPERTS,
                    DLRM_MOE_ACTIVE,
                    MlpSpec::new([8384, 8192, 8192, 8192, 2048, 512, 1]),
                )),
            ));
        }
    }
    ModelArch {
        name: format!("DLRM-A{variant}"),
        groups,
        context_length: 1,
        batch_unit: BatchUnit::Samples,
        global_batch: 64 * 1024,
        compute_dtype: DType::Tf32,
        param_dtype: DType::Fp32,
    }
}

/// DLRM-B: the 332-billion-parameter production model with lighter compute
/// (60 MFLOPs/sample) and a 256K global batch. Table II does not publish
/// DLRM-B's per-sample lookup volume (the 49.2 KB / 32.8 KB entries in that
/// row are the LLM token-embedding lookups: exactly 12288 x 4 B and
/// 8192 x 4 B); the embedding configuration here is calibrated against the
/// published 3.4 MQPS Table I validation point instead (~12 MB/sample,
/// roughly half of DLRM-A's per-sample lookup traffic).
pub(crate) fn dlrm_b(variant: DlrmVariant) -> ModelArch {
    let (tables, rows) = match variant {
        // 366 x 7.1M x 128 = 332.6B params; 366 * 64 * 128 * 4B = 12.0 MB.
        DlrmVariant::Base | DlrmVariant::Moe => (366, 7.1e6),
        // 214 x 12.16M x 128 = 333.1B params; ~7.0 MB lookups.
        DlrmVariant::Transformer => (214, 12.16e6),
    };
    let emb = LayerGroup::single(
        "embedding_tables",
        LayerClass::Embedding,
        LayerKind::EmbeddingBag(EmbeddingBagSpec {
            num_tables: tables,
            rows_per_table: rows,
            dim: 128,
            avg_lookups_per_table: 64.0,
            dtype: DType::Fp32,
        }),
    );
    let bottom = LayerGroup::single(
        "bottom_mlp",
        LayerClass::Dense,
        LayerKind::Mlp(MlpSpec::new([512, 1024, 1024, 128])),
    );
    let interaction = LayerGroup::single(
        "feature_interaction",
        LayerClass::Dense,
        LayerKind::Interaction(InteractionSpec {
            num_features: 97,
            dim: 128,
        }),
    );
    let top_dims = [4784, 2432, 2432, 2048, 1024, 512, 1];

    let mut groups = vec![emb, bottom, interaction];
    match variant {
        DlrmVariant::Base => {
            groups.push(LayerGroup::single(
                "top_mlp",
                LayerClass::Dense,
                LayerKind::Mlp(MlpSpec::new(top_dims)),
            ));
        }
        DlrmVariant::Transformer => {
            groups.push(LayerGroup::repeated(
                "interaction_transformer",
                LayerClass::Transformer,
                LayerKind::TransformerBlock(TransformerBlockSpec {
                    hidden: 512,
                    heads: 8,
                    kv_dim: 512,
                    ffn_hidden: 2048,
                    ffn: FfnKind::Gelu,
                    seq: SeqSource::Fixed(DLRM_TRANSFORMER_SEQ),
                }),
                4,
            ));
            groups.push(LayerGroup::single(
                "top_mlp",
                LayerClass::Dense,
                LayerKind::Mlp(MlpSpec::new(top_dims)),
            ));
        }
        DlrmVariant::Moe => {
            groups.push(LayerGroup::single(
                "moe_top_mlps",
                LayerClass::Moe,
                LayerKind::Moe(MoeSpec::new(
                    DLRM_MOE_EXPERTS,
                    DLRM_MOE_ACTIVE,
                    MlpSpec::new([4784, 2048, 2048, 2048, 1024, 512, 1]),
                )),
            ));
        }
    }
    ModelArch {
        name: format!("DLRM-B{variant}"),
        groups,
        context_length: 1,
        batch_unit: BatchUnit::Samples,
        global_batch: 256 * 1024,
        compute_dtype: DType::Tf32,
        param_dtype: DType::Fp32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct_err(got: f64, want: f64) -> f64 {
        ((got - want) / want).abs() * 100.0
    }

    #[test]
    fn dlrm_a_matches_table_ii() {
        let s = dlrm_a(DlrmVariant::Base).stats();
        assert!(
            pct_err(s.params_total, 793e9) < 1.0,
            "params {}",
            s.params_total
        );
        assert!(
            pct_err(s.flops_fwd_per_sample.value(), 638e6) < 3.0,
            "flops {}",
            s.flops_fwd_per_sample
        );
        assert!(pct_err(s.lookup_bytes_per_sample.value(), 22.61e6) < 1.0);
        assert_eq!(s.global_batch, 65536);
        // Insight 1: embeddings are 99.96% of DLRM-A parameters.
        assert!(s.embedding_param_fraction() > 0.999);
    }

    #[test]
    fn dlrm_a_transformer_matches_table_ii() {
        let s = dlrm_a(DlrmVariant::Transformer).stats();
        assert!(
            pct_err(s.params_total, 795e9) < 1.0,
            "params {}",
            s.params_total
        );
        assert!(
            pct_err(s.flops_fwd_per_sample.value(), 2.6e9) < 4.0,
            "flops {}",
            s.flops_fwd_per_sample
        );
        assert!(pct_err(s.lookup_bytes_per_sample.value(), 13.19e6) < 1.0);
    }

    #[test]
    fn dlrm_a_moe_matches_table_ii() {
        let s = dlrm_a(DlrmVariant::Moe).stats();
        assert!(
            pct_err(s.flops_fwd_per_sample.value(), 957e6) < 3.0,
            "flops {}",
            s.flops_fwd_per_sample
        );
        // MoE capacity grows faster than compute: params exceed base.
        let base = dlrm_a(DlrmVariant::Base).stats();
        assert!(s.params_total > base.params_total);
        assert!(s.flops_fwd_per_sample.value() < 2.0 * base.flops_fwd_per_sample.value() * 4.0);
    }

    #[test]
    fn dlrm_b_matches_table_ii() {
        let s = dlrm_b(DlrmVariant::Base).stats();
        assert!(
            pct_err(s.params_total, 332e9) < 1.0,
            "params {}",
            s.params_total
        );
        assert!(
            pct_err(s.flops_fwd_per_sample.value(), 60e6) < 3.0,
            "flops {}",
            s.flops_fwd_per_sample
        );
        // Calibrated (not published): ~12 MB of pooled lookups per sample.
        assert!(pct_err(s.lookup_bytes_per_sample.value(), 12.0e6) < 2.0);
        assert_eq!(s.global_batch, 262144);
    }

    #[test]
    fn dlrm_b_transformer_matches_table_ii() {
        let s = dlrm_b(DlrmVariant::Transformer).stats();
        assert!(pct_err(s.params_total, 333e9) < 1.0);
        assert!(
            pct_err(s.flops_fwd_per_sample.value(), 2.1e9) < 3.0,
            "flops {}",
            s.flops_fwd_per_sample
        );
        assert!(pct_err(s.lookup_bytes_per_sample.value(), 7.0e6) < 2.0);
    }

    #[test]
    fn dlrm_b_moe_matches_table_ii() {
        let s = dlrm_b(DlrmVariant::Moe).stats();
        assert!(
            pct_err(s.flops_fwd_per_sample.value(), 90e6) < 3.5,
            "flops {}",
            s.flops_fwd_per_sample
        );
    }

    #[test]
    fn variants_share_embedding_dominance() {
        for v in [
            DlrmVariant::Base,
            DlrmVariant::Transformer,
            DlrmVariant::Moe,
        ] {
            let s = dlrm_a(v).stats();
            assert!(s.embedding_param_fraction() > 0.99, "{v:?}");
        }
    }
}
