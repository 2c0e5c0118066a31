//! Vision Transformer family used for the paper's Fig. 8 validation:
//! ViT-L (300M) through ViT-120B, trained with FSDP on AWS
//! `p4d.24xlarge` instances at global batch sizes of 2K or 4K.

use madmax_hw::DType;

use crate::arch::{BatchUnit, LayerClass, LayerGroup, ModelArch};
use crate::layer::{FfnKind, LayerKind, SeqSource, TokenEmbeddingSpec, TransformerBlockSpec};

/// One named ViT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VitConfig {
    /// Family name, e.g. `"ViT-L"`.
    pub name: &'static str,
    /// Hidden dimension.
    pub hidden: usize,
    /// Encoder layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN inner width.
    pub ffn_hidden: usize,
}

/// The scaling ladder from ViT-L (~300M) to ViT-120B.
pub const VIT_FAMILY: [VitConfig; 5] = [
    VitConfig {
        name: "ViT-L",
        hidden: 1024,
        layers: 24,
        heads: 16,
        ffn_hidden: 4096,
    },
    VitConfig {
        name: "ViT-H",
        hidden: 1280,
        layers: 32,
        heads: 16,
        ffn_hidden: 5120,
    },
    VitConfig {
        name: "ViT-G",
        hidden: 1664,
        layers: 48,
        heads: 16,
        ffn_hidden: 8192,
    },
    VitConfig {
        name: "ViT-22B",
        hidden: 6144,
        layers: 48,
        heads: 48,
        ffn_hidden: 24_576,
    },
    VitConfig {
        name: "ViT-120B",
        hidden: 10_240,
        layers: 96,
        heads: 80,
        ffn_hidden: 40_960,
    },
];

/// Patch tokens per image: 224x224 input, 16x16 patches, plus `[CLS]`.
pub(crate) const VIT_SEQ_LEN: usize = 197;

/// Builds a ViT encoder as a token-based model: patches play the role of
/// tokens and the patch-projection layer plays the embedding role.
pub fn vit(config: &VitConfig, global_batch_images: usize) -> ModelArch {
    ModelArch {
        name: config.name.to_owned(),
        groups: vec![
            LayerGroup::single(
                "patch_embedding",
                LayerClass::Embedding,
                // 16x16x3 patch projection behaves like a small per-token
                // lookup + matmul; modeled on the lookup side for capacity.
                LayerKind::TokenEmbedding(TokenEmbeddingSpec {
                    vocab: 16 * 16 * 3,
                    dim: config.hidden,
                    dtype: DType::Fp16,
                }),
            ),
            LayerGroup::repeated(
                "encoder_blocks",
                LayerClass::Transformer,
                LayerKind::TransformerBlock(TransformerBlockSpec {
                    hidden: config.hidden,
                    heads: config.heads,
                    kv_dim: config.hidden,
                    ffn_hidden: config.ffn_hidden,
                    ffn: FfnKind::Gelu,
                    seq: SeqSource::ModelContext,
                }),
                config.layers,
            ),
        ],
        context_length: VIT_SEQ_LEN,
        batch_unit: BatchUnit::Tokens,
        global_batch: global_batch_images,
        compute_dtype: DType::Bf16,
        param_dtype: DType::Bf16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_of(name: &str) -> f64 {
        let cfg = VIT_FAMILY.iter().find(|c| c.name == name).unwrap();
        vit(cfg, 2048).stats().params_total
    }

    #[test]
    fn family_spans_published_sizes() {
        assert!(
            (params_of("ViT-L") / 300e6 - 1.0).abs() < 0.05,
            "{}",
            params_of("ViT-L")
        );
        assert!(
            (params_of("ViT-H") / 632e6 - 1.0).abs() < 0.05,
            "{}",
            params_of("ViT-H")
        );
        assert!(
            (params_of("ViT-G") / 1.85e9 - 1.0).abs() < 0.05,
            "{}",
            params_of("ViT-G")
        );
        assert!((params_of("ViT-22B") / 21.7e9 - 1.0).abs() < 0.05);
        assert!((params_of("ViT-120B") / 120e9 - 1.0).abs() < 0.05);
    }

    #[test]
    fn monotone_scaling() {
        let sizes: Vec<f64> = VIT_FAMILY
            .iter()
            .map(|c| vit(c, 2048).stats().params_total)
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn vit_is_image_batched() {
        let cfg = &VIT_FAMILY[0];
        let m = vit(cfg, 4096);
        assert_eq!(m.global_batch, 4096);
        assert_eq!(m.tokens_per_iteration(), 4096.0 * VIT_SEQ_LEN as f64);
    }
}
