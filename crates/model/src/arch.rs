//! Whole-model architecture descriptions and derived statistics.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use madmax_hw::units::{ByteCount, FlopCount};
use madmax_hw::DType;

use crate::layer::LayerKind;

/// Parallelization-relevant layer classes. The paper applies *one*
/// parallelization strategy per layer type (Section II-B), so strategies in
/// a plan are keyed by this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LayerClass {
    /// Embedding tables / token embeddings.
    Embedding,
    /// Base dense layers (bottom/top MLPs, interaction).
    Dense,
    /// Transformer blocks.
    Transformer,
    /// Mixture-of-experts layers.
    Moe,
}

impl LayerClass {
    /// All classes, in canonical order.
    pub const ALL: [LayerClass; 4] = [
        LayerClass::Embedding,
        LayerClass::Dense,
        LayerClass::Transformer,
        LayerClass::Moe,
    ];
}

impl std::fmt::Display for LayerClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LayerClass::Embedding => "embedding",
            LayerClass::Dense => "dense",
            LayerClass::Transformer => "transformer",
            LayerClass::Moe => "moe",
        };
        f.write_str(s)
    }
}

/// A named group of `repeat` identical layers sharing a class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerGroup {
    /// Display name, e.g. `"bottom_mlp"` or `"transformer_blocks"`.
    pub name: String,
    /// Parallelization class.
    pub class: LayerClass,
    /// The layer's architecture.
    pub kind: LayerKind,
    /// Number of identical instances executed in sequence.
    pub repeat: usize,
}

impl LayerGroup {
    /// Creates a group of one layer.
    pub fn single(name: impl Into<String>, class: LayerClass, kind: LayerKind) -> Self {
        Self {
            name: name.into(),
            class,
            kind,
            repeat: 1,
        }
    }

    /// Creates a group of `repeat` identical layers.
    ///
    /// # Panics
    ///
    /// Panics if `LayerGroup::validate` rejects the group.
    pub fn repeated(
        name: impl Into<String>,
        class: LayerClass,
        kind: LayerKind,
        repeat: usize,
    ) -> Self {
        let group = Self {
            name: name.into(),
            class,
            kind,
            repeat,
        };
        group.validate().unwrap_or_else(|e| panic!("{e}"));
        group
    }

    /// Checks a positive `repeat` and, for MLP and MoE layers, the widths
    /// and the expert activation.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.repeat == 0 {
            return Err("layer group repeat must be positive".to_owned());
        }
        match &self.kind {
            LayerKind::Mlp(m) => m.validate(),
            LayerKind::Moe(m) => m.validate(),
            _ => Ok(()),
        }
    }

    /// Parameters across all instances.
    pub(crate) fn params(&self) -> f64 {
        self.kind.params() * self.repeat as f64
    }
}

/// Whether throughput is counted in samples (queries) or tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchUnit {
    /// Recommendation queries (throughput in MQPS).
    Samples,
    /// Language-model tokens (throughput in tokens/s); a "sample" is one
    /// sequence of `context_length` tokens.
    Tokens,
}

/// A complete model architecture plus its task-level defaults (Table II
/// row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArch {
    /// Model name, e.g. `"DLRM-A"` or `"GPT-3 175B"`.
    pub name: String,
    /// Ordered layer groups (forward execution order).
    pub groups: Vec<LayerGroup>,
    /// Tokens per sample for token-based models (1 for DLRMs).
    pub context_length: usize,
    /// Throughput accounting unit.
    pub batch_unit: BatchUnit,
    /// Global batch size in samples (sequences for LLMs), as fixed by the
    /// paper's accuracy-preserving recipes (Table II).
    pub global_batch: usize,
    /// Precision used for matrix compute.
    pub compute_dtype: DType,
    /// Precision of stored dense parameters (and their gradients).
    pub param_dtype: DType,
}

impl ModelArch {
    /// Checks every layer group (see `LayerGroup::validate`).
    ///
    /// # Errors
    ///
    /// Returns the first offending group's name and violation.
    pub fn validate(&self) -> Result<(), String> {
        for g in &self.groups {
            g.validate()
                .map_err(|e| format!("layer group `{}`: {e}", g.name))?;
        }
        Ok(())
    }

    /// Iterates over groups of a given class.
    pub fn groups_of(&self, class: LayerClass) -> impl Iterator<Item = &LayerGroup> {
        self.groups.iter().filter(move |g| g.class == class)
    }

    /// Returns a copy with a different context length (architecture
    /// constant), the knob of the paper's Fig. 15 study.
    #[must_use]
    pub fn with_context_length(&self, context_length: usize) -> Self {
        let mut m = self.clone();
        m.context_length = context_length;
        // Keep the global token budget constant when scaling context so the
        // comparison holds work fixed (4M-token batches in the paper).
        if self.batch_unit == BatchUnit::Tokens && self.context_length > 0 {
            let tokens = self.global_batch * self.context_length;
            m.global_batch = (tokens / context_length).max(1);
        }
        m.name = format!("{} (ctx {context_length})", self.name);
        m
    }

    /// Tokens processed per iteration (== samples for sample-based models).
    pub fn tokens_per_iteration(&self) -> f64 {
        match self.batch_unit {
            BatchUnit::Samples => self.global_batch as f64,
            BatchUnit::Tokens => (self.global_batch * self.context_length) as f64,
        }
    }

    /// Computes the model's aggregate statistics.
    pub fn stats(&self) -> ModelStats {
        let mut params_by_class: BTreeMap<LayerClass, f64> = BTreeMap::new();
        let mut flops = 0.0;
        let mut lookup = 0.0;
        for g in &self.groups {
            *params_by_class.entry(g.class).or_insert(0.0) += g.params();
            flops += g.kind.flops_fwd_per_sample(self.context_length).value() * g.repeat as f64;
            lookup += g.kind.lookup_bytes_per_sample(self.context_length).value() * g.repeat as f64;
        }
        ModelStats {
            params_total: params_by_class.values().sum(),
            params_by_class,
            flops_fwd_per_sample: FlopCount::new(flops),
            lookup_bytes_per_sample: ByteCount::new(lookup),
            context_length: self.context_length,
            batch_unit: self.batch_unit,
            global_batch: self.global_batch,
        }
    }
}

/// Aggregate per-model statistics: the quantities of the paper's Table II
/// and Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Total parameters.
    pub params_total: f64,
    /// Parameters per layer class.
    pub params_by_class: BTreeMap<LayerClass, f64>,
    /// Forward FLOPs per sample (per sequence for LLMs).
    pub flops_fwd_per_sample: FlopCount,
    /// Sparse lookup bytes per sample (per sequence for LLMs).
    pub lookup_bytes_per_sample: ByteCount,
    /// Tokens per sample.
    pub context_length: usize,
    /// Throughput accounting unit.
    pub batch_unit: BatchUnit,
    /// Global batch size.
    pub global_batch: usize,
}

impl ModelStats {
    /// Forward FLOPs per token (Table II reports LLM compute per token).
    pub fn flops_fwd_per_token(&self) -> FlopCount {
        match self.batch_unit {
            BatchUnit::Samples => self.flops_fwd_per_sample,
            BatchUnit::Tokens => self.flops_fwd_per_sample / self.context_length as f64,
        }
    }

    /// Lookup bytes per token.
    pub fn lookup_bytes_per_token(&self) -> ByteCount {
        match self.batch_unit {
            BatchUnit::Samples => self.lookup_bytes_per_sample,
            BatchUnit::Tokens => self.lookup_bytes_per_sample / self.context_length as f64,
        }
    }

    /// Fraction of parameters living in embeddings (Fig. 3 / Observation 1:
    /// ~100% for DLRMs, <1% for LLMs).
    pub fn embedding_param_fraction(&self) -> f64 {
        let emb = self
            .params_by_class
            .get(&LayerClass::Embedding)
            .copied()
            .unwrap_or(0.0);
        if self.params_total == 0.0 {
            0.0
        } else {
            emb / self.params_total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{EmbeddingBagSpec, MlpSpec};

    fn tiny_dlrm() -> ModelArch {
        ModelArch {
            name: "tiny".into(),
            groups: vec![
                LayerGroup::single(
                    "emb",
                    LayerClass::Embedding,
                    LayerKind::EmbeddingBag(EmbeddingBagSpec {
                        num_tables: 4,
                        rows_per_table: 1000.0,
                        dim: 8,
                        avg_lookups_per_table: 2.0,
                        dtype: DType::Fp32,
                    }),
                ),
                LayerGroup::single(
                    "mlp",
                    LayerClass::Dense,
                    LayerKind::Mlp(MlpSpec::new([8, 16, 1])),
                ),
            ],
            context_length: 1,
            batch_unit: BatchUnit::Samples,
            global_batch: 1024,
            compute_dtype: DType::Tf32,
            param_dtype: DType::Fp32,
        }
    }

    #[test]
    fn stats_aggregate_classes() {
        let s = tiny_dlrm().stats();
        assert_eq!(s.params_by_class.len(), 2);
        assert!(
            (s.params_total - (4.0 * 1000.0 * 8.0 + (8 * 16 + 16 + 16 + 1) as f64)).abs() < 1e-9
        );
        assert!(s.embedding_param_fraction() > 0.99);
        assert_eq!(s.lookup_bytes_per_sample.value(), 4.0 * 2.0 * 8.0 * 4.0);
    }

    #[test]
    fn token_vs_sample_units() {
        let mut m = tiny_dlrm();
        m.batch_unit = BatchUnit::Tokens;
        m.context_length = 128;
        let s = m.stats();
        assert_eq!(
            s.flops_fwd_per_token().value() * 128.0,
            s.flops_fwd_per_sample.value()
        );
        assert_eq!(m.tokens_per_iteration(), 1024.0 * 128.0);
    }

    #[test]
    fn context_scaling_keeps_token_budget() {
        let mut m = tiny_dlrm();
        m.batch_unit = BatchUnit::Tokens;
        m.context_length = 2048;
        m.global_batch = 2048; // 4M tokens
        let doubled = m.with_context_length(4096);
        assert_eq!(doubled.context_length, 4096);
        assert_eq!(doubled.global_batch, 1024);
        assert_eq!(doubled.tokens_per_iteration(), m.tokens_per_iteration());
    }

    #[test]
    fn groups_of_filters_class() {
        let m = tiny_dlrm();
        assert_eq!(m.groups_of(LayerClass::Embedding).count(), 1);
        assert_eq!(m.groups_of(LayerClass::Transformer).count(), 0);
    }

    #[test]
    #[should_panic(expected = "repeat must be positive")]
    fn zero_repeat_rejected() {
        let _ = LayerGroup::repeated(
            "x",
            LayerClass::Dense,
            LayerKind::Mlp(MlpSpec::new([2, 2])),
            0,
        );
    }
}
