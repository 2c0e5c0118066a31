//! The [`Workload`] API: a structured description of *what* a model
//! executes — pre-training, fine-tuning, or serving — with per-phase
//! FLOP, bytes-moved, and memory semantics.
//!
//! `Workload` replaces the flat `Task` enum. Training workloads run one
//! forward + backward + update iteration. Serving ([`Workload::serve`]) is
//! described by a [`ServeConfig`] and runs a compute-bound prefill over
//! the prompt followed by `decode_len` bandwidth-bound decode steps, each
//! generating one token per sequence while reading a KV-cache that grows
//! with every generated token.
//!
//! The legacy `Task::Inference` shape survives as [`Workload::inference`]:
//! a prefill-only serve workload — same effective model, no KV-cache, no
//! decode steps — whose engine path is byte-for-byte the old forward-only
//! simulation.

use std::borrow::Cow;
use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use madmax_model::{LayerClass, ModelArch};

/// Configuration of a serving workload: prompt processing plus token-level
/// autoregressive decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Prompt length in tokens. `None` uses the model's `context_length`
    /// unchanged (what the legacy forward-only inference task did).
    pub prompt_len: Option<usize>,
    /// Output tokens generated per sequence. `0` is prefill-only.
    pub decode_len: usize,
    /// Sequences decoded concurrently (the serving batch, applied to both
    /// phases). `None` uses the model's `global_batch`.
    pub decode_batch: Option<usize>,
    /// Model the KV-cache: its per-device memory footprint (included in
    /// OOM checks, growing to `prompt + decode_len` tokens) and the
    /// per-step cache read that makes decode bandwidth-bound. `false`
    /// idealizes decode as compute-only.
    pub kv_cache: bool,
}

impl ServeConfig {
    /// Prompt-only serving with the model's own context and batch — the
    /// exact shape of the legacy forward-only inference task.
    pub(crate) fn prefill_only() -> Self {
        Self {
            prompt_len: None,
            decode_len: 0,
            decode_batch: None,
            kv_cache: false,
        }
    }

    /// A prompt of `prompt_len` tokens followed by `decode_len` generated
    /// tokens, with the KV-cache modeled.
    pub fn new(prompt_len: usize, decode_len: usize) -> Self {
        Self {
            prompt_len: Some(prompt_len),
            decode_len,
            decode_batch: None,
            kv_cache: true,
        }
    }

    /// Sets the serving batch (sequences decoded concurrently).
    #[must_use]
    pub fn with_decode_batch(mut self, batch: usize) -> Self {
        self.decode_batch = Some(batch);
        self
    }

    /// Whether any decode steps run.
    pub fn has_decode(&self) -> bool {
        self.decode_len > 0
    }

    /// The prompt length resolved against a model.
    pub fn effective_prompt_len(&self, model: &ModelArch) -> usize {
        self.prompt_len.unwrap_or(model.context_length)
    }

    /// The serving batch resolved against a model.
    pub fn effective_batch(&self, model: &ModelArch) -> usize {
        self.decode_batch.unwrap_or(model.global_batch)
    }

    /// The KV-cache length after the last decode step (tokens per
    /// sequence), given the resolved prompt length; `None` when
    /// `prompt_len + decode_len` overflows.
    pub fn max_kv_len(&self, prompt_len: usize) -> Option<usize> {
        prompt_len.checked_add(self.decode_len)
    }
}

impl std::fmt::Display for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.prompt_len {
            Some(p) => write!(f, "prompt={p}")?,
            None => f.write_str("prompt=ctx")?,
        }
        write!(f, " decode={}", self.decode_len)?;
        if let Some(b) = self.decode_batch {
            write!(f, " batch={b}")?;
        }
        if !self.kv_cache {
            f.write_str(" no-kv")?;
        }
        Ok(())
    }
}

/// What a model executes, carrying per-phase semantics every engine layer
/// consumes (successor of the removed flat `Task` enum).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Full training: all layers trainable, one fwd+bwd phase.
    Pretrain,
    /// Fine-tuning with only the listed layer classes trainable; frozen
    /// layers' gradient compute and communication are omitted (the
    /// paper's Insight 5 modeling choice).
    Finetune {
        /// Layer classes whose parameters are updated.
        trainable: BTreeSet<LayerClass>,
    },
    /// Serving: prefill over the prompt, then token-level decode.
    Serve(ServeConfig),
}

impl Workload {
    /// Full training of every layer class.
    pub fn pretrain() -> Self {
        Workload::Pretrain
    }

    /// Fine-tuning the listed layer classes.
    pub(crate) fn finetune(classes: impl IntoIterator<Item = LayerClass>) -> Self {
        Workload::Finetune {
            trainable: classes.into_iter().collect(),
        }
    }

    /// Fine-tuning a single layer class (e.g. only the embedding tables
    /// or only the MLPs, as in Fig. 14).
    pub fn finetune_only(class: LayerClass) -> Self {
        Workload::finetune([class])
    }

    /// A serving workload.
    pub fn serve(config: ServeConfig) -> Self {
        Workload::Serve(config)
    }

    /// The legacy forward-only inference task: a prefill-only serve over
    /// the model's own context and batch, no KV-cache modeling.
    pub fn inference() -> Self {
        Workload::Serve(ServeConfig::prefill_only())
    }

    /// The serve configuration, for serving workloads.
    pub fn serve_config(&self) -> Option<&ServeConfig> {
        match self {
            Workload::Serve(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// Whether a backward pass exists at all.
    pub fn has_backward(&self) -> bool {
        !matches!(self, Workload::Serve(_))
    }

    /// Whether layers of `class` receive gradient updates.
    pub fn trains(&self, class: LayerClass) -> bool {
        match self {
            Workload::Pretrain => true,
            Workload::Finetune { trainable } => trainable.contains(&class),
            Workload::Serve(_) => false,
        }
    }

    /// The model as this workload's primary phase executes it: serving
    /// workloads override the context length with the prompt length and
    /// the global batch with the serving batch. Training workloads (and
    /// serve configs without overrides) borrow the model unchanged.
    ///
    /// The override is idempotent: applying it to an already-effective
    /// model (e.g. a pipeline stage's sub-model) changes nothing.
    pub fn effective_model<'m>(&self, model: &'m ModelArch) -> Cow<'m, ModelArch> {
        match self.serve_config() {
            Some(cfg) if cfg.prompt_len.is_some() || cfg.decode_batch.is_some() => {
                let mut m = model.clone();
                if let Some(p) = cfg.prompt_len {
                    m.context_length = p;
                }
                if let Some(b) = cfg.decode_batch {
                    m.global_batch = b;
                }
                Cow::Owned(m)
            }
            _ => Cow::Borrowed(model),
        }
    }

    /// The model as one decode step executes it — a single-token context
    /// at the serving batch — or `None` when the workload has no decode
    /// phase.
    pub fn decode_model(&self, model: &ModelArch) -> Option<ModelArch> {
        let cfg = self.serve_config().filter(|c| c.has_decode())?;
        let mut m = model.clone();
        m.context_length = 1;
        m.global_batch = cfg.effective_batch(model);
        Some(m)
    }

    /// Short display label.
    pub(crate) fn label(&self) -> Cow<'static, str> {
        match self {
            Workload::Pretrain => Cow::Borrowed("pre-training"),
            Workload::Finetune { trainable } => {
                let names: Vec<String> = trainable.iter().map(|c| c.to_string()).collect();
                Cow::Owned(format!("fine-tuning [{}]", names.join(", ")))
            }
            Workload::Serve(cfg) if cfg == &ServeConfig::prefill_only() => {
                Cow::Borrowed("inference")
            }
            Workload::Serve(cfg) => Cow::Owned(format!("serve ({cfg})")),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretrain_trains_everything() {
        for c in LayerClass::ALL {
            assert!(Workload::pretrain().trains(c));
        }
        assert!(Workload::pretrain().has_backward());
    }

    #[test]
    fn serve_trains_nothing_and_phases_split() {
        let prefill = Workload::inference();
        assert!(!prefill.has_backward());
        for c in LayerClass::ALL {
            assert!(!prefill.trains(c));
        }
        assert!(!prefill.serve_config().unwrap().has_decode());
        let serve = Workload::serve(ServeConfig::new(512, 64));
        assert!(serve.serve_config().unwrap().has_decode());
    }

    #[test]
    fn finetune_is_selective() {
        let w = Workload::finetune_only(LayerClass::Embedding);
        assert!(w.trains(LayerClass::Embedding));
        assert!(!w.trains(LayerClass::Dense));
        assert!(w.has_backward());
    }

    #[test]
    fn inference_is_the_identity_serve_shape() {
        // The legacy-inference mapping is the *identity* engine shape: no
        // prompt or batch override, no KV-cache, no decode steps.
        let cfg = *Workload::inference().serve_config().unwrap();
        assert_eq!(cfg, ServeConfig::prefill_only());
        assert!(!cfg.has_decode());
    }

    #[test]
    fn effective_model_overrides_are_idempotent() {
        let model = madmax_model::ModelId::Llama2.build();
        let w = Workload::serve(ServeConfig::new(256, 32).with_decode_batch(64));
        let eff = w.effective_model(&model);
        assert_eq!(eff.context_length, 256);
        assert_eq!(eff.global_batch, 64);
        assert_eq!(eff.name, model.name, "no rename");
        let again = w.effective_model(&eff);
        assert_eq!(again.as_ref(), eff.as_ref());
        // Legacy inference borrows the model untouched.
        assert!(matches!(
            Workload::inference().effective_model(&model),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn decode_model_is_single_token() {
        let model = madmax_model::ModelId::Llama2.build();
        let w = Workload::serve(ServeConfig::new(256, 32).with_decode_batch(64));
        let d = w.decode_model(&model).unwrap();
        assert_eq!(d.context_length, 1);
        assert_eq!(d.global_batch, 64);
        assert!(Workload::inference().decode_model(&model).is_none());
        assert!(Workload::pretrain().decode_model(&model).is_none());
    }

    #[test]
    fn labels() {
        assert_eq!(Workload::pretrain().to_string(), "pre-training");
        assert_eq!(Workload::inference().to_string(), "inference");
        assert!(Workload::finetune_only(LayerClass::Dense)
            .to_string()
            .contains("dense"));
        let s = Workload::serve(ServeConfig::new(512, 64)).to_string();
        assert!(s.contains("prompt=512") && s.contains("decode=64"), "{s}");
        // Borrowed labels do not allocate.
        assert!(matches!(Workload::pretrain().label(), Cow::Borrowed(_)));
    }

    #[test]
    fn serve_config_resolution() {
        let model = madmax_model::ModelId::Gpt3.build();
        let cfg = ServeConfig::prefill_only();
        assert_eq!(cfg.effective_prompt_len(&model), model.context_length);
        assert_eq!(cfg.effective_batch(&model), model.global_batch);
        let cfg = ServeConfig::new(100, 28).with_decode_batch(8);
        assert_eq!(cfg.effective_prompt_len(&model), 100);
        assert_eq!(cfg.effective_batch(&model), 8);
        assert_eq!(cfg.max_kv_len(100), Some(128));
        assert_eq!(ServeConfig::new(1, usize::MAX).max_kv_len(1), None);
    }
}
