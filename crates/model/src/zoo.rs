//! The paper's model suite (Table II) as a single enumerable zoo.

use crate::arch::ModelArch;
use crate::dlrm::{dlrm_a, dlrm_b, DlrmVariant};
use crate::llm::{gpt3_175b, llama2_70b, llama_65b, llm_moe_1_8t};

/// Identifier for each of Table II's ten workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    /// DLRM-A (793B params).
    DlrmA,
    /// DLRM-A with transformer feature interaction.
    DlrmATransformer,
    /// DLRM-A with MoE top MLPs.
    DlrmAMoe,
    /// DLRM-B (332B params).
    DlrmB,
    /// DLRM-B with transformer feature interaction.
    DlrmBTransformer,
    /// DLRM-B with MoE top MLPs.
    DlrmBMoe,
    /// GPT-3 175B.
    Gpt3,
    /// LLaMA-65B.
    Llama,
    /// LLaMA-2 70B.
    Llama2,
    /// Hypothetical 1.8T LLM-MoE.
    LlmMoe,
}

impl ModelId {
    /// Table II column order.
    pub const ALL: [ModelId; 10] = [
        ModelId::DlrmA,
        ModelId::DlrmATransformer,
        ModelId::DlrmAMoe,
        ModelId::DlrmB,
        ModelId::DlrmBTransformer,
        ModelId::DlrmBMoe,
        ModelId::Gpt3,
        ModelId::Llama,
        ModelId::Llama2,
        ModelId::LlmMoe,
    ];

    /// Builds the architecture for this workload.
    pub fn build(self) -> ModelArch {
        match self {
            ModelId::DlrmA => dlrm_a(DlrmVariant::Base),
            ModelId::DlrmATransformer => dlrm_a(DlrmVariant::Transformer),
            ModelId::DlrmAMoe => dlrm_a(DlrmVariant::Moe),
            ModelId::DlrmB => dlrm_b(DlrmVariant::Base),
            ModelId::DlrmBTransformer => dlrm_b(DlrmVariant::Transformer),
            ModelId::DlrmBMoe => dlrm_b(DlrmVariant::Moe),
            ModelId::Gpt3 => gpt3_175b(),
            ModelId::Llama => llama_65b(),
            ModelId::Llama2 => llama2_70b(),
            ModelId::LlmMoe => llm_moe_1_8t(),
        }
    }

    /// Whether the workload is a recommendation model.
    pub fn is_dlrm(self) -> bool {
        matches!(
            self,
            ModelId::DlrmA
                | ModelId::DlrmATransformer
                | ModelId::DlrmAMoe
                | ModelId::DlrmB
                | ModelId::DlrmBTransformer
                | ModelId::DlrmBMoe
        )
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelId::DlrmA => "DLRM-A",
            ModelId::DlrmATransformer => "DLRM-A Transformer",
            ModelId::DlrmAMoe => "DLRM-A MoE",
            ModelId::DlrmB => "DLRM-B",
            ModelId::DlrmBTransformer => "DLRM-B Transformer",
            ModelId::DlrmBMoe => "DLRM-B MoE",
            ModelId::Gpt3 => "GPT-3",
            ModelId::Llama => "LLaMA",
            ModelId::Llama2 => "LLaMA2",
            ModelId::LlmMoe => "LLM-MoE",
        })
    }
}

/// The six models characterized in Fig. 3 (DLRM-A/B/C stand-ins plus the
/// three public LLMs). DLRM-C is represented by the DLRM-B transformer
/// variant, the closest published configuration.
pub fn characterization_suite() -> Vec<ModelArch> {
    vec![
        dlrm_a(DlrmVariant::Base),
        dlrm_b(DlrmVariant::Base),
        dlrm_b(DlrmVariant::Transformer),
        gpt3_175b(),
        llama_65b(),
        llama2_70b(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_distinct() {
        let suite: Vec<ModelArch> = ModelId::ALL.iter().map(|id| id.build()).collect();
        assert_eq!(suite.len(), 10);
        let mut names: Vec<&str> = suite.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "duplicate model names");
    }

    #[test]
    fn dlrm_classification() {
        assert!(ModelId::DlrmA.is_dlrm());
        assert!(ModelId::DlrmBMoe.is_dlrm());
        assert!(!ModelId::Gpt3.is_dlrm());
        assert!(!ModelId::LlmMoe.is_dlrm());
    }

    #[test]
    fn observation_1_param_spread() {
        // O1: parameter counts vary by orders of magnitude; GPT-3 has
        // roughly 2-68x fewer parameters than the recommendation models.
        let gpt3 = ModelId::Gpt3.build().stats().params_total;
        let a = ModelId::DlrmA.build().stats().params_total;
        let b = ModelId::DlrmB.build().stats().params_total;
        assert!(a / gpt3 > 4.0 && a / gpt3 < 5.0);
        assert!(b / gpt3 > 1.8);
    }

    #[test]
    fn observation_2_flops_vs_lookup() {
        // O2: LLMs need orders of magnitude more FLOPs per sample unit;
        // DLRMs need >20x the sparse lookup bandwidth.
        let gpt3 = ModelId::Gpt3.build().stats();
        let dlrm = ModelId::DlrmA.build().stats();
        assert!(gpt3.flops_fwd_per_token().value() > 100.0 * dlrm.flops_fwd_per_sample.value());
        assert!(
            dlrm.lookup_bytes_per_sample.value() > 20.0 * gpt3.lookup_bytes_per_token().value()
        );
    }
}
