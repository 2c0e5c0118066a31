//! Stage partitioning: splits a model's layer sequence into `p` contiguous
//! stages whose per-microbatch execution times are as balanced as possible
//! (the classic linear-partition problem, solved exactly by dynamic
//! programming over layer instances).

use madmax_hw::ClusterSpec;
use madmax_model::ModelArch;
use madmax_parallel::PlanError;

/// A contiguous run of instances of one layer group assigned to a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageUnit {
    /// Index into `model.groups`.
    pub group: usize,
    /// Number of consecutive instances of that group in this stage.
    pub instances: usize,
}

/// One pipeline stage: an ordered list of layer-group runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stage {
    /// The stage's layers in execution order.
    pub units: Vec<StageUnit>,
}

/// Per-instance execution-time weight used for balancing: forward compute
/// seconds plus lookup seconds for one sample on one device. The constant
/// batch factor is identical across stages, so it cancels out of the
/// balance objective.
fn instance_weight(model: &ModelArch, cluster: &ClusterSpec, group: usize) -> f64 {
    let g = &model.groups[group];
    let flops = g.kind.flops_fwd_per_sample(model.context_length);
    let peak = cluster.device.peak.rate(model.compute_dtype);
    let compute = flops.value() / (peak.value() * cluster.utilization.compute);
    let lookup = g.kind.lookup_bytes_per_sample(model.context_length).value()
        / (cluster.device.hbm_bw.value() * cluster.utilization.hbm);
    compute + lookup
}

/// Splits `model` into `p` balanced contiguous stages.
///
/// # Errors
///
/// Returns [`PlanError::InvalidPipeline`] when the model has fewer layer
/// instances than requested stages, or `p` is zero.
pub(crate) fn partition_model(
    model: &ModelArch,
    cluster: &ClusterSpec,
    p: usize,
) -> Result<Vec<Stage>, PlanError> {
    if p == 0 {
        return Err(PlanError::InvalidPipeline {
            reason: "zero pipeline stages".to_owned(),
        });
    }
    // Expand groups into the per-instance unit sequence.
    let mut unit_group: Vec<usize> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for (gi, g) in model.groups.iter().enumerate() {
        let w = instance_weight(model, cluster, gi);
        for _ in 0..g.repeat {
            unit_group.push(gi);
            weights.push(w);
        }
    }
    let n = weights.len();
    if n < p {
        return Err(PlanError::InvalidPipeline {
            reason: format!("model has {n} layer instances but {p} stages were requested"),
        });
    }

    // prefix[i] = sum of weights[0..i].
    let mut prefix = vec![0.0; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + weights[i];
    }

    // dp[k][i]: minimal possible max-stage-weight splitting the first i
    // units into k stages; cut[k][i]: the start of the last stage.
    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; n + 1]; p + 1];
    let mut cut = vec![vec![0usize; n + 1]; p + 1];
    dp[0][0] = 0.0;
    for k in 1..=p {
        for i in k..=n {
            // The last stage covers units j..i; every earlier stage needs at
            // least one unit, so j >= k - 1.
            for j in (k - 1)..i {
                let cand = dp[k - 1][j].max(prefix[i] - prefix[j]);
                if cand < dp[k][i] {
                    dp[k][i] = cand;
                    cut[k][i] = j;
                }
            }
        }
    }

    // Reconstruct stage boundaries.
    let mut bounds = vec![n];
    let mut i = n;
    for k in (1..=p).rev() {
        i = cut[k][i];
        bounds.push(i);
    }
    bounds.reverse(); // [0, b1, ..., n]

    let mut stages = Vec::with_capacity(p);
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let mut units: Vec<StageUnit> = Vec::new();
        for &g in &unit_group[lo..hi] {
            match units.last_mut() {
                Some(u) if u.group == g => u.instances += 1,
                _ => units.push(StageUnit {
                    group: g,
                    instances: 1,
                }),
            }
        }
        stages.push(Stage { units });
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    #[test]
    fn llm_partition_is_contiguous_and_complete() {
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        for p in [2usize, 4, 8] {
            let stages = partition_model(&model, &sys, p).unwrap();
            assert_eq!(stages.len(), p);
            let total: usize = stages
                .iter()
                .flat_map(|s| &s.units)
                .map(|u| u.instances)
                .sum();
            let expect: usize = model.groups.iter().map(|g| g.repeat).sum();
            assert_eq!(total, expect, "p={p}");
            // Contiguity: group indices never decrease across stages.
            let mut last = 0usize;
            for s in &stages {
                for u in &s.units {
                    assert!(u.group >= last);
                    last = u.group;
                }
            }
        }
    }

    #[test]
    fn llm_stages_are_balanced() {
        // GPT-3: the 96 transformer blocks dominate; an 8-way split puts 12
        // blocks in each stage.
        let model = ModelId::Gpt3.build();
        let sys = catalog::llama_llm_system();
        let stages = partition_model(&model, &sys, 8).unwrap();
        let block_counts: Vec<usize> = stages
            .iter()
            .map(|s| {
                s.units
                    .iter()
                    .filter(|u| u.group == 1)
                    .map(|u| u.instances)
                    .sum()
            })
            .collect();
        for &c in &block_counts {
            assert!((11..=13).contains(&c), "{block_counts:?}");
        }
    }

    #[test]
    fn too_deep_pipeline_rejected() {
        let model = ModelId::DlrmA.build(); // a handful of layer groups
        let sys = catalog::zionex_dlrm_system();
        let err = partition_model(&model, &sys, 64).unwrap_err();
        assert!(matches!(err, PlanError::InvalidPipeline { .. }), "{err}");
        assert!(err.to_string().contains("layer instances"));
    }
}
