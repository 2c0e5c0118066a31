//! Cost models for compute blocks and embedding lookups
//! (Section IV-B: "Processing Individual Model Layers").

use madmax_hw::units::{ByteCount, FlopCount, Seconds};
use madmax_hw::ClusterSpec;
use madmax_model::{LayerGroup, ModelArch};
use madmax_parallel::{HierStrategy, Plan, Workload};

/// Pass multiplier for backward compute relative to forward: weight
/// gradients (1x) + input gradients (1x), plus a forward recompute when
/// activation checkpointing is enabled.
pub fn backward_flops_factor(activation_checkpointing: bool) -> f64 {
    if activation_checkpointing {
        3.0
    } else {
        2.0
    }
}

/// Compute-utilization model: either the constant factor from the cluster
/// spec, or the paper's Fig. 8 refinement where SM utilization is a
/// function of the per-GPU workload intensity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum UtilizationModel {
    /// Constant utilization from [`madmax_hw::Utilization::compute`].
    #[default]
    Constant,
    /// Utilization saturates with per-device work per layer:
    /// `u = max_util * x / (x + half_sat)` where `x` is per-device GFLOPs
    /// per layer invocation. Models small-batch launch/SM-occupancy losses.
    WorkloadDependent {
        /// Asymptotic utilization at large per-layer workloads.
        max_util: f64,
        /// Per-layer GFLOPs at which utilization reaches half of max.
        half_saturation_gflops: f64,
    },
}

impl UtilizationModel {
    /// The default parameters used for the ViT MFU validation (Fig. 8).
    pub fn vit_default() -> Self {
        UtilizationModel::WorkloadDependent {
            max_util: 0.62,
            half_saturation_gflops: 1.5,
        }
    }

    /// Effective utilization for a layer invocation of `flops` on a device
    /// whose constant factor is `base`.
    pub fn utilization(&self, base: f64, flops: FlopCount) -> f64 {
        match *self {
            UtilizationModel::Constant => base,
            UtilizationModel::WorkloadDependent {
                max_util,
                half_saturation_gflops,
            } => {
                let x = flops.as_gflops();
                max_util * x / (x + half_saturation_gflops)
            }
        }
    }
}

/// Forward FLOPs one device executes for one instance of `group`.
///
/// Under the balanced-work assumption this is `local_batch` x the
/// per-sample FLOPs for *every* strategy: data parallelism splits samples,
/// tensor parallelism splits each matmul over a proportionally larger
/// group batch — the two factors cancel.
pub fn device_flops_fwd(
    group: &LayerGroup,
    model: &ModelArch,
    _cluster: &ClusterSpec,
    _strategy: &HierStrategy,
    local_batch: f64,
) -> FlopCount {
    let per_sample = group.kind.flops_fwd_per_sample(model.context_length);
    per_sample * local_batch
}

/// Execution time of a compute block:
/// `flops / (peak_flops(dtype) * utilization)`.
pub fn compute_time(
    flops: FlopCount,
    model: &ModelArch,
    cluster: &ClusterSpec,
    util_model: &UtilizationModel,
) -> Seconds {
    if flops.is_zero() {
        return Seconds::ZERO;
    }
    let peak = cluster.device.peak.rate(model.compute_dtype);
    let util = util_model.utilization(cluster.utilization.compute, flops);
    flops / (peak * util)
}

/// Lookup time of an embedding bag:
/// `lookup_bytes_per_gpu / (hbm_bw * hbm_utilization)`.
pub fn lookup_time(bytes: ByteCount, cluster: &ClusterSpec) -> Seconds {
    if bytes.is_zero() {
        return Seconds::ZERO;
    }
    bytes / (cluster.device.hbm_bw * cluster.utilization.hbm)
}

/// Optimizer-step time: the update streams parameters, gradients, and
/// optimizer state through HBM once (read + write ~ 3 passes over the
/// local parameter bytes).
pub fn optimizer_time(
    model: &ModelArch,
    cluster: &ClusterSpec,
    plan: &Plan,
    workload: &Workload,
) -> Seconds {
    if !workload.has_backward() {
        return Seconds::ZERO;
    }
    let mut bytes = 0.0;
    for group in &model.groups {
        if !workload.trains(group.class) {
            continue;
        }
        // Sparse embedding updates are fused with the backward gradient
        // scatter (already a trace op); counting them here would double
        // count the same HBM traffic.
        if group.kind.is_memory_bound() {
            continue;
        }
        let shard = plan.strategy_for(group.class).param_shard_factor(cluster);
        let opt = plan.options.optimizer_for(group.class);
        let p =
            madmax_parallel::comm::instance_param_bytes(group, model).value() * group.repeat as f64;
        let state = opt.state_bytes(group.kind.params(), &group.kind) * group.repeat as f64;
        bytes += 3.0 * (p + state) / shard;
    }
    lookup_time(ByteCount::new(bytes), cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;
    use madmax_model::{LayerClass, ModelId};
    use madmax_parallel::Strategy;

    #[test]
    fn backward_factors() {
        assert_eq!(backward_flops_factor(false), 2.0);
        assert_eq!(backward_flops_factor(true), 3.0);
    }

    #[test]
    fn compute_time_matches_equation() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let t = compute_time(
            FlopCount::from_gflops(109.2),
            &model,
            &sys,
            &UtilizationModel::Constant,
        );
        // 109.2 GF / (156 TF * 0.7) = 1.0 ms.
        assert!((t.as_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tp_and_ddp_share_device_flops() {
        // TP shards each matmul but serves the whole TP group's batch:
        // per-device FLOPs match data parallelism under balanced work.
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let top = model.groups.iter().find(|g| g.name == "top_mlp").unwrap();
        let flat_tp = HierStrategy::flat(Strategy::Tp);
        let ddp = HierStrategy::flat(Strategy::Ddp);
        let f_tp = device_flops_fwd(top, &model, &sys, &flat_tp, 512.0);
        let f_ddp = device_flops_fwd(top, &model, &sys, &ddp, 512.0);
        assert!((f_ddp.value() / f_tp.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dlrm_a_lookup_time_near_nine_ms() {
        // 64K x 22.61 MB / 128 GPUs / (1.555 TB/s * 0.8) = ~9.1 ms.
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let emb = model
            .groups
            .iter()
            .find(|g| g.class == LayerClass::Embedding)
            .unwrap();
        // Even sharding: every device touches the local batch's bytes.
        let local_batch = model.global_batch as f64 / sys.total_devices() as f64;
        let bytes = emb.kind.lookup_bytes_per_sample(model.context_length) * local_batch;
        assert!((bytes.as_gib() - 10.77).abs() < 0.3, "{}", bytes.as_gib());
        let t = lookup_time(bytes, &sys);
        assert!((t.as_ms() - 9.3).abs() < 0.5, "{}", t.as_ms());
    }

    #[test]
    fn workload_dependent_utilization_saturates() {
        let m = UtilizationModel::vit_default();
        let small = m.utilization(0.7, FlopCount::from_gflops(0.1));
        let large = m.utilization(0.7, FlopCount::from_gflops(100.0));
        assert!(small < 0.1);
        assert!(large > 0.6);
        assert!(large <= 0.62);
        // Monotone in workload.
        let mid = m.utilization(0.7, FlopCount::from_gflops(1.5));
        assert!(small < mid && mid < large);
        assert!((mid - 0.31).abs() < 1e-9, "half saturation");
    }

    #[test]
    fn optimizer_time_zero_for_inference() {
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let plan = madmax_parallel::Plan::fsdp_baseline(&model);
        assert_eq!(
            optimizer_time(&model, &sys, &plan, &Workload::inference()),
            Seconds::ZERO
        );
        let t = optimizer_time(&model, &sys, &plan, &Workload::pretrain());
        assert!(t.as_ms() > 0.0 && t.as_ms() < 10.0, "{}", t.as_ms());
    }
}
