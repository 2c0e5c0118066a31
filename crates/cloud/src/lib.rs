//! # madmax-cloud
//!
//! Public-cloud deployment studies (Insight 7, Figs. 1 and 16): a catalog
//! of GPU cloud instances, aggregate GPU-hour accounting normalized to A100
//! peak FLOPS, and the instance-count x instance-type x strategy sweep that
//! produces the resource/performance Pareto frontiers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use madmax_dse::{Explorer, ParetoPoint};
use madmax_engine::{EngineError, Scenario};
use madmax_hw::units::BytesPerSec;
use madmax_hw::{catalog, ClusterSpec, DeviceSpec, FabricKind};
use madmax_model::ModelArch;
use madmax_parallel::{Plan, Workload};

/// A rentable multi-GPU cloud instance type.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudInstance {
    /// Instance name, e.g. `"p4d.24xlarge"`.
    pub name: String,
    /// Cloud provider label.
    pub provider: String,
    /// The accelerator installed.
    pub device: DeviceSpec,
    /// GPUs per instance.
    pub gpus: usize,
    /// Scale-out fabric.
    pub fabric: FabricKind,
}

impl CloudInstance {
    fn new(
        name: &str,
        provider: &str,
        mut device: DeviceSpec,
        gpus: usize,
        inter_gbps_per_instance: f64,
        fabric: FabricKind,
    ) -> Self {
        // Instance NICs are shared by all GPUs in the box.
        device.inter_node_bw = BytesPerSec::from_gbps(inter_gbps_per_instance / gpus as f64);
        Self {
            name: name.to_owned(),
            provider: provider.to_owned(),
            device,
            gpus,
            fabric,
        }
    }

    /// A cluster of `instances` boxes of this type.
    pub fn cluster(&self, instances: usize) -> ClusterSpec {
        ClusterSpec::new(
            format!("{} x{}", self.name, instances),
            self.device.clone(),
            self.gpus,
            instances,
            FabricKind::NvLink,
            self.fabric,
        )
    }
}

/// The instance catalog spanning three GPU generations (Fig. 16's legend).
/// Bandwidths follow the public instance specs; the paper notes per-GPU
/// inter-node bandwidth ranging from <1 to 25 GB/s across these types.
pub fn instance_catalog() -> Vec<CloudInstance> {
    vec![
        CloudInstance::new(
            "p3.16xlarge",
            "aws",
            catalog::v100(16.0),
            8,
            25.0,
            FabricKind::RoCE,
        ),
        CloudInstance::new(
            "p3dn.24xlarge",
            "aws",
            catalog::v100(32.0),
            8,
            100.0,
            FabricKind::RoCE,
        ),
        CloudInstance::new(
            "p4d.24xlarge",
            "aws",
            catalog::a100_40gb(),
            8,
            400.0,
            FabricKind::RoCE,
        ),
        CloudInstance::new(
            "p4de.24xlarge",
            "aws",
            catalog::a100_80gb(),
            8,
            400.0,
            FabricKind::RoCE,
        ),
        CloudInstance::new(
            "p5.48xlarge",
            "aws",
            catalog::h100(),
            8,
            3200.0,
            FabricKind::InfiniBand,
        ),
    ]
}

/// Ratio used to normalize GPU-hours across generations: the target
/// accelerator's peak FLOPS over the A100's (Section VI, Insight 7).
pub fn a100_normalization(device: &DeviceSpec) -> f64 {
    let a100 = catalog::a100_40gb();
    device.peak.fp16 / a100.peak.fp16
}

/// One evaluated cloud configuration ("per-1B-samples" metrics).
#[derive(Debug, Clone)]
pub struct CloudPoint {
    /// Instance type name.
    pub instance: String,
    /// Number of instances rented.
    pub instances: usize,
    /// Total GPUs.
    pub gpus: usize,
    /// Whether the mapping was strategy-optimized or default FSDP.
    pub optimized: bool,
    /// Elapsed hours to process one billion samples.
    pub elapsed_hours: f64,
    /// Aggregate GPU-hours normalized to A100 peak FLOPS.
    pub norm_gpu_hours: f64,
    /// Winning plan summary.
    pub plan: String,
}

/// Evaluates `model` training on `instances` boxes of `inst`, with either
/// the default FSDP mapping or a MAD-Max-optimized one.
///
/// # Errors
///
/// Returns [`EngineError`] when no feasible mapping exists on the
/// configuration (small-memory instances at low counts).
pub fn evaluate(
    model: &ModelArch,
    inst: &CloudInstance,
    instances: usize,
    optimized: bool,
) -> Result<CloudPoint, EngineError> {
    let cluster = inst.cluster(instances);
    let (report, plan) = if optimized {
        let r = Explorer::new(model, &cluster)
            .workload(Workload::pretrain())
            .explore()?;
        (r.best.clone(), r.best_plan.summary())
    } else {
        let plan = Plan::fsdp_baseline(model);
        (
            Scenario::new(model, &cluster).plan(plan.clone()).run()?,
            plan.summary(),
        )
    };
    let samples_per_sec = report.samples_per_sec();
    let elapsed_hours = 1e9 / samples_per_sec / 3600.0;
    let gpus = cluster.total_devices();
    let norm_gpu_hours = elapsed_hours * gpus as f64 * a100_normalization(&inst.device);
    Ok(CloudPoint {
        instance: inst.name.clone(),
        instances,
        gpus,
        optimized,
        elapsed_hours,
        norm_gpu_hours,
        plan,
    })
}

/// Sweeps the catalog over instance counts, producing the Fig. 16 scatter
/// (both default-FSDP and optimized mappings). Infeasible configurations
/// are skipped.
pub fn sweep(model: &ModelArch, instance_counts: &[usize]) -> Vec<CloudPoint> {
    let mut out = Vec::new();
    for inst in instance_catalog() {
        for &n in instance_counts {
            for optimized in [false, true] {
                if let Ok(p) = evaluate(model, &inst, n, optimized) {
                    out.push(p);
                }
            }
        }
    }
    out
}

/// Projects cloud points onto (normalized GPU-hours, 1/elapsed-time) and
/// extracts the Pareto frontier.
pub fn frontier(points: &[CloudPoint]) -> Vec<ParetoPoint<CloudPoint>> {
    let projected: Vec<ParetoPoint<CloudPoint>> = points
        .iter()
        .map(|p| ParetoPoint::new(p.norm_gpu_hours, 1.0 / p.elapsed_hours, p.clone()))
        .collect();
    madmax_dse::pareto_frontier(&projected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_model::ModelId;

    #[test]
    fn catalog_spans_generations() {
        let cat = instance_catalog();
        assert!(cat.len() >= 5);
        assert!(cat.iter().any(|i| i.device.name.starts_with("V100")));
        assert!(cat.iter().any(|i| i.device.name.starts_with("A100")));
        assert!(cat.iter().any(|i| i.device.name.starts_with("H100")));
        // Per-GPU inter-node bandwidth spans <1 to 25 GB/s as the paper
        // notes.
        let bws: Vec<f64> = cat.iter().map(|i| i.device.inter_node_bw.as_gb()).collect();
        assert!(bws.iter().copied().fold(f64::INFINITY, f64::min) < 1.0);
        assert!(bws.iter().copied().fold(0.0, f64::max) >= 25.0);
    }

    #[test]
    fn normalization_is_relative_to_a100() {
        assert!((a100_normalization(&catalog::a100_40gb()) - 1.0).abs() < 1e-12);
        assert!(a100_normalization(&catalog::h100()) > 2.0);
        assert!(a100_normalization(&catalog::v100(16.0)) < 0.5);
    }

    #[test]
    fn p4d_evaluates_dlrm() {
        let model = ModelId::DlrmA.build();
        let inst = instance_catalog()
            .into_iter()
            .find(|i| i.name == "p4d.24xlarge")
            .unwrap();
        let p = evaluate(&model, &inst, 16, false).unwrap();
        assert_eq!(p.gpus, 128);
        assert!(
            p.elapsed_hours > 0.05 && p.elapsed_hours < 100.0,
            "{}",
            p.elapsed_hours
        );
        // p4d has 4x lower inter-node bandwidth than ZionEX: slower than
        // the production system.
        let zionex_sys = catalog::zionex_dlrm_system();
        let zionex = Scenario::new(&model, &zionex_sys).run().unwrap();
        let zionex_hours = 1e9 / zionex.samples_per_sec() / 3600.0;
        assert!(p.elapsed_hours > zionex_hours);
    }

    #[test]
    fn optimized_dominates_default_on_same_config() {
        let model = ModelId::DlrmA.build();
        let inst = instance_catalog()
            .into_iter()
            .find(|i| i.name == "p4de.24xlarge")
            .unwrap();
        let base = evaluate(&model, &inst, 16, false).unwrap();
        let opt = evaluate(&model, &inst, 16, true).unwrap();
        assert!(opt.elapsed_hours <= base.elapsed_hours);
    }

    #[test]
    fn small_memory_configs_are_infeasible() {
        // DLRM-A needs ~25 GB/GPU of embeddings alone: 16 V100-16GB boxes
        // (128 GPUs x 16 GB) cannot hold it.
        let model = ModelId::DlrmA.build();
        let inst = instance_catalog()
            .into_iter()
            .find(|i| i.name == "p3.16xlarge")
            .unwrap();
        assert!(evaluate(&model, &inst, 16, false).is_err());
    }

    #[test]
    fn frontier_prefers_optimized_points() {
        let model = ModelId::DlrmB.build();
        let points = sweep(&model, &[16, 32]);
        assert!(!points.is_empty());
        let front = frontier(&points);
        assert!(!front.is_empty());
        // Every frontier point must not be dominated by any input point.
        for f in &front {
            for p in &points {
                let candidate = ParetoPoint::new(p.norm_gpu_hours, 1.0 / p.elapsed_hours, ());
                assert!(
                    !(candidate.cost < f.cost && candidate.value > f.value),
                    "frontier point dominated"
                );
            }
        }
    }
}
