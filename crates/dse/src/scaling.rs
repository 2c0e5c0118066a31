//! Future-technologies hardware scaling study (Insight 10, Figs. 19-20):
//! scale compute, memory capacity/bandwidth, and interconnect bandwidths
//! separately and concurrently, re-optimizing the parallelization strategy
//! on each scaled system.

use madmax_engine::EngineError;
use madmax_hw::{ClusterSpec, DeviceScaling};
use madmax_model::ModelArch;
use madmax_parallel::Workload;

use crate::explore::{Explorer, SearchOutcome};

/// Which capability is scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingAxis {
    /// Peak FLOPS.
    Compute,
    /// HBM capacity.
    MemCapacity,
    /// HBM bandwidth.
    MemBandwidth,
    /// Intra-node interconnect bandwidth.
    IntraBandwidth,
    /// Inter-node interconnect bandwidth.
    InterBandwidth,
    /// Everything concurrently.
    All,
}

impl ScalingAxis {
    /// The six axes in the paper's presentation order.
    pub(crate) const ALL_AXES: [ScalingAxis; 6] = [
        ScalingAxis::Compute,
        ScalingAxis::MemCapacity,
        ScalingAxis::MemBandwidth,
        ScalingAxis::IntraBandwidth,
        ScalingAxis::InterBandwidth,
        ScalingAxis::All,
    ];

    /// The device-scaling knob for this axis at factor `x`.
    pub fn scaling(self, x: f64) -> DeviceScaling {
        match self {
            ScalingAxis::Compute => DeviceScaling::compute_only(x),
            ScalingAxis::MemCapacity => DeviceScaling::mem_capacity_only(x),
            ScalingAxis::MemBandwidth => DeviceScaling::mem_bw_only(x),
            ScalingAxis::IntraBandwidth => DeviceScaling::intra_bw_only(x),
            ScalingAxis::InterBandwidth => DeviceScaling::inter_bw_only(x),
            ScalingAxis::All => DeviceScaling::all(x),
        }
    }
}

impl std::fmt::Display for ScalingAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScalingAxis::Compute => "compute",
            ScalingAxis::MemCapacity => "memory capacity",
            ScalingAxis::MemBandwidth => "memory bandwidth",
            ScalingAxis::IntraBandwidth => "intra-node BW",
            ScalingAxis::InterBandwidth => "inter-node BW",
            ScalingAxis::All => "all concurrently",
        })
    }
}

/// Speedup of one scaled configuration over the optimized base system.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Which capability was scaled.
    pub axis: ScalingAxis,
    /// Scaling factor applied.
    pub factor: f64,
    /// Search outcome on the scaled system (strategies re-optimized, so
    /// capacity increases can unlock new mappings).
    pub result: SearchOutcome,
    /// Throughput speedup over the optimized baseline system.
    pub speedup: f64,
}

/// Runs the full study: every axis at `factor`, against the re-optimized
/// base system.
///
/// # Errors
///
/// Propagates [`EngineError`] if even the baseline mapping is infeasible.
pub fn scaling_study(
    model: &ModelArch,
    cluster: &ClusterSpec,
    workload: &Workload,
    factor: f64,
) -> Result<Vec<ScalingPoint>, EngineError> {
    let base = Explorer::new(model, cluster)
        .workload(workload.clone())
        .explore()?;
    ScalingAxis::ALL_AXES
        .iter()
        .map(|&axis| {
            let scaled = cluster.scaled(&axis.scaling(factor));
            let result = Explorer::new(model, &scaled)
                .workload(workload.clone())
                .explore()?;
            let speedup = base.best.iteration_time / result.best.iteration_time;
            Ok(ScalingPoint {
                axis,
                factor,
                result,
                speedup,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;
    use madmax_model::ModelId;

    #[test]
    fn insight10_dlrm_shape() {
        // DLRM-A: no single-axis 10x improvement comes close to 10x; the
        // all-axes point is the best of the set.
        let model = ModelId::DlrmA.build();
        let sys = catalog::zionex_dlrm_system();
        let points = scaling_study(&model, &sys, &Workload::pretrain(), 10.0).unwrap();
        assert_eq!(points.len(), 6);
        let get = |a: ScalingAxis| points.iter().find(|p| p.axis == a).unwrap().speedup;
        for axis in &ScalingAxis::ALL_AXES[..5] {
            assert!(
                get(*axis) < get(ScalingAxis::All),
                "{axis} should trail all-axes"
            );
            assert!(get(*axis) >= 0.99, "{axis} must not slow things down");
        }
        // Blocking All2All makes inter-node bandwidth the most valuable
        // single upgrade for DLRM-A (Insight 10).
        let single_best = ScalingAxis::ALL_AXES[..5]
            .iter()
            .copied()
            .max_by(|a, b| get(*a).partial_cmp(&get(*b)).unwrap())
            .unwrap();
        assert_eq!(single_best, ScalingAxis::InterBandwidth);
    }

    #[test]
    fn axis_scaling_constructors() {
        let s = ScalingAxis::Compute.scaling(10.0);
        assert_eq!(s.compute, 10.0);
        assert_eq!(s.inter_bw, 1.0);
        let s = ScalingAxis::All.scaling(2.0);
        assert_eq!(s.mem_bw, 2.0);
        assert_eq!(s.intra_bw, 2.0);
    }
}
