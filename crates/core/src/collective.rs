//! Analytical cost models for communication collectives
//! (Section IV-C: "Estimating Communication Collective Execution").
//!
//! The default [`HierarchicalNccl`] model follows NCCL's behavior as the
//! paper describes it: ring-style AllReduce/AllGather/ReduceScatter whose
//! effective bandwidth mixes intra- and inter-node channels, and All2All
//! bound by the slowest interconnect level it spans. A deliberately cruder
//! [`FlatWorstLink`] model is provided as an ablation baseline.

use madmax_hw::units::{BytesPerSec, Seconds};
use madmax_hw::{ClusterSpec, CommLevel};
use madmax_parallel::{CollectiveKind, CommReq, CommScope};

/// A pluggable collective execution-time estimator.
pub trait CollectiveModel: std::fmt::Debug + Send + Sync {
    /// Estimated wall time of `req` on `cluster`.
    fn time(&self, req: &CommReq, cluster: &ClusterSpec) -> Seconds;

    /// Short identifier for reports.
    fn name(&self) -> &'static str;
}

/// Effective (utilization-scaled) link bandwidth at a level.
fn eff_bw(cluster: &ClusterSpec, level: CommLevel, util: f64) -> BytesPerSec {
    cluster.link_bw(level) * util
}

fn ring_factor(group: usize) -> f64 {
    debug_assert!(group >= 1);
    (group as f64 - 1.0) / group as f64
}

/// The default NCCL-style hierarchical model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchicalNccl;

impl HierarchicalNccl {
    /// Ring collective time for payload `s` over one channel.
    fn ring_one_level(
        s: f64,
        group: usize,
        bw: BytesPerSec,
        double: bool, // AllReduce moves 2x the payload of AllGather/RS
    ) -> Seconds {
        let factor = if double { 2.0 } else { 1.0 };
        Seconds::new(factor * s * ring_factor(group) / bw.value())
    }

    /// Hierarchical ring over both levels: an intra-node phase on the full
    /// payload and an inter-node phase on the 1/G shard
    /// (reduce-scatter -> inter all-reduce -> all-gather decomposition).
    fn ring_global(s: f64, cluster: &ClusterSpec, util: f64, double: bool) -> Seconds {
        let g = cluster.devices_per_node;
        let n = cluster.num_nodes;
        let factor = if double { 2.0 } else { 1.0 };
        let mut t = 0.0;
        if g > 1 {
            t += factor * s * ring_factor(g) / eff_bw(cluster, CommLevel::IntraNode, util).value();
        }
        if n > 1 {
            let shard = s / g as f64;
            t += factor * shard * ring_factor(n)
                / eff_bw(cluster, CommLevel::InterNode, util).value();
        }
        Seconds::new(t)
    }

    /// All2All: the NCCL implementation decomposes into point-to-point
    /// send/recv, so it is bound by the slowest interconnect level spanned.
    fn all_to_all(
        s: f64,
        group: usize,
        scope: CommScope,
        cluster: &ClusterSpec,
        util: f64,
    ) -> Seconds {
        let level = scope_level(scope, cluster);
        Seconds::new(s * ring_factor(group) / eff_bw(cluster, level, util).value())
    }

    /// Point-to-point send/recv (pipeline-stage boundaries): the full
    /// payload crosses one link of the spanned level.
    fn point_to_point(s: f64, scope: CommScope, cluster: &ClusterSpec, util: f64) -> Seconds {
        let level = scope_level(scope, cluster);
        Seconds::new(s / eff_bw(cluster, level, util).value())
    }
}

/// The interconnect level a scope's traffic is bound by.
fn scope_level(scope: CommScope, cluster: &ClusterSpec) -> CommLevel {
    match scope {
        CommScope::Level(l) => l,
        CommScope::Global => {
            if cluster.num_nodes > 1 {
                CommLevel::InterNode
            } else {
                CommLevel::IntraNode
            }
        }
    }
}

impl CollectiveModel for HierarchicalNccl {
    fn time(&self, req: &CommReq, cluster: &ClusterSpec) -> Seconds {
        let s = req.payload.value();
        if s == 0.0 || req.group_size <= 1 {
            return Seconds::ZERO;
        }
        let u = &cluster.utilization;
        match req.collective {
            CollectiveKind::AllToAll => {
                Self::all_to_all(s, req.group_size, req.scope, cluster, u.all_to_all)
            }
            CollectiveKind::PointToPoint => {
                Self::point_to_point(s, req.scope, cluster, u.all_to_all)
            }
            kind => {
                let double = kind == CollectiveKind::AllReduce;
                match req.scope {
                    CommScope::Global => Self::ring_global(s, cluster, u.ring_collective, double),
                    CommScope::Level(level) => Self::ring_one_level(
                        s,
                        req.group_size,
                        eff_bw(cluster, level, u.ring_collective),
                        double,
                    ),
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "hierarchical-nccl"
    }
}

/// Ablation model: every collective is bound by the slowest link spanned,
/// with no hierarchical decomposition. Overestimates ring collectives on
/// multi-node systems; useful for quantifying what the hierarchical model
/// buys (`run_all ablations`, study 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlatWorstLink;

impl CollectiveModel for FlatWorstLink {
    fn time(&self, req: &CommReq, cluster: &ClusterSpec) -> Seconds {
        let s = req.payload.value();
        if s == 0.0 || req.group_size <= 1 {
            return Seconds::ZERO;
        }
        let u = &cluster.utilization;
        let level = match req.scope {
            CommScope::Level(l) => l,
            CommScope::Global if cluster.num_nodes > 1 => CommLevel::InterNode,
            CommScope::Global => CommLevel::IntraNode,
        };
        let util = match req.collective {
            CollectiveKind::AllToAll | CollectiveKind::PointToPoint => u.all_to_all,
            _ => u.ring_collective,
        };
        if req.collective == CollectiveKind::PointToPoint {
            return Seconds::new(s / eff_bw(cluster, level, util).value());
        }
        let double = if req.collective == CollectiveKind::AllReduce {
            2.0
        } else {
            1.0
        };
        Seconds::new(
            double * s * ring_factor(req.group_size) / eff_bw(cluster, level, util).value(),
        )
    }

    fn name(&self) -> &'static str {
        "flat-worst-link"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;
    use madmax_hw::units::ByteCount;
    use madmax_parallel::{comm::CommPosition, Urgency};

    fn req(kind: CollectiveKind, scope: CommScope, group: usize, mb: f64) -> CommReq {
        CommReq {
            collective: kind,
            scope,
            group_size: group,
            payload: ByteCount::new(mb * 1e6),
            urgency: Urgency::Blocking,
            position: CommPosition::AfterCompute,
            label: "test".to_owned(),
        }
    }

    #[test]
    fn allreduce_is_twice_allgather() {
        let sys = catalog::zionex_dlrm_system();
        let m = HierarchicalNccl;
        let ar = m.time(
            &req(CollectiveKind::AllReduce, CommScope::Global, 128, 100.0),
            &sys,
        );
        let ag = m.time(
            &req(CollectiveKind::AllGather, CommScope::Global, 128, 100.0),
            &sys,
        );
        let rs = m.time(
            &req(CollectiveKind::ReduceScatter, CommScope::Global, 128, 100.0),
            &sys,
        );
        assert!((ar.as_secs() / ag.as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(ag, rs);
    }

    #[test]
    fn a2a_bound_by_slowest_level() {
        // Global All2All on a multi-node system is bound by the NIC even
        // though NVLink is 12x faster.
        let sys = catalog::zionex_dlrm_system();
        let m = HierarchicalNccl;
        let global = m.time(
            &req(CollectiveKind::AllToAll, CommScope::Global, 128, 183.5),
            &sys,
        );
        let expected = 183.5e6 * (127.0 / 128.0) / (25e9 * sys.utilization.all_to_all);
        assert!((global.as_secs() - expected).abs() / expected < 1e-9);
        // Intra-node All2All uses NVLink and is much faster per byte.
        let intra = m.time(
            &req(
                CollectiveKind::AllToAll,
                CommScope::Level(CommLevel::IntraNode),
                8,
                183.5,
            ),
            &sys,
        );
        assert!(intra < global);
    }

    #[test]
    fn single_node_a2a_uses_nvlink() {
        let sys = catalog::zionex_dlrm_system().with_num_nodes(1);
        let m = HierarchicalNccl;
        let t = m.time(
            &req(CollectiveKind::AllToAll, CommScope::Global, 8, 100.0),
            &sys,
        );
        let expected = 100e6 * (7.0 / 8.0) / (300e9 * sys.utilization.all_to_all);
        assert!((t.as_secs() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn hierarchical_beats_flat_on_multinode_rings() {
        let sys = catalog::zionex_dlrm_system();
        let r = req(CollectiveKind::AllReduce, CommScope::Global, 128, 1256.0);
        let hier = HierarchicalNccl.time(&r, &sys);
        let flat = FlatWorstLink.time(&r, &sys);
        assert!(hier < flat, "hierarchical {hier} vs flat {flat}");
        // On one node they agree.
        let one = sys.with_num_nodes(1);
        let r1 = req(CollectiveKind::AllReduce, CommScope::Global, 8, 1256.0);
        let h1 = HierarchicalNccl.time(&r1, &one);
        let f1 = FlatWorstLink.time(&r1, &one);
        assert!((h1.as_secs() - f1.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn zero_payload_and_singleton_groups_are_free() {
        let sys = catalog::zionex_dlrm_system();
        let m = HierarchicalNccl;
        assert_eq!(
            m.time(
                &req(CollectiveKind::AllReduce, CommScope::Global, 128, 0.0),
                &sys
            ),
            Seconds::ZERO
        );
        assert_eq!(
            m.time(
                &req(CollectiveKind::AllReduce, CommScope::Global, 1, 10.0),
                &sys
            ),
            Seconds::ZERO
        );
    }

    #[test]
    fn time_scales_linearly_with_payload() {
        let sys = catalog::zionex_dlrm_system();
        let m = HierarchicalNccl;
        let t1 = m.time(
            &req(CollectiveKind::AllGather, CommScope::Global, 128, 100.0),
            &sys,
        );
        let t2 = m.time(
            &req(CollectiveKind::AllGather, CommScope::Global, 128, 200.0),
            &sys,
        );
        assert!((t2.as_secs() / t1.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_inter_node_speeds_up_global_collectives() {
        use madmax_hw::DeviceScaling;
        let sys = catalog::zionex_dlrm_system();
        let fast = sys.scaled(&DeviceScaling::inter_bw_only(10.0));
        let r = req(CollectiveKind::AllToAll, CommScope::Global, 128, 183.5);
        let m = HierarchicalNccl;
        assert!(m.time(&r, &fast) < m.time(&r, &sys));
        let speedup = m.time(&r, &sys) / m.time(&r, &fast);
        assert!((speedup - 10.0).abs() < 1e-6);
    }
}
