//! Parallelization strategies and their hierarchical composition
//! (Section II-B of the paper).

use serde::{Deserialize, Serialize};

use madmax_hw::{ClusterSpec, CommLevel};
use madmax_model::LayerClass;

/// How one layer type is distributed across a device group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Distributed Data Parallelism: parameters replicated; weight
    /// gradients AllReduced in backward.
    Ddp,
    /// Fully Sharded Data Parallelism: parameters sharded; AllGather before
    /// compute, ReduceScatter of gradients in backward.
    Fsdp,
    /// Tensor Parallelism: parameters sharded; partial sums AllReduced.
    Tp,
    /// Naive model-parallel sharding (embedding tables, expert parallelism);
    /// All2All exchanges route data to owners.
    Shard,
}

impl Strategy {
    /// Whether this strategy shards parameters across its group.
    pub fn shards_params(self) -> bool {
        !matches!(self, Strategy::Ddp)
    }

    /// Whether this strategy splits the matrix compute itself.
    pub fn shards_compute(self) -> bool {
        matches!(self, Strategy::Tp)
    }

    /// Short paper notation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Strategy::Ddp => "DDP",
            Strategy::Fsdp => "FSDP",
            Strategy::Tp => "TP",
            Strategy::Shard => "MP",
        }
    }

    /// Whether `self` may be applied to layers of `class`.
    ///
    /// Sharding (MP) applies to embedding tables and expert parallelism;
    /// TP applies to matrix-compute layers; DDP/FSDP apply everywhere.
    pub fn allowed_for(self, class: LayerClass) -> bool {
        match self {
            Strategy::Ddp | Strategy::Fsdp => true,
            Strategy::Tp => !matches!(class, LayerClass::Embedding),
            Strategy::Shard => matches!(class, LayerClass::Embedding | LayerClass::Moe),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The scope over which a single strategy level communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommScope {
    /// The whole machine as one flat group: collectives span the slowest
    /// (inter-node) links when the system is multi-node.
    Global,
    /// One hierarchy level only.
    Level(CommLevel),
}

/// A hierarchical strategy for one layer type.
///
/// The paper writes `(TP, DDP)` for "TP within a node, DDP across nodes"
/// and `(TP)` for TP applied flat across all devices; ordering matters for
/// both memory footprint and which interconnect carries which traffic
/// (Insight 3).
///
/// ```
/// use madmax_parallel::{HierStrategy, Strategy};
/// let s = HierStrategy::two_level(Strategy::Tp, Strategy::Ddp);
/// assert_eq!(s.to_string(), "(TP, DDP)");
/// assert_eq!(HierStrategy::flat(Strategy::Fsdp).to_string(), "(FSDP)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HierStrategy {
    /// One strategy over all devices.
    Flat(Strategy),
    /// Separate strategies within and across nodes.
    TwoLevel {
        /// Strategy within each node.
        intra: Strategy,
        /// Strategy across nodes.
        inter: Strategy,
    },
}

/// One level of an expanded hierarchical strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyLevel {
    /// The strategy applied at this level.
    pub strategy: Strategy,
    /// Devices in this level's communication group.
    pub group_size: usize,
    /// Channel the level's collectives run on.
    pub scope: CommScope,
}

impl HierStrategy {
    /// A flat strategy over all devices.
    pub fn flat(strategy: Strategy) -> Self {
        HierStrategy::Flat(strategy)
    }

    /// A two-level `(intra, inter)` strategy.
    pub fn two_level(intra: Strategy, inter: Strategy) -> Self {
        HierStrategy::TwoLevel { intra, inter }
    }

    /// Expands into concrete levels for a cluster. Flat strategies become a
    /// single global group; degenerate levels (group size 1) are dropped.
    pub fn levels(&self, cluster: &ClusterSpec) -> Vec<StrategyLevel> {
        match *self {
            HierStrategy::Flat(strategy) => {
                let p = cluster.total_devices();
                if p <= 1 {
                    vec![]
                } else {
                    vec![StrategyLevel {
                        strategy,
                        group_size: p,
                        scope: CommScope::Global,
                    }]
                }
            }
            HierStrategy::TwoLevel { intra, inter } => {
                let mut v = Vec::with_capacity(2);
                if cluster.devices_per_node > 1 {
                    v.push(StrategyLevel {
                        strategy: intra,
                        group_size: cluster.devices_per_node,
                        scope: CommScope::Level(CommLevel::IntraNode),
                    });
                }
                if cluster.num_nodes > 1 {
                    v.push(StrategyLevel {
                        strategy: inter,
                        group_size: cluster.num_nodes,
                        scope: CommScope::Level(CommLevel::InterNode),
                    });
                }
                v
            }
        }
    }

    /// Total factor by which parameters (and gradients/optimizer states)
    /// are sharded on this cluster.
    pub fn param_shard_factor(&self, cluster: &ClusterSpec) -> f64 {
        self.levels(cluster)
            .iter()
            .filter(|l| l.strategy.shards_params())
            .map(|l| l.group_size as f64)
            .product()
    }

    /// Total degree by which the matrix compute itself is split (TP only).
    pub fn compute_shard_factor(&self, cluster: &ClusterSpec) -> f64 {
        self.levels(cluster)
            .iter()
            .filter(|l| l.strategy.shards_compute())
            .map(|l| l.group_size as f64)
            .product()
    }

    /// Whether every level's strategy may be applied to `class`.
    pub fn allowed_for(&self, class: LayerClass) -> bool {
        match *self {
            HierStrategy::Flat(s) => s.allowed_for(class),
            HierStrategy::TwoLevel { intra, inter } => {
                intra.allowed_for(class) && inter.allowed_for(class)
            }
        }
    }

    /// All distinct hierarchical strategies valid for `class`: flat and
    /// two-level combinations of the allowed base strategies (the design
    /// space enumerated in Figs. 10-14).
    pub fn enumerate_for(class: LayerClass) -> Vec<HierStrategy> {
        const BASE: [Strategy; 4] = [Strategy::Ddp, Strategy::Fsdp, Strategy::Tp, Strategy::Shard];
        let allowed: Vec<Strategy> = BASE.into_iter().filter(|s| s.allowed_for(class)).collect();
        let mut out: Vec<HierStrategy> = allowed.iter().map(|&s| HierStrategy::Flat(s)).collect();
        for &intra in &allowed {
            for &inter in &allowed {
                out.push(HierStrategy::TwoLevel { intra, inter });
            }
        }
        out
    }
}

impl std::fmt::Display for HierStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierStrategy::Flat(s) => write!(f, "({s})"),
            HierStrategy::TwoLevel { intra, inter } => write!(f, "({intra}, {inter})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madmax_hw::catalog;

    #[test]
    fn shard_factors_depend_on_ordering() {
        // Insight 3: ((TP),(DDP)) shards by node size (8); ((DDP),(TP))
        // shards by the number of nodes (16) on the 8x16 ZionEX system.
        let sys = catalog::zionex_dlrm_system();
        let tp_ddp = HierStrategy::two_level(Strategy::Tp, Strategy::Ddp);
        let ddp_tp = HierStrategy::two_level(Strategy::Ddp, Strategy::Tp);
        assert_eq!(tp_ddp.param_shard_factor(&sys), 8.0);
        assert_eq!(ddp_tp.param_shard_factor(&sys), 16.0);
        assert!(ddp_tp.param_shard_factor(&sys) > tp_ddp.param_shard_factor(&sys));
    }

    #[test]
    fn flat_strategies_span_everything() {
        let sys = catalog::zionex_dlrm_system();
        let fsdp = HierStrategy::flat(Strategy::Fsdp);
        assert_eq!(fsdp.param_shard_factor(&sys), 128.0);
        let levels = fsdp.levels(&sys);
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].scope, CommScope::Global);
        assert_eq!(levels[0].group_size, 128);
    }

    #[test]
    fn single_node_drops_inter_level() {
        let sys = catalog::zionex_dlrm_system().with_num_nodes(1);
        let s = HierStrategy::two_level(Strategy::Tp, Strategy::Ddp);
        let levels = s.levels(&sys);
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].strategy, Strategy::Tp);
    }

    #[test]
    fn ddp_never_shards() {
        let sys = catalog::zionex_dlrm_system();
        assert_eq!(
            HierStrategy::flat(Strategy::Ddp).param_shard_factor(&sys),
            1.0
        );
        assert_eq!(
            HierStrategy::two_level(Strategy::Ddp, Strategy::Ddp).param_shard_factor(&sys),
            1.0
        );
    }

    #[test]
    fn compute_factor_counts_tp_only() {
        let sys = catalog::zionex_dlrm_system();
        assert_eq!(
            HierStrategy::flat(Strategy::Tp).compute_shard_factor(&sys),
            128.0
        );
        assert_eq!(
            HierStrategy::flat(Strategy::Fsdp).compute_shard_factor(&sys),
            1.0
        );
        assert_eq!(
            HierStrategy::flat(Strategy::Shard).compute_shard_factor(&sys),
            1.0
        );
        assert_eq!(
            HierStrategy::two_level(Strategy::Tp, Strategy::Fsdp).compute_shard_factor(&sys),
            8.0
        );
    }

    #[test]
    fn class_permissions() {
        assert!(Strategy::Shard.allowed_for(LayerClass::Embedding));
        assert!(Strategy::Shard.allowed_for(LayerClass::Moe));
        assert!(!Strategy::Shard.allowed_for(LayerClass::Dense));
        assert!(!Strategy::Tp.allowed_for(LayerClass::Embedding));
        assert!(Strategy::Tp.allowed_for(LayerClass::Transformer));
        assert!(HierStrategy::two_level(Strategy::Tp, Strategy::Shard).allowed_for(LayerClass::Moe));
        assert!(
            !HierStrategy::two_level(Strategy::Tp, Strategy::Shard).allowed_for(LayerClass::Dense)
        );
    }

    #[test]
    fn enumeration_counts() {
        // Dense: 3 base strategies -> 3 flat + 9 two-level.
        assert_eq!(HierStrategy::enumerate_for(LayerClass::Dense).len(), 12);
        // Embedding: DDP/FSDP/Shard -> 12; MoE: all four -> 20.
        assert_eq!(HierStrategy::enumerate_for(LayerClass::Embedding).len(), 12);
        assert_eq!(HierStrategy::enumerate_for(LayerClass::Moe).len(), 20);
    }

    #[test]
    fn notation_matches_paper() {
        assert_eq!(
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp).to_string(),
            "(TP, DDP)"
        );
        assert_eq!(HierStrategy::flat(Strategy::Shard).to_string(), "(MP)");
    }
}

/// Error parsing a strategy from its paper notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    input: String,
}

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid strategy notation `{}`; expected e.g. `DDP`, `(FSDP)`, or `(TP, DDP)`",
            self.input
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "DDP" => Ok(Strategy::Ddp),
            "FSDP" => Ok(Strategy::Fsdp),
            "TP" => Ok(Strategy::Tp),
            "MP" | "SHARD" => Ok(Strategy::Shard),
            _ => Err(ParseStrategyError {
                input: s.to_owned(),
            }),
        }
    }
}

impl std::str::FromStr for HierStrategy {
    type Err = ParseStrategyError;

    /// Parses the paper's notation: `(TP, DDP)` is two-level, `(FSDP)` or
    /// bare `FSDP` is flat.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        let inner = trimmed
            .strip_prefix('(')
            .and_then(|t| t.strip_suffix(')'))
            .unwrap_or(trimmed)
            .trim();
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        match parts.as_slice() {
            [one] => Ok(HierStrategy::Flat(one.parse()?)),
            [intra, inter] => Ok(HierStrategy::TwoLevel {
                intra: intra.parse()?,
                inter: inter.parse()?,
            }),
            _ => Err(ParseStrategyError {
                input: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn parses_paper_notation() {
        assert_eq!(
            "(TP, DDP)".parse::<HierStrategy>().unwrap(),
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp)
        );
        assert_eq!(
            "(FSDP)".parse::<HierStrategy>().unwrap(),
            HierStrategy::flat(Strategy::Fsdp)
        );
        assert_eq!(
            "ddp".parse::<HierStrategy>().unwrap(),
            HierStrategy::flat(Strategy::Ddp)
        );
        assert_eq!(
            "(MP)".parse::<HierStrategy>().unwrap(),
            HierStrategy::flat(Strategy::Shard)
        );
        assert_eq!(
            "( tp , fsdp )".parse::<HierStrategy>().unwrap(),
            HierStrategy::two_level(Strategy::Tp, Strategy::Fsdp)
        );
    }

    #[test]
    fn parse_round_trips_display() {
        for s in [
            HierStrategy::flat(Strategy::Ddp),
            HierStrategy::flat(Strategy::Shard),
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
            HierStrategy::two_level(Strategy::Fsdp, Strategy::Tp),
        ] {
            let parsed: HierStrategy = s.to_string().parse().unwrap();
            assert_eq!(parsed, s);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!("(TP, DDP, FSDP)".parse::<HierStrategy>().is_err());
        assert!("ZeRO".parse::<HierStrategy>().is_err());
        assert!("".parse::<HierStrategy>().is_err());
        let err = "ZeRO".parse::<Strategy>().unwrap_err();
        assert!(err.to_string().contains("ZeRO"));
    }
}
