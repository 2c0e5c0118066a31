//! Load-probe cost tables shared across the plans of a load search.
//!
//! [`Scenario::price_load`](crate::Scenario::price_load) prices a plan's
//! step cost model from a few probe shapes
//! ([`madmax_serve::StepCostModel::probe_shapes`]): a worst-case shape
//! it only checks for feasibility, then one synchronized serve wave per
//! decode ladder (a prompt and a batch), whose decode tail gives the
//! makespans of its last three decode lengths, and the prefill-slope
//! anchor, of which only the prefill is scheduled for its TTFT. Across the candidate plans of one load search only a few
//! distinct shapes occur: the list depends on the plan only through its
//! low-batch anchor. [`LoadProbeTables`] prices one flat [`CostTable`]
//! and one [`PipelineCostTable`] per shape, each for the plans that use
//! it, so a search prices a few tables instead of one per probe. A probe
//! — the feasibility check included — runs against its shape's table
//! whenever that table covers the plan ([`CostTable::covers`],
//! [`PipelineCostTable::covers`]).

use madmax_core::{CacheStats, CostTable};
use madmax_parallel::{Plan, ServeConfig, Workload};
use madmax_pipeline::PipelineCostTable;

/// Engine cost tables for the load probes of a list of plans, shared
/// read-only across the threads pricing them. Built by
/// [`Scenario::price_load_probes`](crate::Scenario::price_load_probes);
/// attached with [`Scenario::load_probes`](crate::Scenario::load_probes).
#[derive(Debug)]
pub struct LoadProbeTables<'a> {
    shapes: Vec<ProbeShape<'a>>,
}

/// One shape's flat and pipeline tables, each priced only when a plan
/// probing the shape needs it.
pub(crate) type Tables<'a> = (Option<CostTable<'a>>, Option<PipelineCostTable<'a>>);

/// The tables of one probe shape.
#[derive(Debug)]
pub(crate) struct ProbeShape<'a> {
    /// The serve wave, as the tables' workload.
    pub(crate) workload: Workload,
    /// Priced for the flat plans probing this shape, if any.
    pub(crate) flat: Option<CostTable<'a>>,
    /// Priced for the pipelined plans probing this shape, if any.
    pub(crate) pipeline: Option<PipelineCostTable<'a>>,
}

impl<'a> LoadProbeTables<'a> {
    /// Prices the tables: `shapes_of` lists the probe shapes of one plan,
    /// and `price` prices the flat and pipeline tables of one shape's
    /// workload for the plans that probe it.
    pub(crate) fn new(
        plans: &[Plan],
        shapes_of: impl Fn(&Plan) -> Vec<ServeConfig>,
        price: impl Fn(&Workload, &[&Plan]) -> Tables<'a>,
    ) -> Self {
        let mut keyed: Vec<(ServeConfig, Vec<&Plan>)> = Vec::new();
        for plan in plans {
            for cfg in shapes_of(plan) {
                match keyed.iter_mut().find(|(c, _)| *c == cfg) {
                    Some((_, probing)) => probing.push(plan),
                    None => keyed.push((cfg, vec![plan])),
                }
            }
        }
        let shapes = keyed
            .into_iter()
            .map(|(cfg, probing)| {
                let workload = Workload::serve(cfg);
                let (flat, pipeline) = price(&workload, &probing);
                ProbeShape {
                    workload,
                    flat,
                    pipeline,
                }
            })
            .collect();
        Self { shapes }
    }

    /// The tables of shape `cfg`, when priced.
    pub(crate) fn shape(&self, cfg: &ServeConfig) -> Option<&ProbeShape<'a>> {
        self.shapes
            .iter()
            .find(|s| s.workload.serve_config() == Some(cfg))
    }

    /// Distinct probe shapes across the priced plans (a diagnostic for
    /// tests).
    #[doc(hidden)]
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    /// Cost tables priced: at most one flat and one pipeline table per
    /// shape (a diagnostic for tests).
    #[doc(hidden)]
    pub fn table_count(&self) -> usize {
        self.shapes
            .iter()
            .map(|s| usize::from(s.flat.is_some()) + usize::from(s.pipeline.is_some()))
            .sum()
    }

    /// The flat tables' price-vs-reuse counters, summed over shapes.
    pub fn flat_stats(&self) -> CacheStats {
        self.sum(|s| s.flat.as_ref().map(CostTable::stats))
    }

    /// The pipeline tables' price-vs-reuse counters, summed over shapes.
    pub fn pipeline_stats(&self) -> CacheStats {
        self.sum(|s| s.pipeline.as_ref().map(PipelineCostTable::stats))
    }

    /// The pipeline tables' report-memo counters, summed over shapes.
    pub fn memo_stats(&self) -> CacheStats {
        self.sum(|s| s.pipeline.as_ref().map(PipelineCostTable::memo_stats))
    }

    /// The closed-form-vs-fallback counters of every table.
    pub fn analytic_stats(&self) -> CacheStats {
        let mut stats = self.sum(|s| s.flat.as_ref().map(CostTable::analytic_stats));
        stats.absorb(self.sum(|s| s.pipeline.as_ref().map(PipelineCostTable::analytic_stats)));
        stats
    }

    fn sum(&self, stats: impl Fn(&ProbeShape<'a>) -> Option<CacheStats>) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.shapes.iter().filter_map(stats) {
            total.absorb(s);
        }
        total
    }
}

impl ProbeShape<'_> {
    /// Whether the shape's table for `plan`'s engine covers `plan`, so a
    /// probe of `plan` evaluates against it exactly as against a one-plan
    /// table.
    pub(crate) fn covers(&self, plan: &Plan) -> bool {
        if plan.pipeline.is_some_and(|c| c.is_pipelined()) {
            self.pipeline.as_ref().is_some_and(|t| t.covers(plan))
        } else {
            self.flat.as_ref().is_some_and(|t| t.covers(plan))
        }
    }
}
