//! # madmax-fleet
//!
//! Fleet-wide training characterization substrate (Section III-B, Fig. 4).
//!
//! The paper characterizes Meta's production fleet over an extended period;
//! those traces are internal, so this crate *synthesizes* a fleet: a
//! weighted mix of recommendation- and language-model training jobs, each
//! simulated with the MAD-Max performance model, plus a calibrated
//! host-side overhead model for the two cycle categories the device
//! simulator cannot produce (exposed host-device memcpy and GPU idle from
//! data ingestion / kernel-launch gaps). See DESIGN.md section 3 for why
//! this substitution preserves the figure's derived quantities.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;

use madmax_core::IterationReport;
use madmax_engine::{EngineError, Scenario};
use madmax_hw::catalog;
use madmax_hw::units::Seconds;
use madmax_model::{LayerClass, ModelArch, ModelId};
use madmax_parallel::{CollectiveKind, HierStrategy, Plan, Strategy, Workload};

/// Which side of Fig. 4 a job aggregates into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadFamily {
    /// Recommendation-model training.
    Dlrm,
    /// Language-model training.
    Llm,
}

impl std::fmt::Display for WorkloadFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkloadFamily::Dlrm => "DLRM",
            WorkloadFamily::Llm => "LLM",
        })
    }
}

/// Host-side overhead fractions of iteration wall time, calibrated to the
/// fleet-level shares the paper reports (compute + exposed communication
/// remain >82% of cycles; the remainder splits between exposed memcpy and
/// idle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostOverhead {
    /// Host-device copies not hidden behind compute (input batches,
    /// checkpoint staging).
    pub exposed_memcpy_frac: f64,
    /// Idle from data ingestion stalls and kernel-launch overhead.
    pub idle_frac: f64,
}

impl HostOverhead {
    /// Calibrated defaults per family: recommendation pipelines move much
    /// larger input batches over PCIe.
    pub fn default_for(family: WorkloadFamily) -> Self {
        match family {
            WorkloadFamily::Dlrm => Self {
                exposed_memcpy_frac: 0.05,
                idle_frac: 0.10,
            },
            WorkloadFamily::Llm => Self {
                exposed_memcpy_frac: 0.02,
                idle_frac: 0.07,
            },
        }
    }
}

/// One training job in the synthetic fleet.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Display name.
    pub name: String,
    /// Workload family for aggregation.
    pub family: WorkloadFamily,
    /// The model being trained.
    pub model: ModelArch,
    /// Its system.
    pub system: madmax_hw::ClusterSpec,
    /// Its production mapping.
    pub plan: Plan,
    /// Share of fleet GPU-hours this job represents.
    pub weight: f64,
    /// Host overhead calibration.
    pub host: HostOverhead,
}

/// Builds a small LLaMA-style dense LLM used for the DDP-trained fleet
/// entries (models small enough to replicate, whose gradient AllReduce
/// dominates their communication mix — the reason fleet LLM communication
/// is AllReduce-heavy in Fig. 4c).
pub fn small_llm(name: &str, hidden: usize, layers: usize, nodes: usize) -> (ModelArch, Plan) {
    use madmax_model::layer::{
        FfnKind, LayerKind, SeqSource, TokenEmbeddingSpec, TransformerBlockSpec,
    };
    use madmax_model::{BatchUnit, LayerGroup};
    let model = ModelArch {
        name: name.to_owned(),
        groups: vec![
            LayerGroup::single(
                "word_embedding",
                LayerClass::Embedding,
                LayerKind::TokenEmbedding(TokenEmbeddingSpec {
                    vocab: 32_000,
                    dim: hidden,
                    dtype: madmax_hw::DType::Fp32,
                }),
            ),
            LayerGroup::repeated(
                "transformer_blocks",
                LayerClass::Transformer,
                LayerKind::TransformerBlock(TransformerBlockSpec {
                    hidden,
                    heads: hidden / 128,
                    kv_dim: hidden,
                    ffn_hidden: hidden * 11 / 4,
                    ffn: FfnKind::SwiGlu,
                    seq: SeqSource::ModelContext,
                }),
                layers,
            ),
        ],
        context_length: 2048,
        batch_unit: BatchUnit::Tokens,
        global_batch: nodes * 8 * 4, // 4 sequences per device
        compute_dtype: madmax_hw::DType::Bf16,
        param_dtype: madmax_hw::DType::Bf16,
    };
    // Replicating every dense parameter with plain DDP does not fit in
    // 80 GB for 7B+ models (gradients + Adam states alone are ~26 B/param);
    // the standard recipe shards within the node and replicates across
    // nodes. Both the TP partial sums and the DDP gradients are AllReduce.
    let plan = Plan::fsdp_baseline(&model)
        .with_strategy(LayerClass::Embedding, HierStrategy::flat(Strategy::Ddp))
        .with_strategy(
            LayerClass::Transformer,
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        );
    (model, plan)
}

/// The default synthetic fleet: production DLRMs on ZionEX plus a mix of
/// large (FSDP) and small (DDP) LLM jobs, weighted by fleet GPU-hour share.
pub fn default_fleet() -> Vec<FleetJob> {
    let mut jobs = Vec::new();

    for (id, weight) in [
        (ModelId::DlrmA, 0.30),
        (ModelId::DlrmB, 0.15),
        (ModelId::DlrmATransformer, 0.10),
    ] {
        let model = id.build();
        let system = catalog::zionex_dlrm_system();
        // Production DLRM mapping: sharded embeddings, TP-within-node +
        // DDP-across-nodes dense layers (Fig. 11's optimum).
        let plan = Plan::fsdp_baseline(&model).with_strategy(
            LayerClass::Dense,
            HierStrategy::two_level(Strategy::Tp, Strategy::Ddp),
        );
        jobs.push(FleetJob {
            name: model.name.clone(),
            family: WorkloadFamily::Dlrm,
            model,
            system,
            plan,
            weight,
            host: HostOverhead::default_for(WorkloadFamily::Dlrm),
        });
    }

    // Large LLMs: FSDP pre-training on the 2048-GPU system.
    for (id, weight) in [(ModelId::Gpt3, 0.15), (ModelId::Llama, 0.10)] {
        let model = id.build();
        let system = catalog::llama_llm_system();
        let plan = Plan::fsdp_baseline(&model);
        jobs.push(FleetJob {
            name: model.name.clone(),
            family: WorkloadFamily::Llm,
            model,
            system,
            plan,
            weight,
            host: HostOverhead::default_for(WorkloadFamily::Llm),
        });
    }

    // Small LLMs: DDP pre-training jobs on a few nodes.
    for (name, hidden, layers, nodes, weight) in [
        ("LLM-7B (DDP)", 4096, 32, 4, 0.12),
        ("LLM-13B (DDP)", 5120, 40, 8, 0.08),
    ] {
        let (model, plan) = small_llm(name, hidden, layers, nodes);
        let system = catalog::llama_llm_system().with_num_nodes(nodes);
        jobs.push(FleetJob {
            name: name.to_owned(),
            family: WorkloadFamily::Llm,
            model,
            system,
            plan,
            weight,
            host: HostOverhead::default_for(WorkloadFamily::Llm),
        });
    }
    jobs
}

/// Fig. 4a cycle categories, as fractions summing to 1.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleShares {
    /// Device computation or memory lookups.
    pub compute: f64,
    /// Inter-device communication with no concurrent compute.
    pub exposed_comm: f64,
    /// Exposed host-device memcpy.
    pub exposed_memcpy: f64,
    /// GPU idle.
    pub idle: f64,
}

/// Per-family fleet aggregates (one Fig. 4 column group).
#[derive(Debug, Clone, Default)]
pub struct FamilyCharacterization {
    /// Fig. 4a: cycle shares.
    pub cycles: CycleShares,
    /// Fig. 4b: fraction of communication overlapped with compute.
    pub comm_overlapped: f64,
    /// Fig. 4c: share of communication time per collective.
    pub collective_mix: BTreeMap<CollectiveKind, f64>,
    /// Total weight aggregated.
    pub weight: f64,
}

/// The whole fleet characterization.
#[derive(Debug, Clone, Default)]
pub struct FleetCharacterization {
    /// Per-family aggregates.
    pub families: BTreeMap<WorkloadFamily, FamilyCharacterization>,
    /// Per-job reports for drill-down.
    pub jobs: Vec<(String, WorkloadFamily, IterationReport)>,
}

/// Simulates every job and aggregates the Fig. 4 quantities,
/// weight-averaging within each family.
///
/// # Errors
///
/// Propagates the first infeasible job mapping (none in the default fleet).
pub fn characterize(fleet: &[FleetJob]) -> Result<FleetCharacterization, EngineError> {
    let mut out = FleetCharacterization::default();
    for job in fleet {
        let report = Scenario::new(&job.model, &job.system)
            .plan(job.plan.clone())
            .workload(Workload::pretrain())
            .run()?;

        // Device-side wall time plus calibrated host overheads.
        let device_wall = report.iteration_time;
        let device_frac = 1.0 - job.host.exposed_memcpy_frac - job.host.idle_frac;
        let wall = device_wall / device_frac;
        let busy_compute = report.compute_time();
        let exposed = report.exposed_comm;
        // Idle inside the device schedule (dependency stalls) joins the
        // ingestion idle bucket.
        let sched_idle = (device_wall - busy_compute - exposed).max(Seconds::ZERO);

        let shares = CycleShares {
            compute: busy_compute / wall,
            exposed_comm: exposed / wall,
            exposed_memcpy: job.host.exposed_memcpy_frac,
            idle: job.host.idle_frac + sched_idle / wall,
        };

        let fam = out.families.entry(job.family).or_default();
        let w = job.weight;
        fam.cycles.compute += shares.compute * w;
        fam.cycles.exposed_comm += shares.exposed_comm * w;
        fam.cycles.exposed_memcpy += shares.exposed_memcpy * w;
        fam.cycles.idle += shares.idle * w;
        fam.comm_overlapped += report.overlap_fraction() * w;
        if !report.comm_time.is_zero() {
            for (k, t) in &report.comm_by_collective {
                *fam.collective_mix.entry(*k).or_insert(0.0) += (*t / report.comm_time) * w;
            }
        }
        fam.weight += w;
        out.jobs.push((job.name.clone(), job.family, report));
    }
    // Normalize by family weight.
    for fam in out.families.values_mut() {
        let w = fam.weight.max(f64::MIN_POSITIVE);
        fam.cycles.compute /= w;
        fam.cycles.exposed_comm /= w;
        fam.cycles.exposed_memcpy /= w;
        fam.cycles.idle /= w;
        fam.comm_overlapped /= w;
        for v in fam.collective_mix.values_mut() {
            *v /= w;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fleet_is_weighted_mix() {
        let fleet = default_fleet();
        assert!(fleet.len() >= 6);
        let total: f64 = fleet.iter().map(|j| j.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to 1, got {total}");
        assert!(fleet.iter().any(|j| j.family == WorkloadFamily::Dlrm));
        assert!(fleet.iter().any(|j| j.family == WorkloadFamily::Llm));
    }

    #[test]
    fn observation_3_compute_plus_exposed_comm_dominate() {
        // O3: compute + exposed communication make up >82% of cycles.
        let c = characterize(&default_fleet()).unwrap();
        for (fam, agg) in &c.families {
            let covered = agg.cycles.compute + agg.cycles.exposed_comm;
            assert!(covered > 0.7, "{fam}: compute+exposed = {covered:.2}");
            let total = covered + agg.cycles.exposed_memcpy + agg.cycles.idle;
            assert!(
                (total - 1.0).abs() < 0.05,
                "{fam}: shares sum to {total:.3}"
            );
        }
    }

    #[test]
    fn observation_4_overlap_and_collective_mix() {
        // O4: LLM communication overlaps more than DLRM communication, and
        // the collective mixes differ: DLRM is All2All-heavy, LLM leans on
        // AllReduce/AllGather-family ring collectives.
        let c = characterize(&default_fleet()).unwrap();
        let dlrm = &c.families[&WorkloadFamily::Dlrm];
        let llm = &c.families[&WorkloadFamily::Llm];
        assert!(
            llm.comm_overlapped > dlrm.comm_overlapped,
            "LLM {:.2} vs DLRM {:.2}",
            llm.comm_overlapped,
            dlrm.comm_overlapped
        );
        let a2a_dlrm = dlrm
            .collective_mix
            .get(&CollectiveKind::AllToAll)
            .copied()
            .unwrap_or(0.0);
        let a2a_llm = llm
            .collective_mix
            .get(&CollectiveKind::AllToAll)
            .copied()
            .unwrap_or(0.0);
        assert!(a2a_dlrm > 0.4, "DLRM A2A share {a2a_dlrm:.2}");
        assert!(a2a_dlrm > a2a_llm);
        let ring_llm = llm
            .collective_mix
            .get(&CollectiveKind::AllReduce)
            .copied()
            .unwrap_or(0.0)
            + llm
                .collective_mix
                .get(&CollectiveKind::AllGather)
                .copied()
                .unwrap_or(0.0)
            + llm
                .collective_mix
                .get(&CollectiveKind::ReduceScatter)
                .copied()
                .unwrap_or(0.0);
        assert!(ring_llm > 0.8, "LLM ring-collective share {ring_llm:.2}");
    }

    #[test]
    fn small_llm_jobs_fit_and_are_ddp() {
        let (model, plan) = small_llm("t", 4096, 32, 4);
        let sys = catalog::llama_llm_system().with_num_nodes(4);
        let r = Scenario::new(&model, &sys)
            .plan(plan.clone())
            .workload(Workload::pretrain())
            .run();
        assert!(r.is_ok(), "{:?}", r.err());
        let report = r.unwrap();
        // DDP gradients and TP partial sums are AllReduce: the dominant
        // collective for these jobs.
        let ar = report
            .comm_by_collective
            .get(&CollectiveKind::AllReduce)
            .copied()
            .unwrap_or(madmax_hw::units::Seconds::ZERO);
        assert!(
            ar / report.comm_time > 0.5,
            "AllReduce share {}",
            ar / report.comm_time
        );
    }
}
