//! Experiments regenerating Fig. 3 (individual model characterization) and
//! Fig. 4 (fleet-wide communication characterization).

use crate::fleet::{characterize, default_fleet};
use crate::report::{bar_chart, heading, stacked_bars, Bar, Segment, Table};
use madmax_hw::units::{human_bytes, human_flops, human_params};
use madmax_model::zoo::characterization_suite;
use madmax_model::BatchUnit;

/// Fig. 3: capacity, compute, and sparse-lookup-bandwidth requirements of
/// six real-world models, spanning orders of magnitude.
pub fn fig03() -> String {
    let mut out = heading("Fig. 3: Model-level system resource requirements");
    let suite = characterization_suite();

    let mut t = Table::new([
        "Model",
        "(a) Capacity (params)",
        "Embedding fraction",
        "(b) FLOPs per sample/token",
        "(c) Lookup bytes per sample/token",
    ]);
    for m in &suite {
        let s = m.stats();
        let (flops, lookup) = match s.batch_unit {
            BatchUnit::Samples => (
                s.flops_fwd_per_sample.value(),
                s.lookup_bytes_per_sample.value(),
            ),
            BatchUnit::Tokens => (
                s.flops_fwd_per_token().value(),
                s.lookup_bytes_per_token().value(),
            ),
        };
        t.row([
            m.name.clone(),
            human_params(s.params_total),
            format!("{:.2}%", s.embedding_param_fraction() * 100.0),
            human_flops(flops),
            human_bytes(lookup),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n(a) Parameter capacity (log-scaled bars, billions):\n");
    let bars: Vec<Bar> = suite
        .iter()
        .map(|m| Bar::new(m.name.clone(), (m.stats().params_total / 1e9).log10()))
        .collect();
    out.push_str(&bar_chart(&bars, 40, "log10(B params)"));

    out.push_str(
        "\nO1: recommendation models hold 2-68x more parameters than LLMs and are\n\
         ~100% embeddings; O2: LLMs need orders of magnitude more FLOPs while\n\
         DLRMs need >20x the sparse lookup bandwidth.\n",
    );
    out
}

/// Fig. 4: fleet-wide training characterization over the synthetic fleet.
pub fn fig04() -> String {
    let mut out = heading("Fig. 4: Fleet-wide training characterization");
    let c = characterize(&default_fleet()).expect("default fleet is feasible");

    out.push_str("(a) GPU cycle shares per workload family:\n");
    let rows: Vec<(String, Vec<Segment>)> = c
        .families
        .iter()
        .map(|(fam, agg)| {
            (
                fam.to_string(),
                vec![
                    Segment {
                        name: "compute".into(),
                        value: agg.cycles.compute * 100.0,
                    },
                    Segment {
                        name: "exposed-comm".into(),
                        value: agg.cycles.exposed_comm * 100.0,
                    },
                    Segment {
                        name: "exposed-memcpy".into(),
                        value: agg.cycles.exposed_memcpy * 100.0,
                    },
                    Segment {
                        name: "idle".into(),
                        value: agg.cycles.idle * 100.0,
                    },
                ],
            )
        })
        .collect();
    out.push_str(&stacked_bars(&rows, 50, "% of cycles"));

    out.push_str("\n(b) Fraction of communication overlapped with compute:\n");
    let bars: Vec<Bar> = c
        .families
        .iter()
        .map(|(fam, agg)| Bar::new(fam.to_string(), agg.comm_overlapped * 100.0))
        .collect();
    out.push_str(&bar_chart(&bars, 40, "%"));

    out.push_str("\n(c) Communication-collective mix per family:\n");
    let mut t = Table::new(["Family", "Collective", "Share of comm time"]);
    for (fam, agg) in &c.families {
        for (k, v) in &agg.collective_mix {
            t.row([fam.to_string(), k.to_string(), format!("{:.1}%", v * 100.0)]);
        }
    }
    out.push_str(&t.render());

    out.push_str("\nPer-job drill-down:\n");
    let mut t = Table::new(["Job", "Family", "Iter (ms)", "Comm exposed", "Overlap"]);
    for (name, fam, r) in &c.jobs {
        t.row([
            name.clone(),
            fam.to_string(),
            format!("{:.2}", r.iteration_time.as_ms()),
            format!("{:.1}%", r.exposed_fraction() * 100.0),
            format!("{:.1}%", r.overlap_fraction() * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nO3: compute + exposed communication dominate observable cycles.\n\
         O4: LLM jobs overlap more communication than DLRM jobs; DLRM traffic\n\
         is All2All-heavy while LLM traffic is ring-collective-heavy.\n\
         (Fleet composition is synthetic; see crates/bench/src/fleet.rs.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_contains_suite_and_observations() {
        let s = fig03();
        assert!(s.contains("DLRM-A"));
        assert!(s.contains("GPT-3"));
        assert!(s.contains("O1"));
    }

    #[test]
    fn fig04_reports_both_families() {
        let s = fig04();
        assert!(s.contains("DLRM"));
        assert!(s.contains("LLM"));
        assert!(s.contains("exposed-comm"));
        assert!(s.contains("All2All"));
    }
}
