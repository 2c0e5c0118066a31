//! Experiments regenerating the paper's Tables I-IV.

use crate::report::{heading, Table};
use madmax_core::validation;
use madmax_hw::catalog;
use madmax_hw::units::{human_bytes, human_flops, human_params};
use madmax_hw::CommLevel;
use madmax_model::{BatchUnit, ModelId};

/// Table I: validation of first-order execution metrics against measured
/// production runs, with both the paper model's and our predictions.
pub fn table1() -> String {
    let mut out = heading("Table I: Validation of first-order execution metrics");
    let mut t = Table::new([
        "Evaluation metric",
        "Measured",
        "Paper model",
        "This repro",
        "Accuracy",
    ]);
    for row in validation::table_i().expect("baseline mappings are feasible") {
        t.row([
            format!("{} ({})", row.metric, row.unit),
            format!("{:.2}", row.measured),
            row.paper_model
                .map_or("-".to_owned(), |v| format!("{v:.2}")),
            format!("{:.2}", row.predicted),
            format!("{:.2}%", row.accuracy()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nMeasured values are the paper's published production measurements;\n\
         accuracy = 1 - |measured - predicted| / measured, as in the paper.\n",
    );
    out
}

/// Table II: the target model suite by key model-level characteristics.
pub fn table2() -> String {
    let mut out = heading("Table II: Target models and key model-level characteristics");
    let mut t = Table::new([
        "Model",
        "# Parameters",
        "FLOPs/sample-or-token",
        "Sparse lookup bytes",
        "Global batch",
        "Context",
    ]);
    for id in ModelId::ALL {
        let m = id.build();
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
        let batch = match s.batch_unit {
            BatchUnit::Samples => format!("{}K", s.global_batch / 1024),
            BatchUnit::Tokens => format!(
                "{} seqs ({:.1}M tokens)",
                s.global_batch,
                m.tokens_per_iteration() / 1e6
            ),
        };
        let ctx = if s.context_length <= 1 {
            "N/A".to_owned()
        } else {
            s.context_length.to_string()
        };
        t.row([
            id.to_string(),
            human_params(s.params_total),
            human_flops(flops),
            human_bytes(lookup),
            batch,
            ctx,
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nPaper targets: DLRM-A 793B/638M/22.61MB; DLRM-A Transformer 795B/2.6B/13.19MB;\n\
         DLRM-A MoE 957M FLOPs; DLRM-B 332B/60M; DLRM-B Transformer 333B/2.1B;\n\
         DLRM-B MoE 90M FLOPs; GPT-3 175B/350B/49.2KB; LLaMA 65.2B/130.4B/32.8KB;\n\
         LLaMA2 70B/140B; LLM-MoE 1.8T/550B. DLRM-B lookup volumes are calibrated\n\
         against the Table I throughput validation (see crates/model/src/dlrm.rs).\n",
    );
    out
}

/// Table III: the two baseline training systems and their aggregates.
pub fn table3() -> String {
    let mut out = heading("Table III: Baseline distributed systems");
    let mut t = Table::new(["", "DLRM training system", "LLM training system"]);
    let dlrm = catalog::zionex_dlrm_system();
    let llm = catalog::llama_llm_system();
    let row = |label: &str, f: &dyn Fn(&madmax_hw::ClusterSpec) -> String| {
        [label.to_owned(), f(&dlrm), f(&llm)]
    };
    t.row(row("Base device", &|c| c.device.name.clone()));
    t.row(row("Devices per node", &|c| c.devices_per_node.to_string()));
    t.row(row("# nodes", &|c| c.num_nodes.to_string()));
    t.row(row("Peak TF32 throughput", &|c| {
        format!("{:.0} PFLOPS", c.aggregate_peak_tf32().as_pflops())
    }));
    t.row(row("HBM capacity", &|c| {
        format!("{:.1} TB", c.aggregate_hbm_capacity().as_tb())
    }));
    t.row(row("HBM bandwidth", &|c| {
        format!("{:.0} TB/s", c.aggregate_hbm_bw().as_tb())
    }));
    t.row(row("Intra-node interconnect BW (unidir)", &|c| {
        format!(
            "{:.1} TB/s",
            c.aggregate_link_bw(CommLevel::IntraNode).as_tb()
        )
    }));
    t.row(row("Inter-node fabric", &|c| c.inter_fabric.to_string()));
    t.row(row("Inter-node interconnect BW (unidir)", &|c| {
        format!(
            "{:.1} Tbps",
            c.aggregate_link_bw(CommLevel::InterNode).as_gbps() / 1000.0
        )
    }));
    out.push_str(&t.render());
    out.push_str(
        "\nPaper values: 20 / 319 PFLOPS, 5 / 164 TB, 199 / 3960 TB/s,\n\
         38.4 / 614.4 TB/s intra, 25.6 / 409.6 Tbps inter.\n",
    );
    out
}

/// Table IV: simulated commodity hardware specifications.
pub fn table4() -> String {
    let mut out = heading("Table IV: Simulated commodity hardware specifications");
    let mut t = Table::new([
        "Device",
        "FP-16/32 FLOPS (datasheet)",
        "HBM capacity, BW",
        "Intra-node BW",
        "Inter-node BW",
        "Model-facing unidir intra/inter",
    ]);
    for (row, dev) in catalog::TABLE_IV.iter().zip(catalog::table_iv_devices()) {
        t.row([
            row.device.to_owned(),
            row.flops.to_owned(),
            row.hbm.to_owned(),
            row.intra.to_owned(),
            row.inter.to_owned(),
            format!(
                "{:.0} / {:.1} GB/s",
                dev.intra_node_bw.as_gb(),
                dev.inter_node_bw.as_gb()
            ),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nDatasheet columns reproduce the paper's Table IV verbatim; the last\n\
         column shows the per-device unidirectional values the cost models use\n\
         (bandwidth conventions and documented typos: crates/hw/src/catalog.rs).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_nonempty() {
        for (name, s) in [
            ("t1", table1()),
            ("t2", table2()),
            ("t3", table3()),
            ("t4", table4()),
        ] {
            assert!(s.lines().count() > 5, "{name} too short");
        }
    }

    #[test]
    fn table1_reports_all_six_metrics() {
        let s = table1();
        for needle in ["serialized", "exposed", "DLRM-B", "GPU hours", "1.4T"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn table2_lists_whole_suite() {
        let s = table2();
        for id in ModelId::ALL {
            assert!(s.contains(&id.to_string()), "missing {id}");
        }
    }

    #[test]
    fn table4_lists_all_devices() {
        let s = table4();
        for d in ["A100", "H100", "MI250X", "MI300X", "Gaudi2"] {
            assert!(s.contains(d));
        }
    }
}
