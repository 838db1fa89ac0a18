//! # bench — experiment harness
//!
//! One renderer per table/figure of the paper (see DESIGN.md §3 for the
//! index), shared between the `repro` binary and the integration tests.
//! Every renderer prints the simulated measurement next to the paper's
//! reported value so EXPERIMENTS.md can be filled by running
//! `cargo run -p bench --bin repro -- all`.

pub mod ablations;
pub mod render;

use dangling_core::infra::InfraReport;
use dangling_core::StudyResults;
use std::cell::LazyCell;

/// All renderable targets, in paper order.
pub const TARGETS: &[&str] = &[
    "summary",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig26",
    "fig27",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "liveness",
    "economics",
    "seo",
    "cookies",
    "malware",
    "caa",
    "hsts",
    "detection",
    "latency",
    "critical-path",
];

/// Ablation targets (each runs extra scenarios).
pub const ABLATIONS: &[&str] = &[
    "ablation-randomized",
    "ablation-cooldown",
    "ablation-signatures",
    "ablation-cutoff",
    "ablation-probe",
    "extension-wordpress",
];

/// Render a single target against precomputed results and their §6 report
/// (`infra::cluster(&results.infra_inputs(), infra::CUTOFF)`). The report is
/// forced only by the targets that print it (fig21/22/26/27), so a run that
/// never shows §6 never clusters, and one that does clusters once.
pub fn render_target(
    results: &StudyResults,
    infra: &LazyCell<InfraReport, impl FnOnce() -> InfraReport>,
    target: &str,
) -> String {
    use render::*;
    match target {
        "summary" => summary(results),
        "fig1" => fig1(results),
        "fig2" => fig2(results),
        "fig3" => fig3(results),
        "fig4" => fig4(results),
        "fig5" => fig5(results),
        "fig6" => fig6(results),
        "fig7" => fig7(results),
        "fig8" => fig8(results),
        "fig9" => fig9(results),
        "fig10" => fig10(results),
        "fig11" => fig11(results),
        "fig12" => fig12(results),
        "fig15" => fig15(results),
        "fig16" => fig16(results),
        "fig18" => fig18(results),
        "fig19" => fig19(results),
        "fig20" => fig20(results),
        "fig21" => fig21(infra),
        "fig22" => fig22(results, infra),
        "fig26" => fig26(infra),
        "fig27" => fig27(results, infra),
        "table1" => table1(results),
        "table2" => table2(results),
        "table3" => table3(results),
        "table4" => table4(),
        "table5" => table5(results),
        "table6" => table6(results),
        "liveness" => liveness(results),
        "economics" => economics(results),
        "seo" => seo(results),
        "cookies" => cookies(results),
        "malware" => malware(results),
        "caa" => caa(results),
        "hsts" => hsts(results),
        "detection" => detection(results),
        "latency" => latency(results),
        "critical-path" => critical_path(results),
        other => format!("unknown target {other:?}; known: {TARGETS:?} + {ABLATIONS:?}\n"),
    }
}

/// Machine-readable summary of a run (for EXPERIMENTS.md tooling and
/// regression tracking across seeds/scales).
pub fn json_summary(r: &StudyResults, infra: &InfraReport) -> serde_json::Value {
    let (f500, g500) = r.enterprise_victim_rates();
    let (seo_frac, _) = r.seo_shares();
    let liveness = r.liveness_rates();
    let (fqdns, slds, apex) = r.fig5_sld_stats();
    let (_, total_files, mean_files) = r.fig6_upload_histogram();
    let freetext_hijacks = r
        .world
        .truth
        .iter()
        .filter(|t| cloudsim::provider::spec(t.service).naming == cloudsim::NamingModel::Freetext)
        .count();
    serde_json::json!({
        "scale_denominator": r.scale.denominator,
        "feed_size": r.feed_size,
        "monitored_total": r.monitored_total,
        "changes_total": r.changes_total,
        "signatures": r.signatures.len(),
        "signatures_discarded": r.signatures_discarded,
        "abused_fqdns": fqdns,
        "abused_slds": slds,
        "abused_apex_level": apex,
        "truth_hijacks": r.world.truth.len(),
        "freetext_hijacks": freetext_hijacks,
        "ip_takeovers": r.world.truth.len() - freetext_hijacks,
        "ip_lottery_declines": r.ip_lottery_declines,
        "precision": r.detection.precision(),
        "recall": r.detection.recall(),
        "fortune500_victim_rate": f500,
        "global500_victim_rate": g500,
        "seo_share": seo_frac,
        "liveness": liveness.map(|(icmp, tcp, http)| serde_json::json!({
            "icmp": icmp, "tcp": tcp, "http": http,
        })),
        "uploaded_files_total": total_files,
        "uploaded_files_mean": mean_files,
        "infra_clusters": infra.clusters.len(),
        "infra_identifiers": infra.identifier_count,
        "infra_covered_domains": infra.covered_domains,
        "caa_blocked_certs": r.caa_blocked_certs,
        "ct_log_entries": r.world.ct.len(),
    })
}
