//! Smoke tests: every repro target renders against a tiny study without
//! panicking and contains its paper-comparison markers.

use bench::{json_summary, render_target, TARGETS};
use dangling_core::infra::{self, InfraReport};
use dangling_core::{Scenario, ScenarioConfig, StudyResults};
use std::cell::{Cell, LazyCell};

fn tiny() -> StudyResults {
    let mut cfg = ScenarioConfig::at_scale(1500);
    cfg.world.n_fortune1000 = 40;
    cfg.world.n_global500 = 20;
    cfg.seed = 3;
    Scenario::new(cfg).run()
}

/// The run's §6 report, computed on first use as `repro` does.
fn lazy_report(r: &StudyResults) -> LazyCell<InfraReport, impl FnOnce() -> InfraReport + '_> {
    LazyCell::new(|| infra::cluster(&r.infra_inputs(), infra::CUTOFF))
}

#[test]
fn every_target_renders() {
    let r = tiny();
    for t in TARGETS {
        let forced = Cell::new(false);
        let report = LazyCell::new(|| {
            forced.set(true);
            infra::cluster(&r.infra_inputs(), infra::CUTOFF)
        });
        let out = render_target(&r, &report, t);
        assert!(!out.is_empty(), "target {t} rendered nothing");
        assert!(
            !out.contains("unknown target"),
            "target {t} not wired: {out}"
        );
        // Only the §6 figures pay for clustering.
        let is_infra = matches!(*t, "fig21" | "fig22" | "fig26" | "fig27");
        assert_eq!(forced.get(), is_infra, "target {t} forced the §6 report");
    }
}

#[test]
fn paper_markers_present() {
    let r = tiny();
    let report = lazy_report(&r);
    for (target, marker) in [
        ("fig5", "17,698"),
        ("fig6", "31,810"),
        ("fig10", "89%"),
        ("fig20", "2017"),
        ("table5", "41%"),
        ("table6", "218"),
        ("liveness", "72%"),
        ("economics", "paper: 0"),
        ("cookies", "83"),
        ("malware", "181"),
        ("caa", "0.4%"),
        ("hsts", "16%"),
    ] {
        let out = render_target(&r, &report, target);
        assert!(
            out.contains(marker),
            "target {target} lost its paper anchor {marker:?}:\n{out}"
        );
    }
}

#[test]
fn json_summary_is_complete() {
    let r = tiny();
    let v = json_summary(&r, &lazy_report(&r));
    for key in [
        "monitored_total",
        "abused_fqdns",
        "truth_hijacks",
        "ip_takeovers",
        "precision",
        "recall",
        "seo_share",
        "infra_clusters",
    ] {
        assert!(v.get(key).is_some(), "missing json key {key}");
    }
    assert_eq!(v["ip_takeovers"], 0);
    // Round-trips through serde_json text.
    let text = serde_json::to_string(&v).unwrap();
    let back: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(back, v);
}

#[test]
fn ablation_renderers_run_on_precomputed_results() {
    let r = tiny();
    let a = bench::ablations::naive_signatures(&r);
    assert!(a.contains("naive"));
    let b = bench::ablations::cutoff_sweep(&r);
    assert!(b.contains("0.95"));
    let c = bench::ablations::probe_methods(&r);
    assert!(c.contains("ICMP") || c.contains("no liveness"));

    // The sweep's 0.95 row reports the cluster count Figure 27 prints.
    let fig27 = render_target(&r, &lazy_report(&r), "fig27");
    let fig27_clusters = fig27
        .split("HAC cutoff 0.95 → ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no cluster count in fig27:\n{fig27}"));
    let row = b
        .lines()
        .find(|l| l.split_whitespace().next() == Some("0.95"))
        .unwrap_or_else(|| panic!("no 0.95 row in the sweep:\n{b}"));
    assert_eq!(
        row.split_whitespace().nth(1),
        Some(fig27_clusters),
        "sweep row {row:?} vs fig27:\n{fig27}"
    );
}
