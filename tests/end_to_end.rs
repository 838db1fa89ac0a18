//! Cross-crate integration tests: the full study pipeline at miniature
//! scale, checked against ground truth and the paper's qualitative claims.

use dangling_abuse::prelude::*;
use dangling_core::{Scenario, ScenarioConfig};

fn small_cfg(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(800);
    cfg.world.n_fortune1000 = 60;
    cfg.world.n_global500 = 30;
    cfg.seed = seed;
    cfg
}

#[test]
fn full_study_reproduces_headline_claims() {
    let r = Scenario::new(small_cfg(7)).run();

    // §3: the pipeline monitors a growing cloud-pointing population.
    assert!(r.monitored_total > 100);
    let (monitored, _) = r.fig1_series();
    let first_nonzero = monitored.iter().find(|(_, v)| *v > 0.0).unwrap().1;
    assert!(monitored.last().unwrap().1 > first_nonzero);

    // Hijacks happen and are detected with high fidelity.
    assert!(!r.world.truth.is_empty());
    assert!(
        r.detection.precision() > 0.9,
        "precision {}",
        r.detection.precision()
    );
    assert!(
        r.detection.recall() > 0.6,
        "recall {}",
        r.detection.recall()
    );

    // §4.3: every hijack is a freetext re-registration; zero IP takeovers.
    for t in &r.world.truth {
        assert_eq!(
            cloudsim::provider::spec(t.service).naming,
            cloudsim::NamingModel::Freetext
        );
    }
    assert!(r.ip_lottery_declines > 0);

    // §5.2: gambling leads among *classified* topics. (Maintenance-shell
    // hijacks classify as Unknown from the index page alone — the paper's
    // Table 1 shows the same shell snippets at the top of its keyword list.)
    let topics = r.fig3_topics();
    let top_classified = topics
        .iter()
        .find(|(t, _)| t != "Unknown")
        .map(|(t, _)| t.as_str());
    assert_eq!(top_classified, Some("Gambling"), "topics: {topics:?}");
    let (seo_frac, _) = r.seo_shares();
    assert!(seo_frac > 0.5, "SEO share {seo_frac}");

    // §5.4: malware nearly absent relative to hijacks.
    let malware = attacker::malware::summarize(&r.world.binaries);
    assert!(malware.total_binaries < r.world.truth.len());

    // Figure 18: abused SLDs are established domains.
    let (_, frac_old) = r.fig18_domain_ages();
    assert!(frac_old > 0.9, "domain age fraction {frac_old}");
}

#[test]
fn randomized_names_mitigation_eliminates_hijacks() {
    let mut cfg = small_cfg(11);
    cfg.platform.randomize_freetext_names = true;
    let r = Scenario::new(cfg).run();
    assert_eq!(
        r.world.truth.len(),
        0,
        "unguessable names make deterministic re-registration impossible"
    );
    assert!(r.abuse.is_empty());
}

#[test]
fn liveness_comparison_shape_matches_section2() {
    let r = Scenario::new(small_cfg(13)).run();
    let (icmp, _tcp, http) = r.liveness_rates().expect("hijacks produce samples");
    // Shape (not absolute): ICMP under-reports liveness vs HTTP.
    assert!(icmp < http, "icmp {icmp} vs http {http}");
    assert!(http > 0.7);
}

#[test]
fn certificates_and_ct() {
    let r = Scenario::new(small_cfg(17)).run();
    // Some hijacks obtained certificates; they are single-SAN (Figure 20's
    // discriminator) and show in CT history.
    let with_cert: Vec<_> = r.world.truth.iter().filter(|t| t.cert.is_some()).collect();
    assert!(!with_cert.is_empty(), "some hijacks should certify");
    for t in &with_cert {
        let history = r.world.ct.history_for(&t.victim_fqdn);
        let own: Vec<_> = history
            .iter()
            .filter(|e| e.cert.requested_by == cloudsim::AccountId::Attacker(t.campaign))
            .collect();
        assert!(!own.is_empty());
        assert!(own.iter().all(|e| e.cert.is_single_san()));
    }
    // A CT monitor on a victim apex would have alerted.
    let t = with_cert[0];
    let apex = t.victim_fqdn.sld().unwrap();
    let mut monitor = certsim::CtMonitor::new(apex, 0);
    let alerts = monitor.poll(&r.world.ct);
    assert!(
        !alerts.is_empty(),
        "CT monitoring catches the fraudulent cert"
    );
}

#[test]
fn infrastructure_clustering_recovers_campaigns() {
    let r = Scenario::new(small_cfg(19)).run();
    let infra = dangling_core::infra::cluster(&r.infra_inputs(), dangling_core::infra::CUTOFF);
    // The whole §6 report of this world is pinned byte-for-byte: clusters,
    // graph stats and the Figure 21/26 aggregations.
    assert_eq!(
        serde_json::to_string_pretty(&infra).unwrap() + "\n",
        include_str!("fixtures/infra_eq/report.json"),
        "InfraReport drifted from tests/fixtures/infra_eq/report.json"
    );
    // Identifiers cover a subset of abused domains (paper: ~1/3).
    assert!(infra.covered_domains <= r.abuse.len());
    if infra.clusters.len() >= 2 {
        // Clusters never mix campaigns (pairwise precision 1.0 at 0.95 in a
        // world where identifiers are campaign-unique).
        use std::collections::{BTreeMap, BTreeSet};
        let truth: BTreeMap<_, _> = r
            .world
            .truth
            .iter()
            .map(|t| (t.victim_fqdn.clone(), t.campaign))
            .collect();
        for c in &infra.clusters {
            let campaigns: BTreeSet<_> = c.domains.iter().filter_map(|d| truth.get(d)).collect();
            assert!(
                campaigns.len() <= 1,
                "cluster mixes campaigns: {campaigns:?}"
            );
        }
    }
    // Phone geography is Asia-dominated (Figure 21).
    if let Some((top_country, _)) = infra.phone_countries.first() {
        assert!(
            ["Indonesia", "Cambodia"].contains(&top_country.as_str()),
            "top country {top_country}"
        );
    }
}

#[test]
fn determinism_across_identical_runs() {
    let a = Scenario::new(small_cfg(23)).run();
    let b = Scenario::new(small_cfg(23)).run();
    assert_eq!(a.world.truth.len(), b.world.truth.len());
    assert_eq!(a.abuse.len(), b.abuse.len());
    assert_eq!(a.monitored_total, b.monitored_total);
    assert_eq!(a.world.ct.len(), b.world.ct.len());
    let fa: Vec<String> = a.abuse.iter().map(|x| x.fqdn.to_string()).collect();
    let fb: Vec<String> = b.abuse.iter().map(|x| x.fqdn.to_string()).collect();
    assert_eq!(fa, fb);
}

#[test]
fn prelude_quickstart_compiles_and_runs() {
    // The README quickstart, miniaturized.
    let results = Scenario::new(small_cfg(29)).run();
    let _ = Scale::DEFAULT;
    let _ = SimTime::monitor_start();
    let _ = Date::new(2022, 9, 9);
    let _ = RngTree::new(1);
    assert!(results.feed_size > 0);
}
