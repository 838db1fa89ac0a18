//! The paper-scale memory budget, pinned by regression test: resident bytes
//! per monitored FQDN ([`dangling_core::bytes_per_fqdn_of`]) must stay under
//! [`dangling_core::BYTES_PER_FQDN_BUDGET`] — at 3.1M FQDNs the budget is
//! what keeps the whole study on one commodity machine.
//!
//! Two layers:
//! - a synthetic 100k-FQDN store with crawl-realistic feature mixes, so the
//!   per-snapshot cost model is exercised at scale without a slow full run,
//! - a real (reduced-scale) scenario run asserting the
//!   `pipeline.bytes_per_fqdn` gauge is published and under budget — the
//!   same gauge the CI obs smoke checks, so budget drift fails CI twice.

use dangling_core::scenario::{Scenario, ScenarioConfig};
use dangling_core::snapshot::{Snapshot, SnapshotStore};
use dangling_core::{bytes_per_fqdn_of, BYTES_PER_FQDN_BUDGET};
use dns::{Name, Rcode};
use simcore::SimTime;

/// A crawl-realistic page in the style the synthetic world serves: enough
/// title/keyword/script material to populate every extracted feature.
fn page_html(i: usize) -> String {
    format!(
        "<html><head><title>Welcome to site {i} on our platform</title>\
         <meta name=\"keywords\" content=\"hosting, cloud, site{i}, platform, web\">\
         <meta name=\"generator\" content=\"SiteBuilder 4.2\">\
         <script src=\"https://cdn.example.net/assets/app-{}.js\"></script>\
         </head><body><p>This is the landing page of site {i}. Contact \
         support at mail{}@corp{}.example for onboarding and billing \
         questions about your deployment.</p></body></html>",
        i % 97,
        i % 13,
        i % 29
    )
}

#[test]
fn synthetic_100k_fqdn_store_stays_under_budget() {
    let n = 100_000;
    let mut store = SnapshotStore::new();
    let mut monitored: Vec<Name> = Vec::with_capacity(n);
    for i in 0..n {
        // Worldgen's FQDN shape: subdomain.apex.tld, apexes shared across
        // many subdomains (the label vocabulary the interner deduplicates).
        let fqdn: Name = format!("s{i}.victim{}.com", i % 2_500).parse().unwrap();
        let day = SimTime(7 * (i as i32 % 400));
        let mut snap = Snapshot::unreachable(fqdn.clone(), day, Rcode::NoError, None);
        if i % 10 != 0 {
            // Serving site with extracted features; HTML is retained only on
            // the change that populated the features (5%: the most recent
            // rounds' first-sight or changed sites), matching the crawl's
            // retain-on-change policy.
            snap.http_status = Some(200);
            snap.index_hash = i as u64;
            snap.ingest_content(&page_html(i), i % 20 == 0);
            snap.cname_target = Some(format!("site-{i}.azurewebsites.net").parse().unwrap());
        }
        store.insert(snap);
        monitored.push(fqdn);
    }

    let bpf = bytes_per_fqdn_of(&store, &monitored);
    assert!(
        bpf > 0.0 && bpf.is_finite(),
        "measurement must be meaningful, got {bpf}"
    );
    assert!(
        bpf <= BYTES_PER_FQDN_BUDGET,
        "100k-FQDN store costs {bpf:.0} bytes/FQDN, over the {} budget \
         ({}k FQDNs -> {:.0} MiB total)",
        BYTES_PER_FQDN_BUDGET,
        n / 1000,
        bpf * n as f64 / (1024.0 * 1024.0)
    );
    // The budget must also not be absurdly slack — if measured cost falls
    // to a fraction of the budget, tighten the budget instead of letting
    // regressions hide inside it.
    assert!(
        bpf >= BYTES_PER_FQDN_BUDGET * 0.25,
        "measured {bpf:.0} bytes/FQDN is under a quarter of the \
         {BYTES_PER_FQDN_BUDGET} budget — tighten BYTES_PER_FQDN_BUDGET"
    );
}

#[test]
fn scenario_publishes_bytes_per_fqdn_gauge_under_budget() {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    let results = Scenario::new(cfg).run();
    assert!(results.monitored_total > 100);

    let gauge = obs::gauge("pipeline.bytes_per_fqdn").get();
    assert!(
        gauge > 0.0,
        "the pipeline must publish pipeline.bytes_per_fqdn at its last round"
    );
    assert!(
        gauge <= BYTES_PER_FQDN_BUDGET,
        "end-to-end run costs {gauge:.0} bytes/FQDN, over the \
         {BYTES_PER_FQDN_BUDGET} budget"
    );
}
