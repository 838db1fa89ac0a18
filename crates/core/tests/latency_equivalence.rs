//! The virtual-time determinism contract (DESIGN.md §10), end to end:
//! switching the event-driven crawl between the loss-free latency profiles
//! (`zero`, `datacenter`, `wan`) moves **only timing telemetry** — the
//! serialized `StudyResults` match the committed golden digest
//! (`tests/fixtures/intern_eq/`) under every one of them.
//!
//! Why this holds: a crawl's outcome is a pure function of its own
//! operation sequence — every task reads the pre-round store, the simulated
//! authority and web are static within a round, and the resolver keeps no
//! state between resolutions. Latency therefore reorders *completions*,
//! never *observations*; only the `lossy` profile (which drops queries) can
//! change results, and `parallel_equivalence` pins those to the `lossy_eq`
//! digest at every thread count.

mod golden;

use dangling_core::scenario::Scenario;
use dangling_core::StudyResults;

fn run_with_profile(latency_profile: &str) -> StudyResults {
    let mut cfg = golden::fixture_config(2);
    cfg.latency_profile = latency_profile.into();
    Scenario::new(cfg).run()
}

#[test]
fn latency_profiles_change_timing_telemetry_never_results() {
    for profile in ["zero", "datacenter", "wan"] {
        let results = run_with_profile(profile);
        let json = serde_json::to_string(&results).expect("results serialize");
        golden::assert_matches_golden(&json, "intern_eq", &format!("{profile} profile"));

        // The telemetry side: nonzero-latency profiles must actually have
        // consumed virtual time, the degenerate clock must not — which is
        // what proves the digest match above covered a run that really
        // modeled latency, not a silently disabled one.
        let s = results
            .resolution_latency_summary()
            .expect("the crawl records round latency");
        assert!(s.samples > 0);
        if profile == "zero" {
            assert_eq!(s.p99_ns, 0, "zero profile consumed virtual time");
        } else {
            assert!(
                s.p50_ns > 0,
                "{profile} profile recorded no simulated resolution latency"
            );
        }
    }
}
