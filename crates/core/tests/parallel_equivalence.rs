//! The parallel crawl's determinism contract under the lossy transport: a
//! full scenario run must serialize to the *same bytes* for any crawl
//! thread count, and the serial run must match the committed `lossy_eq`
//! digest. (The default `zero` profile is pinned to the `intern_eq` digest
//! at every thread count by `intern_equivalence`.)
//!
//! The config enables the transient-failure model (nonzero
//! `crawl_failure_rate`) so the RNG-keyed crawl path is exercised too — a
//! sequential RNG shared across threads would break equality immediately.

mod golden;

use dangling_core::scenario::Scenario;

fn run_lossy(threads: usize) -> String {
    let mut cfg = golden::fixture_config(threads);
    cfg.latency_profile = "lossy".into();
    let results = Scenario::new(cfg).run();
    serde_json::to_string(&results).expect("results serialize")
}

/// The lossy profile injects dropped DNS queries (retries, SERVFAIL after
/// the retry budget) — it *changes* results relative to the zero profile,
/// but every drop is drawn from a stream keyed by (fqdn, day, ordinal), so
/// the changed results are still byte-identical for any thread count.
#[test]
fn lossy_transport_is_thread_count_invariant() {
    let serial = run_lossy(1);
    golden::assert_matches_golden(&serial, "lossy_eq", "lossy profile, 1 thread");
    for threads in [2, 4, 8] {
        let par = run_lossy(threads);
        assert_eq!(
            serial, par,
            "lossy StudyResults diverged between 1 and {threads} crawl threads"
        );
    }
}
