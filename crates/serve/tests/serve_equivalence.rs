//! Serving must be results-invisible: a full-horizon incremental run with a
//! live [`ServeSink`] attached — and reader threads hammering the query API
//! the entire time — must serialize [`dangling_core::StudyResults`] to the
//! *same bytes* as the plain `--incremental` run. The sink sees `&RunState`
//! only and publication is out-of-band, so this is the serve-mode extension
//! of the telemetry-invisibility contract (DESIGN.md §11).

use dangling_core::scenario::{Scenario, ScenarioConfig};
use serve::{daemon, Query};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Same full-window config as the golden-digest suite
/// (`intern_equivalence`): campaigns only start in 2020, so anything
/// shorter leaves the streaming pass with no abuse to publish and the
/// comparison vacuous.
fn study_cfg(threads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    cfg.crawl_threads = threads;
    cfg.crawl_failure_rate = 0.02;
    cfg
}

#[test]
fn serving_under_query_load_is_byte_identical() {
    // Plain incremental run: the baseline bytes.
    let baseline_results = Scenario::new(study_cfg(2)).incremental(true).run();
    assert!(
        !baseline_results.abuse.is_empty(),
        "scenario must detect abuse or the equivalence is vacuous"
    );
    let baseline = serde_json::to_string(&baseline_results).expect("results serialize");

    // Served run: same config, same thread count, but with the daemon
    // attached and a reader thread issuing every query shape in a tight
    // loop for the whole run.
    let (sink, handle) = daemon();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let handle = handle.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut torn = 0u64;
            let mut queries = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let fqdn = handle
                    .view()
                    .verdicts
                    .keys()
                    .next()
                    .cloned()
                    .unwrap_or_else(|| "nowhere.example".into());
                for q in [
                    Query::Status,
                    Query::Health,
                    Query::Signatures,
                    Query::Clusters,
                    Query::Verdict { fqdn },
                ] {
                    let reply = handle.query(&q);
                    queries += 1;
                    if !reply.consistent() {
                        torn += 1;
                    }
                }
            }
            (queries, torn)
        })
    };

    let served_results = Scenario::new(study_cfg(2))
        .incremental(true)
        .round_sink(Box::new(sink))
        .run();
    stop.store(true, Ordering::SeqCst);
    let (queries, torn) = reader.join().expect("reader thread");

    assert!(queries > 0, "the reader must actually have queried");
    assert_eq!(torn, 0, "no reply may mix rounds ({queries} queries)");
    assert!(
        handle.rounds_published() > 0,
        "the pipeline must have published rounds"
    );
    let final_view = handle.view();
    assert!(final_view.consistent());
    assert!(
        final_view.provisional,
        "served views are advisory by definition"
    );

    assert_eq!(
        serde_json::to_string(&served_results).expect("results serialize"),
        baseline,
        "serving queries while running changed the results"
    );

    // The interned-path pin for serve mode: this config serializes the same
    // bytes as the committed pre-interning fixture (at either retro cadence,
    // per intern_equivalence), so serve mode is held to the string
    // pipeline's exact output too.
    let digest = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../core/tests/fixtures/intern_eq/results.digest"
    ))
    .expect("committed fixture digest");
    assert_eq!(
        format!(
            "{} {:016x}\n",
            baseline.len(),
            simcore::fnv1a(baseline.as_bytes())
        ),
        digest,
        "serve-mode results diverge from the pre-interning fixture"
    );
}
