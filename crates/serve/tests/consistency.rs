//! Snapshot consistency under concurrent publication: readers hammering the
//! query API while rounds commit must always see a *single* round version —
//! every reply self-consistent per [`serve::Reply::consistent`], every
//! loaded view passing its build-time stamp. Two legs:
//!
//! - a synthetic leg driving the raw [`arc_swap::ArcSwap`] publication
//!   primitive (a lock-held `Arc`) with {1,2,4,8} writer threads (the
//!   daemon itself is single-writer; the primitive must not depend on
//!   that), and
//! - a live leg running the real pipeline at {1,2,4,8} crawl threads with
//!   reader threads querying throughout — which also pins that the served
//!   run's results stay byte-identical across crawl thread counts.

use arc_swap::ArcSwap;
use dangling_core::scenario::{Scenario, ScenarioConfig};
use serve::{daemon, LiveView, Query};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn synthetic_multi_writer_publication_never_tears() {
    for writers in [1usize, 2, 4, 8] {
        let swap = ArcSwap::new(Arc::new(LiveView::synthetic(0, 24)));
        let done = AtomicBool::new(false);
        let loads = AtomicU64::new(0);
        std::thread::scope(|s| {
            let swap = &swap;
            let done = &done;
            let loads = &loads;
            let writer_handles: Vec<_> = (0..writers)
                .map(|w| {
                    s.spawn(move || {
                        for i in 0..200u64 {
                            let seq = (w as u64) * 1_000 + i + 1;
                            swap.store(Arc::new(LiveView::synthetic(seq, 16 + (i % 9) as usize)));
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                s.spawn(move || {
                    // Load-then-check: on a loaded single-core host the
                    // writers can finish before a reader is first
                    // scheduled, so each reader must observe at least one
                    // view regardless.
                    loop {
                        let view = swap.load_full();
                        assert!(
                            view.consistent(),
                            "torn view at {writers} writers: seq {}",
                            view.seq
                        );
                        loads.fetch_add(1, Ordering::SeqCst);
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                });
            }
            for h in writer_handles {
                h.join().expect("writer thread");
            }
            done.store(true, Ordering::SeqCst);
        });
        assert!(
            loads.load(Ordering::SeqCst) > 0,
            "readers must have observed views at {writers} writers"
        );
    }
}

#[test]
fn live_pipeline_readers_see_single_round_versions() {
    fn study_cfg(threads: usize) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_scale(3000);
        cfg.world.n_fortune1000 = 20;
        cfg.world.n_global500 = 10;
        cfg.seed = 5;
        cfg.crawl_threads = threads;
        cfg.crawl_failure_rate = 0.02;
        cfg
    }

    let mut serialized: Vec<String> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (sink, handle) = daemon();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let handle = handle.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut torn = 0u64;
                    let mut queries = 0u64;
                    let mut max_round = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        for q in [
                            Query::Status,
                            Query::Signatures,
                            Query::Clusters,
                            Query::Health,
                            Query::Verdict {
                                fqdn: format!("reader-{r}.example"),
                            },
                        ] {
                            let reply = handle.query(&q);
                            queries += 1;
                            if !reply.consistent() {
                                torn += 1;
                            }
                            assert!(
                                reply.round >= max_round,
                                "published rounds must be monotone for a reader"
                            );
                            max_round = reply.round.max(max_round);
                        }
                    }
                    (queries, torn)
                })
            })
            .collect();

        let results = Scenario::new(study_cfg(threads))
            .incremental(true)
            .round_sink(Box::new(sink))
            .run();
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            let (queries, torn) = r.join().expect("reader thread");
            assert!(queries > 0);
            assert_eq!(
                torn, 0,
                "torn replies at {threads} crawl threads ({queries} queries)"
            );
        }
        assert!(handle.rounds_published() > 0);
        serialized.push(serde_json::to_string(&results).expect("results serialize"));
    }
    assert!(
        serialized.windows(2).all(|w| w[0] == w[1]),
        "served results diverged across crawl thread counts"
    );
}
