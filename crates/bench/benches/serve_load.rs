//! The serve daemon under sustained query load.
//!
//! The untimed contract phase runs the real pipeline (incremental retro,
//! serve sink attached) on one thread while two reader threads loop the
//! five query kinds against the live daemon until the run ends. Verdict
//! lookups use FQDNs read from the currently published view, so they hit
//! real verdicts. Asserted, not just reported: zero torn replies, at least
//! one verdict hit, and round versions advancing while the readers ran
//! (reads proceed while rounds commit). Query and round-publication latency
//! percentiles print greppably for BENCH_serve.json.
//!
//! The timed rows then isolate the read and publish paths: query cost
//! against an idle daemon (status + verdict), the same query while a writer
//! republishes as fast as it can (contended pointer swaps), and the cost of
//! publishing a prebuilt view.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dangling_core::{Scenario, ScenarioConfig};
use serve::{daemon, LiveView, Query, ReplyBody, ServeHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Same full-window config as the serve_equivalence suite: campaigns start
/// in 2020, so the published views carry real verdicts by the later rounds.
fn study_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    cfg.crawl_threads = 1;
    cfg.crawl_failure_rate = 0.02;
    cfg
}

/// What one reader thread saw.
struct ReaderReport {
    queries: u64,
    verdict_hits: u64,
    torn: u64,
    first_round: u64,
    last_round: u64,
}

/// Loop the five query kinds until `done`, then finish one last pass
/// (loop-then-check: a reader scheduled after the run ended still queries
/// the final view). Each pass reads its verdict target from the view
/// published at that moment.
fn reader(handle: ServeHandle, done: Arc<AtomicBool>) -> ReaderReport {
    let mut report = ReaderReport {
        queries: 0,
        verdict_hits: 0,
        torn: 0,
        first_round: u64::MAX,
        last_round: 0,
    };
    let mut pass = 0usize;
    loop {
        let fqdn = {
            let view = handle.view();
            match view.verdicts.len() {
                0 => "unpublished.example".to_string(),
                n => view.verdicts.keys().nth(pass % n).unwrap().clone(),
            }
        };
        pass += 1;
        for q in [
            Query::Status,
            Query::Health,
            Query::Signatures,
            Query::Clusters,
            Query::Verdict { fqdn },
        ] {
            let reply = handle.query(&q);
            report.queries += 1;
            if !reply.consistent() {
                report.torn += 1;
            }
            if matches!(reply.body, ReplyBody::Verdict(_)) {
                report.verdict_hits += 1;
            }
            assert!(
                reply.round >= report.last_round,
                "published rounds must be monotone for a reader"
            );
            report.first_round = report.first_round.min(reply.round);
            report.last_round = reply.round;
        }
        if done.load(Ordering::SeqCst) {
            return report;
        }
    }
}

/// Contract phase: two reader threads against a live, advancing run.
fn live_load_contract() {
    const READERS: usize = 2;
    let (sink, handle) = daemon();
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let handle = handle.clone();
            let done = done.clone();
            std::thread::spawn(move || reader(handle, done))
        })
        .collect();
    let results = Scenario::new(study_cfg())
        .incremental(true)
        .round_sink(Box::new(sink))
        .run();
    done.store(true, Ordering::SeqCst);

    let (mut queries, mut verdict_hits, mut torn) = (0u64, 0u64, 0u64);
    let (mut first_round, mut last_round) = (u64::MAX, 0u64);
    for r in readers {
        let r = r.join().expect("reader thread");
        queries += r.queries;
        verdict_hits += r.verdict_hits;
        torn += r.torn;
        first_round = first_round.min(r.first_round);
        last_round = last_round.max(r.last_round);
    }
    assert!(
        !results.abuse.is_empty(),
        "the driven run must detect abuse or the load is against empty views"
    );
    assert_eq!(torn, 0, "replies must never mix rounds ({queries} queries)");
    assert!(
        verdict_hits > 0,
        "verdict lookups must hit published verdicts ({queries} queries)"
    );
    assert!(
        handle.rounds_published() > 0 && last_round > first_round,
        "rounds must advance while the readers run ({first_round}..{last_round})"
    );

    let publish = obs::histogram("serve.publish_round_ns").snapshot();
    let query = obs::histogram("serve.query_ns").snapshot();
    println!(
        "serve_load contract: readers={READERS} queries={queries} verdict_hits={verdict_hits} \
         torn={torn} rounds={first_round}..{last_round} \
         query_p50_ns={} query_p99_ns={} query_p999_ns={} \
         publish_p50_ns={} publish_p95_ns={} publish_p99_ns={} publish_p999_ns={}",
        query.quantile(0.50),
        query.quantile(0.99),
        query.quantile(0.999),
        publish.quantile(0.50),
        publish.quantile(0.95),
        publish.quantile(0.99),
        publish.quantile(0.999),
    );
}

fn bench_serve_load(c: &mut Criterion) {
    live_load_contract();

    let mut g = c.benchmark_group("serve_load");
    g.throughput(Throughput::Elements(1));

    // Idle read path: a published synthetic view, no concurrent writer.
    let (mut sink, handle) = daemon();
    sink.publish_raw(Arc::new(LiveView::synthetic(5, 256)));
    let fqdn = handle
        .view()
        .verdicts
        .keys()
        .next()
        .cloned()
        .expect("synthetic view has verdicts");
    g.bench_function("query_status_idle", |b| {
        b.iter(|| black_box(handle.query(&Query::Status)))
    });
    let verdict = Query::Verdict { fqdn };
    g.bench_function("query_verdict_idle", |b| {
        b.iter(|| black_box(handle.query(&verdict)))
    });

    // Contended read path: a writer republishes the same view as fast as it
    // can while the benchmark queries — every load races a pointer swap.
    let (mut wsink, whandle) = daemon();
    let wview = Arc::new(LiveView::synthetic(9, 256));
    wsink.publish_raw(wview.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                wsink.publish_raw(wview.clone());
                std::thread::yield_now();
            }
        })
    };
    g.bench_function("query_status_contended", |b| {
        b.iter(|| black_box(whandle.query(&Query::Status)))
    });
    stop.store(true, Ordering::SeqCst);
    writer.join().expect("writer thread");

    // Publish path: swap in a prebuilt Arc (what a round commit pays on top
    // of building the view).
    let (mut psink, _phandle) = daemon();
    let pview = Arc::new(LiveView::synthetic(3, 256));
    g.bench_function("publish_round", |b| {
        b.iter(|| psink.publish_raw(black_box(pview.clone())))
    });

    g.finish();
}

criterion_group!(benches, bench_serve_load);
criterion_main!(benches);
