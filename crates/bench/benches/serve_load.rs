//! The serve daemon under sustained query load.
//!
//! The untimed contract phase runs the real pipeline (incremental retro,
//! serve sink attached) on one thread while the main thread drives
//! [`serve::run_load`] batches against the live daemon — 1,500 simulated
//! clients per batch on the `wan` latency profile, paced through a
//! `simcore::CompletionQueue` with the crawl's latency model. Asserted, not
//! just reported: peak concurrent queries ≥ 1,000, zero torn replies, and
//! round versions advancing *across* batches (reads proceed while rounds
//! commit). Round-publication latency percentiles print greppably for
//! BENCH_serve.json.
//!
//! The timed rows then isolate the read and publish paths: query cost
//! against an idle daemon (status + verdict), the same query while a writer
//! republishes as fast as it can (contended pointer swaps), and the cost of
//! publishing a prebuilt view.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dangling_core::ScenarioConfig;
use serve::{daemon, LiveView, LoadConfig, Query};
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

/// Contract phase: ≥1,000 concurrent queries against a live, advancing run.
fn live_load_contract() {
    let (sink, handle) = daemon();
    let done = Arc::new(AtomicBool::new(false));
    let pipeline = {
        let done = done.clone();
        std::thread::spawn(move || {
            let results = bench::run_study_cfg_sink(study_cfg(), None, true, Box::new(sink));
            done.store(true, Ordering::SeqCst);
            results
        })
    };

    let cfg = LoadConfig::default(); // 1,500 clients x 4 queries, wan pacing
    let mut batches = 0u64;
    let mut peak = 0u64;
    let mut torn = 0u64;
    let mut queries = 0u64;
    let mut first_round = u64::MAX;
    let mut last_round = 0u64;
    // Batch loop-then-check: even if the pipeline outruns the first batch,
    // at least one full batch runs against the final state.
    loop {
        let report = serve::run_load(&handle, &cfg);
        batches += 1;
        peak = peak.max(report.peak_inflight);
        torn += report.torn;
        queries += report.queries;
        first_round = first_round.min(report.first_round);
        last_round = last_round.max(report.last_round);
        if done.load(Ordering::SeqCst) {
            break;
        }
    }
    let results = pipeline.join().expect("pipeline thread");
    assert!(
        !results.abuse.is_empty(),
        "the driven run must detect abuse or the load is against empty views"
    );
    assert_eq!(torn, 0, "replies must never mix rounds ({queries} queries)");
    assert!(
        peak >= 1_000,
        "load driver must sustain >= 1000 concurrent queries, peaked at {peak}"
    );
    assert!(
        handle.rounds_published() > 0 && last_round > first_round,
        "rounds must advance while queries run ({first_round}..{last_round})"
    );

    let publish = obs::histogram("serve.publish_round_ns").snapshot();
    let query = obs::histogram("serve.query_ns").snapshot();
    println!(
        "serve_load contract: batches={batches} queries={queries} peak_inflight={peak} \
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
