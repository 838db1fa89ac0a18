//! Telemetry overhead on the hot path: the same monitoring round crawled
//! three ways —
//!
//! 1. **baseline**: a hand-rolled serial loop of [`Crawler::sample`] plus
//!    the diff and the store commit, with no telemetry at all — the same
//!    `monitor::crawl` function [`CrawlExecutor`] runs, with a hook that
//!    prices nothing, and without the executor's slot scheduler and obs
//!    calls,
//! 2. **instrumented**: [`CrawlExecutor`] as shipped, telemetry compiled in
//!    but neither `--trace` nor `--metrics` exporting (counters/histograms
//!    still count — they are always on),
//! 3. **instrumented+tracing**: the same with span collection enabled.
//!
//! The contract asserted here (and documented in DESIGN.md §7): compiled-in,
//! not-exporting telemetry costs **< 2%** over the uninstrumented loop.
//! Timing is min-of-N wall clock — the minimum is the least noisy estimator
//! for a deterministic workload. Recorded baselines live in `BENCH_obs.json`.

use cloudsim::{sitemap_bytes, AccountId, CloudPlatform, PlatformConfig, ServiceId, SiteContent};
use dangling_core::diff::record as diff_record;
use dangling_core::monitor::Crawler;
use dangling_core::pipeline::CrawlExecutor;
use dangling_core::snapshot::SnapshotStore;
use dns::{Name, RecordData, Resolver, ResourceRecord, Zone, ZoneSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::{RngTree, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SITES: usize = 400;
const WARMUP: usize = 3;
const REPS: usize = 25;
const MAX_OVERHEAD_PCT: f64 = 2.0;

/// One monitoring round's substrate (mirrors the pipeline_parallel bench).
fn build(n: usize) -> (CloudPlatform, ZoneSet, Vec<Name>) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut platform = CloudPlatform::new(PlatformConfig::default());
    let mut zs = ZoneSet::new();
    let mut zone = Zone::new("victim.com".parse().unwrap());
    let mut monitored = Vec::new();
    for i in 0..n {
        let id = platform
            .register(
                ServiceId::AzureWebApp,
                Some(&format!("site-{i}")),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut rng,
            )
            .unwrap();
        let mut content = SiteContent::placeholder(&format!("Site {i}"));
        if i % 3 == 0 {
            content.sitemap_bytes = Some(sitemap_bytes(1_000));
        }
        platform.set_content(id, content);
        let fqdn: Name = format!("s{i}.victim.com").parse().unwrap();
        platform.bind_custom_domain(id, fqdn.clone());
        zone.add(ResourceRecord::new(
            fqdn.clone(),
            300,
            RecordData::Cname(format!("site-{i}.azurewebsites.net").parse().unwrap()),
        ));
        monitored.push(fqdn);
    }
    zs.insert(zone);
    for pz in platform.zones().iter() {
        zs.insert(pz.clone());
    }
    (platform, zs, monitored)
}

/// Min-of-N wall clock of `f`, after warmup.
fn min_time(mut f: impl FnMut()) -> Duration {
    for _ in 0..WARMUP {
        f();
    }
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .unwrap()
}

fn main() {
    let (platform, zs, monitored) = build(SITES);
    let tree = RngTree::new(1);
    let auth = std::sync::Arc::new(zs);
    // Each name's shard in the stores below, hashed once as admission does.
    let shard_store = SnapshotStore::new();
    let shard_ids: Vec<u16> = monitored.iter().map(|f| shard_store.shard_id(f)).collect();

    // Every side commits its round into a fresh store, so every iteration
    // crawls every site on first sight.
    // 1. Uninstrumented: the serial crawl loop by hand, zero telemetry.
    let base = min_time(|| {
        let resolver = Resolver::new(auth.clone());
        let web = &platform;
        let mut store = SnapshotStore::new();
        let mut changes = Vec::new();
        for fqdn in &monitored {
            let prev = store.latest(fqdn);
            let snap = Crawler::sample(fqdn, &resolver, web, prev, SimTime(7));
            changes.extend(prev.and_then(|p| diff_record(p, &snap)));
            store.insert(snap);
        }
        black_box((changes, store));
    });

    // 2. Instrumented, telemetry idle (metrics counting, no span collection).
    obs::set_tracing(false);
    let exec = CrawlExecutor::new(1, 0.0);
    let instr = min_time(|| {
        let mut store = SnapshotStore::new();
        let round = exec.run(
            &monitored,
            &shard_ids,
            &mut store,
            &tree,
            SimTime(7),
            &|| Resolver::new(auth.clone()),
            &|| &platform,
        );
        black_box((round, store));
    });

    // 3. Instrumented with span collection on (what `--trace` costs).
    obs::set_tracing(true);
    let traced = min_time(|| {
        let mut store = SnapshotStore::new();
        let round = exec.run(
            &monitored,
            &shard_ids,
            &mut store,
            &tree,
            SimTime(7),
            &|| Resolver::new(auth.clone()),
            &|| &platform,
        );
        black_box((round, store));
    });
    obs::set_tracing(false);
    drop(obs::take_spans()); // don't let bench spans leak into later exports

    let pct = |a: Duration, b: Duration| (b.as_secs_f64() / a.as_secs_f64() - 1.0) * 100.0;
    let overhead = pct(base, instr);
    let overhead_traced = pct(base, traced);
    println!("obs_overhead/crawl_{SITES}_sites (min of {REPS}):");
    println!(
        "  uninstrumented        {:>10.3} ms",
        base.as_secs_f64() * 1e3
    );
    println!(
        "  instrumented (idle)   {:>10.3} ms  ({overhead:+.2}%)",
        instr.as_secs_f64() * 1e3
    );
    println!(
        "  instrumented (traced) {:>10.3} ms  ({overhead_traced:+.2}%)",
        traced.as_secs_f64() * 1e3
    );

    assert!(
        overhead < MAX_OVERHEAD_PCT,
        "idle telemetry overhead {overhead:.2}% exceeds the {MAX_OVERHEAD_PCT}% budget"
    );
    println!("PASS: idle telemetry overhead {overhead:.2}% < {MAX_OVERHEAD_PCT}%");
}
