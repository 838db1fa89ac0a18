//! Shard-parallel stage scaling: the same workload run with 1/2/4/8 worker
//! threads, for the weekly crawl and for the retrospective pass's signature
//! validation. The determinism
//! contract says the *output* is identical for every row here — only
//! wall-clock should move. The scaling target is ≥2× on the 4-thread rows
//! over the serial rows; note this needs ≥4 real cores (on a single-CPU
//! container the threaded rows can only add scheduling overhead).
//!
//! The `pipeline_scale` group is the paper-scale tier: timed crawl rows at
//! n100k/n1m (row ids use size labels, not raw numbers, so CI filters like
//! `-- n100k` select exact sizes), plus an untimed contract phase that runs
//! one full 1M-site round at every thread count and *asserts* — not just
//! reports — byte-identical committed stores and change lists, and the
//! per-FQDN memory budget. The contract prints one greppable line::
//!
//!     pipeline_scale contract: sites=... identical_across_threads=1 ...
//!
//! which `scripts/bench_drift.py` checks against `BENCH_pipeline.json`.

use cloudsim::{sitemap_bytes, AccountId, CloudPlatform, PlatformConfig, ServiceId, SiteContent};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dangling_core::diff::{ChangeKind, ChangeRecord};
use dangling_core::exec_metric_names;
use dangling_core::pipeline::{CrawlExecutor, ShardedExecutor};
use dangling_core::signature::{derive_signatures, validate_signatures_sharded, SignatureFold};
use dangling_core::snapshot::{Snapshot, SnapshotStore};
use dns::{Name, Rcode, RecordData, Resolver, ResourceRecord, Zone, ZoneSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::{RngTree, SimTime};

/// A platform hosting `n` bound sites with real content, plus the org zone
/// pointing at them — the substrate of one monitoring round.
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

fn bench_crawl_scaling(c: &mut Criterion) {
    let (platform, zs, monitored) = build(400);
    let tree = RngTree::new(1);
    // Shared authority: per-thread resolver construction must be cheap, as
    // it is in the real pipeline (`world.dns()` hands out a borrow).
    let auth = std::sync::Arc::new(zs);
    // Each name's shard in the stores below, hashed once as admission does.
    let shard_store = SnapshotStore::new();
    let shard_ids: Vec<u16> = monitored.iter().map(|f| shard_store.shard_id(f)).collect();
    let mut g = c.benchmark_group("pipeline_parallel");
    g.throughput(Throughput::Elements(monitored.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        let exec = CrawlExecutor::new(threads, 0.0);
        g.bench_function(format!("crawl_400_sites_t{threads}"), |b| {
            b.iter(|| {
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
                black_box((round, store))
            })
        });
    }
    g.finish();
}

/// Campaign vocabulary pools, one per synthetic campaign: records drawing
/// from the same pool overlap enough to fall into one derivation group.
const POOLS: &[&[&str]] = &[
    &["slot", "judi", "gacor", "daftar"],
    &["premium", "domains", "sale", "offer"],
    &["casino", "poker", "bonus", "spin"],
    &["replica", "watches", "luxury", "outlet"],
];

/// `n` suspicious change records spread over a few campaigns, apexes and
/// rounds — the shape the retro pass sees after Algorithm-1 filtering.
fn synth_changes(n: usize) -> Vec<ChangeRecord> {
    (0..n)
        .map(|i| {
            let pool = POOLS[i % POOLS.len()];
            let fqdn: Name = format!("h{i}.apex{}.com", i % 23).parse().unwrap();
            let day = SimTime(10 + (i as i32 % 6) * 7);
            let mut after = Snapshot::unreachable(fqdn.clone(), day, Rcode::NoError, None);
            after.http_status = Some(200);
            after.index_hash = i as u64;
            after.page_mut().keywords = pool
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != i % pool.len())
                .map(|(_, w)| w.to_string())
                .collect();
            after.sitemap_bytes = (i % 3 == 0).then_some(800_000);
            after.page_mut().identifiers = vec![format!("phone:62{}", i % 5)];
            ChangeRecord {
                fqdn,
                day,
                kinds: vec![ChangeKind::BecameReachable],
                before_language: None,
                before_sitemap_bytes: None,
                before_serving: false,
                before_keywords: Vec::new(),
                after,
            }
        })
        .collect()
}

/// Signature validation against a 400-document benign corpus, for the
/// signatures derived from a 2 000-change history. Same keyed-shard
/// partition as the live pipeline, so every thread count produces identical
/// results.
fn bench_retro_scaling(c: &mut Criterion) {
    let changes = synth_changes(2_000);
    let signatures = derive_signatures(&changes, 2);
    assert!(
        !signatures.is_empty(),
        "bench workload must derive signatures"
    );
    let benign: Vec<Snapshot> = synth_changes(400)
        .into_iter()
        .enumerate()
        .map(|(i, rec)| {
            let mut s = rec.after;
            s.page_mut().keywords = vec![format!("benign{}", i % 50), "newsletter".into()];
            s.page_mut().identifiers.clear();
            s
        })
        .collect();
    let corpus: Vec<&Snapshot> = benign.iter().collect();

    let mut g = c.benchmark_group("retro_parallel");
    g.throughput(Throughput::Elements(changes.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        let exec = ShardedExecutor::new(threads, exec_metric_names!("bench.retro.validate"));
        g.bench_function(format!("validate_sigs_t{threads}"), |b| {
            b.iter(|| {
                black_box(validate_signatures_sharded(
                    signatures.clone(),
                    &corpus,
                    &exec,
                ))
            })
        });
    }
    g.finish();
}

/// The signature fold over a 2 000-change history at its two cadences, next
/// to `derive_signatures` (sort + fold). `fold_stream` is the push cost plus
/// one emission at the horizon — what every run pays;
/// `fold_per_round_emit` adds a signature emission at every round boundary —
/// the per-round overhead `repro --incremental` trades for streaming
/// visibility.
fn bench_incremental_retro(c: &mut Criterion) {
    let mut changes = synth_changes(2_000);
    // Arrival order: rounds by strictly increasing day, FQDN-sorted within.
    changes.sort_by(|a, b| (a.day, &a.fqdn).cmp(&(b.day, &b.fqdn)));
    let mut rounds: Vec<&[ChangeRecord]> = Vec::new();
    let mut start = 0;
    for i in 1..=changes.len() {
        if i == changes.len() || changes[i].day != changes[start].day {
            rounds.push(&changes[start..i]);
            start = i;
        }
    }

    let mut g = c.benchmark_group("retro_incremental");
    g.throughput(Throughput::Elements(changes.len() as u64));
    g.bench_function("derive_batch_2000", |b| {
        b.iter(|| black_box(derive_signatures(&changes, 2)))
    });
    g.bench_function("fold_stream_2000", |b| {
        b.iter(|| {
            let mut fold = SignatureFold::new();
            for rec in &changes {
                fold.push(rec);
            }
            black_box(fold.signatures(2))
        })
    });
    g.bench_function("fold_per_round_emit_2000", |b| {
        b.iter(|| {
            let mut fold = SignatureFold::new();
            let mut emitted = 0;
            for round in &rounds {
                for rec in *round {
                    fold.push(rec);
                }
                emitted += fold.signatures(2).len();
            }
            black_box(emitted)
        })
    });
    g.finish();
}

/// FNV-1a over the `Debug` form of every committed snapshot (in canonical
/// FQDN order) and every change record (in canonical monitored order). The
/// `Debug` form covers the whole snapshot (FQDN, rcode, cname chain, status,
/// features, retained HTML) and the whole change record, so two runs hash
/// equal only if they agree byte for byte.
fn round_hash(store: &SnapshotStore, changes: &[ChangeRecord]) -> u64 {
    use std::fmt::Write as _;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = String::new();
    let snaps = store.iter().map(|s| s as &dyn std::fmt::Debug);
    for item in snaps.chain(changes.iter().map(|c| c as &dyn std::fmt::Debug)) {
        buf.clear();
        write!(buf, "{item:?}").unwrap();
        for b in buf.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Mirror of the criterion shim's row selection, so the expensive
/// paper-scale worlds are only built when a `pipeline_scale` row (or no
/// filter at all) was asked for — the retro/crawl smoke filters must not
/// pay for a million-site build they never measure.
fn scale_rows_selected(ids: &[&str]) -> bool {
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-') && a != "bench" && a != "test")
        .collect();
    filters.is_empty()
        || ids
            .iter()
            .any(|id| filters.iter().any(|f| id.contains(f.as_str())))
}

/// Paper-scale crawl rows and the million-domain determinism/memory
/// contract. Timed rows sample one weekly round committed into a fresh
/// store at n100k and n1m; the contract phase (untimed, run whenever a
/// `n1m` or `contract` row is selected) then:
///
/// - runs the same 1M-site round at every thread count in {1, 2, 4, 8} and
///   asserts the hashes of the committed stores and change lists are
///   identical — the interned pipeline's headline equivalence, at full
///   population scale,
/// - re-crawls the committed round to reach the steady state (HTML
///   retained only on change), and asserts the store + monitored set + intern table
///   stay under [`BYTES_PER_FQDN_BUDGET`] bytes per FQDN.
fn bench_paper_scale(c: &mut Criterion) {
    let want_100k = scale_rows_selected(&[
        "pipeline_scale/crawl_n100k_t1",
        "pipeline_scale/crawl_n100k_t8",
    ]);
    let want_1m = scale_rows_selected(&[
        "pipeline_scale/crawl_n1m_t1",
        "pipeline_scale/crawl_n1m_t8",
        "pipeline_scale/contract",
    ]);
    if !want_100k && !want_1m {
        return;
    }
    let mut g = c.benchmark_group("pipeline_scale");

    if want_100k {
        let (platform, zs, monitored) = build(100_000);
        let tree = RngTree::new(1);
        let auth = std::sync::Arc::new(zs);
        // Each name's shard in the stores below, hashed once as admission does.
        let shard_store = SnapshotStore::new();
        let shard_ids: Vec<u16> = monitored.iter().map(|f| shard_store.shard_id(f)).collect();
        g.throughput(Throughput::Elements(monitored.len() as u64));
        for threads in [1usize, 8] {
            let exec = CrawlExecutor::new(threads, 0.0);
            g.bench_function(format!("crawl_n100k_t{threads}"), |b| {
                b.iter(|| {
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
                    black_box((round, store))
                })
            });
        }
    }

    if !want_1m {
        g.finish();
        return;
    }
    let (platform, zs, monitored) = build(1_000_000);
    let tree = RngTree::new(1);
    let auth = std::sync::Arc::new(zs);
    // Each name's shard in the stores below, hashed once as admission does.
    let shard_store = SnapshotStore::new();
    let shard_ids: Vec<u16> = monitored.iter().map(|f| shard_store.shard_id(f)).collect();
    g.throughput(Throughput::Elements(monitored.len() as u64));
    for threads in [1usize, 8] {
        let exec = CrawlExecutor::new(threads, 0.0);
        g.bench_function(format!("crawl_n1m_t{threads}"), |b| {
            b.iter(|| {
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
                black_box((round, store))
            })
        });
    }
    g.finish();

    // ----- contract phase (untimed, always run) -----
    let mut first_hash = None;
    let mut identical = true;
    let mut round_t1_ns = 0u64;
    let mut steady = SnapshotStore::new();
    for threads in [1usize, 2, 4, 8] {
        let exec = CrawlExecutor::new(threads, 0.0);
        let mut store = SnapshotStore::new();
        let start = std::time::Instant::now();
        let round = exec.run(
            &monitored,
            &shard_ids,
            &mut store,
            &tree,
            SimTime(7),
            &|| Resolver::new(auth.clone()),
            &|| &platform,
        );
        if threads == 1 {
            round_t1_ns = start.elapsed().as_nanos() as u64;
        }
        let h = round_hash(&store, &round.changes);
        identical &= *first_hash.get_or_insert(h) == h;
        steady = store;
    }
    assert!(
        identical,
        "1M-site committed stores and changes differ across thread counts — \
         the determinism contract is broken at paper scale"
    );

    // Steady state: the first round committed every site on first sight
    // (HTML retained); re-crawl the unchanged world so retained HTML is
    // dropped on replace — the population-proportional footprint a long run
    // actually holds.
    let exec = CrawlExecutor::new(8, 0.0);
    let start = std::time::Instant::now();
    exec.run(
        &monitored,
        &shard_ids,
        &mut steady,
        &tree,
        SimTime(14),
        &|| Resolver::new(auth.clone()),
        &|| &platform,
    );
    let steady_round_ns = start.elapsed().as_nanos() as u64;
    let bpf = dangling_core::bytes_per_fqdn_of(&steady, &monitored);
    assert!(
        bpf > 0.0 && bpf <= dangling_core::BYTES_PER_FQDN_BUDGET,
        "steady-state 1M-site store costs {bpf:.0} bytes/FQDN, over the {} \
         budget",
        dangling_core::BYTES_PER_FQDN_BUDGET
    );
    println!(
        "pipeline_scale contract: sites={} identical_across_threads={} \
         bytes_per_fqdn={} budget={} round_t1_ns={round_t1_ns} \
         steady_round_t8_ns={steady_round_ns}",
        monitored.len(),
        identical as u32,
        bpf as u64,
        dangling_core::BYTES_PER_FQDN_BUDGET as u64,
    );
}

criterion_group!(
    benches,
    bench_crawl_scaling,
    bench_retro_scaling,
    bench_incremental_retro,
    bench_paper_scale
);
criterion_main!(benches);
