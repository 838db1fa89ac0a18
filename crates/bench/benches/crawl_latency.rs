//! The crawl under modeled network latency.
//!
//! One worker crawls a single shard of 1,200 sites — more than the 1,024
//! crawls a shard models in flight, so the slot scheduler queues the rest
//! (the `crawl.inflight` gauge is asserted ≥1,000, not just reported). The
//! rows compare the degenerate clock (`zero` — the crawl itself plus a free
//! pricing hook) with the `wan` profile (a keyed RNG draw per network wait
//! and the slot scheduler's admission times).

use cloudsim::{sitemap_bytes, AccountId, CloudPlatform, PlatformConfig, ServiceId, SiteContent};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dangling_core::pipeline::CrawlExecutor;
use dangling_core::snapshot::SnapshotStore;
use dns::{Name, RecordData, Resolver, ResourceRecord, Zone, ZoneSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::{LatencyProfile, RngTree, SimTime};

const SITES: usize = 1_200;

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

fn bench_crawl_latency(c: &mut Criterion) {
    let (platform, zs, monitored) = build(SITES);
    // One shard: the whole site set lands in a single bucket, so one
    // worker crawls every site. Each round commits into a fresh store, so
    // every iteration crawls every site on first sight.
    let tree = RngTree::new(1);
    let auth = std::sync::Arc::new(zs);
    // Each name's shard in the stores below, hashed once as admission does.
    let shard_store = SnapshotStore::with_shards(1);
    let shard_ids: Vec<u16> = monitored.iter().map(|f| shard_store.shard_id(f)).collect();

    // Contract check before timing anything: a single wan-profile shard
    // holds ≥1,000 crawls in flight at once in virtual time.
    {
        let exec = CrawlExecutor::new(1, 0.0).with_latency(LatencyProfile::by_name("wan").unwrap());
        let mut store = SnapshotStore::with_shards(1);
        let round = exec.run(
            &monitored,
            &shard_ids,
            &mut store,
            &tree,
            SimTime(7),
            &|| Resolver::new(auth.clone()),
            &|| &platform,
        );
        assert_eq!(store.len(), SITES);
        let peak = obs::gauge("crawl.inflight").get();
        assert!(
            peak >= 1_000.0,
            "one worker must sustain >= 1000 in-flight crawls, peaked at {peak}"
        );
        assert!(
            round.dns_elapsed_ns.iter().any(|&ns| ns > 0),
            "wan profile must consume virtual time"
        );
    }

    let mut g = c.benchmark_group("crawl_latency");
    g.throughput(Throughput::Elements(SITES as u64));
    for profile in ["zero", "wan"] {
        let exec =
            CrawlExecutor::new(1, 0.0).with_latency(LatencyProfile::by_name(profile).unwrap());
        g.bench_function(format!("{profile}_{SITES}_sites_t1"), |b| {
            b.iter(|| {
                let mut store = SnapshotStore::with_shards(1);
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

criterion_group!(benches, bench_crawl_latency);
criterion_main!(benches);
