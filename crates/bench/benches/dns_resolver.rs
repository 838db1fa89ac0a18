//! Criterion bench: the authoritative-DNS cost under the crawl's
//! `crawl.dns_us` layer, on the studybench world's shape at the horizon
//! (1/200 scale, 60 Fortune 1000 / 30 Global 500 orgs):
//!
//! - 2,500 org zones of 3 names each: an apex A record and two subdomains
//!   CNAMEd into cloud suffixes;
//! - the platform's 14 cloud suffix zones holding 3,750 generated names;
//! - one CNAME target in four released, so its chain ends in NXDOMAIN.
//!
//! Resolving every org name sends 1.67 queries per name, the crawl's
//! measured mean. The rows split one resolution into its parts: the
//! longest-suffix zone search, the in-zone lookup, and the whole
//! `resolve_a` through the world's two-authority transport.

use cloudsim::{AccountId, CloudPlatform, NamingModel, PlatformConfig, ServiceId};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dangling_core::world::WorldDns;
use dns::{Name, RecordData, RecordType, Resolver, ResourceRecord, Zone, ZoneSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::SimTime;

const ORGS: usize = 2_500;
/// Every `DANGLING_EVERY`-th cloud resource is released after its CNAME is
/// published.
const DANGLING_EVERY: usize = 4;

struct DnsWorld {
    org: ZoneSet,
    platform: CloudPlatform,
    /// Every org-zone name: apex, then its two CNAMEd subdomains.
    org_names: Vec<Name>,
    /// Every CNAME target, live or released.
    cloud_names: Vec<Name>,
}

fn build() -> DnsWorld {
    let mut rng = StdRng::seed_from_u64(1);
    let mut platform = CloudPlatform::new(PlatformConfig::default());
    let services: Vec<ServiceId> = ServiceId::all()
        .iter()
        .copied()
        .filter(|&s| cloudsim::provider::spec(s).naming != NamingModel::IpPool)
        .collect();
    let mut org = ZoneSet::new();
    let mut org_names = Vec::with_capacity(3 * ORGS);
    let mut cloud_names = Vec::with_capacity(2 * ORGS);
    for i in 0..ORGS {
        let apex: Name = format!("org{i}.com").parse().unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add(ResourceRecord::new(
            apex.clone(),
            3600,
            RecordData::A([198, 51, (i / 250) as u8, (i % 250) as u8].into()),
        ));
        org_names.push(apex.clone());
        for sub in ["app", "api"] {
            let k = cloud_names.len();
            let service = services[k % services.len()];
            let region = cloudsim::provider::spec(service).regions.first().copied();
            let id = platform
                .register(
                    service,
                    Some(&format!("org{i}-{sub}")),
                    region,
                    AccountId::Org(i as u32),
                    SimTime(0),
                    &mut rng,
                )
                .unwrap();
            let target = platform
                .resource(id)
                .unwrap()
                .generated_fqdn
                .clone()
                .unwrap();
            if k % DANGLING_EVERY == 0 {
                platform.release(id, SimTime(1));
            }
            let fqdn = apex.child(sub).unwrap();
            zone.add(ResourceRecord::new(
                fqdn.clone(),
                300,
                RecordData::Cname(target.clone()),
            ));
            org_names.push(fqdn);
            cloud_names.push(target);
        }
        org.insert(zone);
    }
    DnsWorld {
        org,
        platform,
        org_names,
        cloud_names,
    }
}

fn bench_resolver(c: &mut Criterion) {
    let w = build();
    let cloud = w.platform.zones();
    assert_eq!(w.org.len(), ORGS);
    assert_eq!(cloud.len(), 14, "one zone per cloud suffix");
    let cloud_records: usize = cloud.iter().map(Zone::name_count).sum();
    assert_eq!(cloud_records, 2 * ORGS - 2 * ORGS / DANGLING_EVERY);
    let dns = WorldDns { org: &w.org, cloud };
    let resolver = Resolver::new(dns);
    let dangling = w
        .org_names
        .iter()
        .filter(|n| resolver.resolve_a(n, SimTime(0)).is_dangling_cname())
        .count();
    assert_eq!(dangling, 2 * ORGS / DANGLING_EVERY);

    let mut g = c.benchmark_group("dns_resolver");
    // One zone search per query: org names in the org set, CNAME targets in
    // the cloud set (after missing in the org set, as `WorldDns` does).
    let queries = w.org_names.len() + w.cloud_names.len();
    g.throughput(Throughput::Elements(queries as u64));
    g.bench_function(format!("find_zone_{queries}_queries"), |b| {
        b.iter(|| {
            for n in &w.org_names {
                black_box(w.org.find_zone(n));
            }
            for n in &w.cloud_names {
                black_box(w.org.find_zone(n));
                black_box(cloud.find_zone(n));
            }
        })
    });
    // The in-zone lookup of each query, zones found beforehand.
    let lookups: Vec<(&Zone, &Name)> = w
        .org_names
        .iter()
        .map(|n| (w.org.find_zone(n).unwrap(), n))
        .chain(
            w.cloud_names
                .iter()
                .map(|n| (cloud.find_zone(n).unwrap(), n)),
        )
        .collect();
    g.bench_function(format!("zone_lookup_{queries}_queries"), |b| {
        b.iter(|| {
            for (z, n) in &lookups {
                black_box(z.lookup(n, RecordType::A));
            }
        })
    });
    // Whole resolutions: CNAME chase and message build.
    g.throughput(Throughput::Elements(w.org_names.len() as u64));
    g.bench_function(format!("resolve_a_{}_org_names", w.org_names.len()), |b| {
        b.iter(|| {
            for n in &w.org_names {
                black_box(resolver.resolve_a(n, SimTime(0)));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_resolver);
criterion_main!(benches);
