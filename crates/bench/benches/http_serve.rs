//! Criterion bench: the crawl's HTTP step (`crawl.http_us`) on the
//! studybench world (1/200 scale, 60 Fortune 1000 / 30 Global 500 orgs,
//! seed 11):
//!
//! - the cloud rows take the `dns_resolver` bench's horizon shape: 2,500
//!   orgs, each with two subdomains bound as custom domains of cloud
//!   resources that serve a generated benign site, and one resource in four
//!   released, so its subdomain reaches the front end with a Host nothing
//!   routes (the provider error page);
//! - the apex row is the studybench world's own apex origins, built by
//!   `World::new` from the generated population: every org apex on a
//!   non-cloud origin, parked apexes serving the registrar's parking page
//!   and HSTS headers where the population adopted them.
//!
//! Each row runs, per FQDN, exactly what `monitor::crawl` does between
//! resolving and comparing: fetch the index page through the world's web
//! view, routed on the FQDN's `Name` (`monitor::Web`), and take the body's
//! hash.

use cloudsim::{AccountId, CloudPlatform, NamingModel, PlatformConfig, ServiceId};
use contentgen::BenignKind;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dangling_core::monitor::Web;
use dangling_core::world::{OriginServers, WorldWeb};
use dangling_core::{ScenarioConfig, World};
use dns::Name;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::{RngTree, SimTime};
use std::net::Ipv4Addr;
use worldgen::Population;

const ORGS: usize = 2_500;
/// Every `DANGLING_EVERY`-th cloud resource is released after its
/// subdomain is bound.
const DANGLING_EVERY: usize = 4;

struct HttpWorld {
    platform: CloudPlatform,
    origins: OriginServers,
    /// Subdomains whose resource still serves them.
    routed: Vec<(Name, Ipv4Addr)>,
    /// Subdomains whose resource was released.
    released: Vec<(Name, Ipv4Addr)>,
    /// Org apexes on origin servers.
    apexes: Vec<(Name, Ipv4Addr)>,
}

/// The studybench world's apex origins (`studybench`'s `STUDY` sizing),
/// with each apex and the IP its A record names.
fn study_origins() -> (OriginServers, Vec<(Name, Ipv4Addr)>) {
    let mut cfg = ScenarioConfig::at_scale(200);
    cfg.world.n_fortune1000 = 60;
    cfg.world.n_global500 = 30;
    cfg.seed = 11;
    let tree = RngTree::new(cfg.seed);
    let population = Population::generate(cfg.world, &tree);
    // Campaigns play no part in the origins World::new builds.
    let world = World::new(population, Vec::new(), cfg.platform, tree);
    let apexes = world
        .population
        .orgs
        .iter()
        .map(|o| (o.apex.clone(), world.origins.ip_of(&o.apex).unwrap()))
        .collect();
    (world.origins, apexes)
}

fn build() -> HttpWorld {
    let mut rng = StdRng::seed_from_u64(1);
    let mut platform = CloudPlatform::new(PlatformConfig::default());
    let (origins, apexes) = study_origins();
    let services: Vec<ServiceId> = ServiceId::all()
        .iter()
        .copied()
        .filter(|&s| cloudsim::provider::spec(s).naming != NamingModel::IpPool)
        .collect();
    let sectors = worldgen::sectors();
    let (mut routed, mut released) = (Vec::new(), Vec::new());
    let mut k = 0;
    for i in 0..ORGS {
        let org_name = format!("Org {i}");
        let sector = sectors[i % sectors.len()];
        let apex: Name = format!("org{i}.com").parse().unwrap();
        for sub in ["app", "api"] {
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
            let fqdn = apex.child(sub).unwrap();
            let content =
                contentgen::benign_site(BenignKind::Corporate, &org_name, sector, &mut rng);
            platform.set_content(id, content);
            platform.bind_custom_domain(id, fqdn.clone());
            let ip = platform.resource(id).unwrap().ip;
            if k % DANGLING_EVERY == 0 {
                platform.release(id, SimTime(1));
                released.push((fqdn, ip));
            } else {
                routed.push((fqdn, ip));
            }
            k += 1;
        }
    }
    HttpWorld {
        platform,
        origins,
        routed,
        released,
        apexes,
    }
}

/// The crawl's HTTP step for one FQDN; returns the status and body hash.
fn fetch_index(web: &WorldWeb<'_>, fqdn: &Name, ip: Ipv4Addr) -> (u16, u64) {
    let resp = web
        .fetch(ip, fqdn, "/")
        .expect("a front end or origin at every benched IP");
    (resp.status.0, resp.body.fnv())
}

fn bench_http(c: &mut Criterion) {
    let w = build();
    let web = WorldWeb {
        platform: &w.platform,
        origins: &w.origins,
    };
    assert_eq!(w.routed.len(), 2 * ORGS - 2 * ORGS / DANGLING_EVERY);
    assert_eq!(w.released.len(), 2 * ORGS / DANGLING_EVERY);
    let rows = [
        ("index", "routed", &w.routed, 200),
        ("error_page", "released", &w.released, 404),
        ("apex", "origins", &w.apexes, 200),
    ];
    for (_, _, hosts, status) in rows {
        for (fqdn, ip) in hosts.iter() {
            assert_eq!(fetch_index(&web, fqdn, *ip).0, status, "{fqdn}");
        }
    }

    let mut g = c.benchmark_group("http_serve");
    for (what, kind, hosts, _) in rows {
        g.throughput(Throughput::Elements(hosts.len() as u64));
        g.bench_function(format!("{what}_{}_{kind}", hosts.len()), |b| {
            b.iter(|| {
                for (fqdn, ip) in hosts.iter() {
                    black_box(fetch_index(&web, fqdn, *ip));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_http);
criterion_main!(benches);
