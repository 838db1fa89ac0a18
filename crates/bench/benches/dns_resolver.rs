//! Criterion bench: resolver throughput over CNAME chains — the substrate
//! cost under the collection pipeline (1.5M+ weekly resolutions in the real
//! study).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dns::{Authority, Name, RecordData, Resolver, ResourceRecord, Zone, ZoneSet};
use simcore::SimTime;

fn build_world(n_subdomains: usize) -> Resolver<Authority> {
    let mut zs = ZoneSet::new();
    let mut org = Zone::new("example.com".parse().unwrap());
    let mut cloud = Zone::new("azurewebsites.net".parse().unwrap());
    for i in 0..n_subdomains {
        let sub: Name = format!("svc{i}.example.com").parse().unwrap();
        let target: Name = format!("example-svc{i}.azurewebsites.net").parse().unwrap();
        org.add(ResourceRecord::new(
            sub,
            300,
            RecordData::Cname(target.clone()),
        ));
        cloud.add(ResourceRecord::new(
            target,
            60,
            RecordData::A(
                format!("20.40.{}.{}", i / 250, i % 250 + 1)
                    .parse()
                    .unwrap(),
            ),
        ));
    }
    zs.insert(org);
    zs.insert(cloud);
    Resolver::new(Authority::new(zs))
}

fn bench_resolver(c: &mut Criterion) {
    let resolver = build_world(1000);
    let names: Vec<Name> = (0..1000)
        .map(|i| format!("svc{i}.example.com").parse().unwrap())
        .collect();
    let mut g = c.benchmark_group("resolver");
    g.throughput(Throughput::Elements(names.len() as u64));
    g.bench_function("resolve_1k_cname_chains", |b| {
        let mut day = 0;
        b.iter(|| {
            day += 1;
            for n in &names {
                black_box(resolver.resolve_a(n, SimTime(day)));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_resolver);
criterion_main!(benches);
