//! Criterion benches: the §6 infrastructure clustering (NN-chain HAC) and
//! the co-occurrence graph at increasing identifier counts.

use analysis::{jaccard_distance, CoOccurrenceGraph, Dendrogram};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use rand::SeedableRng;

fn synth_sets(n_idents: usize, n_domains: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n_idents)
        .map(|_| {
            let k = rng.gen_range(1..12);
            let mut v: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n_domains)).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

/// NN-chain UPGMA at increasing identifier counts, plus one row of 1,200
/// identifiers over a 10 000-domain universe. The condensed matrix is O(n²)
/// in identifiers, not domains; DESIGN.md §8 gives the identifier counts
/// `repro` measures per scale.
fn bench_hac(c: &mut Criterion) {
    let mut g = c.benchmark_group("hac");
    for n in [100usize, 400, 1000] {
        let sets = synth_sets(n, (n / 2) as u32, 7);
        g.bench_with_input(BenchmarkId::new("nn_chain_upgma", n), &n, |b, _| {
            b.iter(|| {
                let d = Dendrogram::build(sets.len(), |i, j| jaccard_distance(&sets[i], &sets[j]));
                black_box(d.cut(0.95))
            })
        });
    }
    let big = synth_sets(1200, 10_000, 11);
    g.bench_function("nn_chain_upgma_10k_domains", |b| {
        b.iter(|| {
            let d = Dendrogram::build(big.len(), |i, j| jaccard_distance(&big[i], &big[j]));
            black_box(d.cut(0.95))
        })
    });
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let items: Vec<Vec<usize>> = (0..2000)
        .map(|_| {
            let k = rng.gen_range(1..6);
            (0..k).map(|_| rng.gen_range(0..500)).collect()
        })
        .collect();
    c.bench_function("cooccurrence_graph_2k_pages", |b| {
        b.iter(|| {
            let g = CoOccurrenceGraph::from_items(500, black_box(&items));
            black_box(g.components())
        })
    });
}

criterion_group!(benches, bench_hac, bench_graph);
criterion_main!(benches);
