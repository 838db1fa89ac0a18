//! Property tests for the HAC determinism contract: the clustering a cut
//! produces is invariant under input permutation, and merge distances are
//! monotonically non-decreasing (UPGMA reducibility).
//!
//! Permutation invariance needs care: UPGMA with *tied* distances is not
//! permutation-invariant in general (which reciprocal pair the NN-chain
//! finds first depends on leaf order), so the invariance property generates
//! content-keyed, pairwise-distinct pseudorandom distances — every leaf
//! carries a unique key and d(a, b) hashes the unordered key pair, making
//! the metric a function of leaf *identity*, never of position.

use analysis::{jaccard_distance, Dendrogram};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distance in (0, 1) keyed by the unordered key pair: identical for any
/// leaf ordering, distinct for distinct pairs (64-bit hash, so ties across
/// the ≤ ~200 pairs a case generates are vanishingly unlikely).
fn pair_dist(a: u64, b: u64) -> f64 {
    let (lo, hi) = (a.min(b), a.max(b));
    let h = splitmix(lo ^ splitmix(hi));
    ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Deterministic Fisher–Yates from a seed.
fn shuffled<T>(mut v: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..v.len()).rev() {
        seed = splitmix(seed);
        v.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    v
}

/// Cut clusters as a canonical set-of-sets of leaf *keys* (not indices), so
/// partitions computed from different input orders are comparable.
fn clusters_by_key(dend: &Dendrogram, keys: &[u64], cut: f64) -> BTreeSet<BTreeSet<u64>> {
    dend.cut(cut)
        .into_iter()
        .map(|c| c.into_iter().map(|i| keys[i]).collect())
        .collect()
}

fn arb_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::btree_set(any::<u64>(), 2..24)
        .prop_map(|s| s.into_iter().collect::<Vec<u64>>())
}

fn arb_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..20, 1..8)
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
        2..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cluster assignment is invariant under input permutation: shuffling
    /// the leaves yields the same partition of the same keys.
    #[test]
    fn cut_invariant_under_permutation(
        keys in arb_keys(),
        perm_seed in any::<u64>(),
        cut in 0.0f64..=1.0,
    ) {
        let n = keys.len();
        let reference = Dendrogram::build(n, |i, j| pair_dist(keys[i], keys[j]));
        let expected = clusters_by_key(&reference, &keys, cut);
        let shuffled_keys = shuffled(keys, perm_seed);
        let dend = Dendrogram::build(n, |i, j| pair_dist(shuffled_keys[i], shuffled_keys[j]));
        prop_assert_eq!(clusters_by_key(&dend, &shuffled_keys, cut), expected);
    }

    /// Merge distances are monotonically non-decreasing, even on Jaccard
    /// inputs, where tied distances are common.
    #[test]
    fn merges_monotone(sets in arb_sets()) {
        let n = sets.len();
        let dend = Dendrogram::build(n, |i, j| jaccard_distance(&sets[i], &sets[j]));
        prop_assert!(dend.is_monotone(), "merge distances must be non-decreasing");
        for w in dend.merges().windows(2) {
            prop_assert!(w[1].distance >= w[0].distance - 1e-9);
        }
    }
}
