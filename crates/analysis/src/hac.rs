//! Average-linkage agglomerative hierarchical clustering.
//!
//! §6 clusters identifiers by the Jaccard distance of their hijacked-domain
//! sets, cutting the dendrogram at 0.95. We implement UPGMA (unweighted
//! average linkage) with the **nearest-neighbour-chain** algorithm: average
//! linkage is a *reducible* linkage, for which NN-chain provably produces
//! the same merges as the naive O(n³) algorithm while running in O(n²) time
//! and O(n²) memory (the condensed distance matrix).
//!
//! The dendrogram follows the scipy convention: leaves are `0..n`, the k-th
//! merge creates cluster `n + k`.

use serde::{Deserialize, Serialize};

/// One merge step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Merge {
    /// Cluster ids merged (leaf `< n`, internal `>= n`).
    pub a: usize,
    pub b: usize,
    /// Linkage distance at which they merged.
    pub distance: f64,
    /// Size of the new cluster.
    pub size: usize,
}

/// The full clustering result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

/// Condensed upper-triangle index for an n×n symmetric matrix.
#[inline]
fn tri(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i != j);
    let (i, j) = (i.min(j), i.max(j));
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

impl Dendrogram {
    /// Cluster `n` leaves given a pairwise distance function. O(n²) calls to
    /// `dist` plus O(n²) merge work.
    pub fn build<F: FnMut(usize, usize) -> f64>(n: usize, mut dist: F) -> Dendrogram {
        if n == 0 {
            return Dendrogram {
                n,
                merges: Vec::new(),
            };
        }
        // Condensed distance matrix between *current* clusters, updated via
        // Lance–Williams for UPGMA: d(k, i∪j) = (|i| d(k,i) + |j| d(k,j)) / (|i|+|j|)
        let mut d = vec![0.0f64; n * (n - 1) / 2];
        for i in 0..n {
            for j in (i + 1)..n {
                d[tri(n, i, j)] = dist(i, j);
            }
        }

        let mut size = vec![1usize; n]; // by slot
        let mut active = vec![true; n];
        // Raw merges recorded as (slot_i, slot_j, distance); NN-chain emits
        // them in chain order, not distance order — sorted and relabelled
        // below (the standard scipy post-processing step).
        let mut raw: Vec<(usize, usize, f64)> = Vec::with_capacity(n - 1);

        // NN-chain.
        let mut chain: Vec<usize> = Vec::with_capacity(n);
        let mut remaining = n;
        while remaining > 1 {
            if chain.is_empty() {
                let start = (0..n).find(|&i| active[i]).unwrap();
                chain.push(start);
            }
            loop {
                let top = *chain.last().unwrap();
                // Find the nearest active neighbour of `top` (deterministic
                // tie-break by index).
                let mut best = usize::MAX;
                let mut best_d = f64::INFINITY;
                for j in 0..n {
                    if j == top || !active[j] {
                        continue;
                    }
                    let dj = d[tri(n, top, j)];
                    if dj < best_d {
                        best_d = dj;
                        best = j;
                    }
                }
                debug_assert!(best != usize::MAX);
                if chain.len() >= 2 && best == chain[chain.len() - 2] {
                    // Reciprocal nearest neighbours: merge top & best.
                    chain.pop();
                    chain.pop();
                    let (i, j) = (top.min(best), top.max(best));
                    let new_size = size[i] + size[j];
                    raw.push((i, j, best_d));
                    // Reuse slot i for the merged cluster; deactivate j.
                    for k in 0..n {
                        if k == i || k == j || !active[k] {
                            continue;
                        }
                        let dk = (size[i] as f64 * d[tri(n, k, i)]
                            + size[j] as f64 * d[tri(n, k, j)])
                            / new_size as f64;
                        d[tri(n, k, i)] = dk;
                    }
                    size[i] = new_size;
                    active[j] = false;
                    remaining -= 1;
                    break;
                }
                chain.push(best);
            }
            // A merged slot may still be on the chain; NN-chain guarantees it
            // is not (only the top two are removed), but clear stale entries
            // pointing at deactivated slots defensively.
            chain.retain(|&s| active[s]);
        }

        // Sort merges by distance (ties broken by chain order, which is a
        // valid UPGMA order because the linkage is reducible) and relabel
        // slot pairs into dendrogram cluster ids with a union-find. The
        // `total_cmp` + index tie-break makes the order a *total* one, so
        // the emitted dendrogram cannot depend on sort internals.
        let mut order: Vec<usize> = (0..raw.len()).collect();
        order.sort_by(|&x, &y| raw[x].2.total_cmp(&raw[y].2).then(x.cmp(&y)));
        let mut uf = crate::union_find::UnionFind::new(n);
        // Root slot -> current cluster id and size.
        let mut id_of: Vec<usize> = (0..n).collect();
        let mut size_of: Vec<usize> = vec![1; n];
        let mut merges: Vec<Merge> = Vec::with_capacity(raw.len());
        for (k, &oi) in order.iter().enumerate() {
            let (si, sj, distance) = raw[oi];
            let (ri, rj) = (uf.find(si), uf.find(sj));
            debug_assert_ne!(ri, rj, "merge joins an already-joined pair");
            let (ida, idb) = (id_of[ri], id_of[rj]);
            let new_size = size_of[ri] + size_of[rj];
            uf.union(ri, rj);
            let root = uf.find(ri);
            id_of[root] = n + k;
            size_of[root] = new_size;
            merges.push(Merge {
                a: ida.min(idb),
                b: ida.max(idb),
                distance,
                size: new_size,
            });
        }
        Dendrogram { n, merges }
    }

    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cut at `threshold`: apply only merges with `distance <= threshold`,
    /// return the resulting partition (clusters of leaf indices, sorted,
    /// ordered by smallest leaf). §6 cuts at 0.95.
    pub fn cut(&self, threshold: f64) -> Vec<Vec<usize>> {
        let mut uf = crate::union_find::UnionFind::new(self.n);
        // Track a representative leaf for every cluster id.
        let mut rep: Vec<usize> = (0..self.n).collect();
        rep.reserve(self.merges.len());
        for m in &self.merges {
            let ra = rep[m.a];
            let rb = rep[m.b];
            if m.distance <= threshold {
                uf.union(ra, rb);
            }
            // The new cluster's representative: a's leaf (arbitrary but
            // consistent).
            rep.push(ra);
        }
        uf.groups()
    }

    /// Monotonicity check: UPGMA merge distances are non-decreasing (within
    /// floating-point slack). Exposed for tests/benchmarks.
    pub fn is_monotone(&self) -> bool {
        self.merges
            .windows(2)
            .all(|w| w[1].distance >= w[0].distance - 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist_from(points: &[f64]) -> impl FnMut(usize, usize) -> f64 + '_ {
        move |i, j| (points[i] - points[j]).abs()
    }

    #[test]
    fn two_obvious_groups() {
        // {0.0, 0.1, 0.2} and {10.0, 10.1}
        let pts = [0.0, 0.1, 0.2, 10.0, 10.1];
        let dend = Dendrogram::build(pts.len(), dist_from(&pts));
        assert_eq!(dend.merges().len(), 4);
        assert!(dend.is_monotone());
        let clusters = dend.cut(1.0);
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3, 4]]);
        // Cutting above the max distance gives one cluster.
        let all = dend.cut(100.0);
        assert_eq!(all.len(), 1);
        // Cutting below the min distance gives singletons.
        let singles = dend.cut(0.05);
        assert_eq!(singles.len(), 5);
    }

    #[test]
    fn average_linkage_value() {
        // Three points on a line: 0, 1, 5. First merge {0,1} at d=1; then
        // UPGMA distance from {0,1} to {5} = (5 + 4)/2 = 4.5.
        let pts = [0.0, 1.0, 5.0];
        let dend = Dendrogram::build(3, dist_from(&pts));
        assert_eq!(dend.merges()[0].distance, 1.0);
        assert!((dend.merges()[1].distance - 4.5).abs() < 1e-12);
    }

    #[test]
    fn identical_points_merge_at_zero() {
        let pts = [1.0, 1.0, 1.0, 2.0];
        let dend = Dendrogram::build(4, dist_from(&pts));
        let zero_merges = dend.merges().iter().filter(|m| m.distance == 0.0).count();
        assert_eq!(zero_merges, 2);
        let clusters = dend.cut(0.0);
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn empty_and_singleton() {
        let dend = Dendrogram::build(0, |_, _| 0.0);
        assert!(dend.cut(1.0).is_empty());
        let dend = Dendrogram::build(1, |_, _| 0.0);
        assert_eq!(dend.cut(1.0), vec![vec![0]]);
        assert!(dend.merges().is_empty());
    }

    #[test]
    fn sizes_accumulate() {
        let pts = [0.0, 0.1, 0.2, 0.3];
        let dend = Dendrogram::build(4, dist_from(&pts));
        let last = dend.merges().last().unwrap();
        assert_eq!(last.size, 4);
    }

    #[test]
    fn jaccard_style_distances() {
        // Identifier domain-sets like §6: two campaign groups + a loner.
        let sets: Vec<Vec<u32>> = vec![
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![10, 11],
            vec![10, 11, 12],
            vec![99],
        ];
        let dend = Dendrogram::build(sets.len(), |i, j| {
            crate::jaccard::jaccard_distance(&sets[i], &sets[j])
        });
        let clusters = dend.cut(0.95);
        assert_eq!(clusters.len(), 3);
        assert!(clusters.contains(&vec![0, 1, 2]));
        assert!(clusters.contains(&vec![3, 4]));
        assert!(clusters.contains(&vec![5]));
    }
}
