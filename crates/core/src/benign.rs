//! Ruling out benign collective changes (§3.2, Figure 10).
//!
//! Registrars/parking providers rotate content identically across the many
//! domains they manage — a false-positive source for any "same change on
//! many domains" detector. The paper's rule-out: group identical changes
//! and check registrar diversity. Clusters spanning ≥2 registrars cannot be
//! registrar-driven (89% of real abuse clusters span ≥2; 33% span ≥4).

use crate::diff::ChangeRecord;
use crate::keywords::cluster_key;
use dns::Name;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// One cluster of identical changes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChangeCluster {
    /// Keyword fingerprint shared by the members.
    pub key: String,
    pub fqdns: Vec<Name>,
    /// Distinct registrars across the member SLDs.
    pub registrar_count: usize,
}

impl ChangeCluster {
    /// Could this cluster's change have been made by a single registrar?
    pub fn registrar_driven(&self) -> bool {
        self.registrar_count <= 1
    }
}

/// One record's cluster fingerprint: its first five content keywords, or its
/// first five meta keywords when the content yields none.
pub(crate) fn fingerprint(rec: &ChangeRecord) -> Option<String> {
    let page = &rec.after.page;
    let mut fp: Vec<String> = page.keywords.iter().take(5).cloned().collect();
    if fp.is_empty() {
        fp = page.meta_keywords.iter().take(5).cloned().collect();
    }
    if fp.is_empty() {
        return None;
    }
    Some(cluster_key(&fp))
}

/// Fold records into a fingerprint → member-set map: the paper's "group
/// identical changes". Set insertion is commutative and idempotent, so the
/// map's *contents* are the same for any feed order or split into rounds —
/// which is what lets the retro fold cluster round by round or all at once.
pub fn fold_cluster_map<'a, I>(groups: &mut HashMap<String, BTreeSet<Name>>, changes: I)
where
    I: IntoIterator<Item = &'a ChangeRecord>,
{
    for rec in changes {
        let Some(key) = fingerprint(rec) else {
            continue;
        };
        groups.entry(key).or_default().insert(rec.fqdn.clone());
    }
}

/// Emit the clusters of a [`fold_cluster_map`] map in sorted-key order,
/// annotated with registrar diversity. `registrar_of` maps an SLD to its
/// registrar (WHOIS in the paper; the population table here). The output
/// depends only on the map's *contents*, never on insertion order. Borrows
/// the map — the retro fold keeps folding into it across rounds.
pub fn clusters_from_map<F>(
    groups: &HashMap<String, BTreeSet<Name>>,
    registrar_of: F,
) -> Vec<ChangeCluster>
where
    F: Fn(&Name) -> Option<u16>,
{
    let mut keys: Vec<&String> = groups.keys().collect();
    keys.sort();
    keys.into_iter()
        .map(|key| {
            let fqdns: Vec<Name> = groups[key].iter().cloned().collect();
            let registrars: BTreeSet<u16> = fqdns
                .iter()
                .filter_map(|f| f.sld())
                .filter_map(|sld| registrar_of(&sld))
                .collect();
            ChangeCluster {
                key: key.clone(),
                fqdns,
                registrar_count: registrars.len(),
            }
        })
        .collect()
}

/// Figure 10's series: of clusters with ≥2 member domains, what fraction
/// spans ≥ X registrars, for X = 1..=max.
pub fn registrar_diversity_series(clusters: &[ChangeCluster]) -> Vec<(usize, f64)> {
    let multi: Vec<&ChangeCluster> = clusters.iter().filter(|c| c.fqdns.len() >= 2).collect();
    if multi.is_empty() {
        return Vec::new();
    }
    let max = multi.iter().map(|c| c.registrar_count).max().unwrap_or(1);
    (1..=max)
        .map(|x| {
            let frac =
                multi.iter().filter(|c| c.registrar_count >= x).count() as f64 / multi.len() as f64;
            (x, frac)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::ChangeKind;
    use crate::snapshot::Snapshot;
    use dns::Rcode;
    use simcore::SimTime;

    fn change(fqdn: &str, kws: &[&str]) -> ChangeRecord {
        let mut s = Snapshot::unreachable(fqdn.parse().unwrap(), SimTime(1), Rcode::NoError, None);
        s.http_status = Some(200);
        s.page_mut().keywords = kws.iter().map(|k| k.to_string()).collect();
        ChangeRecord {
            fqdn: fqdn.parse().unwrap(),
            day: SimTime(1),
            kinds: vec![ChangeKind::Content],
            before_language: None,
            before_sitemap_bytes: None,
            before_serving: true,
            before_keywords: Vec::new(),
            after: s,
        }
    }

    /// Registrar: derived from the apex's first letter for the test.
    fn reg(sld: &Name) -> Option<u16> {
        sld.labels()[0].bytes().next().map(|b| b as u16)
    }

    /// Fold `changes` in the given order and emit the clusters.
    fn cluster<'a>(
        changes: impl IntoIterator<Item = &'a ChangeRecord>,
        registrar_of: impl Fn(&Name) -> Option<u16>,
    ) -> Vec<ChangeCluster> {
        let mut groups = HashMap::new();
        fold_cluster_map(&mut groups, changes);
        clusters_from_map(&groups, registrar_of)
    }

    fn summary(clusters: &[ChangeCluster]) -> Vec<(String, Vec<Name>, usize)> {
        clusters
            .iter()
            .map(|c| (c.key.clone(), c.fqdns.clone(), c.registrar_count))
            .collect()
    }

    #[test]
    fn clusters_by_fingerprint() {
        let changes = vec![
            change("a.alpha.com", &["slot", "judi"]),
            change("b.beta.com", &["judi", "slot"]), // same set, different order
            change("c.gamma.com", &["premium", "sale"]),
        ];
        let clusters = cluster(&changes, reg);
        assert_eq!(clusters.len(), 2);
        let abuse = clusters.iter().find(|c| c.fqdns.len() == 2).unwrap();
        assert_eq!(abuse.registrar_count, 2);
        assert!(!abuse.registrar_driven());
    }

    #[test]
    fn single_registrar_cluster_flagged() {
        // Two parked domains of the same registrar rotating together.
        let changes = vec![
            change("x.aaa.com", &["premium", "domains"]),
            change("y.anotherof-a.com", &["premium", "domains"]),
        ];
        let clusters = cluster(&changes, |_| Some(7)); // same registrar
        assert_eq!(clusters.len(), 1);
        assert!(clusters[0].registrar_driven());
    }

    #[test]
    fn diversity_series_shape() {
        let clusters = vec![
            ChangeCluster {
                key: "a".into(),
                fqdns: vec!["x.a.com".parse().unwrap(), "y.b.com".parse().unwrap()],
                registrar_count: 4,
            },
            ChangeCluster {
                key: "b".into(),
                fqdns: vec!["x.c.com".parse().unwrap(), "y.d.com".parse().unwrap()],
                registrar_count: 2,
            },
            ChangeCluster {
                key: "c".into(),
                fqdns: vec!["x.e.com".parse().unwrap(), "y.f.com".parse().unwrap()],
                registrar_count: 1,
            },
            // singleton ignored
            ChangeCluster {
                key: "d".into(),
                fqdns: vec!["x.g.com".parse().unwrap()],
                registrar_count: 1,
            },
        ];
        let series = registrar_diversity_series(&clusters);
        // x=1 -> 100%, x=2 -> 2/3, x=4 -> 1/3.
        assert_eq!(series[0], (1, 1.0));
        assert!((series[1].1 - 2.0 / 3.0).abs() < 1e-9);
        assert!((series[3].1 - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        assert!(cluster(&[], reg).is_empty());
        assert!(registrar_diversity_series(&[]).is_empty());
    }

    #[test]
    fn clusters_are_independent_of_fold_order_and_rounds() {
        let changes: Vec<ChangeRecord> = (0..60)
            .map(|i| {
                let fqdn = format!("h{i}.apex{}.com", i % 7);
                let kw = format!("kw{}", i % 5);
                change(&fqdn, &[&kw, "judi"])
            })
            .collect();
        let reference = summary(&cluster(&changes, reg));
        assert!(reference.len() > 1);
        assert!(reference.iter().any(|(_, fqdns, _)| fqdns.len() > 1));
        // Reversed, strided (a fixed shuffle), and split into uneven
        // rounds folded one after another into the same map.
        let reversed = summary(&cluster(changes.iter().rev(), reg));
        assert_eq!(reversed, reference);
        let strided = summary(&cluster((0..60).map(|i| &changes[(i * 7) % 60]), reg));
        assert_eq!(strided, reference);
        let mut groups = HashMap::new();
        for round in [&changes[41..], &changes[..9], &changes[9..41]] {
            fold_cluster_map(&mut groups, round);
        }
        assert_eq!(summary(&clusters_from_map(&groups, reg)), reference);
    }
}
