//! Attacker-infrastructure clustering (§6, Figures 21/22/26/27/28).
//!
//! From the abused pages: extract identifier classes, build the identifier
//! co-occurrence graph over hijacked domains, and run average-linkage
//! hierarchical clustering on the Jaccard distance of per-identifier domain
//! sets, cut at 0.95 — the paper's exact recipe.

use analysis::{jaccard_distance, CoOccurrenceGraph, Dendrogram};
use attacker::CampaignIdentifiers;
use dns::Name;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The paper's dendrogram cutoff.
pub const CUTOFF: f64 = 0.95;

/// Input: one abused domain with its extracted (tagged) identifiers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainIdentifiers {
    pub fqdn: Name,
    pub identifiers: Vec<String>,
}

/// One identifier cluster (candidate attacker infrastructure).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InfraCluster {
    /// Tagged identifiers in the cluster.
    pub identifiers: Vec<String>,
    /// Hijacked domains associated with any member identifier.
    pub domains: Vec<Name>,
}

/// Full §6 clustering output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InfraReport {
    pub clusters: Vec<InfraCluster>,
    /// Domains covered by at least one identifier.
    pub covered_domains: usize,
    /// Total distinct identifiers.
    pub identifier_count: usize,
    /// Graph stats for Figure 27.
    pub graph_nodes: usize,
    pub graph_edges: usize,
    pub graph_components: usize,
    /// Phone country distribution (Figure 21).
    pub phone_countries: Vec<(String, usize)>,
    /// Backend-IP hosting orgs and geos (Figure 26).
    pub ip_orgs: Vec<(String, usize)>,
    pub ip_geos: Vec<(String, usize)>,
}

/// Run the full §6 clustering, with the dendrogram cut at `cutoff`. The
/// figures use [`CUTOFF`]; the cutoff ablation sweeps its own values. Every
/// aggregation iterates `BTreeMap`s, so the report is a pure function of the
/// inputs.
pub fn cluster(domains: &[DomainIdentifiers], cutoff: f64) -> InfraReport {
    // Identifier -> set of domain indices.
    let mut domain_ids: BTreeMap<Name, u32> = BTreeMap::new();
    for d in domains {
        let next = domain_ids.len() as u32;
        domain_ids.entry(d.fqdn.clone()).or_insert(next);
    }
    let mut ident_domains: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    for d in domains {
        let did = domain_ids[&d.fqdn];
        for ident in &d.identifiers {
            ident_domains.entry(ident.clone()).or_default().insert(did);
        }
    }
    let idents: Vec<String> = ident_domains.keys().cloned().collect();
    let sets: Vec<Vec<u32>> = idents
        .iter()
        .map(|i| ident_domains[i].iter().copied().collect())
        .collect();
    let covered: BTreeSet<u32> = sets.iter().flatten().copied().collect();

    // Co-occurrence graph (Figure 27): per-domain identifier lists.
    let ident_index: BTreeMap<&String, usize> =
        idents.iter().enumerate().map(|(i, s)| (s, i)).collect();
    let items: Vec<Vec<usize>> = domains
        .iter()
        .map(|d| {
            let mut v: Vec<usize> = d
                .identifiers
                .iter()
                .filter_map(|i| ident_index.get(i).copied())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let graph = CoOccurrenceGraph::from_items(idents.len(), &items);
    let components = graph.components();

    // Hierarchical clustering cut at `cutoff` (Figure 28 → Figure 22).
    let clusters_idx =
        Dendrogram::build(idents.len(), |a, b| jaccard_distance(&sets[a], &sets[b])).cut(cutoff);
    let id_by_index: BTreeMap<u32, &Name> = domain_ids.iter().map(|(n, i)| (*i, n)).collect();
    let mut clusters: Vec<InfraCluster> = clusters_idx
        .into_iter()
        .map(|members| {
            let identifiers: Vec<String> = members.iter().map(|&i| idents[i].clone()).collect();
            let mut dset: BTreeSet<u32> = BTreeSet::new();
            for &i in &members {
                dset.extend(sets[i].iter().copied());
            }
            InfraCluster {
                identifiers,
                domains: dset.iter().map(|d| id_by_index[d].clone()).collect(),
            }
        })
        .collect();
    clusters.sort_by(|a, b| {
        b.domains
            .len()
            .cmp(&a.domains.len())
            .then_with(|| b.identifiers.len().cmp(&a.identifiers.len()))
            .then_with(|| a.identifiers.cmp(&b.identifiers))
    });

    // Figure 21 / 26 aggregations from the tagged identifiers.
    let mut phone_countries: BTreeMap<String, usize> = BTreeMap::new();
    let mut ip_orgs: BTreeMap<String, usize> = BTreeMap::new();
    let mut ip_geos: BTreeMap<String, usize> = BTreeMap::new();
    for ident in &idents {
        if let Some(p) = ident.strip_prefix("phone:") {
            *phone_countries
                .entry(CampaignIdentifiers::phone_country(p).to_string())
                .or_insert(0) += 1;
        } else if let Some(ips) = ident.strip_prefix("ip:") {
            if let Ok(ip) = ips.parse::<Ipv4Addr>() {
                if let Some((org, geo)) = CampaignIdentifiers::ip_hosting(ip) {
                    *ip_orgs.entry(org.to_string()).or_insert(0) += 1;
                    *ip_geos.entry(geo.to_string()).or_insert(0) += 1;
                } else {
                    *ip_orgs.entry("Unknown".into()).or_insert(0) += 1;
                    *ip_geos.entry("Unknown".into()).or_insert(0) += 1;
                }
            }
        }
    }
    let sort_desc = |m: BTreeMap<String, usize>| {
        let mut v: Vec<(String, usize)> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    };

    InfraReport {
        covered_domains: covered.len(),
        identifier_count: idents.len(),
        graph_nodes: graph.node_count(),
        graph_edges: graph.edge_count(),
        graph_components: components.len(),
        clusters,
        phone_countries: sort_desc(phone_countries),
        ip_orgs: sort_desc(ip_orgs),
        ip_geos: sort_desc(ip_geos),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(fqdn: &str, ids: &[&str]) -> DomainIdentifiers {
        DomainIdentifiers {
            fqdn: fqdn.parse().unwrap(),
            identifiers: ids.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Campaign A identifiers co-occur on domains 1-3, pairwise at Jaccard
    /// distance 2/3; campaign B's two identifiers share domains 4-5 exactly.
    fn two_campaigns() -> Vec<DomainIdentifiers> {
        vec![
            d("a.v1.com", &["phone:62111", "social:t.me/aaa"]),
            d("b.v2.com", &["phone:62111", "short:bit.ly/x"]),
            d("c.v3.com", &["social:t.me/aaa", "short:bit.ly/x"]),
            d("e.v4.com", &["phone:855222", "ip:198.51.100.9"]),
            d("f.v5.com", &["phone:855222", "ip:198.51.100.9"]),
            d("g.v6.com", &[]), // uncovered
        ]
    }

    #[test]
    fn recovers_two_campaigns() {
        let r = cluster(&two_campaigns(), CUTOFF);
        assert_eq!(r.identifier_count, 5);
        assert_eq!(r.covered_domains, 5);
        assert_eq!(r.graph_components, 2);
        assert_eq!(r.clusters.len(), 2);
        // Sorted by domain count: A (3 domains) first.
        assert_eq!(r.clusters[0].domains.len(), 3);
        assert_eq!(r.clusters[0].identifiers.len(), 3);
        assert_eq!(r.clusters[1].domains.len(), 2);
    }

    #[test]
    fn cutoff_below_the_linkage_splits_a_campaign() {
        // A's identifiers are 2/3 apart, so a 0.5 cut leaves them single;
        // B's merge at distance 0 survives any cut.
        let r = cluster(&two_campaigns(), 0.5);
        assert_eq!(r.clusters.len(), 4);
        assert_eq!(r.clusters[0].identifiers.len(), 2);
        assert_eq!(r.identifier_count, 5);
    }

    #[test]
    fn loner_identifiers_stay_single() {
        let domains = vec![
            d("a.v1.com", &["phone:62111"]),
            d("b.v2.com", &["phone:62999"]),
        ];
        let r = cluster(&domains, CUTOFF);
        assert_eq!(r.clusters.len(), 2);
        assert!(r.clusters.iter().all(|c| c.identifiers.len() == 1));
    }

    #[test]
    fn geo_aggregations() {
        let domains = vec![
            d(
                "a.v1.com",
                &["phone:62111", "phone:855222", "ip:198.51.100.9"],
            ),
            d("b.v2.com", &["phone:62333", "ip:192.0.2.77"]),
        ];
        let r = cluster(&domains, CUTOFF);
        let indo = r
            .phone_countries
            .iter()
            .find(|(c, _)| c == "Indonesia")
            .unwrap();
        assert_eq!(indo.1, 2);
        assert!(r.phone_countries.iter().any(|(c, _)| c == "Cambodia"));
        assert!(r.ip_geos.iter().any(|(g, _)| g == "US"));
        assert!(r.ip_geos.iter().any(|(g, _)| g == "FR"));
    }

    #[test]
    fn empty_input() {
        let r = cluster(&[], CUTOFF);
        assert_eq!(r.clusters.len(), 0);
        assert_eq!(r.covered_domains, 0);
        assert_eq!(r.graph_components, 0);
    }

    #[test]
    fn identical_domain_sets_merge_at_zero_distance() {
        let domains = vec![
            d("a.v1.com", &["phone:1", "phone:2"]),
            d("b.v2.com", &["phone:1", "phone:2"]),
        ];
        let r = cluster(&domains, CUTOFF);
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].identifiers.len(), 2);
    }
}
