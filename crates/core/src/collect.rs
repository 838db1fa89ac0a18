//! Algorithm 1 — collection of cloud-pointing FQDNs (§3.1).
//!
//! Faithful to the paper's pseudocode: for every candidate FQDN issue an A
//! query; keep it if any CNAME in the chain ends with a known cloud suffix,
//! or any terminal A record falls inside a published cloud range. The
//! [`Feed`] models the growing input list (1.5M → 3.1M over three years).

use cloudsim::{IpRangeTable, ServiceId};
use dns::resolver::Transport;
use dns::{Name, Resolver};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// The candidate-FQDN feed: initial lists (§3.1's government / Fortune /
/// Alexa / university domains expanded via passive DNS) plus the commercial
/// feed that arrives over time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Feed {
    /// `(fqdn, first time it is visible to the study)` sorted by time.
    entries: Vec<(Name, SimTime)>,
}

impl Feed {
    pub fn new(mut entries: Vec<(Name, SimTime)>) -> Self {
        entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        Feed { entries }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// FQDNs that became visible in `(since, until]`, as borrowed names.
    ///
    /// The entries are sorted by time at construction, so both window edges
    /// are `partition_point` binary searches rather than full scans — the
    /// feed is consulted every monitoring round and reached millions of
    /// entries in the real study.
    pub fn discovered_between(
        &self,
        since: SimTime,
        until: SimTime,
    ) -> impl Iterator<Item = &Name> + '_ {
        let lo = self.entries.partition_point(|(_, t)| *t <= since);
        let hi = self.entries.partition_point(|(_, t)| *t <= until);
        self.entries[lo..hi].iter().map(|(n, _)| n)
    }

    /// All FQDNs visible at or before `t`, as borrowed names.
    pub fn visible_at(&self, t: SimTime) -> impl Iterator<Item = &Name> + '_ {
        let hi = self.entries.partition_point(|(_, d)| *d <= t);
        self.entries[..hi].iter().map(|(n, _)| n)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(Name, SimTime)> {
        self.entries.iter()
    }
}

/// The outcome of Algorithm 1 for one FQDN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CloudPointer {
    /// CNAME chain ends at a known cloud suffix.
    CnameSuffix { target: Name, service: ServiceId },
    /// Terminal A record inside a published cloud range.
    CloudIp {
        ip: std::net::Ipv4Addr,
        service: ServiceId,
    },
    /// Not cloud-hosted (or NXDOMAIN with no cloud CNAME).
    NotCloud,
}

impl CloudPointer {
    pub fn is_cloud(&self) -> bool {
        !matches!(self, CloudPointer::NotCloud)
    }

    pub fn service(&self) -> Option<ServiceId> {
        match self {
            CloudPointer::CnameSuffix { service, .. } | CloudPointer::CloudIp { service, .. } => {
                Some(*service)
            }
            CloudPointer::NotCloud => None,
        }
    }
}

/// The Algorithm-1 classifier. Owns the cloud suffix list (Appendix A.1) and
/// IP range table, both built from the provider catalog exactly as the paper
/// builds them from provider documentation.
pub struct Collector {
    suffixes: Vec<(Name, ServiceId)>,
    ranges: IpRangeTable<ServiceId>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    pub fn new() -> Self {
        let mut suffixes = Vec::new();
        for spec in cloudsim::CATALOG {
            let Some(s) = spec.suffix else { continue };
            if s.contains("REGION") {
                for r in spec.regions {
                    suffixes.push((Name::parse(&s.replace("REGION", r)).unwrap(), spec.id));
                }
            } else {
                suffixes.push((Name::parse(s).unwrap(), spec.id));
            }
        }
        Collector {
            suffixes,
            ranges: cloudsim::provider::cloud_ip_ranges(),
        }
    }

    /// Classify one FQDN per Algorithm 1 (lines 4–14).
    pub fn classify<T: Transport>(
        &self,
        fqdn: &Name,
        resolver: &Resolver<T>,
        now: SimTime,
    ) -> CloudPointer {
        let outcome = resolver.resolve_a(fqdn, now);
        // Line 5–9: any CNAME in the chain with a cloud suffix.
        for cname in &outcome.cname_chain {
            for (suffix, service) in &self.suffixes {
                if cname.is_subdomain_of(suffix) {
                    return CloudPointer::CnameSuffix {
                        target: cname.clone(),
                        service: *service,
                    };
                }
            }
        }
        // Line 10–14: any A record inside cloud ranges.
        for ip in &outcome.addresses {
            if let Some(service) = self.ranges.lookup(*ip) {
                return CloudPointer::CloudIp {
                    ip: *ip,
                    service: *service,
                };
            }
        }
        CloudPointer::NotCloud
    }

    /// Algorithm 1 in bulk: the subset of `fqdns` pointing at the cloud,
    /// with their classifications.
    pub fn collect_fqdns<T: Transport>(
        &self,
        fqdns: &[Name],
        resolver: &Resolver<T>,
        now: SimTime,
    ) -> Vec<(Name, CloudPointer)> {
        let mut out = Vec::new();
        for fqdn in fqdns {
            let c = self.classify(fqdn, resolver, now);
            if c.is_cloud() {
                out.push((fqdn.clone(), c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::{RecordData, ResourceRecord, Zone, ZoneSet};

    fn setup() -> (Resolver<ZoneSet>, Collector) {
        let mut zs = ZoneSet::new();
        let mut z = Zone::new("victim.com".parse().unwrap());
        z.add(ResourceRecord::new(
            "shop.victim.com".parse().unwrap(),
            300,
            RecordData::Cname("victim-shop.azurewebsites.net".parse().unwrap()),
        ));
        z.add(ResourceRecord::new(
            "vm.victim.com".parse().unwrap(),
            300,
            RecordData::A("54.144.1.2".parse().unwrap()), // EC2 range
        ));
        z.add(ResourceRecord::new(
            "www.victim.com".parse().unwrap(),
            300,
            RecordData::A("93.184.216.34".parse().unwrap()), // not cloud
        ));
        zs.insert(z);
        let mut az = Zone::new("azurewebsites.net".parse().unwrap());
        az.add(ResourceRecord::new(
            "victim-shop.azurewebsites.net".parse().unwrap(),
            60,
            RecordData::A("20.40.0.9".parse().unwrap()),
        ));
        zs.insert(az);
        (Resolver::new(zs), Collector::new())
    }

    #[test]
    fn cname_suffix_detected() {
        let (r, c) = setup();
        let out = c.classify(&"shop.victim.com".parse().unwrap(), &r, SimTime(0));
        assert_eq!(
            out,
            CloudPointer::CnameSuffix {
                target: "victim-shop.azurewebsites.net".parse().unwrap(),
                service: ServiceId::AzureWebApp
            }
        );
    }

    #[test]
    fn cloud_ip_detected() {
        let (r, c) = setup();
        let out = c.classify(&"vm.victim.com".parse().unwrap(), &r, SimTime(0));
        assert!(matches!(
            out,
            CloudPointer::CloudIp {
                service: ServiceId::AwsEc2PublicIp,
                ..
            }
        ));
    }

    #[test]
    fn non_cloud_rejected() {
        let (r, c) = setup();
        assert_eq!(
            c.classify(&"www.victim.com".parse().unwrap(), &r, SimTime(0)),
            CloudPointer::NotCloud
        );
    }

    #[test]
    fn dangling_cname_still_collected() {
        // Remove the azure record: the CNAME dangles but Algorithm 1 keeps
        // the FQDN (the chain is inspected, not the terminal answer).
        let (mut zs_resolver, c) = setup();
        let _ = &mut zs_resolver; // rebuild with the record removed:
        let mut zs = ZoneSet::new();
        let mut z = Zone::new("victim.com".parse().unwrap());
        z.add(ResourceRecord::new(
            "shop.victim.com".parse().unwrap(),
            300,
            RecordData::Cname("victim-shop.azurewebsites.net".parse().unwrap()),
        ));
        zs.insert(z);
        zs.insert(Zone::new("azurewebsites.net".parse().unwrap()));
        let r = Resolver::new(zs);
        let out = c.classify(&"shop.victim.com".parse().unwrap(), &r, SimTime(0));
        assert!(out.is_cloud());
    }

    #[test]
    fn bulk_collection_filters() {
        let (r, c) = setup();
        let fqdns: Vec<Name> = vec![
            "shop.victim.com".parse().unwrap(),
            "vm.victim.com".parse().unwrap(),
            "www.victim.com".parse().unwrap(),
        ];
        let collected = c.collect_fqdns(&fqdns, &r, SimTime(0));
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn feed_discovery_windows() {
        let feed = Feed::new(vec![
            ("b.x.com".parse().unwrap(), SimTime(10)),
            ("a.x.com".parse().unwrap(), SimTime(0)),
            ("c.x.com".parse().unwrap(), SimTime(20)),
        ]);
        assert_eq!(feed.len(), 3);
        assert_eq!(feed.visible_at(SimTime(10)).count(), 2);
        let new: Vec<&Name> = feed.discovered_between(SimTime(5), SimTime(20)).collect();
        assert_eq!(new.len(), 2);
        assert_eq!(feed.discovered_between(SimTime(20), SimTime(99)).count(), 0);
    }

    #[test]
    fn feed_windows_match_linear_scan() {
        // The binary-search windows must agree with the naive filter for
        // every cut point, including duplicates sharing one timestamp.
        let times = [0, 0, 3, 3, 3, 7, 9, 9, 12];
        let feed = Feed::new(
            times
                .iter()
                .enumerate()
                .map(|(i, &t)| (format!("h{i}.x.com").parse().unwrap(), SimTime(t)))
                .collect(),
        );
        for since in -1..14 {
            let expect = times.iter().filter(|&&t| t <= since).count();
            assert_eq!(
                feed.visible_at(SimTime(since)).count(),
                expect,
                "visible_at({since})"
            );
            for until in since..14 {
                let expect = times.iter().filter(|&&t| t > since && t <= until).count();
                assert_eq!(
                    feed.discovered_between(SimTime(since), SimTime(until))
                        .count(),
                    expect,
                    "window ({since}, {until}]"
                );
            }
        }
    }
}
