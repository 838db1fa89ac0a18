//! Dangling-record discovery from the attacker's side.
//!
//! §1: "All that it requires is some way of collecting domain names (e.g.,
//! via passiveDNS or Certificate Transparency), checking if the resource is
//! hosted in the cloud and is reachable, and if not, registering the
//! resource through an account with the cloud provider." The scanner
//! implements exactly that loop against the simulated DNS and platform.

use cloudsim::{CloudPlatform, NamingModel, ServiceId};
use dns::resolver::Transport;
use dns::{Name, Resolver};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// A confirmed hijack opportunity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DanglingFinding {
    /// The victim FQDN whose record dangles.
    pub victim_fqdn: Name,
    /// The cloud-generated CNAME target that is re-registrable.
    pub cloud_fqdn: Name,
    pub service: ServiceId,
    /// The freetext name to re-register.
    pub resource_name: String,
    pub region: Option<String>,
    pub found_at: SimTime,
}

/// The attacker's discovery engine.
pub struct Scanner {
    /// Known cloud suffixes mapped back to their service (built from the
    /// public catalog, just like real attackers use public docs).
    suffixes: Vec<(Name, ServiceId, Option<String>)>,
}

impl Default for Scanner {
    fn default() -> Self {
        Self::new()
    }
}

impl Scanner {
    pub fn new() -> Self {
        let mut suffixes = Vec::new();
        for spec in cloudsim::CATALOG {
            // Only Freetext services are deterministically re-registrable;
            // RandomName suffixes (Google, Cloudflare Pages) are skipped by
            // rational attackers and IpPool services have no suffix at all.
            if spec.naming != NamingModel::Freetext {
                continue;
            }
            let Some(s) = spec.suffix else { continue };
            if s.contains("REGION") {
                for r in spec.regions {
                    let n = Name::parse(&s.replace("REGION", r)).unwrap();
                    suffixes.push((n, spec.id, Some(r.to_string())));
                }
            } else {
                suffixes.push((Name::parse(s).unwrap(), spec.id, None));
            }
        }
        Scanner { suffixes }
    }

    /// Classify a CNAME target: which service and what resource name/region?
    pub fn classify_target(&self, target: &Name) -> Option<(ServiceId, String, Option<String>)> {
        for (suffix, service, region) in &self.suffixes {
            if target.is_subdomain_of(suffix) {
                // Resource name = the label(s) left of the suffix; freetext
                // names are a single label in this world.
                let extra = target.label_count() - suffix.label_count();
                if extra != 1 {
                    continue;
                }
                return Some((*service, target.labels()[0].to_string(), region.clone()));
            }
        }
        None
    }

    /// Scan a batch of candidate FQDNs: resolve each, detect dangling
    /// cloud-pointing CNAMEs, verify availability on the platform.
    pub fn scan<T: Transport>(
        &self,
        candidates: &[Name],
        resolver: &Resolver<T>,
        platform: &CloudPlatform,
        now: SimTime,
    ) -> Vec<DanglingFinding> {
        let mut findings = Vec::new();
        for fqdn in candidates {
            let outcome = resolver.resolve_a(fqdn, now);
            if !outcome.is_dangling_cname() {
                continue;
            }
            let Some(target) = outcome.final_cname() else {
                continue;
            };
            let Some((service, resource_name, region)) = self.classify_target(target) else {
                continue;
            };
            // The §4.3 availability check — free and unauthenticated.
            if platform.name_available(service, &resource_name, region.as_deref(), now) {
                findings.push(DanglingFinding {
                    victim_fqdn: fqdn.clone(),
                    cloud_fqdn: target.clone(),
                    service,
                    resource_name,
                    region,
                    found_at: now,
                });
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{AccountId, PlatformConfig};
    use dns::{RecordData, ResourceRecord, Zone, ZoneSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classify_targets() {
        let s = Scanner::new();
        let (svc, name, region) = s
            .classify_target(&"contoso-shop.azurewebsites.net".parse().unwrap())
            .unwrap();
        assert_eq!(svc, ServiceId::AzureWebApp);
        assert_eq!(name, "contoso-shop");
        assert_eq!(region, None);

        let (svc, name, region) = s
            .classify_target(&"assets.s3-website.eu-west-1.amazonaws.com".parse().unwrap())
            .unwrap();
        assert_eq!(svc, ServiceId::AwsS3Website);
        assert_eq!(name, "assets");
        assert_eq!(region.as_deref(), Some("eu-west-1"));

        // Random-name services are skipped entirely.
        assert!(s
            .classify_target(&"abc123xyz.pages.dev".parse().unwrap())
            .is_none());
        assert!(s
            .classify_target(&"www.example.com".parse().unwrap())
            .is_none());
    }

    #[test]
    fn end_to_end_scan_finds_dangling() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut platform = CloudPlatform::new(PlatformConfig::default());
        let t0 = SimTime(0);
        // Org provisions and abandons a web app, leaving the CNAME.
        let id = platform
            .register(
                ServiceId::AzureWebApp,
                Some("victim-shop"),
                None,
                AccountId::Org(1),
                t0,
                &mut rng,
            )
            .unwrap();
        let mut org_zone = Zone::new("victim.com".parse().unwrap());
        org_zone.add(ResourceRecord::new(
            "shop.victim.com".parse().unwrap(),
            300,
            RecordData::Cname("victim-shop.azurewebsites.net".parse().unwrap()),
        ));
        // Also a live one that must NOT be reported.
        org_zone.add(ResourceRecord::new(
            "www.victim.com".parse().unwrap(),
            300,
            RecordData::A("93.184.216.34".parse().unwrap()),
        ));
        platform.release(id, SimTime(10));

        // Compose DNS: org zone + platform zones.
        let mut zones = ZoneSet::new();
        zones.insert(org_zone);
        for z in platform.zones().iter() {
            zones.insert(z.clone());
        }
        let resolver = Resolver::new(zones);

        let scanner = Scanner::new();
        let candidates: Vec<Name> = vec![
            "shop.victim.com".parse().unwrap(),
            "www.victim.com".parse().unwrap(),
        ];
        let findings = scanner.scan(&candidates, &resolver, &platform, SimTime(20));
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.victim_fqdn.to_string(), "shop.victim.com");
        assert_eq!(f.resource_name, "victim-shop");
        assert_eq!(f.service, ServiceId::AzureWebApp);

        // Attacker completes the loop: re-register and verify control.
        let hid = platform
            .register(
                f.service,
                Some(&f.resource_name),
                f.region.as_deref(),
                AccountId::Attacker(0),
                SimTime(21),
                &mut rng,
            )
            .unwrap();
        assert!(platform.resource(hid).unwrap().owner.is_attacker());
        // The opportunity is gone afterwards.
        let findings = scanner.scan(&candidates, &resolver, &platform, SimTime(22));
        assert!(findings.is_empty());
    }
}
