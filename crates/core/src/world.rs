//! The simulated world: population + cloud + DNS + CAs + attackers.
//!
//! [`World`] owns all mutable state the longitudinal scenario evolves, plus
//! the **ground-truth hijack ledger** — the thing the real study had to
//! reconstruct forensically and we get for free, which lets the test suite
//! score the pipeline's precision/recall instead of taking it on faith.

use attacker::{BinaryArtifact, Campaign, CookieVault, MalwareModel};
use certsim::{CaId, CertId, CtLog};
use cloudsim::{
    AccountId, CapabilityClass, CloudPlatform, PlatformConfig, ResourceId, ServiceId, SiteContent,
};
use contentgen::abuse::{AbuseTopic, SeoTechnique};
use dns::resolver::Transport;
use dns::{CaaRecord, Name, Rcode, RecordData, RecordType, ResourceRecord, ZoneSet};
use httpsim::{Endpoint, Request, Response};
use rand::Rng;
use serde::Serialize;
use simcore::{RngTree, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use worldgen::{CaaPolicy, OrgCategory, OrgId, Population, VirusTotalModel};

/// Ground truth for one hijack (simulation metadata — the detection pipeline
/// never reads this).
#[derive(Debug, Clone, Serialize)]
pub struct HijackTruth {
    pub victim_fqdn: Name,
    pub cloud_fqdn: Name,
    pub org: OrgId,
    pub campaign: u32,
    pub service: ServiceId,
    pub resource: ResourceId,
    pub start: SimTime,
    /// Set when the org remediates (purges the record).
    pub end: Option<SimTime>,
    pub topic: AbuseTopic,
    pub technique: SeoTechnique,
    pub page_count: u64,
    pub identifiers_embedded: bool,
    pub cert: Option<CertId>,
    pub cert_issued_at: Option<SimTime>,
}

/// Non-cloud origin servers (org apex sites etc.).
#[derive(Debug, Default)]
pub struct OriginServers {
    sites: HashMap<Ipv4Addr, SiteContent>,
    by_host: HashMap<Name, Ipv4Addr>,
}

impl OriginServers {
    pub fn host(&mut self, host: Name, ip: Ipv4Addr, content: SiteContent) {
        self.sites.insert(ip, content);
        self.by_host.insert(host, ip);
    }

    pub fn ip_of(&self, host: &Name) -> Option<Ipv4Addr> {
        self.by_host.get(host).copied()
    }
}

/// The whole simulated world.
pub struct World {
    pub population: Population,
    pub platform: CloudPlatform,
    /// Authoritative zones of the organizations (one per apex).
    pub org_zones: ZoneSet,
    pub origins: OriginServers,
    pub ct: CtLog,
    pub campaigns: Vec<Campaign>,
    pub vault: CookieVault,
    pub binaries: Vec<BinaryArtifact>,
    pub malware_model: MalwareModel,
    pub vt: VirusTotalModel,
    pub truth: Vec<HijackTruth>,
    next_cert_id: u64,
    pub rng_tree: RngTree,
}

impl World {
    pub fn new(
        population: Population,
        campaigns: Vec<Campaign>,
        platform_config: PlatformConfig,
        rng_tree: RngTree,
    ) -> World {
        let mut org_zones = ZoneSet::new();
        let mut origins = OriginServers::default();
        let mut rng = rng_tree.rng("world/origins");
        for org in &population.orgs {
            let zone = org_zones.zone_mut_or_create(&org.apex);
            // CAA policy at the apex (§5.6.2).
            match org.caa {
                CaaPolicy::None => {}
                CaaPolicy::FreeCa => zone.add(ResourceRecord::new(
                    org.apex.clone(),
                    3600,
                    RecordData::Caa(CaaRecord::issue(CaId::LetsEncrypt.caa_identity())),
                )),
                CaaPolicy::PaidOnly => zone.add(ResourceRecord::new(
                    org.apex.clone(),
                    3600,
                    RecordData::Caa(CaaRecord::issue(CaId::DigiCert.caa_identity())),
                )),
            }
            // Apex website on a non-cloud origin (serves HSTS when adopted;
            // parked domains serve the registrar's parking rotation).
            let ip = Ipv4Addr::new(93, 184, (org.id.0 >> 8) as u8, org.id.0 as u8);
            zone.add(ResourceRecord::new(
                org.apex.clone(),
                3600,
                RecordData::A(ip),
            ));
            let mut content = if org.parked {
                contentgen::benign::parked_site(&worldgen::org::registrar_name(org.registrar), 0)
            } else {
                contentgen::benign::benign_site(
                    match org.category {
                        OrgCategory::University => contentgen::BenignKind::University,
                        OrgCategory::Government => contentgen::BenignKind::Government,
                        _ => contentgen::BenignKind::Corporate,
                    },
                    &org.name,
                    org.sector,
                    &mut rng,
                )
            };
            if org.uses_hsts {
                content.extra_headers.push((
                    "Strict-Transport-Security".into(),
                    "max-age=31536000; includeSubDomains".into(),
                ));
            }
            origins.host(org.apex.clone(), ip, content);
        }
        let vt = VirusTotalModel::new(&rng_tree);
        World {
            population,
            platform: CloudPlatform::new(platform_config),
            org_zones,
            origins,
            ct: CtLog::new(),
            campaigns,
            vault: CookieVault::new(),
            binaries: Vec::new(),
            malware_model: MalwareModel::default(),
            vt,
            truth: Vec::new(),
            next_cert_id: 1,
            rng_tree,
        }
    }

    /// A DNS transport view over org + platform zones.
    pub fn dns(&self) -> WorldDns<'_> {
        WorldDns {
            org: &self.org_zones,
            cloud: self.platform.zones(),
        }
    }

    /// Allocate a certificate id.
    pub fn fresh_cert_id(&mut self) -> CertId {
        let id = CertId(self.next_cert_id);
        self.next_cert_id += 1;
        id
    }

    /// Who controls the web root of `host` right now? (The HTTP-01 question;
    /// see certsim's `DomainControl` substitution note.)
    pub fn controller_of(&self, host: &Name) -> Option<AccountId> {
        if let Some(res) = self.platform.resource_by_host(host) {
            return Some(res.owner);
        }
        // Org apex origins.
        if self.origins.ip_of(host).is_some() {
            return self
                .population
                .orgs
                .iter()
                .find(|o| &o.apex == host)
                .map(|o| AccountId::Org(o.id.0));
        }
        None
    }

    /// Issue a certificate if validation + CAA pass; logs to CT and binds
    /// HTTPS on the platform resource when the requester controls it there.
    pub fn try_issue_cert(
        &mut self,
        ca: CaId,
        account: AccountId,
        sans: &[Name],
        now: SimTime,
    ) -> Result<CertId, certsim::IssueError> {
        let id = self.fresh_cert_id();
        let resolver = dns::Resolver::new(self.dns());
        let caa_lookup = |name: &Name| resolver.find_caa(name);
        let control = |acct: AccountId, host: &Name, _t: SimTime| -> bool {
            self.controller_of(host) == Some(acct)
        };
        let cert = certsim::issue(ca, account, sans, &control, &caa_lookup, id, now)?;
        // Bind HTTPS for platform-hosted SANs owned by the account.
        let mut bindings: Vec<(ResourceId, Name)> = Vec::new();
        for san in sans {
            if san.is_wildcard() {
                continue;
            }
            if let Some(res) = self.platform.resource_by_host(san) {
                if res.owner == account {
                    bindings.push((res.id, san.clone()));
                }
            }
        }
        for (rid, host) in bindings {
            self.platform.add_tls_host(rid, host);
        }
        self.ct.append(cert, now);
        Ok(id)
    }

    /// The victim-side capability class of a hijack (Table 4).
    pub fn capability_of(&self, service: ServiceId) -> CapabilityClass {
        cloudsim::provider::spec(service).capability
    }

    /// Approximate weekly visitor count for a hijacked FQDN, scaled by the
    /// parent's reputation.
    pub fn weekly_visitors(&self, org: OrgId) -> f64 {
        match self.population.org(org).tranco_rank {
            Some(r) => 4_000.0 / (r as f64).sqrt(),
            None => 3.0,
        }
    }
}

/// Composite DNS transport: organization zones answer for the names they
/// hold; platform (cloud-suffix) zones answer for everything else.
pub struct WorldDns<'a> {
    pub org: &'a ZoneSet,
    pub cloud: &'a ZoneSet,
}

impl Transport for WorldDns<'_> {
    fn lookup(&self, name: &Name, qtype: RecordType) -> (Rcode, Vec<ResourceRecord>) {
        let org_owns = self.org.find_zone(name).is_some();
        dns::server::lookup_in(if org_owns { self.org } else { self.cloud }, name, qtype)
    }
}

/// HTTP endpoint view: cloud platform first, then org origin servers.
pub struct WorldWeb<'a> {
    pub platform: &'a CloudPlatform,
    pub origins: &'a OriginServers,
}

impl World {
    pub fn web(&self) -> WorldWeb<'_> {
        WorldWeb {
            platform: &self.platform,
            origins: &self.origins,
        }
    }
}

impl Endpoint for WorldWeb<'_> {
    fn icmp_responds(&self, ip: Ipv4Addr, now: SimTime) -> bool {
        if self.origins.sites.contains_key(&ip) {
            return true;
        }
        self.platform.icmp_responds(ip, now)
    }

    fn tcp_open(&self, ip: Ipv4Addr, port: u16, now: SimTime) -> bool {
        if self.origins.sites.contains_key(&ip) {
            return port == 80 || port == 443;
        }
        self.platform.tcp_open(ip, port, now)
    }

    fn http_serve(&self, ip: Ipv4Addr, request: &Request, now: SimTime) -> Option<Response> {
        if let Some(content) = self.origins.sites.get(&ip) {
            return Some(content.serve(request));
        }
        self.platform.http_serve(ip, request, now)
    }
}

/// Convenience for sampling an abuse lifetime for remediation scheduling.
pub fn remediation_delay<R: Rng + ?Sized>(median_days: f64, rng: &mut R) -> i32 {
    simcore::LogNormal::from_median_spread(median_days, 2.4)
        .sample(rng)
        .clamp(2.0, 700.0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacker::CampaignConfig;
    use simcore::Scale;
    use worldgen::WorldConfig;

    fn tiny_world() -> World {
        let tree = RngTree::new(7);
        let pop = Population::generate(
            WorldConfig {
                scale: Scale::new(2000),
                n_fortune1000: 20,
                n_global500: 10,
                ..Default::default()
            },
            &tree,
        );
        let campaigns = attacker::generate_campaigns(
            &CampaignConfig {
                scale: Scale::new(2000),
                ..Default::default()
            },
            &tree,
        );
        World::new(pop, campaigns, PlatformConfig::default(), tree)
    }

    #[test]
    fn org_zones_have_apex_records() {
        let w = tiny_world();
        let org = &w.population.orgs[0];
        let zone = w.org_zones.get(&org.apex).expect("zone exists");
        assert!(!zone.records_at(&org.apex).is_empty());
    }

    #[test]
    fn dns_view_resolves_apex() {
        let w = tiny_world();
        let org = &w.population.orgs[0];
        let resolver = dns::Resolver::new(w.dns());
        let out = resolver.resolve_a(&org.apex, SimTime(0));
        assert!(out.is_resolvable(), "{:?}", out);
    }

    /// Each question goes to exactly one authority: the org set when it
    /// holds a zone for the name, else the cloud set; a name neither holds
    /// is REFUSED, and an org CNAME into a cloud suffix stops at the CNAME
    /// for the resolver to chase.
    #[test]
    fn dns_view_dispatches_each_question_to_one_authority() {
        use dns::Resolver;
        let mut w = tiny_world();
        let mut rng = w.rng_tree.rng("dispatch");
        let apex = w.population.orgs[0].apex.clone();
        let rid = w
            .platform
            .register(
                ServiceId::AzureWebApp,
                Some("dispatchsite"),
                None,
                AccountId::Org(0),
                SimTime(0),
                &mut rng,
            )
            .unwrap();
        let cloud_name = w
            .platform
            .resource(rid)
            .unwrap()
            .generated_fqdn
            .clone()
            .unwrap();
        let alias = apex.child("app").unwrap();
        w.org_zones.get_mut(&apex).unwrap().add(ResourceRecord::new(
            alias.clone(),
            300,
            RecordData::Cname(cloud_name.clone()),
        ));
        let dns = w.dns();
        let ask = |name: &Name| dns.lookup(name, RecordType::A);

        // Org-owned names, present or not, are answered by the org zone
        // (the cloud set holds no zone for them and would refuse).
        let (rcode, answers) = ask(&apex);
        assert_eq!(rcode, Rcode::NoError);
        assert!(!answers.is_empty());
        let (rcode, answers) = ask(&apex.child("nosuchhost").unwrap());
        assert_eq!(rcode, Rcode::NxDomain);
        assert!(answers.is_empty());

        // A cloud-only name is answered by the platform's suffix zone.
        let (rcode, answers) = ask(&cloud_name);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].rtype(), RecordType::A);

        // Neither set holds it.
        assert_eq!(
            ask(&"www.unowned.invalid".parse().unwrap()).0,
            Rcode::Refused
        );

        // The org answers with just its CNAME; the resolver completes it.
        let (rcode, answers) = ask(&alias);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].data, RecordData::Cname(cloud_name.clone()));
        let out = Resolver::new(w.dns()).resolve_a(&alias, SimTime(0));
        assert_eq!(out.cname_chain, vec![cloud_name]);
        assert!(out.is_resolvable(), "{out:?}");
    }

    #[test]
    fn web_view_serves_apex_with_hsts_when_adopted() {
        let w = tiny_world();
        let org = w
            .population
            .orgs
            .iter()
            .find(|o| o.uses_hsts)
            .expect("some org uses HSTS");
        let ip = w.origins.ip_of(&org.apex).unwrap();
        let resp = w
            .web()
            .http_serve(ip, &Request::get(org.apex.to_string(), "/"), SimTime(0))
            .unwrap();
        assert!(resp.headers.contains("Strict-Transport-Security"));
    }

    #[test]
    fn cert_issuance_respects_control() {
        let mut w = tiny_world();
        let mut rng = w.rng_tree.rng("t");
        let t0 = SimTime(100);
        // Org provisions a resource and binds its subdomain.
        let org = w.population.orgs[0].id;
        let rid = w
            .platform
            .register(
                ServiceId::AzureWebApp,
                Some("corpsite"),
                None,
                AccountId::Org(org.0),
                t0,
                &mut rng,
            )
            .unwrap();
        let sub: Name = w.population.orgs[0].apex.child("www2").unwrap();
        w.platform.bind_custom_domain(rid, sub.clone());
        // The owner can issue...
        let ok = w.try_issue_cert(
            CaId::LetsEncrypt,
            AccountId::Org(org.0),
            std::slice::from_ref(&sub),
            t0,
        );
        assert!(ok.is_ok());
        assert_eq!(w.ct.len(), 1);
        // ...a stranger cannot.
        let bad = w.try_issue_cert(
            CaId::LetsEncrypt,
            AccountId::Attacker(9),
            std::slice::from_ref(&sub),
            t0,
        );
        assert!(bad.is_err());
        // HTTPS now works for the custom domain.
        let ip = w.platform.resource(rid).unwrap().ip;
        assert!(w
            .web()
            .http_serve(ip, &Request::get_https(sub.to_string(), "/"), t0)
            .is_some());
    }

    #[test]
    fn caa_paid_only_blocks_free_ca() {
        let mut w = tiny_world();
        // Force a PaidOnly CAA org by editing the zone directly.
        let org = w.population.orgs[1].clone();
        let zone = w.org_zones.get_mut(&org.apex).unwrap();
        zone.add(ResourceRecord::new(
            org.apex.clone(),
            3600,
            RecordData::Caa(CaaRecord::issue(CaId::DigiCert.caa_identity())),
        ));
        let mut rng = w.rng_tree.rng("t2");
        let rid = w
            .platform
            .register(
                ServiceId::HerokuApp,
                Some("paidcaa"),
                None,
                AccountId::Org(org.id.0),
                SimTime(0),
                &mut rng,
            )
            .unwrap();
        let sub = org.apex.child("pay").unwrap();
        w.platform.bind_custom_domain(rid, sub.clone());
        let denied = w.try_issue_cert(
            CaId::LetsEncrypt,
            AccountId::Org(org.id.0),
            std::slice::from_ref(&sub),
            SimTime(1),
        );
        assert!(matches!(denied, Err(certsim::IssueError::CaaForbids(_))));
        let allowed =
            w.try_issue_cert(CaId::DigiCert, AccountId::Org(org.id.0), &[sub], SimTime(1));
        assert!(allowed.is_ok());
    }
}
