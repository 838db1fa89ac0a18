//! The weekly crawler (§3.2 / ethics §1).
//!
//! Per FQDN and round, at most two HTTP requests: the index page, and the
//! sitemap only when the index changed. DNS state is recorded either way.
//! Content features are extracted lazily — only when the body hash differs
//! from the previous snapshot — which is also how the real system avoided
//! re-analyzing terabytes of unchanged HTML. The hash itself comes with the
//! served body ([`httpsim::Body::fnv`], computed once per written page), so
//! an unchanged page costs no pass over its bytes.
//!
//! [`crawl`] is that procedure as one straight-line function. Every network
//! wait it makes (each DNS attempt, each connect, each request) first goes
//! through a caller-supplied hook, which is where the crawl executor prices
//! the wait in virtual time; [`Crawler::sample`] passes a hook that charges
//! nothing.

use crate::snapshot::Snapshot;
use dns::resolver::Transport;
use dns::{Name, Resolver};
use httpsim::{Endpoint, Request};
use simcore::SimTime;

/// One network wait of a crawl, in the order [`crawl`] makes them: a DNS
/// attempt per query (retries included) for each hop of the chain, then a
/// connect and the index request, then — only when the index changed — a
/// connect and the sitemap request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlWait {
    /// One DNS exchange of the resolution chain.
    Dns,
    /// TCP/TLS connection establishment preceding an HTTP request (both
    /// the index and sitemap fetches start with one).
    Connect,
    /// The index-page HTTP request.
    Index,
    /// The sitemap HTTP request (only when the index changed).
    Sitemap,
}

/// Take one observation of `fqdn`. `prev` enables the lazy feature
/// extraction: an unchanged body inherits the previous features instead of
/// re-parsing (and instead of losing them). When `fetch_dropped` is set
/// (the executor's transient-failure model) DNS still resolves and is
/// recorded, but no HTTP request is made.
///
/// `wait(kind, target)` is called before each network wait; `target` is the
/// name the wait is addressed to (the current DNS hop, or `fqdn` for the
/// HTTP waits). It returns true when a DNS attempt is lost on the wire; the
/// resolver then retries or gives up (SERVFAIL). Its answer is ignored for
/// the HTTP waits.
pub fn crawl<T: Transport, E: Endpoint + ?Sized>(
    fqdn: &Name,
    resolver: &Resolver<T>,
    web: &E,
    prev: Option<&Snapshot>,
    now: SimTime,
    fetch_dropped: bool,
    mut wait: impl FnMut(CrawlWait, &Name) -> bool,
) -> Snapshot {
    let outcome = resolver.resolve_with(fqdn, |qname| wait(CrawlWait::Dns, qname));
    let cname = outcome.final_cname().cloned();
    let mut snap = Snapshot::unreachable(fqdn.clone(), now, outcome.rcode, cname);
    let Some(ip) = outcome.addresses.first().copied() else {
        return snap;
    };
    snap.ip = Some(ip);
    if fetch_dropped {
        return snap;
    }

    // Request 1: the index page.
    let mut request = Request::get(fqdn.to_string(), "/");
    wait(CrawlWait::Connect, fqdn);
    wait(CrawlWait::Index, fqdn);
    // `None` is no front end at the IP: the snapshot stays unreachable.
    let Some(resp) = web.http_serve(ip, &request, now) else {
        return snap;
    };
    let hash = resp.body.fnv();
    debug_assert_eq!(hash, simcore::fnv1a(&resp.body));
    snap.http_status = Some(resp.status.0);
    snap.index_hash = hash;
    snap.index_size = resp.body.len() as u32;
    let changed = prev.map(|p| p.index_hash) != Some(hash);
    if !(changed && resp.status.is_success()) {
        if !changed {
            if let Some(p) = prev {
                snap.inherit_features(p);
            }
        }
        return snap;
    }
    snap.ingest_content(resp.body.as_str(), true);

    // Request 2: the sitemap (only when we need to look closer).
    wait(CrawlWait::Connect, fqdn);
    wait(CrawlWait::Sitemap, fqdn);
    request.path = "/sitemap.xml";
    if let Some(sm) = web.http_serve(ip, &request, now) {
        if sm.status.is_success() {
            snap.sitemap_bytes = Some(sm.content_length);
        }
    }
    snap
}

/// Crawler over a DNS transport and an HTTP endpoint.
pub struct Crawler;

impl Crawler {
    /// [`crawl`] `fqdn` with every wait free and nothing lost.
    pub fn sample<T: Transport, E: Endpoint + ?Sized>(
        fqdn: &Name,
        resolver: &Resolver<T>,
        web: &E,
        prev: Option<&Snapshot>,
        now: SimTime,
    ) -> Snapshot {
        crawl(fqdn, resolver, web, prev, now, false, |_, _| false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{
        sitemap_bytes, AccountId, CloudPlatform, PlatformConfig, ServiceId, SiteContent,
    };
    use dns::{RecordData, ResourceRecord, Zone, ZoneSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build() -> (CloudPlatform, Resolver<ZoneSet>) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut platform = CloudPlatform::new(PlatformConfig::default());
        let id = platform
            .register(
                ServiceId::AzureWebApp,
                Some("acme-shop"),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut rng,
            )
            .unwrap();
        let mut content = SiteContent::placeholder("ACME shop");
        content.sitemap_bytes = Some(sitemap_bytes(40_000));
        platform.set_content(id, content);
        platform.bind_custom_domain(id, "shop.acme.com".parse().unwrap());

        let mut zs = ZoneSet::new();
        let mut z = Zone::new("acme.com".parse().unwrap());
        z.add(ResourceRecord::new(
            "shop.acme.com".parse().unwrap(),
            300,
            RecordData::Cname("acme-shop.azurewebsites.net".parse().unwrap()),
        ));
        zs.insert(z);
        for pz in platform.zones().iter() {
            zs.insert(pz.clone());
        }
        (platform, Resolver::new(zs))
    }

    #[test]
    fn samples_content_and_sitemap() {
        let (platform, resolver) = build();
        let fqdn: Name = "shop.acme.com".parse().unwrap();
        let s = Crawler::sample(&fqdn, &resolver, &platform, None, SimTime(7));
        assert_eq!(s.http_status, Some(200));
        assert!(s.page.title.as_deref().unwrap().contains("ACME"));
        assert_eq!(s.sitemap_bytes, Some(120 + 40_000 * 80));
        assert!(s.html.is_some());
        assert!(s.ip.is_some());
    }

    #[test]
    fn unchanged_body_skips_extraction() {
        let (platform, resolver) = build();
        let fqdn: Name = "shop.acme.com".parse().unwrap();
        let first = Crawler::sample(&fqdn, &resolver, &platform, None, SimTime(7));
        let second = Crawler::sample(&fqdn, &resolver, &platform, Some(&first), SimTime(14));
        assert_eq!(second.index_hash, first.index_hash);
        // Lazy path: no re-extraction and no second request, but features
        // are inherited so downstream consumers never see an empty view.
        assert_eq!(second.page.title, first.page.title);
        assert_eq!(second.sitemap_bytes, first.sitemap_bytes);
        assert!(second.html.is_none());
    }

    #[test]
    fn index_hash_is_the_hash_of_the_served_bytes() {
        // Content from each writer: the provisioning placeholder, a benign
        // refresh, an attacker deploy, and the provider error page once the
        // resource is released.
        let (mut platform, resolver) = build();
        let fqdn: Name = "shop.acme.com".parse().unwrap();
        let res = platform
            .resource_by_host(&"acme-shop.azurewebsites.net".parse().unwrap())
            .unwrap();
        let (id, ip) = (res.id, res.ip);
        let mut rng = StdRng::seed_from_u64(5);
        let benign = contentgen::benign_site(
            contentgen::BenignKind::Corporate,
            "ACME",
            "Retail",
            &mut rng,
        );
        let abuse = contentgen::abuse::build_abuse_site(
            &contentgen::AbuseSpec {
                topic: contentgen::AbuseTopic::Gambling,
                technique: contentgen::SeoTechnique::DoorwayPages,
                page_count: 500,
                use_meta_keywords: true,
                maintenance_shell_lang: None,
                links: Default::default(),
                network_peers: vec![],
                template_keywords: vec![],
            },
            &mut rng,
        );
        let check = |platform: &CloudPlatform, status: u16| {
            let served = platform
                .http_serve(ip, &Request::get("shop.acme.com", "/"), SimTime(7))
                .unwrap();
            let snap = Crawler::sample(&fqdn, &resolver, platform, None, SimTime(7));
            assert_eq!(snap.http_status, Some(status));
            assert_eq!(snap.index_hash, simcore::fnv1a(&served.body));
            assert_eq!(snap.index_size as usize, served.body.len());
        };
        check(&platform, 200);
        for content in [benign, abuse] {
            platform.set_content(id, content);
            check(&platform, 200);
        }
        platform.release(id, SimTime(7));
        check(&platform, 404);
    }

    /// The org zone and the platform's zones behind separate authorities,
    /// as the world serves them: the chain takes one query per hop.
    struct SplitDns {
        org: ZoneSet,
        cloud: ZoneSet,
    }

    impl Transport for SplitDns {
        fn lookup(&self, name: &Name, qtype: dns::RecordType) -> (dns::Rcode, Vec<ResourceRecord>) {
            let cloud: Name = "azurewebsites.net".parse().unwrap();
            if name.ends_with(&cloud) {
                self.cloud.lookup(name, qtype)
            } else {
                self.org.lookup(name, qtype)
            }
        }
    }

    fn split_resolver(platform: &CloudPlatform) -> Resolver<SplitDns> {
        let mut org = ZoneSet::new();
        let mut z = Zone::new("acme.com".parse().unwrap());
        z.add(ResourceRecord::new(
            "shop.acme.com".parse().unwrap(),
            300,
            RecordData::Cname("acme-shop.azurewebsites.net".parse().unwrap()),
        ));
        org.insert(z);
        let mut cloud = ZoneSet::new();
        for pz in platform.zones().iter() {
            cloud.insert(pz.clone());
        }
        Resolver::new(SplitDns { org, cloud })
    }

    /// Crawl `shop.acme.com`, recording every `(wait, target)` the hook is
    /// asked.
    fn waits_of(
        resolver: &Resolver<SplitDns>,
        platform: &CloudPlatform,
        prev: Option<&Snapshot>,
    ) -> (Snapshot, Vec<(CrawlWait, Name)>) {
        let fqdn: Name = "shop.acme.com".parse().unwrap();
        let mut waits = Vec::new();
        let snap = crawl(
            &fqdn,
            resolver,
            platform,
            prev,
            SimTime(7),
            false,
            |w, t| {
                waits.push((w, t.clone()));
                false
            },
        );
        (snap, waits)
    }

    #[test]
    fn waits_follow_the_crawl_procedure() {
        // The order fixes the per-task ordinals that key lossy drops.
        let (platform, _) = build();
        let resolver = split_resolver(&platform);
        let fqdn: Name = "shop.acme.com".parse().unwrap();
        let cloud: Name = "acme-shop.azurewebsites.net".parse().unwrap();
        let (first, waits) = waits_of(&resolver, &platform, None);
        assert_eq!(
            waits,
            [
                (CrawlWait::Dns, fqdn.clone()),
                (CrawlWait::Dns, cloud),
                (CrawlWait::Connect, fqdn.clone()),
                (CrawlWait::Index, fqdn.clone()),
                (CrawlWait::Connect, fqdn.clone()),
                (CrawlWait::Sitemap, fqdn.clone()),
            ]
        );
        // Unchanged body: the crawl stops after the index request.
        let (_, waits) = waits_of(&resolver, &platform, Some(&first));
        assert_eq!(
            waits.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            [
                CrawlWait::Dns,
                CrawlWait::Dns,
                CrawlWait::Connect,
                CrawlWait::Index
            ]
        );
    }

    #[test]
    fn lost_dns_attempts_are_retried_then_servfail() {
        let (platform, _) = build();
        let resolver = split_resolver(&platform);
        let fqdn: Name = "shop.acme.com".parse().unwrap();
        // Every attempt lost: three DNS waits, then no HTTP at all.
        let mut waits = Vec::new();
        let s = crawl(
            &fqdn,
            &resolver,
            &platform,
            None,
            SimTime(7),
            false,
            |w, _| {
                waits.push(w);
                w == CrawlWait::Dns
            },
        );
        assert_eq!(waits, [CrawlWait::Dns; 3]);
        assert_eq!(s.rcode, dns::Rcode::ServFail);
        assert_eq!(s.http_status, None);
        // A dropped fetch still resolves (and records the IP), but waits on
        // nothing after DNS.
        let mut waits = Vec::new();
        let s = crawl(
            &fqdn,
            &resolver,
            &platform,
            None,
            SimTime(7),
            true,
            |w, _| {
                waits.push(w);
                false
            },
        );
        assert_eq!(waits, [CrawlWait::Dns; 2]);
        assert!(s.ip.is_some());
        assert_eq!(s.http_status, None);
    }

    #[test]
    fn dangling_fqdn_yields_unreachable() {
        let (mut platform, _) = build();
        // Release the resource: the CNAME now dangles.
        let id = platform
            .resource_by_host(&"acme-shop.azurewebsites.net".parse().unwrap())
            .unwrap()
            .id;
        platform.release(id, SimTime(8));
        let mut zs = ZoneSet::new();
        let mut z = Zone::new("acme.com".parse().unwrap());
        z.add(ResourceRecord::new(
            "shop.acme.com".parse().unwrap(),
            300,
            RecordData::Cname("acme-shop.azurewebsites.net".parse().unwrap()),
        ));
        zs.insert(z);
        for pz in platform.zones().iter() {
            zs.insert(pz.clone());
        }
        let resolver = Resolver::new(zs);
        let s = Crawler::sample(
            &"shop.acme.com".parse().unwrap(),
            &resolver,
            &platform,
            None,
            SimTime(9),
        );
        assert!(!s.is_serving());
        assert_eq!(s.http_status, None);
        assert!(s.cname_target.is_some());
    }

    #[test]
    fn platform_404_is_a_response() {
        // A Host the front end does not know still yields an HTTP response
        // (the provider error page) — §2's point about application-layer
        // liveness.
        let (platform, resolver) = build();
        let mut zs = ZoneSet::new();
        let mut z = Zone::new("other.com".parse().unwrap());
        z.add(ResourceRecord::new(
            "x.other.com".parse().unwrap(),
            300,
            RecordData::A(
                platform
                    .resource_by_host(&"acme-shop.azurewebsites.net".parse().unwrap())
                    .unwrap()
                    .ip,
            ),
        ));
        zs.insert(z);
        let r2 = Resolver::new(zs);
        let _ = resolver;
        let s = Crawler::sample(
            &"x.other.com".parse().unwrap(),
            &r2,
            &platform,
            None,
            SimTime(0),
        );
        assert_eq!(s.http_status, Some(404));
        assert!(s.is_serving()); // responded, just negatively
    }
}
