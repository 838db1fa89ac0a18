//! The weekly crawler (§3.2 / ethics §1).
//!
//! Per FQDN and round, at most two HTTP requests: the index page, and the
//! sitemap only when the index responded. DNS state is recorded either way.
//! Content features are extracted lazily — only when the body hash differs
//! from the previous snapshot — which is also how the real system avoided
//! re-analyzing terabytes of unchanged HTML.

use crate::snapshot::{body_hash, Snapshot};
use dns::resolver::{ResolutionInFlight, Transport};
use dns::{Name, Resolver};
use httpsim::{Endpoint, ProbeInFlight, ProbeKind, ProbeResult, ProbeWait};
use simcore::SimTime;

/// The network operation one in-flight crawl is waiting on. The crawl
/// driver maps these onto its latency model's query classes.
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

enum CrawlPhase {
    Dns(Box<ResolutionInFlight>),
    /// The index fetch, driven through the staged probe machine (connect
    /// event, then request event).
    Index {
        rcode: dns::Rcode,
        cname: Option<Name>,
        ip: std::net::Ipv4Addr,
        probe: ProbeInFlight,
    },
    /// The sitemap fetch, same staged probe machine.
    Sitemap {
        snap: Box<Snapshot>,
        probe: ProbeInFlight,
    },
    Done(Box<Snapshot>),
    /// Transient placeholder while `step` owns the real phase.
    Taken,
}

/// One crawl observation in flight: the submit/poll form of
/// [`Crawler::sample`]. At most one network operation is pending at a time
/// ([`CrawlInFlight::wait`] names it); each [`CrawlInFlight::step`]
/// completes that operation and readies the next, traversing exactly the
/// states the blocking sampler always has — DNS chain, index fetch, then
/// (only when the body changed) the sitemap fetch.
pub struct CrawlInFlight<'a> {
    fqdn: Name,
    now: SimTime,
    prev: Option<&'a Snapshot>,
    /// Transient-fetch-failure flag from the executor's flake model: DNS
    /// still resolves, but the HTTP fetch never happens.
    fetch_dropped: bool,
    phase: CrawlPhase,
    /// Simulated time consumed by the DNS portion (for resolution-latency
    /// percentiles).
    dns_elapsed_ns: u64,
    /// Total simulated time consumed so far.
    elapsed_ns: u64,
    /// Root causal trace context, when this crawl's trace is sampled.
    /// Forwarded (re-based) into each stage machine; pure telemetry.
    trace: Option<obs::TraceCtx>,
}

impl<'a> CrawlInFlight<'a> {
    /// Start crawling `fqdn`: kicks off the DNS resolution. When
    /// `fetch_dropped` is set the machine still resolves (DNS state is
    /// recorded either way) but records an unreachable snapshot instead of
    /// fetching.
    pub fn begin<T: Transport>(
        fqdn: Name,
        resolver: &Resolver<T>,
        prev: Option<&'a Snapshot>,
        now: SimTime,
        fetch_dropped: bool,
    ) -> Self {
        let fl = resolver.begin(&fqdn, now);
        CrawlInFlight {
            fqdn,
            now,
            prev,
            fetch_dropped,
            phase: CrawlPhase::Dns(Box::new(fl)),
            dns_elapsed_ns: 0,
            elapsed_ns: 0,
            trace: None,
        }
    }

    /// Attach the crawl's root causal trace context (call right after
    /// [`Self::begin`], before any step). Each stage machine then emits
    /// linked child spans — `dns.query`, `probe.connect`, `probe.request`
    /// — stamped in virtual time relative to `ctx.base_ns`.
    pub fn set_trace(&mut self, ctx: obs::TraceCtx) {
        if let CrawlPhase::Dns(fl) = &mut self.phase {
            fl.set_trace(ctx.child(obs::causal::SALT_DNS, ctx.base_ns));
        }
        self.trace = Some(ctx);
    }

    /// The operation currently pending (`None` once done).
    pub fn wait(&self) -> Option<CrawlWait> {
        match &self.phase {
            CrawlPhase::Dns(_) => Some(CrawlWait::Dns),
            CrawlPhase::Index { probe, .. } => match probe.pending() {
                Some(ProbeWait::Connect) => Some(CrawlWait::Connect),
                _ => Some(CrawlWait::Index),
            },
            CrawlPhase::Sitemap { probe, .. } => match probe.pending() {
                Some(ProbeWait::Connect) => Some(CrawlWait::Connect),
                _ => Some(CrawlWait::Sitemap),
            },
            CrawlPhase::Done(_) => None,
            CrawlPhase::Taken => unreachable!(),
        }
    }

    /// The name the pending operation is addressed to: the current DNS hop
    /// for [`CrawlWait::Dns`], the crawled FQDN itself for the HTTP phases.
    /// This is what a latency model prices the wait against.
    pub fn target(&self) -> &Name {
        match &self.phase {
            CrawlPhase::Dns(fl) => fl.pending_qname().unwrap_or(&self.fqdn),
            _ => &self.fqdn,
        }
    }

    pub fn is_done(&self) -> bool {
        matches!(self.phase, CrawlPhase::Done(_))
    }

    /// Total simulated time consumed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed_ns
    }

    /// Simulated time the DNS chain consumed.
    pub fn dns_elapsed_ns(&self) -> u64 {
        self.dns_elapsed_ns
    }

    /// Complete the pending operation. `dropped` marks a lost DNS query
    /// (only meaningful in the [`CrawlWait::Dns`] phase — the resolver's
    /// retry budget decides what happens); `cost_ns` is the simulated time
    /// the completed wait consumed.
    pub fn step<T: Transport, E: Endpoint + ?Sized>(
        &mut self,
        resolver: &Resolver<T>,
        web: &E,
        dropped: bool,
        cost_ns: u64,
    ) {
        self.elapsed_ns += cost_ns;
        // In-flight probes step in place: routing every probe event through
        // the move-based transition below would memcpy the whole phase (the
        // probe machine plus any buffered response) twice per event. The
        // phase is only moved once the probe machine has concluded.
        match &mut self.phase {
            CrawlPhase::Index { probe, .. } | CrawlPhase::Sitemap { probe, .. } => {
                probe.step_timed(web, self.now, cost_ns);
                if !probe.is_done() {
                    return;
                }
            }
            _ => {}
        }
        let phase = std::mem::replace(&mut self.phase, CrawlPhase::Taken);
        self.phase = match phase {
            CrawlPhase::Dns(mut fl) => {
                let resp = if dropped {
                    None
                } else {
                    resolver.exchange_pending(&fl)
                };
                resolver.advance(&mut fl, resp, cost_ns);
                if !fl.is_done() {
                    CrawlPhase::Dns(fl)
                } else {
                    let outcome = resolver.conclude(*fl);
                    self.dns_elapsed_ns = outcome.sim_elapsed_ns;
                    let cname = outcome.final_cname().cloned();
                    match outcome.addresses.first().copied() {
                        None => CrawlPhase::Done(Box::new(Snapshot::unreachable(
                            self.fqdn.clone(),
                            self.now,
                            outcome.rcode,
                            cname,
                        ))),
                        Some(ip) if self.fetch_dropped => {
                            // Transient fetch failure: DNS recorded, HTTP
                            // skipped.
                            let mut s = Snapshot::unreachable(
                                self.fqdn.clone(),
                                self.now,
                                outcome.rcode,
                                cname,
                            );
                            s.ip = Some(ip);
                            CrawlPhase::Done(Box::new(s))
                        }
                        Some(ip) => {
                            // Request 1: the index page, staged as a
                            // connect event then a request event.
                            let mut probe = ProbeInFlight::new(
                                ProbeKind::Http { https: false },
                                ip,
                                self.fqdn.to_string(),
                            );
                            if let Some(tr) = &self.trace {
                                probe.set_trace(
                                    tr.child(obs::causal::SALT_INDEX, tr.base_ns + self.elapsed_ns),
                                );
                            }
                            CrawlPhase::Index {
                                rcode: outcome.rcode,
                                cname,
                                ip,
                                probe,
                            }
                        }
                    }
                }
            }
            // Reached only once the in-place fast path above has stepped
            // the probe machine to completion.
            CrawlPhase::Index {
                rcode,
                cname,
                ip,
                probe,
            } => {
                match probe.into_result() {
                    ProbeResult::HttpResponse(resp) => {
                        let hash = body_hash(&resp.body);
                        let mut snap =
                            Snapshot::unreachable(self.fqdn.clone(), self.now, rcode, cname);
                        snap.ip = Some(ip);
                        snap.http_status = Some(resp.status.0);
                        snap.index_hash = hash;
                        snap.index_size = resp.body.len() as u32;
                        let changed = self.prev.map(|p| p.index_hash) != Some(hash);
                        if changed && resp.status.is_success() {
                            let html = String::from_utf8_lossy(&resp.body);
                            snap.ingest_content(&html, true);
                            // Request 2: the sitemap (only when we need
                            // to look closer).
                            let mut probe = ProbeInFlight::new(
                                ProbeKind::Http { https: false },
                                ip,
                                self.fqdn.to_string(),
                            )
                            .with_path("/sitemap.xml");
                            if let Some(tr) = &self.trace {
                                probe.set_trace(tr.child(
                                    obs::causal::SALT_SITEMAP,
                                    tr.base_ns + self.elapsed_ns,
                                ));
                            }
                            CrawlPhase::Sitemap {
                                snap: Box::new(snap),
                                probe,
                            }
                        } else {
                            if !changed {
                                if let Some(p) = self.prev {
                                    snap.inherit_features(p);
                                }
                            }
                            CrawlPhase::Done(Box::new(snap))
                        }
                    }
                    // No front end at the IP (ConnectionFailed; the
                    // transport-only results cannot occur for HTTP
                    // probes).
                    _ => {
                        let mut s =
                            Snapshot::unreachable(self.fqdn.clone(), self.now, rcode, cname);
                        s.ip = Some(ip);
                        CrawlPhase::Done(Box::new(s))
                    }
                }
            }
            // Reached only once the probe machine has concluded (in-place
            // fast path above).
            CrawlPhase::Sitemap { mut snap, probe } => {
                if let ProbeResult::HttpResponse(sm) = probe.into_result() {
                    if sm.status.is_success() {
                        snap.sitemap_bytes = sm
                            .headers
                            .get("Content-Length")
                            .and_then(|v| v.parse().ok())
                            .or(Some(sm.body.len() as u64));
                    }
                }
                CrawlPhase::Done(snap)
            }
            done @ CrawlPhase::Done(_) => done,
            CrawlPhase::Taken => unreachable!(),
        };
    }

    /// Harvest the snapshot of a completed crawl.
    pub fn into_snapshot(self) -> Snapshot {
        match self.phase {
            CrawlPhase::Done(snap) => *snap,
            _ => panic!("crawl still in flight"),
        }
    }
}

/// Crawler over a DNS transport and an HTTP endpoint.
pub struct Crawler;

impl Crawler {
    /// Take one observation of `fqdn`. `prev` enables the lazy feature
    /// extraction: an unchanged body inherits the previous features instead
    /// of re-parsing (and instead of losing them).
    ///
    /// Thin blocking driver of [`CrawlInFlight`]: every wait completes
    /// instantly, which is exactly the schedule the event-driven crawl
    /// produces under the zero-latency profile.
    pub fn sample<T: Transport, E: Endpoint + ?Sized>(
        fqdn: &Name,
        resolver: &Resolver<T>,
        web: &E,
        prev: Option<&Snapshot>,
        now: SimTime,
    ) -> Snapshot {
        let mut fl = CrawlInFlight::begin(fqdn.clone(), resolver, prev, now, false);
        while !fl.is_done() {
            fl.step(resolver, web, false, 0);
        }
        fl.into_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{AccountId, CloudPlatform, PlatformConfig, ServiceId, SiteContent, Sitemap};
    use dns::{Authority, RecordData, ResourceRecord, Zone, ZoneSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build() -> (CloudPlatform, Resolver<Authority>) {
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
        content.sitemap = Some(Sitemap::synthetic(40_000, "<urlset/>".into()));
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
        (platform, Resolver::new(Authority::new(zs)))
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
        let resolver = Resolver::new(Authority::new(zs));
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
        let r2 = Resolver::new(Authority::new(zs));
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
