//! Stub resolver with CNAME chasing.
//!
//! [`Resolver::resolve_a`] is the exact primitive Algorithm 1 of the paper
//! consumes: given an FQDN it returns the full CNAME chain *and* the terminal
//! A records (`A_results, CNAME_results ← DNS_A_query(fqdn)`), or the
//! negative outcome (NXDOMAIN / NODATA / SERVFAIL). The resolver queries a
//! [`ZoneSet`] through the [`Transport`] trait and keeps no state between
//! resolutions: every call observes the live DNS state, as each monitoring
//! round of the paper does. [`Resolver::resolve_with`] is the same loop
//! with a hook asked before every send, which the crawl uses to price each
//! query and to drop it under a lossy latency profile.

use crate::name::Name;
use crate::record::{Rcode, RecordData, RecordType, ResourceRecord};
use crate::zone::ZoneSet;
use simcore::SimTime;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Maximum total CNAME indirections across queries.
const MAX_CHAIN: usize = 16;

/// Attempts per query before the resolver gives up with SERVFAIL: one
/// initial send plus two retries after drops. Only a lossy latency profile
/// ever consumes more than the first.
const MAX_QUERY_ATTEMPTS: u32 = 3;

/// Where queries go. A [`ZoneSet`] answers for its own zones; the world
/// composes its org and cloud zone sets behind one.
///
/// `Sync` is a supertrait: the shard-parallel crawl executor resolves
/// against one shared world from many threads, so every transport must be
/// safely shareable (all implementations here are plain data or lock their
/// interior state).
pub trait Transport: Sync {
    /// Answer one typed query: the rcode and the answer records.
    fn lookup(&self, name: &Name, qtype: RecordType) -> (Rcode, Vec<ResourceRecord>);
}

impl Transport for ZoneSet {
    fn lookup(&self, name: &Name, qtype: RecordType) -> (Rcode, Vec<ResourceRecord>) {
        crate::server::lookup_in(self, name, qtype)
    }
}

impl<T: Transport + Send + ?Sized> Transport for Arc<T> {
    fn lookup(&self, name: &Name, qtype: RecordType) -> (Rcode, Vec<ResourceRecord>) {
        (**self).lookup(name, qtype)
    }
}

/// Outcome of resolving an FQDN's A record, the unit of observation for the
/// collection and monitoring pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionOutcome {
    /// Final response code of the chain.
    pub rcode: Rcode,
    /// CNAME chain in order of traversal (may be empty).
    pub cname_chain: Vec<Name>,
    /// Terminal A records (empty on negative outcomes).
    pub addresses: Vec<Ipv4Addr>,
}

impl ResolutionOutcome {
    /// True if the name ultimately resolved to at least one address.
    pub fn is_resolvable(&self) -> bool {
        self.rcode == Rcode::NoError && !self.addresses.is_empty()
    }

    /// True if the chain contains a CNAME whose target does not exist — the
    /// *dangling record* signature the attackers and the pipeline both hunt
    /// for.
    pub fn is_dangling_cname(&self) -> bool {
        !self.cname_chain.is_empty()
            && (self.rcode == Rcode::NxDomain
                || (self.rcode == Rcode::NoError && self.addresses.is_empty()))
    }

    /// The last CNAME in the chain (the cloud-side generated name, when the
    /// chain points into a cloud platform).
    pub fn final_cname(&self) -> Option<&Name> {
        self.cname_chain.last()
    }
}

/// A stub resolver over a transport.
pub struct Resolver<T: Transport> {
    transport: T,
}

impl<T: Transport> Resolver<T> {
    pub fn new(transport: T) -> Self {
        Resolver { transport }
    }

    /// No-op: the resolver holds no cached answers. Kept only because the
    /// study benchmark's crawl sampler still calls it.
    pub fn flush_cache(&self) {}

    /// Resolve the A records for `name` with no query ever lost. The time
    /// parameter is unused: the answer is whatever the transport holds when
    /// it is asked.
    pub fn resolve_a(&self, name: &Name, _now: SimTime) -> ResolutionOutcome {
        self.resolve_with(name, |_| false)
    }

    /// Resolve the A records for `name`, chasing CNAME chains with loop
    /// detection. `lost(qname)` is asked once per attempt, before the query
    /// goes out, and returns true when that attempt is dropped on the wire
    /// (the crawl prices the wait there). A name gets three attempts; when
    /// all are lost the chain ends in SERVFAIL. Each CNAME hop starts with a
    /// fresh budget.
    pub fn resolve_with(
        &self,
        name: &Name,
        mut lost: impl FnMut(&Name) -> bool,
    ) -> ResolutionOutcome {
        let mut out = ResolutionOutcome {
            rcode: Rcode::NoError,
            cname_chain: Vec::new(),
            addresses: Vec::new(),
        };
        let mut current = name.clone();
        let mut hops_left = MAX_CHAIN;
        loop {
            let mut attempts = 0;
            while lost(&current) {
                attempts += 1;
                if attempts == MAX_QUERY_ATTEMPTS {
                    out.rcode = Rcode::ServFail;
                    return out;
                }
            }
            let (rcode, answers) = self.transport.lookup(&current, RecordType::A);
            out.rcode = rcode;
            if out.rcode == Rcode::Refused || out.rcode == Rcode::ServFail {
                return out;
            }
            let mut progressed = false;
            for rr in &answers {
                match &rr.data {
                    RecordData::A(ip) => out.addresses.push(*ip),
                    RecordData::Cname(target) => {
                        if target == name || out.cname_chain.contains(target) {
                            // CNAME loop crossing authorities.
                            out.rcode = Rcode::ServFail;
                            return out;
                        }
                        out.cname_chain.push(target.clone());
                        current = target.clone();
                        progressed = true;
                    }
                    _ => {}
                }
            }
            if !out.addresses.is_empty()
                || out.rcode == Rcode::NxDomain
                || !progressed
                || hops_left == 0
            {
                return out;
            }
            hops_left -= 1;
        }
    }

    /// RFC 8659 §3 relevant-CAA lookup: climb from `name` toward the root and
    /// return the first non-empty CAA record set found.
    pub fn find_caa(&self, name: &Name) -> Vec<crate::record::CaaRecord> {
        let mut probe = Some(name.clone());
        while let Some(p) = probe {
            let (rcode, answers) = self.transport.lookup(&p, RecordType::Caa);
            if rcode == Rcode::NoError {
                let caa: Vec<_> = answers
                    .into_iter()
                    .filter_map(|rr| match rr.data {
                        RecordData::Caa(c) => Some(c),
                        _ => None,
                    })
                    .collect();
                if !caa.is_empty() {
                    return caa;
                }
            }
            probe = p.parent();
            // Stop below the TLD: the synthetic world never sets CAA at TLDs.
            if probe.as_ref().map(|n| n.label_count() < 2).unwrap_or(true) {
                break;
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CaaRecord;
    use crate::zone::Zone;
    use parking_lot::Mutex;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn zones() -> ZoneSet {
        let mut zs = ZoneSet::new();
        let mut ex = Zone::new(n("example.com"));
        ex.add(ResourceRecord::new(
            n("www.example.com"),
            86_400 * 2,
            RecordData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        ex.add(ResourceRecord::new(
            n("shop.example.com"),
            300,
            RecordData::Cname(n("shop-prod.azurewebsites.net")),
        ));
        ex.add(ResourceRecord::new(
            n("example.com"),
            3600,
            RecordData::Caa(CaaRecord::issue("digicert.com")),
        ));
        zs.insert(ex);
        let mut az = Zone::new(n("azurewebsites.net"));
        az.add(ResourceRecord::new(
            n("shop-prod.azurewebsites.net"),
            60,
            RecordData::A(Ipv4Addr::new(20, 40, 60, 80)),
        ));
        zs.insert(az);
        zs
    }

    #[test]
    fn resolves_direct_a() {
        let r = Resolver::new(zones());
        let out = r.resolve_a(&n("www.example.com"), SimTime(0));
        assert!(out.is_resolvable());
        assert_eq!(out.addresses, vec![Ipv4Addr::new(1, 2, 3, 4)]);
        assert!(out.cname_chain.is_empty());
    }

    #[test]
    fn resolves_through_cname() {
        let r = Resolver::new(zones());
        let out = r.resolve_a(&n("shop.example.com"), SimTime(0));
        assert!(out.is_resolvable());
        assert_eq!(out.cname_chain, vec![n("shop-prod.azurewebsites.net")]);
        assert_eq!(out.addresses, vec![Ipv4Addr::new(20, 40, 60, 80)]);
        assert_eq!(out.final_cname(), Some(&n("shop-prod.azurewebsites.net")));
    }

    #[test]
    fn dangling_cname_detected() {
        let mut zs = zones();
        zs.get_mut(&n("azurewebsites.net"))
            .unwrap()
            .remove_name(&n("shop-prod.azurewebsites.net"));
        let r = Resolver::new(zs);
        let out = r.resolve_a(&n("shop.example.com"), SimTime(0));
        assert!(!out.is_resolvable());
        assert!(out.is_dangling_cname());
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert_eq!(out.cname_chain, vec![n("shop-prod.azurewebsites.net")]);
    }

    #[test]
    fn nxdomain_plain() {
        let r = Resolver::new(zones());
        let out = r.resolve_a(&n("nope.example.com"), SimTime(0));
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(!out.is_dangling_cname()); // no CNAME involved
    }

    /// Answers from zones the test can edit between resolutions.
    struct EditableTransport(Mutex<ZoneSet>);

    impl Transport for EditableTransport {
        fn lookup(&self, name: &Name, qtype: RecordType) -> (Rcode, Vec<ResourceRecord>) {
            self.0.lock().lookup(name, qtype)
        }
    }

    #[test]
    fn every_resolution_asks_the_transport() {
        // A negative answer is not remembered: once the record exists, the
        // same resolver resolves the name at the same instant.
        let r = Resolver::new(EditableTransport(Mutex::new(zones())));
        let name = n("new.example.com");
        assert_eq!(r.resolve_a(&name, SimTime(0)).rcode, Rcode::NxDomain);
        r.transport
            .0
            .lock()
            .get_mut(&n("example.com"))
            .unwrap()
            .add(ResourceRecord::new(
                name.clone(),
                300,
                RecordData::A(Ipv4Addr::new(5, 6, 7, 8)),
            ));
        let out = r.resolve_a(&name, SimTime(0));
        assert!(out.is_resolvable());
        assert_eq!(out.addresses, vec![Ipv4Addr::new(5, 6, 7, 8)]);
    }

    #[test]
    fn cross_authority_loop_detected() {
        let mut zs = ZoneSet::new();
        let mut a = Zone::new(n("a.test"));
        a.add(ResourceRecord::new(
            n("x.a.test"),
            60,
            RecordData::Cname(n("y.b.test")),
        ));
        zs.insert(a);
        let mut b = Zone::new(n("b.test"));
        b.add(ResourceRecord::new(
            n("y.b.test"),
            60,
            RecordData::Cname(n("x.a.test")),
        ));
        zs.insert(b);
        let r = Resolver::new(zs);
        let out = r.resolve_a(&n("x.a.test"), SimTime(0));
        assert_eq!(out.rcode, Rcode::ServFail);
    }

    #[test]
    fn caa_climbing() {
        let r = Resolver::new(zones());
        // No CAA at the subdomain; must climb to example.com.
        let caa = r.find_caa(&n("shop.example.com"));
        assert_eq!(caa.len(), 1);
        assert_eq!(caa[0].value, "digicert.com");
        // Unrelated domain: none.
        assert!(r.find_caa(&n("x.other.net")).is_empty());
    }

    #[test]
    fn refused_propagates() {
        let r = Resolver::new(zones());
        let out = r.resolve_a(&n("www.unknown-zone.net"), SimTime(0));
        assert_eq!(out.rcode, Rcode::Refused);
        assert!(!out.is_resolvable());
    }

    /// Resolve with a scripted hook, as the crawl does. `sent` counts the
    /// sends across calls; a send whose ordinal is in `drops` is lost.
    fn resolve_dropping<T: Transport>(
        r: &Resolver<T>,
        name: &str,
        drops: &[u64],
        sent: &mut u64,
    ) -> ResolutionOutcome {
        r.resolve_with(&n(name), |_| {
            *sent += 1;
            drops.contains(sent)
        })
    }

    #[test]
    fn drops_within_budget_retry_to_success() {
        // 2 drops, 3 attempts: the third attempt lands.
        let r = Resolver::new(zones());
        let mut sent = 0;
        let out = resolve_dropping(&r, "www.example.com", &[1, 2], &mut sent);
        assert!(out.is_resolvable());
        assert_eq!(sent, 3);
    }

    #[test]
    fn drops_exhausting_budget_yield_servfail() {
        // 3 drops, 3 attempts: budget exhausted -> SERVFAIL.
        let r = Resolver::new(zones());
        let mut sent = 0;
        let out = resolve_dropping(&r, "www.example.com", &[1, 2, 3], &mut sent);
        assert_eq!(out.rcode, Rcode::ServFail);
        assert!(!out.is_resolvable());
        assert_eq!(sent, 3);
        // The next resolution goes back to the (now healed) wire.
        let out = resolve_dropping(&r, "www.example.com", &[1, 2, 3], &mut sent);
        assert!(out.is_resolvable());
        assert_eq!(sent, 4);
    }

    /// Two separate zone sets: the chain must cross them query by query.
    struct SplitTransport {
        org: ZoneSet,
        cloud: ZoneSet,
    }

    impl SplitTransport {
        fn new() -> Self {
            let mut org_zs = ZoneSet::new();
            let mut ex = Zone::new(n("example.com"));
            ex.add(ResourceRecord::new(
                n("shop.example.com"),
                300,
                RecordData::Cname(n("shop-prod.azurewebsites.net")),
            ));
            org_zs.insert(ex);
            let mut cloud_zs = ZoneSet::new();
            let mut az = Zone::new(n("azurewebsites.net"));
            az.add(ResourceRecord::new(
                n("shop-prod.azurewebsites.net"),
                60,
                RecordData::A(Ipv4Addr::new(20, 40, 60, 80)),
            ));
            cloud_zs.insert(az);
            SplitTransport {
                org: org_zs,
                cloud: cloud_zs,
            }
        }
    }

    impl Transport for SplitTransport {
        fn lookup(&self, name: &Name, qtype: RecordType) -> (Rcode, Vec<ResourceRecord>) {
            if name.ends_with(&n("azurewebsites.net")) {
                self.cloud.lookup(name, qtype)
            } else {
                self.org.lookup(name, qtype)
            }
        }
    }

    #[test]
    fn drop_budget_resets_on_each_cname_hop() {
        // Two drops on each hop: each hop's third attempt lands.
        let r = Resolver::new(SplitTransport::new());
        let mut sent = 0;
        let out = resolve_dropping(&r, "shop.example.com", &[1, 2, 4, 5], &mut sent);
        assert!(out.is_resolvable());
        assert_eq!(out.cname_chain, vec![n("shop-prod.azurewebsites.net")]);
        assert_eq!(sent, 6);
        // Hop 1 lands first time; hop 2 loses all three attempts.
        let mut sent = 0;
        let out = resolve_dropping(&r, "shop.example.com", &[2, 3, 4], &mut sent);
        assert_eq!(out.rcode, Rcode::ServFail);
        assert_eq!(out.cname_chain, vec![n("shop-prod.azurewebsites.net")]);
        assert_eq!(sent, 4);
    }

    #[test]
    fn hook_accumulates_elapsed_time() {
        // Charge a modeled cost per send: a drop burns the full timeout
        // budget, answers their RTT. The hook sees each attempt's qname.
        let r = Resolver::new(SplitTransport::new());
        let mut sends = [
            (true, 5_000_000_000u64),
            (false, 20_000_000),
            (false, 25_000_000),
        ]
        .into_iter();
        let mut asked = Vec::new();
        let mut elapsed_ns = 0;
        let out = r.resolve_with(&n("shop.example.com"), |qname| {
            let (dropped, cost_ns) = sends.next().expect("≤3 sends");
            asked.push(qname.clone());
            elapsed_ns += cost_ns;
            dropped
        });
        assert!(out.is_resolvable());
        // Dropped hop-1 attempt + answered hop-1 retry + answered hop 2.
        assert_eq!(
            asked,
            [
                n("shop.example.com"),
                n("shop.example.com"),
                n("shop-prod.azurewebsites.net")
            ]
        );
        assert_eq!(elapsed_ns, 5_000_000_000 + 20_000_000 + 25_000_000);
    }
}
