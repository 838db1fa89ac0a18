//! Stub resolver with CNAME chasing.
//!
//! [`Resolver::resolve_a`] is the exact primitive Algorithm 1 of the paper
//! consumes: given an FQDN it returns the full CNAME chain *and* the terminal
//! A records (`A_results, CNAME_results ← DNS_A_query(fqdn)`), or the
//! negative outcome (NXDOMAIN / NODATA / SERVFAIL). The resolver queries an
//! [`Authority`] through the [`Transport`] trait and keeps no state between
//! resolutions: every call observes the live DNS state, as each monitoring
//! round of the paper does.

use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::record::{RecordData, RecordType, ResourceRecord};
use crate::server::Authority;
use simcore::SimTime;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Maximum total CNAME indirections across queries.
const MAX_CHAIN: usize = 16;

/// Attempts per query before the resolver gives up with SERVFAIL: one
/// initial send plus two retries after drops. Only a lossy latency profile
/// ever consumes more than the first.
const MAX_QUERY_ATTEMPTS: u32 = 3;

/// Where queries go. The production implementation is [`Authority`]; the
/// world composes its org and cloud authorities behind one.
///
/// `Sync` is a supertrait: the shard-parallel crawl executor resolves
/// against one shared world from many threads, so every transport must be
/// safely shareable (all implementations here are plain data or lock their
/// interior state).
pub trait Transport: Sync {
    fn exchange(&self, query: &Message) -> Message;
}

impl Transport for Authority {
    fn exchange(&self, query: &Message) -> Message {
        self.answer(query)
    }
}

impl<T: Transport + Send + ?Sized> Transport for Arc<T> {
    fn exchange(&self, query: &Message) -> Message {
        (**self).exchange(query)
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
    /// Simulated time the resolution consumed, summed over every query of
    /// the chain (retries and timeout budgets included). Zero under the
    /// blocking wrapper and under the zero-latency profile — timing
    /// telemetry, never an input to any result.
    pub sim_elapsed_ns: u64,
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

/// One A-resolution in flight: the submit/poll form of
/// [`Resolver::resolve_a`]. The machine has at most **one query pending at
/// a time**; each [`Resolver::step`] completes that query and either readies
/// the next (CNAME hop, or retry after a drop) or finishes. The event-driven
/// crawl schedules each pending query on its completion queue; the blocking
/// wrapper completes them inline — both traverse exactly the same states.
#[derive(Debug)]
pub struct ResolutionInFlight {
    /// The query on the wire awaiting its completion; `None` once done.
    pending: Option<Message>,
    chain: Vec<Name>,
    seen: Vec<Name>,
    current: Name,
    addresses: Vec<Ipv4Addr>,
    rcode: Rcode,
    /// CNAME hops still permitted.
    hops_left: usize,
    /// Attempts left for the *current* query before SERVFAIL.
    attempts_left: u32,
    /// Simulated nanoseconds consumed so far.
    elapsed_ns: u64,
    /// Causal trace context + next child-span index, when this resolution's
    /// trace is sampled. Pure telemetry: never read by resolution logic.
    trace: Option<(obs::TraceCtx, u64)>,
}

impl ResolutionInFlight {
    /// Attach a causal trace context (the crawl's, re-based to this
    /// machine's start). Each completed query then emits a `dns.query`
    /// child span stamped in virtual time.
    pub fn set_trace(&mut self, ctx: obs::TraceCtx) {
        self.trace = Some((ctx, 0));
    }

    /// The name the pending query asks about (the current CNAME hop) — what
    /// a latency model prices the exchange against.
    pub fn pending_qname(&self) -> Option<&Name> {
        self.pending.as_ref().map(|_| &self.current)
    }

    pub fn is_done(&self) -> bool {
        self.pending.is_none()
    }

    /// Simulated time consumed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed_ns
    }

    /// The finished resolution's outcome.
    pub fn into_outcome(self) -> ResolutionOutcome {
        debug_assert!(self.is_done(), "harvesting a resolution still in flight");
        ResolutionOutcome {
            rcode: self.rcode,
            cname_chain: self.chain,
            addresses: self.addresses,
            sim_elapsed_ns: self.elapsed_ns,
        }
    }

    /// Ready the next query for the current name with a fresh retry budget.
    fn ask_current(&mut self) {
        self.attempts_left = MAX_QUERY_ATTEMPTS;
        self.pending = Some(Message::query(self.current.clone(), RecordType::A));
    }
}

/// A stub resolver: a transport plus the per-name state machine.
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

    /// Resolve the A records for `name`, chasing CNAME chains with loop
    /// detection. The time parameter is unused: the answer is whatever the
    /// transport holds when it is asked.
    ///
    /// Thin blocking wrapper over the submit/poll machine: every query
    /// completes instantly and in submission order, which is exactly the
    /// schedule the event-driven crawl produces under the zero-latency
    /// profile.
    pub fn resolve_a(&self, name: &Name, _now: SimTime) -> ResolutionOutcome {
        let mut fl = self.begin(name);
        while !fl.is_done() {
            self.step(&mut fl, false, 0);
        }
        fl.into_outcome()
    }

    /// Start resolving `name`: readies the first query. Drive the returned
    /// machine with [`Self::step`] until [`ResolutionInFlight::is_done`],
    /// then harvest it with [`ResolutionInFlight::into_outcome`].
    pub fn begin(&self, name: &Name) -> ResolutionInFlight {
        let mut fl = ResolutionInFlight {
            pending: None,
            chain: Vec::new(),
            seen: vec![name.clone()],
            current: name.clone(),
            addresses: Vec::new(),
            rcode: Rcode::NoError,
            hops_left: MAX_CHAIN,
            attempts_left: 0,
            elapsed_ns: 0,
            trace: None,
        };
        fl.ask_current();
        fl
    }

    /// Complete the machine's pending query: send it over the transport
    /// unless it was `dropped` on the wire, and charge `cost_ns` of
    /// simulated time for the attempt. Readies the next query (CNAME hop or
    /// retry) or finishes the chain.
    pub fn step(&self, fl: &mut ResolutionInFlight, dropped: bool, cost_ns: u64) {
        let Some(query) = fl.pending.take() else {
            return; // already done; nothing in flight to complete
        };
        if let Some((ctx, index)) = &mut fl.trace {
            let start_ns = ctx.base_ns + fl.elapsed_ns;
            ctx.emit_child(
                *index,
                "dns.query",
                start_ns,
                cost_ns,
                vec![
                    ("qname", obs::span::ArgValue::Str(fl.current.to_string())),
                    ("dropped", obs::span::ArgValue::I64(dropped as i64)),
                ],
            );
            *index += 1;
        }
        fl.elapsed_ns += cost_ns;
        if dropped {
            // Burn one attempt, retry the same name or give up.
            fl.attempts_left -= 1;
            if fl.attempts_left == 0 {
                fl.rcode = Rcode::ServFail;
            } else {
                fl.pending = Some(query);
            }
            return;
        }
        let resp = self.transport.exchange(&query);
        fl.rcode = resp.header.rcode;
        if fl.rcode == Rcode::Refused || fl.rcode == Rcode::ServFail {
            return;
        }
        let mut progressed = false;
        for rr in &resp.answers {
            match &rr.data {
                RecordData::A(ip) => {
                    fl.addresses.push(*ip);
                }
                RecordData::Cname(target) => {
                    if fl.seen.contains(target) {
                        // CNAME loop crossing authorities.
                        fl.rcode = Rcode::ServFail;
                        return;
                    }
                    fl.chain.push(target.clone());
                    fl.seen.push(target.clone());
                    fl.current = target.clone();
                    progressed = true;
                }
                _ => {}
            }
        }
        if !fl.addresses.is_empty() || fl.rcode == Rcode::NxDomain || !progressed {
            return;
        }
        if fl.hops_left == 0 {
            return; // chain budget exhausted
        }
        fl.hops_left -= 1;
        fl.ask_current();
    }

    /// Fetch records of an arbitrary type at a single name (no chain
    /// chasing); used for CAA/TXT lookups by the certificate machinery.
    pub fn query_raw(&self, name: &Name, rtype: RecordType) -> (Rcode, Vec<ResourceRecord>) {
        let q = Message::query(name.clone(), rtype);
        let resp = self.transport.exchange(&q);
        (resp.header.rcode, resp.answers)
    }

    /// RFC 8659 §3 relevant-CAA lookup: climb from `name` toward the root and
    /// return the first non-empty CAA record set found.
    pub fn find_caa(&self, name: &Name) -> Vec<crate::record::CaaRecord> {
        let mut probe = Some(name.clone());
        while let Some(p) = probe {
            let (rcode, answers) = self.query_raw(&p, RecordType::Caa);
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
    use crate::zone::{Zone, ZoneSet};
    use parking_lot::Mutex;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn authority() -> Authority {
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
        Authority::new(zs)
    }

    #[test]
    fn resolves_direct_a() {
        let r = Resolver::new(authority());
        let out = r.resolve_a(&n("www.example.com"), SimTime(0));
        assert!(out.is_resolvable());
        assert_eq!(out.addresses, vec![Ipv4Addr::new(1, 2, 3, 4)]);
        assert!(out.cname_chain.is_empty());
    }

    #[test]
    fn resolves_through_cname() {
        let r = Resolver::new(authority());
        let out = r.resolve_a(&n("shop.example.com"), SimTime(0));
        assert!(out.is_resolvable());
        assert_eq!(out.cname_chain, vec![n("shop-prod.azurewebsites.net")]);
        assert_eq!(out.addresses, vec![Ipv4Addr::new(20, 40, 60, 80)]);
        assert_eq!(out.final_cname(), Some(&n("shop-prod.azurewebsites.net")));
    }

    #[test]
    fn dangling_cname_detected() {
        let mut auth = authority();
        auth.zones_mut()
            .get_mut(&n("azurewebsites.net"))
            .unwrap()
            .remove_name(&n("shop-prod.azurewebsites.net"));
        let r = Resolver::new(auth);
        let out = r.resolve_a(&n("shop.example.com"), SimTime(0));
        assert!(!out.is_resolvable());
        assert!(out.is_dangling_cname());
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert_eq!(out.cname_chain, vec![n("shop-prod.azurewebsites.net")]);
    }

    #[test]
    fn nxdomain_plain() {
        let r = Resolver::new(authority());
        let out = r.resolve_a(&n("nope.example.com"), SimTime(0));
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(!out.is_dangling_cname()); // no CNAME involved
    }

    /// Answers from an authority the test can edit between resolutions.
    struct EditableTransport(Mutex<Authority>);

    impl Transport for EditableTransport {
        fn exchange(&self, query: &Message) -> Message {
            self.0.lock().answer(query)
        }
    }

    #[test]
    fn every_resolution_asks_the_transport() {
        // A negative answer is not remembered: once the record exists, the
        // same resolver resolves the name at the same instant.
        let r = Resolver::new(EditableTransport(Mutex::new(authority())));
        let name = n("new.example.com");
        assert_eq!(r.resolve_a(&name, SimTime(0)).rcode, Rcode::NxDomain);
        r.transport
            .0
            .lock()
            .zones_mut()
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
        let r = Resolver::new(Authority::new(zs));
        let out = r.resolve_a(&n("x.a.test"), SimTime(0));
        assert_eq!(out.rcode, Rcode::ServFail);
    }

    #[test]
    fn caa_climbing() {
        let r = Resolver::new(authority());
        // No CAA at the subdomain; must climb to example.com.
        let caa = r.find_caa(&n("shop.example.com"));
        assert_eq!(caa.len(), 1);
        assert_eq!(caa[0].value, "digicert.com");
        // Unrelated domain: none.
        assert!(r.find_caa(&n("x.other.net")).is_empty());
    }

    #[test]
    fn refused_propagates() {
        let r = Resolver::new(authority());
        let out = r.resolve_a(&n("www.unknown-zone.net"), SimTime(0));
        assert_eq!(out.rcode, Rcode::Refused);
        assert!(!out.is_resolvable());
    }

    /// Drive one resolution by hand, as the crawl does. `sent` counts the
    /// sends across calls; a send whose ordinal is in `drops` is lost.
    fn resolve_dropping<T: Transport>(
        r: &Resolver<T>,
        name: &str,
        drops: &[u64],
        sent: &mut u64,
    ) -> ResolutionOutcome {
        let mut fl = r.begin(&n(name));
        while !fl.is_done() {
            *sent += 1;
            r.step(&mut fl, drops.contains(sent), 0);
        }
        fl.into_outcome()
    }

    #[test]
    fn drops_within_budget_retry_to_success() {
        // 2 drops, 3 attempts: the third attempt lands.
        let r = Resolver::new(authority());
        let mut sent = 0;
        let out = resolve_dropping(&r, "www.example.com", &[1, 2], &mut sent);
        assert!(out.is_resolvable());
        assert_eq!(sent, 3);
    }

    #[test]
    fn drops_exhausting_budget_yield_servfail() {
        // 3 drops, 3 attempts: budget exhausted -> SERVFAIL.
        let r = Resolver::new(authority());
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

    /// Two separate authorities: the chain must cross them query by query.
    struct SplitTransport {
        org: Authority,
        cloud: Authority,
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
                org: Authority::new(org_zs),
                cloud: Authority::new(cloud_zs),
            }
        }
    }

    impl Transport for SplitTransport {
        fn exchange(&self, query: &Message) -> Message {
            let qname = &query.questions[0].name;
            if qname.ends_with(&n("azurewebsites.net")) {
                self.cloud.exchange(query)
            } else {
                self.org.exchange(query)
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
    fn machine_accumulates_elapsed_time() {
        // Drive the submit/poll machine by hand, charging a modeled cost per
        // completion: a drop burns the full timeout budget, answers their RTT.
        let r = Resolver::new(SplitTransport::new());
        let mut fl = r.begin(&n("shop.example.com"));
        let mut sends = [
            (true, 5_000_000_000u64),
            (false, 20_000_000),
            (false, 25_000_000),
        ]
        .into_iter();
        while !fl.is_done() {
            assert!(fl.pending_qname().is_some());
            let (dropped, cost_ns) = sends.next().expect("≤3 completions");
            r.step(&mut fl, dropped, cost_ns);
        }
        let out = fl.into_outcome();
        assert!(out.is_resolvable());
        // Dropped hop-1 attempt + answered hop-1 retry + answered hop 2.
        assert_eq!(out.sim_elapsed_ns, 5_000_000_000 + 20_000_000 + 25_000_000);
    }

    #[test]
    fn blocking_wrapper_matches_machine() {
        // The blocking API and a hand-driven machine traverse identical
        // states: same outcome, field for field.
        let r = Resolver::new(authority());
        for name in ["www.example.com", "shop.example.com", "nope.example.com"] {
            let blocking = r.resolve_a(&n(name), SimTime(0));
            let mut fl = r.begin(&n(name));
            while !fl.is_done() {
                r.step(&mut fl, false, 0);
            }
            assert_eq!(blocking, fl.into_outcome(), "{name}");
        }
    }
}
