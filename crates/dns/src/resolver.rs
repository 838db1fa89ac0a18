//! Stub resolver with CNAME chasing and a TTL cache.
//!
//! [`Resolver::resolve_a`] is the exact primitive Algorithm 1 of the paper
//! consumes: given an FQDN it returns the full CNAME chain *and* the terminal
//! A records (`A_results, CNAME_results ← DNS_A_query(fqdn)`), or the
//! negative outcome (NXDOMAIN / NODATA / SERVFAIL). The resolver queries an
//! [`Authority`] through the [`Transport`] trait so tests can interpose
//! failures, and caches positive and negative answers with day-granularity
//! TTLs driven by simulated time.

use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::record::{RecordData, RecordType, ResourceRecord};
use crate::server::Authority;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Where queries go. The production implementation is [`Authority`]; tests
/// can inject flaky or adversarial transports.
///
/// `Sync` is a supertrait: the shard-parallel crawl executor resolves
/// against one shared world from many threads, so every transport must be
/// safely shareable (all implementations here are plain data or lock their
/// interior state).
pub trait Transport: Sync {
    fn exchange(&self, query: &Message) -> Message;

    /// Lossy-aware exchange: `None` means the query was dropped on the wire
    /// — no response ever arrives and the caller's retry/timeout budget
    /// decides what happens next. The default never drops, so existing
    /// transports are lossless unless they opt in.
    fn try_exchange(&self, query: &Message) -> Option<Message> {
        Some(self.exchange(query))
    }
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

    fn try_exchange(&self, query: &Message) -> Option<Message> {
        (**self).try_exchange(query)
    }
}

/// Outcome of resolving an FQDN's A record, the unit of observation for the
/// collection and monitoring pipelines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolutionOutcome {
    /// Final response code of the chain.
    pub rcode: Rcode,
    /// CNAME chain in order of traversal (may be empty).
    pub cname_chain: Vec<Name>,
    /// Terminal A records (empty on negative outcomes).
    pub addresses: Vec<Ipv4Addr>,
    /// Simulated time the resolution consumed, summed over every query of
    /// the chain (retries and timeout budgets included). Zero under the
    /// blocking wrapper, on cache hits, and under the zero-latency profile
    /// — timing telemetry, never an input to any result.
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

/// Resolver tuning knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolverConfig {
    /// Maximum total CNAME indirections across queries.
    pub max_chain: usize,
    /// Enable the TTL cache.
    pub cache: bool,
    /// Cap on cached entries (FIFO-ish eviction by insertion day).
    pub cache_capacity: usize,
    /// Attempts per query before the resolver gives up with SERVFAIL: one
    /// initial send plus `max_query_attempts - 1` retries after drops. Only
    /// lossy transports/latency profiles ever consume more than the first.
    pub max_query_attempts: u32,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            max_chain: 16,
            cache: true,
            cache_capacity: 100_000,
            max_query_attempts: 3,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    expires: SimTime,
    outcome: ResolutionOutcome,
}

#[derive(Debug)]
enum FlightState {
    /// One query is on the wire awaiting its completion.
    Pending { query: Message },
    /// Terminal: [`Resolver::conclude`] may harvest the outcome.
    Done,
}

/// One A-resolution in flight: the submit/poll form of
/// [`Resolver::resolve_a`]. The machine has at most **one query pending at
/// a time**; each [`Resolver::advance`] consumes that query's completion
/// and either readies the next (CNAME hop, or retry after a drop) or
/// finishes. The event-driven crawl schedules each pending query on its
/// completion queue; the blocking wrapper completes them inline — both
/// traverse exactly the same states.
#[derive(Debug)]
pub struct ResolutionInFlight {
    name: Name,
    now: SimTime,
    state: FlightState,
    /// Pre-resolved outcome from the TTL cache (machine starts done).
    cached: Option<ResolutionOutcome>,
    chain: Vec<Name>,
    seen: Vec<Name>,
    current: Name,
    addresses: Vec<Ipv4Addr>,
    rcode: Rcode,
    min_ttl: u32,
    /// CNAME hops still permitted (the old `0..=max_chain` bound).
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
    fn cached(name: Name, now: SimTime, outcome: ResolutionOutcome) -> Self {
        ResolutionInFlight {
            current: name.clone(),
            name,
            now,
            state: FlightState::Done,
            cached: Some(outcome),
            chain: Vec::new(),
            seen: Vec::new(),
            addresses: Vec::new(),
            rcode: Rcode::NoError,
            min_ttl: 0,
            hops_left: 0,
            attempts_left: 0,
            elapsed_ns: 0,
            trace: None,
        }
    }

    fn fresh(name: Name, now: SimTime, query: Message, config: &ResolverConfig) -> Self {
        ResolutionInFlight {
            current: name.clone(),
            seen: vec![name.clone()],
            name,
            now,
            state: FlightState::Pending { query },
            cached: None,
            chain: Vec::new(),
            addresses: Vec::new(),
            rcode: Rcode::NoError,
            min_ttl: 86_400 * 7, // cap cache residency at a week
            hops_left: config.max_chain,
            attempts_left: config.max_query_attempts.max(1),
            elapsed_ns: 0,
            trace: None,
        }
    }

    /// Attach a causal trace context (the crawl's, re-based to this
    /// machine's start). Each completed query then emits a `dns.query`
    /// child span stamped in virtual time.
    pub fn set_trace(&mut self, ctx: obs::TraceCtx) {
        self.trace = Some((ctx, 0));
    }

    /// The query currently on the wire, if any.
    pub fn pending_query(&self) -> Option<&Message> {
        match &self.state {
            FlightState::Pending { query } => Some(query),
            FlightState::Done => None,
        }
    }

    /// The name the pending query asks about (the current CNAME hop) — what
    /// a latency model prices the exchange against.
    pub fn pending_qname(&self) -> Option<&Name> {
        match &self.state {
            FlightState::Pending { .. } => Some(&self.current),
            FlightState::Done => None,
        }
    }

    pub fn is_done(&self) -> bool {
        matches!(self.state, FlightState::Done)
    }

    /// Simulated time consumed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed_ns
    }
}

/// A caching stub resolver.
pub struct Resolver<T: Transport> {
    transport: T,
    config: ResolverConfig,
    cache: Mutex<HashMap<(Name, RecordType), CacheEntry>>,
}

impl<T: Transport> Resolver<T> {
    pub fn new(transport: T) -> Self {
        Self::with_config(transport, ResolverConfig::default())
    }

    pub fn with_config(transport: T, config: ResolverConfig) -> Self {
        Resolver {
            transport,
            config,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Drop all cached entries (tests / epoch changes).
    pub fn flush_cache(&self) {
        self.cache.lock().clear();
    }

    /// Resolve the A records for `name` at simulated time `now`, chasing
    /// CNAME chains with loop detection.
    ///
    /// Thin blocking wrapper over the submit/poll machine: every query
    /// completes instantly and in submission order, which is exactly the
    /// schedule the event-driven crawl produces under the zero-latency
    /// profile.
    pub fn resolve_a(&self, name: &Name, now: SimTime) -> ResolutionOutcome {
        let mut fl = self.begin(name, now);
        while !fl.is_done() {
            let resp = self.exchange_pending(&fl);
            self.advance(&mut fl, resp, 0);
        }
        self.conclude(fl)
    }

    /// Start resolving `name`: checks the cache and, on a miss, readies the
    /// first query. Drive the returned machine with [`Self::advance`] until
    /// [`ResolutionInFlight::is_done`], then harvest via [`Self::conclude`].
    pub fn begin(&self, name: &Name, now: SimTime) -> ResolutionInFlight {
        if self.config.cache {
            let cache = self.cache.lock();
            if let Some(e) = cache.get(&(name.clone(), RecordType::A)) {
                if e.expires > now {
                    let mut outcome = e.outcome.clone();
                    outcome.sim_elapsed_ns = 0; // a hit costs no network time
                    return ResolutionInFlight::cached(name.clone(), now, outcome);
                }
            }
        }
        let query = Message::query(name.clone(), RecordType::A);
        ResolutionInFlight::fresh(name.clone(), now, query, &self.config)
    }

    /// Send the machine's pending query over the transport. `None` when the
    /// transport dropped it (or nothing is pending).
    pub fn exchange_pending(&self, fl: &ResolutionInFlight) -> Option<Message> {
        let q = fl.pending_query()?;
        self.transport.try_exchange(q)
    }

    /// Feed one completion into the machine: the response to its pending
    /// query (`None` = dropped on the wire) and the simulated time the
    /// attempt consumed. Readies the next query (CNAME hop or retry) or
    /// finishes the chain.
    pub fn advance(&self, fl: &mut ResolutionInFlight, response: Option<Message>, cost_ns: u64) {
        let FlightState::Pending { .. } = fl.state else {
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
                    (
                        "dropped",
                        obs::span::ArgValue::I64(response.is_none() as i64),
                    ),
                ],
            );
            *index += 1;
        }
        fl.elapsed_ns += cost_ns;
        let Some(resp) = response else {
            // Dropped: burn one attempt, retry the same name or give up.
            fl.attempts_left -= 1;
            if fl.attempts_left == 0 {
                fl.rcode = Rcode::ServFail;
                fl.state = FlightState::Done;
            } else {
                let q = Message::query(fl.current.clone(), RecordType::A);
                fl.state = FlightState::Pending { query: q };
            }
            return;
        };
        fl.rcode = resp.header.rcode;
        if fl.rcode == Rcode::Refused || fl.rcode == Rcode::ServFail {
            fl.state = FlightState::Done;
            return;
        }
        let mut progressed = false;
        for rr in &resp.answers {
            fl.min_ttl = fl.min_ttl.min(rr.ttl);
            match &rr.data {
                RecordData::A(ip) => {
                    fl.addresses.push(*ip);
                }
                RecordData::Cname(target) => {
                    if fl.seen.contains(target) {
                        // CNAME loop crossing authorities.
                        fl.rcode = Rcode::ServFail;
                        fl.state = FlightState::Done;
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
            fl.state = FlightState::Done;
            return;
        }
        if fl.hops_left == 0 {
            // Chain budget exhausted (same bound as the old `0..=max_chain`).
            fl.state = FlightState::Done;
            return;
        }
        fl.hops_left -= 1;
        fl.attempts_left = self.config.max_query_attempts.max(1);
        let q = Message::query(fl.current.clone(), RecordType::A);
        fl.state = FlightState::Pending { query: q };
    }

    /// Finish a completed resolution: build the outcome and cache it under
    /// the same TTL rules the blocking path always had.
    pub fn conclude(&self, fl: ResolutionInFlight) -> ResolutionOutcome {
        debug_assert!(fl.is_done(), "concluding a resolution still in flight");
        if let Some(outcome) = fl.cached {
            return outcome; // cache hit: never re-inserted
        }
        let outcome = ResolutionOutcome {
            rcode: fl.rcode,
            cname_chain: fl.chain,
            addresses: fl.addresses,
            sim_elapsed_ns: fl.elapsed_ns,
        };
        if self.config.cache && fl.rcode != Rcode::ServFail && fl.rcode != Rcode::Refused {
            let ttl_days = (fl.min_ttl / 86_400) as i32;
            if ttl_days >= 1 {
                let mut cache = self.cache.lock();
                if cache.len() >= self.config.cache_capacity {
                    cache.clear(); // crude but deterministic
                }
                cache.insert(
                    (fl.name.clone(), RecordType::A),
                    CacheEntry {
                        expires: fl.now + ttl_days,
                        outcome: outcome.clone(),
                    },
                );
            }
        }
        outcome
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

    #[test]
    fn cache_hits_within_ttl() {
        // Dropping none: the transport only counts the queries sent.
        let r = Resolver::new(DroppingTransport::new(authority(), 0));
        let sent = || *r.transport.seen.lock();
        let day0 = SimTime(0);
        r.resolve_a(&n("www.example.com"), day0); // ttl 2 days -> cached
        let sent_before = sent();
        let out = r.resolve_a(&n("www.example.com"), SimTime(1));
        assert!(out.is_resolvable());
        assert_eq!(sent(), sent_before, "should hit cache");
        // After expiry it re-queries.
        r.resolve_a(&n("www.example.com"), SimTime(3));
        assert!(sent() > sent_before);
    }

    #[test]
    fn short_ttl_not_cached() {
        let r = Resolver::new(DroppingTransport::new(authority(), 0));
        r.resolve_a(&n("shop.example.com"), SimTime(0)); // min ttl 60s
        let sent = *r.transport.seen.lock();
        r.resolve_a(&n("shop.example.com"), SimTime(0));
        assert!(*r.transport.seen.lock() > sent);
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

    /// Drops the first N queries it sees, then behaves like its inner
    /// authority — the timeout/retry test double. `seen` counts every query
    /// sent through `try_exchange`.
    struct DroppingTransport {
        inner: Authority,
        drop_first: u64,
        seen: Mutex<u64>,
    }

    impl DroppingTransport {
        fn new(inner: Authority, drop_first: u64) -> Self {
            DroppingTransport {
                inner,
                drop_first,
                seen: Mutex::new(0),
            }
        }
    }

    impl Transport for DroppingTransport {
        fn exchange(&self, query: &Message) -> Message {
            self.inner.exchange(query)
        }

        fn try_exchange(&self, query: &Message) -> Option<Message> {
            let mut seen = self.seen.lock();
            *seen += 1;
            if *seen <= self.drop_first {
                None
            } else {
                Some(self.inner.exchange(query))
            }
        }
    }

    #[test]
    fn drops_within_budget_retry_to_success() {
        // 2 drops, 3 attempts: the third attempt lands.
        let r = Resolver::new(DroppingTransport::new(authority(), 2));
        let out = r.resolve_a(&n("www.example.com"), SimTime(0));
        assert!(out.is_resolvable());
        assert_eq!(*r.transport.seen.lock(), 3);
    }

    #[test]
    fn drops_exhausting_budget_yield_servfail() {
        // 3 drops, 3 attempts: budget exhausted -> SERVFAIL, never cached.
        let r = Resolver::new(DroppingTransport::new(authority(), 3));
        let out = r.resolve_a(&n("www.example.com"), SimTime(0));
        assert_eq!(out.rcode, Rcode::ServFail);
        assert!(!out.is_resolvable());
        // Not cached: the next call goes back to the (now healed) wire.
        let out2 = r.resolve_a(&n("www.example.com"), SimTime(0));
        assert!(out2.is_resolvable());
    }

    /// Two separate authorities (the chain must cross them query by query)
    /// with drops injected at chosen query ordinals.
    struct SplitLossyTransport {
        org: Authority,
        cloud: Authority,
        drop_ordinals: Vec<u64>,
        seen: Mutex<u64>,
    }

    impl SplitLossyTransport {
        fn new(drop_ordinals: Vec<u64>) -> Self {
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
            SplitLossyTransport {
                org: Authority::new(org_zs),
                cloud: Authority::new(cloud_zs),
                drop_ordinals,
                seen: Mutex::new(0),
            }
        }

        fn route(&self, query: &Message) -> Message {
            let qname = &query.questions[0].name;
            if qname.ends_with(&n("azurewebsites.net")) {
                self.cloud.exchange(query)
            } else {
                self.org.exchange(query)
            }
        }
    }

    impl Transport for SplitLossyTransport {
        fn exchange(&self, query: &Message) -> Message {
            self.route(query)
        }

        fn try_exchange(&self, query: &Message) -> Option<Message> {
            let mut seen = self.seen.lock();
            *seen += 1;
            if self.drop_ordinals.contains(&seen) {
                None
            } else {
                Some(self.route(query))
            }
        }
    }

    #[test]
    fn drop_retry_spans_cname_hops() {
        // Drop budget is per query, not per chain: one drop on each hop
        // still resolves with 2 attempts per query.
        let cfg = ResolverConfig {
            max_query_attempts: 2,
            ..ResolverConfig::default()
        };
        // Query 1 (hop 1) and query 3 (hop 2) are dropped; retries land.
        let r = Resolver::with_config(SplitLossyTransport::new(vec![1, 3]), cfg);
        let out = r.resolve_a(&n("shop.example.com"), SimTime(0));
        assert!(out.is_resolvable());
        assert_eq!(out.cname_chain, vec![n("shop-prod.azurewebsites.net")]);
        assert_eq!(*r.transport.seen.lock(), 4);
    }

    #[test]
    fn machine_accumulates_elapsed_time() {
        // Drive the submit/poll machine by hand, charging a modeled cost per
        // completion: a drop burns the full timeout budget, answers their RTT.
        let r = Resolver::new(SplitLossyTransport::new(vec![1]));
        let mut fl = r.begin(&n("shop.example.com"), SimTime(0));
        let mut costs = [5_000_000_000u64, 20_000_000, 25_000_000].into_iter();
        while !fl.is_done() {
            assert!(fl.pending_qname().is_some());
            let resp = r.exchange_pending(&fl);
            r.advance(&mut fl, resp, costs.next().expect("≤3 completions"));
        }
        let out = r.conclude(fl);
        assert!(out.is_resolvable());
        // Dropped hop-1 attempt + answered hop-1 retry + answered hop 2.
        assert_eq!(out.sim_elapsed_ns, 5_000_000_000 + 20_000_000 + 25_000_000);
    }

    #[test]
    fn cache_hit_costs_no_simulated_time() {
        let r = Resolver::new(authority());
        let mut fl = r.begin(&n("www.example.com"), SimTime(0));
        while !fl.is_done() {
            let resp = r.exchange_pending(&fl);
            r.advance(&mut fl, resp, 1_000_000);
        }
        let first = r.conclude(fl);
        assert_eq!(first.sim_elapsed_ns, 1_000_000);
        // Second resolution hits the TTL cache: same answer, zero cost.
        let hit = r.resolve_a(&n("www.example.com"), SimTime(1));
        assert!(hit.is_resolvable());
        assert_eq!(hit.sim_elapsed_ns, 0);
    }

    #[test]
    fn blocking_wrapper_matches_machine() {
        // The blocking API and a hand-driven machine traverse identical
        // states: same outcome, field for field.
        let r1 = Resolver::new(authority());
        let r2 = Resolver::new(authority());
        for name in ["www.example.com", "shop.example.com", "nope.example.com"] {
            let blocking = r1.resolve_a(&n(name), SimTime(0));
            let mut fl = r2.begin(&n(name), SimTime(0));
            while !fl.is_done() {
                let resp = r2.exchange_pending(&fl);
                r2.advance(&mut fl, resp, 0);
            }
            assert_eq!(blocking, r2.conclude(fl), "{name}");
        }
    }
}
