//! Stolen-cookie telemetry (§5.5).
//!
//! The paper cannot observe server-side exfiltration; instead it joins a
//! darknet leak feed against the hijack windows, finding 83 unique
//! authentication cookies tied to 3 hijacked subdomains and 53 source IPs.
//! [`CookieVault`] models the attacker side: hijacks with full-webserver
//! capability (Table 4) capture all cookies; content-only hijacks capture
//! only non-HttpOnly cookies; `Secure` cookies additionally require the
//! hijack to serve HTTPS.

use cloudsim::CapabilityClass;
use dns::Name;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::net::Ipv4Addr;

/// Can a specific cookie be stolen by a hijack of the given class, given
/// whether the hijack serves valid HTTPS for the domain?
///
/// - `HttpOnly` cookies require header access, which only a full webserver
///   gives (Table 4); a content-only hijack's script cannot see them.
/// - `Secure` cookies are only ever sent over HTTPS, so stealing them
///   requires a valid certificate (§5.6's motivation).
pub fn can_steal_cookie(
    class: CapabilityClass,
    hijack_serves_https: bool,
    cookie_http_only: bool,
    cookie_secure: bool,
) -> bool {
    if cookie_http_only && class != CapabilityClass::FullWebserver {
        return false;
    }
    if cookie_secure && !hijack_serves_https {
        return false;
    }
    true
}

/// One leaked authentication cookie observed in the feed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CookieLeak {
    /// Unique cookie identity (name+value hash stand-in).
    pub cookie_id: u64,
    /// The hijacked subdomain the client visited.
    pub subdomain: Name,
    /// Client source IP.
    pub source_ip: Ipv4Addr,
    pub leaked_at: SimTime,
    /// Was the stolen cookie HttpOnly (requires webserver capability)?
    pub was_http_only: bool,
    /// Was it Secure (requires HTTPS on the hijack)?
    pub was_secure: bool,
}

/// Accumulates leaks across the simulation.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct CookieVault {
    leaks: Vec<CookieLeak>,
    next_id: u64,
}

impl CookieVault {
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate client traffic hitting a hijacked subdomain during one
    /// monitoring interval. `visitors` is the expected visitor count;
    /// capability and HTTPS gate which cookies can be captured.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_visits<R: Rng + ?Sized>(
        &mut self,
        subdomain: &Name,
        capability: CapabilityClass,
        serves_https: bool,
        visitors: f64,
        auth_cookie_rate: f64,
        now: SimTime,
        rng: &mut R,
    ) -> usize {
        let n = simcore::Poisson::new(visitors * auth_cookie_rate).sample(rng);
        let mut captured = 0;
        for _ in 0..n {
            // Cookie attribute mix: most auth cookies are HttpOnly+Secure.
            let http_only = rng.gen_bool(0.8);
            let secure = rng.gen_bool(0.7);
            if !can_steal_cookie(capability, serves_https, http_only, secure) {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.leaks.push(CookieLeak {
                cookie_id: id,
                subdomain: subdomain.clone(),
                source_ip: Ipv4Addr::from(rng.gen::<u32>() | 0x0100_0000),
                leaked_at: now,
                was_http_only: http_only,
                was_secure: secure,
            });
            captured += 1;
        }
        captured
    }

    pub fn leaks(&self) -> &[CookieLeak] {
        &self.leaks
    }

    /// §5.5's summary triple: (unique cookies, unique subdomains, unique IPs).
    pub fn summary(&self) -> (usize, usize, usize) {
        let cookies = self.leaks.len();
        let mut subs: Vec<&Name> = self.leaks.iter().map(|l| &l.subdomain).collect();
        subs.sort();
        subs.dedup();
        let mut ips: Vec<Ipv4Addr> = self.leaks.iter().map(|l| l.source_ip).collect();
        ips.sort();
        ips.dedup();
        (cookies, subs.len(), ips.len())
    }

    /// Leaks within a hijack window (the join the paper performs).
    pub fn leaks_in_window(&self, subdomain: &Name, from: SimTime, to: SimTime) -> usize {
        self.leaks
            .iter()
            .filter(|l| &l.subdomain == subdomain && l.leaked_at >= from && l.leaked_at <= to)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn cookie_theft_matrix() {
        use CapabilityClass::*;
        // HttpOnly + Secure: needs full webserver AND https.
        assert!(can_steal_cookie(FullWebserver, true, true, true));
        assert!(!can_steal_cookie(FullWebserver, false, true, true));
        assert!(!can_steal_cookie(StaticContent, true, true, true));
        // Plain cookie: anyone.
        assert!(can_steal_cookie(StaticContent, false, false, false));
        // Secure only: needs https, not headers.
        assert!(!can_steal_cookie(StaticContent, false, false, true));
        assert!(can_steal_cookie(StaticContent, true, false, true));
    }

    #[test]
    fn full_webserver_with_https_captures_most() {
        let mut v = CookieVault::new();
        let mut rng = StdRng::seed_from_u64(1);
        let captured = v.simulate_visits(
            &n("h.example.com"),
            CapabilityClass::FullWebserver,
            true,
            5000.0,
            0.01,
            SimTime(10),
            &mut rng,
        );
        assert!(captured > 20, "captured = {captured}");
        let (c, s, i) = v.summary();
        assert_eq!(c, captured);
        assert_eq!(s, 1);
        assert!(i <= c);
    }

    #[test]
    fn static_content_without_https_captures_little() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut full = CookieVault::new();
        full.simulate_visits(
            &n("a.x.com"),
            CapabilityClass::FullWebserver,
            true,
            5000.0,
            0.01,
            SimTime(0),
            &mut rng,
        );
        let mut weak = CookieVault::new();
        weak.simulate_visits(
            &n("a.x.com"),
            CapabilityClass::StaticContent,
            false,
            5000.0,
            0.01,
            SimTime(0),
            &mut rng,
        );
        // Only non-HttpOnly AND non-Secure cookies leak: ~6% of the mix.
        assert!(weak.leaks().len() * 4 < full.leaks().len());
        for l in weak.leaks() {
            assert!(!l.was_http_only);
            assert!(!l.was_secure);
        }
    }

    #[test]
    fn window_join() {
        let mut v = CookieVault::new();
        let mut rng = StdRng::seed_from_u64(3);
        v.simulate_visits(
            &n("h.x.com"),
            CapabilityClass::FullWebserver,
            true,
            3000.0,
            0.02,
            SimTime(50),
            &mut rng,
        );
        assert!(v.leaks_in_window(&n("h.x.com"), SimTime(40), SimTime(60)) > 0);
        assert_eq!(
            v.leaks_in_window(&n("h.x.com"), SimTime(100), SimTime(200)),
            0
        );
        assert_eq!(
            v.leaks_in_window(&n("other.x.com"), SimTime(40), SimTime(60)),
            0
        );
    }
}
