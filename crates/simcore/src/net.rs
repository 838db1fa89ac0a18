//! Modeled per-query network latency.
//!
//! The paper's crawl (§3.1, Algorithm 1) is a real network measurement whose
//! throughput is bounded by round-trip latency and concurrency, not CPU.
//! The simulated transports answer instantly, so this module supplies the
//! missing dimension: a [`LatencyModel`] that prices every network wait in
//! nanoseconds from a keyed RNG stream — base RTT + jitter + per-platform
//! multipliers + loss/timeout injection — so latency draws are a pure
//! function of *(fqdn, day, wait ordinal)* and never of which thread made
//! the wait. The crawl sums a crawl's priced waits and admits crawls from a
//! slot scheduler; its virtual makespan is a plain nanosecond count within
//! one round, orthogonal to the day-granular [`crate::SimTime`] world clock.

use crate::rng::RngTree;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The kind of network operation being priced. The three probe techniques
/// and the crawl's request chain all decompose into these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryClass {
    /// One DNS query/response exchange (per CNAME hop, per retry).
    Dns,
    /// Transport-level reachability: TCP handshake, or an ICMP echo.
    Connect,
    /// One HTTP request/response on an established connection.
    Http,
}

/// What the latency model decided for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryFate {
    /// Simulated time the attempt consumes. For a dropped query this is the
    /// full timeout budget the caller waits before retrying.
    pub cost_ns: u64,
    /// The query was lost on the wire: no response arrives; the caller
    /// retries or gives up (SERVFAIL) after its retry budget.
    pub dropped: bool,
}

/// A named latency profile: the tunable surface of the [`LatencyModel`].
///
/// All times are nanoseconds of simulated time. Jitter is uniform in
/// `[0, jitter]` on top of the base, both scaled by the per-platform
/// multiplier of the first matching name suffix (cloud platforms differ in
/// how fast their resolvers/front ends answer — the per-platform dimension
/// rate-limit and slow-platform scenarios tune).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyProfile {
    pub name: String,
    pub dns_base_ns: u64,
    pub dns_jitter_ns: u64,
    pub connect_base_ns: u64,
    pub connect_jitter_ns: u64,
    pub http_base_ns: u64,
    pub http_jitter_ns: u64,
    /// Per-DNS-query drop probability (loss → timeout → retry → SERVFAIL).
    pub dns_loss: f64,
    /// Timeout budget one dropped query consumes before the retry fires.
    pub dns_timeout_ns: u64,
    /// `(name suffix, multiplier)` pairs; the first suffix match scales the
    /// sampled cost. Models per-platform speed differences.
    pub platform_multipliers: Vec<(String, f64)>,
}

const MS: u64 = 1_000_000;

impl LatencyProfile {
    /// The zero-latency profile (the default): every operation completes
    /// instantly and nothing is ever dropped, so every crawl takes no
    /// virtual time and the round's makespan is 0.
    pub fn zero() -> Self {
        LatencyProfile {
            name: "zero".into(),
            dns_base_ns: 0,
            dns_jitter_ns: 0,
            connect_base_ns: 0,
            connect_jitter_ns: 0,
            http_base_ns: 0,
            http_jitter_ns: 0,
            dns_loss: 0.0,
            dns_timeout_ns: 0,
            platform_multipliers: Vec::new(),
        }
    }

    /// Same-facility measurement: sub-millisecond RTTs, no loss.
    pub fn datacenter() -> Self {
        LatencyProfile {
            name: "datacenter".into(),
            dns_base_ns: 400_000,
            dns_jitter_ns: 200_000,
            connect_base_ns: 300_000,
            connect_jitter_ns: 100_000,
            http_base_ns: 1_200_000,
            http_jitter_ns: 600_000,
            dns_loss: 0.0,
            dns_timeout_ns: 500 * MS,
            platform_multipliers: Vec::new(),
        }
    }

    /// Internet-scale measurement, the paper's own vantage: tens of
    /// milliseconds per exchange, platform-dependent front-end speed, no
    /// loss.
    pub fn wan() -> Self {
        LatencyProfile {
            name: "wan".into(),
            dns_base_ns: 18 * MS,
            dns_jitter_ns: 24 * MS,
            connect_base_ns: 30 * MS,
            connect_jitter_ns: 20 * MS,
            http_base_ns: 90 * MS,
            http_jitter_ns: 80 * MS,
            dns_loss: 0.0,
            dns_timeout_ns: 5_000 * MS,
            platform_multipliers: vec![
                ("azurewebsites.net".into(), 1.3),
                ("web.core.windows.net".into(), 1.2),
                ("trafficmanager.net".into(), 1.1),
                ("elasticbeanstalk.com".into(), 1.25),
                ("s3.amazonaws.com".into(), 1.15),
            ],
        }
    }

    /// The wan profile plus a 5% per-query DNS loss rate: queries time out,
    /// retries burn budget, and names whose retry budget runs dry resolve
    /// SERVFAIL. Changes *results* (deterministically — draws are keyed per
    /// (fqdn, day, ordinal)), which is exactly what the lossy
    /// parallel-equivalence leg pins.
    pub fn lossy() -> Self {
        LatencyProfile {
            name: "lossy".into(),
            dns_loss: 0.05,
            ..Self::wan()
        }
    }

    /// Look up a built-in profile by name.
    pub fn by_name(name: &str) -> Option<LatencyModel> {
        match name {
            "zero" => Some(LatencyModel::new(Self::zero())),
            "datacenter" => Some(LatencyModel::new(Self::datacenter())),
            "wan" => Some(LatencyModel::new(Self::wan())),
            "lossy" => Some(LatencyModel::new(Self::lossy())),
            _ => None,
        }
    }

    /// The built-in profile names, for CLI help and validation messages.
    pub const NAMES: &'static [&'static str] = &["zero", "datacenter", "wan", "lossy"];
}

/// Per-query latency oracle: prices network waits from its profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    profile: LatencyProfile,
}

impl Default for LatencyModel {
    /// The **zero** profile: every wait free, on a degenerate clock.
    fn default() -> Self {
        LatencyModel::new(LatencyProfile::zero())
    }
}

impl LatencyModel {
    pub fn new(profile: LatencyProfile) -> Self {
        LatencyModel { profile }
    }

    pub fn profile(&self) -> &LatencyProfile {
        &self.profile
    }

    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// True when every sample is trivially `{0, not dropped}` — the zero
    /// profile. Callers can skip RNG stream-key construction entirely on
    /// this path.
    pub fn is_free(&self) -> bool {
        let p = &self.profile;
        p.dns_base_ns == 0
            && p.dns_jitter_ns == 0
            && p.connect_base_ns == 0
            && p.connect_jitter_ns == 0
            && p.http_base_ns == 0
            && p.http_jitter_ns == 0
            && p.dns_loss == 0.0
    }

    /// Price one attempt. `stream_key` must identify the *logical* attempt —
    /// the pipeline uses `net/{fqdn}/{day}/{ordinal}` where `ordinal` counts
    /// the crawl's network waits (retries included) — so the draw is a
    /// pure function of content, invariant under any thread schedule.
    /// `target` is the name the operation is addressed to (the DNS qname of
    /// the current CNAME hop, or the HTTP host), matched against the
    /// profile's platform multiplier suffixes.
    pub fn sample(
        &self,
        tree: &RngTree,
        stream_key: &str,
        target: &str,
        class: QueryClass,
    ) -> QueryFate {
        let p = &self.profile;
        let (base, jitter) = match class {
            QueryClass::Dns => (p.dns_base_ns, p.dns_jitter_ns),
            QueryClass::Connect => (p.connect_base_ns, p.connect_jitter_ns),
            QueryClass::Http => (p.http_base_ns, p.http_jitter_ns),
        };
        // Fast path for the zero profile: no RNG derivation at all.
        if base == 0 && jitter == 0 && p.dns_loss == 0.0 {
            return QueryFate {
                cost_ns: 0,
                dropped: false,
            };
        }
        let mut rng = tree.rng(stream_key);
        if class == QueryClass::Dns && p.dns_loss > 0.0 && rng.gen_bool(p.dns_loss) {
            return QueryFate {
                cost_ns: p.dns_timeout_ns,
                dropped: true,
            };
        }
        let raw = base
            + if jitter > 0 {
                rng.gen_range(0..=jitter)
            } else {
                0
            };
        let mult = p
            .platform_multipliers
            .iter()
            .find(|(suffix, _)| target.ends_with(suffix.as_str()))
            .map(|&(_, m)| m)
            .unwrap_or(1.0);
        QueryFate {
            cost_ns: (raw as f64 * mult) as u64,
            dropped: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_profile_costs_nothing() {
        let m = LatencyModel::default();
        let tree = RngTree::new(1);
        let f = m.sample(&tree, "net/a.b.c/7/0", "a.b.c", QueryClass::Dns);
        assert_eq!(
            f,
            QueryFate {
                cost_ns: 0,
                dropped: false
            }
        );
        assert_eq!(m.name(), "zero");
        assert!(m.is_free());
    }

    #[test]
    fn sampling_is_keyed_not_sequential() {
        let m = LatencyProfile::by_name("wan").unwrap();
        let tree = RngTree::new(9);
        let a = m.sample(&tree, "net/x/7/0", "x", QueryClass::Dns);
        let b = m.sample(&tree, "net/x/7/0", "x", QueryClass::Dns);
        assert_eq!(a, b, "same key, same draw — regardless of call order");
        let c = m.sample(&tree, "net/x/7/1", "x", QueryClass::Dns);
        // Overwhelmingly likely distinct with 24ms of jitter.
        assert_ne!(
            a.cost_ns, c.cost_ns,
            "different ordinals draw independently"
        );
    }

    #[test]
    fn platform_multiplier_scales_matching_suffix() {
        let mut p = LatencyProfile::wan();
        p.dns_jitter_ns = 0; // make the draw deterministic in value
        let m = LatencyModel::new(p);
        let tree = RngTree::new(9);
        let plain = m.sample(&tree, "k", "shop.example.com", QueryClass::Dns);
        let azure = m.sample(&tree, "k", "shop-prod.azurewebsites.net", QueryClass::Dns);
        assert_eq!(plain.cost_ns, 18 * MS);
        assert_eq!(azure.cost_ns, (18.0 * MS as f64 * 1.3) as u64);
    }

    #[test]
    fn lossy_profile_drops_deterministically() {
        let m = LatencyProfile::by_name("lossy").unwrap();
        let tree = RngTree::new(4);
        // Whatever the outcome, it is a pure function of the key.
        let mut dropped = 0;
        for i in 0..1000 {
            let key = format!("net/h{i}.apex.com/7/0");
            let a = m.sample(&tree, &key, "x", QueryClass::Dns);
            let b = m.sample(&tree, &key, "x", QueryClass::Dns);
            assert_eq!(a, b);
            if a.dropped {
                assert_eq!(a.cost_ns, 5_000 * MS, "drop costs the timeout budget");
                dropped += 1;
            }
        }
        // ~5% of 1000; generous band.
        assert!((20..=110).contains(&dropped), "dropped {dropped}/1000");
    }

    #[test]
    fn unknown_profile_rejected() {
        assert!(LatencyProfile::by_name("warp").is_none());
        for name in LatencyProfile::NAMES {
            assert!(LatencyProfile::by_name(name).is_some(), "{name}");
        }
    }
}
