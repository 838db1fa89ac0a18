//! VirusTotal blacklisting model (§5.4, Figure 19).
//!
//! The paper finds AV blacklisting nearly absent: of 17,698 hijacked FQDNs
//! only 135 were flagged by ≥1 vendor and 18 by ≥2, with widespread listing
//! taking upwards of two years from first certificate issuance. The model
//! assigns each hijacked domain a (deterministic, seeded) flag outcome with
//! those base rates, gated on exposure time.

use dns::Name;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simcore::rng::splitmix64;
use simcore::{RngTree, SimTime};

/// Model parameters (paper base rates).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VirusTotalModel {
    /// P(flagged by ≥1 vendor) once exposure exceeds the lag. 135/17698.
    pub p_flag_one: f64,
    /// P(flagged by ≥2 vendors | flagged). 18/135.
    pub p_flag_multi: f64,
    /// Median days from first observation to listing.
    pub median_lag_days: f64,
    seed: u64,
}

impl VirusTotalModel {
    pub fn new(rng_tree: &RngTree) -> Self {
        VirusTotalModel {
            p_flag_one: 135.0 / 17_698.0,
            p_flag_multi: 18.0 / 135.0,
            median_lag_days: 700.0,
            seed: rng_tree.child("virustotal").seed(),
        }
    }

    /// Number of vendors flagging `domain` when queried at `query_time`,
    /// given the domain became abusive at `abuse_start`. Deterministic per
    /// domain and seed.
    pub fn vendor_flags(&self, domain: &Name, abuse_start: SimTime, query_time: SimTime) -> u32 {
        if query_time <= abuse_start {
            return 0;
        }
        let h = splitmix64(self.seed ^ hash_name(domain));
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(h);
        if !rng.gen_bool(self.p_flag_one) {
            return 0;
        }
        // Listing lag: log-normal around the median.
        let lag = simcore::LogNormal::from_median_spread(self.median_lag_days, 1.6)
            .sample(&mut rng)
            .max(60.0) as i32;
        if query_time - abuse_start < lag {
            return 0;
        }
        if rng.gen_bool(self.p_flag_multi) {
            2 + (h % 3) as u32 // 2..=4 vendors
        } else {
            1
        }
    }
}

fn hash_name(n: &Name) -> u64 {
    simcore::fnv1a(n.to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> VirusTotalModel {
        VirusTotalModel::new(&RngTree::new(11))
    }

    #[test]
    fn mostly_unflagged() {
        let m = model();
        let start = SimTime(0);
        let late = SimTime(2000);
        let mut flagged = 0;
        let n = 20_000;
        for i in 0..n {
            let d: Name = format!("h{i}.example.com").parse().unwrap();
            if m.vendor_flags(&d, start, late) > 0 {
                flagged += 1;
            }
        }
        let rate = flagged as f64 / n as f64;
        // Base rate 0.76%; allow sampling slack.
        assert!(rate > 0.004 && rate < 0.012, "rate = {rate}");
    }

    #[test]
    fn flags_require_lag() {
        let m = model();
        let start = SimTime(0);
        // Find a domain that is eventually flagged.
        let flagged_domain = (0..50_000)
            .map(|i| format!("h{i}.example.com").parse::<Name>().unwrap())
            .find(|d| m.vendor_flags(d, start, SimTime(3000)) > 0)
            .expect("some domain flags");
        // Immediately after abuse start it is not yet flagged.
        assert_eq!(m.vendor_flags(&flagged_domain, start, SimTime(30)), 0);
        assert_eq!(m.vendor_flags(&flagged_domain, start, start), 0);
    }

    #[test]
    fn deterministic() {
        let m = model();
        let d: Name = "h7.example.com".parse().unwrap();
        assert_eq!(
            m.vendor_flags(&d, SimTime(0), SimTime(2500)),
            m.vendor_flags(&d, SimTime(0), SimTime(2500))
        );
    }

    #[test]
    fn multi_vendor_subset() {
        let m = model();
        let start = SimTime(0);
        let late = SimTime(3000);
        let mut one = 0;
        let mut multi = 0;
        for i in 0..50_000 {
            let d: Name = format!("x{i}.victim.org").parse().unwrap();
            match m.vendor_flags(&d, start, late) {
                0 => {}
                1 => one += 1,
                _ => multi += 1,
            }
        }
        assert!(one > multi, "single-vendor flags should dominate");
        assert!(multi > 0);
    }
}
