//! Study results and figure/table computations.
//!
//! [`StudyResults`] is everything one longitudinal run produces; the methods
//! on it compute the exact series/rows each figure and table of the paper
//! reports. The `repro` harness in `crates/bench` renders them.

use crate::benign::ChangeCluster;
use crate::classify::Topic;
use crate::diff::ChangeRecord;
use crate::lifespan::AbuseInterval;
use crate::signature::{Signature, SignatureKind};
use crate::world::World;
use analysis::{Histogram, TopK};
use cloudsim::ServiceId;
use contentgen::abuse::SeoTechnique;
use dns::Name;
use serde::{Deserialize, Serialize};
use simcore::{Scale, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use worldgen::OrgId;

/// One detected abused FQDN (the pipeline's output; Table/Figure unit).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AbuseRecord {
    pub fqdn: Name,
    pub sld: Name,
    pub org: Option<OrgId>,
    pub first_seen: SimTime,
    pub corrected_at: Option<SimTime>,
    /// Kinds of the signatures that matched (Figure 2).
    pub signature_kinds: Vec<SignatureKind>,
    pub topic: Topic,
    pub techniques: Vec<SeoTechnique>,
    pub language: Option<String>,
    pub cname_target: Option<Name>,
    pub service: Option<ServiceId>,
    pub sitemap_bytes: Option<u64>,
    /// Estimated uploaded HTML files (sitemap entries).
    pub page_count_est: u64,
    pub identifiers: Vec<String>,
    pub meta_keywords: Vec<String>,
    pub keywords: Vec<String>,
    pub generator: Option<String>,
    pub html: Option<String>,
}

/// Pipeline-vs-ground-truth evaluation (possible only in simulation).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectionEval {
    pub true_positives: usize,
    pub false_positives: usize,
    pub false_negatives: usize,
}

impl DetectionEval {
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

/// One §2-style liveness measurement of a hijacked FQDN (taken one week
/// after the hijack, while the abuse is live).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LivenessSample {
    pub icmp: bool,
    pub tcp80: bool,
    pub tcp443: bool,
    pub http: bool,
}

/// Per-round DNS resolution-latency percentiles under the modeled network
/// clock. Pure timing telemetry: it is deliberately **not** part of the
/// serialized [`StudyResults`] — the determinism contract pins study results
/// across latency profiles (zero/datacenter/wan), and these numbers differ
/// by profile by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundLatency {
    pub day: SimTime,
    /// Crawls sampled this round.
    pub samples: usize,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
}

impl RoundLatency {
    /// Nearest-rank percentiles over one round's per-crawl DNS resolution
    /// times. Sorts in place; returns `None` for an empty round.
    pub fn from_samples(day: SimTime, samples: &mut [u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let pick = |p: f64| {
            let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1]
        };
        Some(RoundLatency {
            day,
            samples: samples.len(),
            p50_ns: pick(0.50),
            p95_ns: pick(0.95),
            p99_ns: pick(0.99),
            p999_ns: pick(0.999),
        })
    }
}

/// Everything one scenario run produces.
pub struct StudyResults {
    pub scale: Scale,
    pub horizon: SimTime,
    /// Monthly count of monitored FQDNs (Figure 1, left axis).
    pub monitored_monthly: Vec<(i32, f64)>,
    pub feed_size: usize,
    pub monitored_total: usize,
    /// Monitored FQDNs per service (Table 2 denominators).
    pub monitored_by_service: BTreeMap<ServiceId, u64>,
    pub abuse: Vec<AbuseRecord>,
    pub signatures: Vec<Signature>,
    pub signatures_discarded: usize,
    pub change_clusters: Vec<ChangeCluster>,
    pub changes_total: usize,
    pub world: World,
    pub detection: DetectionEval,
    /// IP-lottery opportunities evaluated and declined by attackers (§4.3).
    pub ip_lottery_declines: u64,
    /// Attacker cert attempts blocked by CAA (paid-only parents).
    pub caa_blocked_certs: u64,
    pub changes: Vec<ChangeRecord>,
    /// §2 probe comparison samples over live hijacks.
    pub liveness: Vec<LivenessSample>,
    /// Per-round DNS resolution-latency percentiles (timing telemetry;
    /// excluded from serialization — see [`RoundLatency`]).
    pub resolution_latency: Vec<RoundLatency>,
}

/// Serialized form of a full run, used by the parallel-equivalence tests to
/// byte-compare results across crawl thread counts. The `world` field is
/// projected to its ground truth (the rest of [`World`] is live simulation
/// machinery, not an observable result).
impl Serialize for StudyResults {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("scale".into(), serde::to_value(&self.scale)),
            ("horizon".into(), serde::to_value(&self.horizon)),
            (
                "monitored_monthly".into(),
                serde::to_value(&self.monitored_monthly),
            ),
            ("feed_size".into(), serde::to_value(&self.feed_size)),
            (
                "monitored_total".into(),
                serde::to_value(&self.monitored_total),
            ),
            (
                "monitored_by_service".into(),
                serde::to_value(&self.monitored_by_service),
            ),
            ("abuse".into(), serde::to_value(&self.abuse)),
            ("signatures".into(), serde::to_value(&self.signatures)),
            (
                "signatures_discarded".into(),
                serde::to_value(&self.signatures_discarded),
            ),
            (
                "change_clusters".into(),
                serde::to_value(&self.change_clusters),
            ),
            ("changes_total".into(), serde::to_value(&self.changes_total)),
            ("truth".into(), serde::to_value(&self.world.truth)),
            ("detection".into(), serde::to_value(&self.detection)),
            (
                "ip_lottery_declines".into(),
                serde::to_value(&self.ip_lottery_declines),
            ),
            (
                "caa_blocked_certs".into(),
                serde::to_value(&self.caa_blocked_certs),
            ),
            ("changes".into(), serde::to_value(&self.changes)),
            ("liveness".into(), serde::to_value(&self.liveness)),
        ])
    }
}

impl StudyResults {
    /// §2's headline: fraction of hijacked domains each probe type deems
    /// responsive (paper: ICMP 72%, TCP 93%, HTTP 89%).
    pub fn liveness_rates(&self) -> Option<(f64, f64, f64)> {
        if self.liveness.is_empty() {
            return None;
        }
        let n = self.liveness.len() as f64;
        let icmp = self.liveness.iter().filter(|s| s.icmp).count() as f64 / n;
        let tcp = self.liveness.iter().filter(|s| s.tcp80 || s.tcp443).count() as f64 / n;
        let http = self.liveness.iter().filter(|s| s.http).count() as f64 / n;
        Some((icmp, tcp, http))
    }

    /// Whole-run DNS resolution-latency percentiles: the worst (max) of each
    /// per-round percentile, plus the total sample count. `None` when no
    /// round recorded latency telemetry.
    pub fn resolution_latency_summary(&self) -> Option<RoundLatency> {
        let last_day = self.resolution_latency.last()?.day;
        let mut acc = RoundLatency {
            day: last_day,
            samples: 0,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            p999_ns: 0,
        };
        for r in &self.resolution_latency {
            acc.samples += r.samples;
            acc.p50_ns = acc.p50_ns.max(r.p50_ns);
            acc.p95_ns = acc.p95_ns.max(r.p95_ns);
            acc.p99_ns = acc.p99_ns.max(r.p99_ns);
            acc.p999_ns = acc.p999_ns.max(r.p999_ns);
        }
        Some(acc)
    }
}

/// A month-indexed series of points, as plotted on the paper's time axes.
pub type MonthlyCurve = Vec<(i32, f64)>;

impl StudyResults {
    // ------------------------------------------------------------------
    // Figure 1: monitored vs cumulative hijacked over time.
    // ------------------------------------------------------------------
    pub fn fig1_series(&self) -> (MonthlyCurve, MonthlyCurve) {
        let mut detections = analysis::MonthlySeries::new();
        for a in &self.abuse {
            detections.increment(a.first_seen.month_index());
        }
        (self.monitored_monthly.clone(), detections.cumulative())
    }

    // ------------------------------------------------------------------
    // Figure 2: % of detected hijacks per signature kind.
    // ------------------------------------------------------------------
    pub fn fig2_signature_kinds(&self) -> Vec<(SignatureKind, f64)> {
        let mut counts: BTreeMap<SignatureKind, usize> = BTreeMap::new();
        for a in &self.abuse {
            // Attribute to the *least demanding* matching kind, mirroring
            // the paper's "identified with just keywords" framing.
            let k = a
                .signature_kinds
                .iter()
                .min()
                .copied()
                .unwrap_or(SignatureKind::KeywordsOnly);
            *counts.entry(k).or_insert(0) += 1;
        }
        let total = self.abuse.len().max(1) as f64;
        counts
            .into_iter()
            .map(|(k, c)| (k, c as f64 / total))
            .collect()
    }

    // ------------------------------------------------------------------
    // Figure 3: topic distribution.
    // ------------------------------------------------------------------
    pub fn fig3_topics(&self) -> Vec<(String, f64)> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for a in &self.abuse {
            *counts.entry(a.topic.as_str()).or_insert(0) += 1;
        }
        let total = self.abuse.len().max(1) as f64;
        let mut v: Vec<(String, f64)> = counts
            .into_iter()
            .map(|(t, c)| (t.to_string(), c as f64 / total))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v
    }

    // ------------------------------------------------------------------
    // Figure 4: Tranco rank vs hijacked-subdomain count per SLD.
    // ------------------------------------------------------------------
    pub fn fig4_rank_vs_count(&self) -> Vec<(u32, u32)> {
        let mut per_sld: HashMap<Name, u32> = HashMap::new();
        for a in &self.abuse {
            *per_sld.entry(a.sld.clone()).or_insert(0) += 1;
        }
        let mut out = Vec::new();
        for (sld, count) in per_sld {
            if let Some(org) = self.world.population.orgs.iter().find(|o| o.apex == sld) {
                if let Some(rank) = org.tranco_rank {
                    out.push((rank, count));
                }
            }
        }
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Figure 5: unique FQDNs vs SLDs vs SLD-level hijacks.
    // ------------------------------------------------------------------
    pub fn fig5_sld_stats(&self) -> (usize, usize, usize) {
        let fqdns: BTreeSet<&Name> = self.abuse.iter().map(|a| &a.fqdn).collect();
        let slds: BTreeSet<&Name> = self.abuse.iter().map(|a| &a.sld).collect();
        let apex_level = self.abuse.iter().filter(|a| a.fqdn == a.sld).count();
        (fqdns.len(), slds.len(), apex_level)
    }

    // ------------------------------------------------------------------
    // Figure 6: histogram of uploaded HTML files per site (bins of 5,000).
    // ------------------------------------------------------------------
    pub fn fig6_upload_histogram(&self) -> (Histogram, u64, f64) {
        let mut h = Histogram::new(5_000);
        let mut total = 0u64;
        for a in &self.abuse {
            h.add(a.page_count_est);
            total += a.page_count_est;
        }
        let mean = if self.abuse.is_empty() {
            0.0
        } else {
            total as f64 / self.abuse.len() as f64
        };
        (h, total, mean)
    }

    // ------------------------------------------------------------------
    // Figures 7/8/9: top victims per population.
    // ------------------------------------------------------------------
    fn top_victims<F: Fn(&worldgen::Organization) -> bool>(
        &self,
        filter: F,
        k: usize,
    ) -> Vec<(String, u32)> {
        let mut per_org: HashMap<OrgId, u32> = HashMap::new();
        for a in &self.abuse {
            if let Some(org) = a.org {
                *per_org.entry(org).or_insert(0) += 1;
            }
        }
        let mut v: Vec<(String, u32)> = per_org
            .into_iter()
            .filter_map(|(id, c)| {
                let org = self.world.population.org(id);
                filter(org).then(|| (org.apex.to_string(), c))
            })
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    pub fn fig7_top_tranco(&self, k: usize) -> Vec<(String, u32)> {
        self.top_victims(|o| o.tranco_rank.is_some(), k)
    }

    pub fn fig8_top_fortune500(&self, k: usize) -> Vec<(String, u32)> {
        self.top_victims(|o| o.fortune500, k)
    }

    pub fn fig9_top_universities(&self, k: usize) -> Vec<(String, u32)> {
        self.top_victims(|o| o.category == worldgen::OrgCategory::University, k)
    }

    /// Victim rates: (% of Fortune 500 abused, % of Global 500 abused).
    pub fn enterprise_victim_rates(&self) -> (f64, f64) {
        let abused_orgs: BTreeSet<OrgId> = self.abuse.iter().filter_map(|a| a.org).collect();
        let f500 = self
            .world
            .population
            .orgs
            .iter()
            .filter(|o| o.fortune500)
            .count();
        let f500_hit = self
            .world
            .population
            .orgs
            .iter()
            .filter(|o| o.fortune500 && abused_orgs.contains(&o.id))
            .count();
        let g500 = self
            .world
            .population
            .orgs
            .iter()
            .filter(|o| o.global500)
            .count();
        let g500_hit = self
            .world
            .population
            .orgs
            .iter()
            .filter(|o| o.global500 && abused_orgs.contains(&o.id))
            .count();
        (
            f500_hit as f64 / f500.max(1) as f64,
            g500_hit as f64 / g500.max(1) as f64,
        )
    }

    // ------------------------------------------------------------------
    // Figure 10: registrar diversity of change clusters.
    // ------------------------------------------------------------------
    pub fn fig10_registrar_diversity(&self) -> Vec<(usize, f64)> {
        crate::benign::registrar_diversity_series(&self.change_clusters)
    }

    // ------------------------------------------------------------------
    // Figure 11 / Tables 2, 3: providers and services.
    // ------------------------------------------------------------------
    pub fn abused_by_service(&self) -> BTreeMap<ServiceId, u64> {
        let mut m = BTreeMap::new();
        for a in &self.abuse {
            if let Some(s) = a.service {
                *m.entry(s).or_insert(0) += 1;
            }
        }
        m
    }

    /// Table 2 rows: (service, monitored, abused, percent).
    pub fn table2_rows(&self) -> Vec<(ServiceId, u64, u64, f64)> {
        let abused = self.abused_by_service();
        let mut rows: Vec<(ServiceId, u64, u64, f64)> = self
            .monitored_by_service
            .iter()
            .map(|(&s, &mon)| {
                let ab = abused.get(&s).copied().unwrap_or(0);
                let pct = if mon > 0 {
                    100.0 * ab as f64 / mon as f64
                } else {
                    0.0
                };
                (s, mon, ab, pct)
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }

    /// Figure 11: provider shares of abuse.
    pub fn fig11_provider_shares(&self) -> Vec<(String, f64)> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in self.abused_by_service() {
            *counts
                .entry(cloudsim::provider::spec(s).provider.as_str())
                .or_insert(0) += c;
        }
        let total: u64 = counts.values().sum();
        let mut v: Vec<(String, f64)> = counts
            .into_iter()
            .map(|(p, c)| (p.to_string(), c as f64 / total.max(1) as f64))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v
    }

    // ------------------------------------------------------------------
    // Figure 12: abused content by victim sector.
    // ------------------------------------------------------------------
    pub fn fig12_sectors(&self) -> Vec<(String, u32)> {
        let mut counts: BTreeMap<&'static str, u32> = BTreeMap::new();
        for a in &self.abuse {
            if let Some(org) = a.org {
                *counts
                    .entry(self.world.population.org(org).sector)
                    .or_insert(0) += 1;
            }
        }
        let mut v: Vec<(String, u32)> = counts
            .into_iter()
            .map(|(s, c)| (s.to_string(), c))
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    // ------------------------------------------------------------------
    // Figures 15/16: lifespans.
    // ------------------------------------------------------------------
    pub fn abuse_intervals(&self) -> Vec<AbuseInterval> {
        self.abuse
            .iter()
            .map(|a| AbuseInterval {
                fqdn: a.fqdn.clone(),
                first_seen: a.first_seen,
                corrected_at: a.corrected_at,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Figure 18: WHOIS domain age of abused SLDs.
    // ------------------------------------------------------------------
    pub fn fig18_domain_ages(&self) -> (Vec<i32>, f64) {
        let slds: BTreeSet<&Name> = self.abuse.iter().map(|a| &a.sld).collect();
        let mut ages = Vec::new();
        for sld in slds {
            if let Some(org) = self.world.population.orgs.iter().find(|o| &o.apex == sld) {
                ages.push(org.domain_age_days(self.horizon));
            }
        }
        let older_1y = ages.iter().filter(|&&a| a > 365).count();
        let frac = older_1y as f64 / ages.len().max(1) as f64;
        (ages, frac)
    }

    // ------------------------------------------------------------------
    // Figure 19: VirusTotal flags.
    // ------------------------------------------------------------------
    pub fn fig19_virustotal(&self) -> (usize, usize, Vec<(i32, u32)>) {
        let mut flagged1 = 0;
        let mut flagged2 = 0;
        let mut by_cert_month: BTreeMap<i32, u32> = BTreeMap::new();
        for a in &self.abuse {
            let flags = self
                .world
                .vt
                .vendor_flags(&a.fqdn, a.first_seen, self.horizon);
            if flags >= 1 {
                flagged1 += 1;
                if let Some(first_cert) = self.world.ct.first_issuance(&a.fqdn) {
                    *by_cert_month.entry(first_cert.month_index()).or_insert(0) += 1;
                }
            }
            if flags >= 2 {
                flagged2 += 1;
            }
        }
        (flagged1, flagged2, by_cert_month.into_iter().collect())
    }

    // ------------------------------------------------------------------
    // Tables 1/5: keyword rankings.
    // ------------------------------------------------------------------
    pub fn table1_index_keywords(&self, k: usize) -> Vec<(String, u64)> {
        let mut t = TopK::new();
        for a in &self.abuse {
            for kw in &a.keywords {
                t.add(kw.clone());
            }
        }
        t.top(k)
    }

    pub fn table5_meta_keywords(&self, k: usize) -> Vec<(String, u64)> {
        let mut t = TopK::new();
        for a in &self.abuse {
            for kw in &a.meta_keywords {
                t.add(kw.clone());
            }
        }
        t.top(k)
    }

    /// §5.2.1: fraction of abused pages with the keywords meta tag.
    pub fn meta_keyword_fraction(&self) -> f64 {
        let with = self
            .abuse
            .iter()
            .filter(|a| !a.meta_keywords.is_empty())
            .count();
        with as f64 / self.abuse.len().max(1) as f64
    }

    // ------------------------------------------------------------------
    // Table 6: TLD distribution.
    // ------------------------------------------------------------------
    pub fn table6_tlds(&self, k: usize) -> (Vec<(String, u64)>, usize) {
        let mut t = TopK::new();
        let mut all: BTreeSet<String> = BTreeSet::new();
        for a in &self.abuse {
            if let Some(tld) = a.sld.tld() {
                t.add(tld.to_string());
                all.insert(tld.to_string());
            }
        }
        (t.top(k), all.len())
    }

    // ------------------------------------------------------------------
    // §5.2.1: SEO technique shares.
    // ------------------------------------------------------------------
    pub fn seo_shares(&self) -> (f64, Vec<(SeoTechnique, f64)>) {
        let seo = self
            .abuse
            .iter()
            .filter(|a| crate::classify::is_seo(&a.techniques))
            .count();
        let seo_frac = seo as f64 / self.abuse.len().max(1) as f64;
        let mut counts: BTreeMap<SeoTechnique, usize> = BTreeMap::new();
        for a in &self.abuse {
            for t in &a.techniques {
                *counts.entry(*t).or_insert(0) += 1;
            }
        }
        let shares = counts
            .into_iter()
            .map(|(t, c)| (t, c as f64 / self.abuse.len().max(1) as f64))
            .collect();
        (seo_frac, shares)
    }

    // ------------------------------------------------------------------
    // §6: infrastructure clustering inputs.
    // ------------------------------------------------------------------
    pub fn infra_inputs(&self) -> Vec<crate::infra::DomainIdentifiers> {
        self.abuse
            .iter()
            .map(|a| crate::infra::DomainIdentifiers {
                fqdn: a.fqdn.clone(),
                identifiers: a.identifiers.clone(),
            })
            .collect()
    }

    /// §6: WordPress share via the generator meta tag.
    pub fn wordpress_share(&self) -> f64 {
        let wp = self
            .abuse
            .iter()
            .filter(|a| {
                a.generator
                    .as_deref()
                    .map(|g| g.contains("WordPress"))
                    .unwrap_or(false)
            })
            .count();
        wp as f64 / self.abuse.len().max(1) as f64
    }

    /// Parents (apexes) of abused FQDNs.
    pub fn abused_parents(&self) -> Vec<Name> {
        let set: BTreeSet<Name> = self.abuse.iter().map(|a| a.sld.clone()).collect();
        set.into_iter().collect()
    }
}
