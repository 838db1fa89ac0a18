//! Signature derivation, validation, and matching (§3.2).
//!
//! The paper's key methodological move: changes that look alike *across
//! unrelated domains within a short time frame* are clustered, keywords and
//! structural features are extracted into signatures, each signature is
//! tested against a benign corpus (discarding any that fire), and the
//! surviving signatures classify the full monitored population.

use crate::diff::{ChangeKind, ChangeRecord};

use crate::snapshot::Snapshot;
use dns::Name;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Sitemap size that indicates a mass-upload (≈5,000 pages × ~80 B/entry;
/// the paper's example signature names "> 5 MB" sitemaps, reached by the
/// heavier uploads).
pub const HUGE_SITEMAP_BYTES: u64 = 400_000;

/// A derived abuse signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signature {
    pub id: u32,
    /// All of these must appear among the snapshot's content or meta
    /// keywords.
    pub keywords: Vec<String>,
    /// Snapshot must advertise a sitemap at least this large.
    pub min_sitemap_bytes: Option<u64>,
    /// Any of these substrings must occur in a loaded script src
    /// (attacker-infrastructure indicator).
    pub script_markers: Vec<String>,
    /// Snapshot must carry extracted contact/infrastructure identifiers.
    pub requires_identifiers: bool,
    /// Number of change records the signature was derived from.
    pub source_members: usize,
    /// Distinct SLDs among the sources (≥2 by construction).
    pub source_slds: usize,
}

/// Which feature classes a signature uses — the Figure 2 axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SignatureKind {
    KeywordsOnly,
    KeywordsSitemap,
    KeywordsInfra,
    KeywordsSitemapInfra,
}

impl Signature {
    pub fn kind(&self) -> SignatureKind {
        let sitemap = self.min_sitemap_bytes.is_some();
        let infra = self.requires_identifiers || !self.script_markers.is_empty();
        match (sitemap, infra) {
            (false, false) => SignatureKind::KeywordsOnly,
            (true, false) => SignatureKind::KeywordsSitemap,
            (false, true) => SignatureKind::KeywordsInfra,
            (true, true) => SignatureKind::KeywordsSitemapInfra,
        }
    }

    /// Does this signature match a snapshot? All configured features must
    /// hold ("If the required features are present on the site, the
    /// signature matches and the domain is classified as abused").
    pub fn matches(&self, snap: &Snapshot) -> bool {
        if !snap.is_serving() {
            return false;
        }
        // Majority keyword match: at least ⌈k/2⌉ of the signature keywords
        // must appear (abuse pages share campaign vocabulary, not exact
        // keyword lists; precision is protected by benign validation).
        let needed = self.keywords.len().div_ceil(2);
        let hits = self
            .keywords
            .iter()
            .filter(|kw| {
                snap.page.keywords.iter().any(|k| &k == kw)
                    || snap.page.meta_keywords.iter().any(|k| &k == kw)
            })
            .count();
        if hits < needed.max(1) {
            return false;
        }
        if let Some(min) = self.min_sitemap_bytes {
            if snap.sitemap_bytes.unwrap_or(0) < min {
                return false;
            }
        }
        if !self.script_markers.is_empty() {
            let any = self
                .script_markers
                .iter()
                .any(|m| snap.page.script_srcs.iter().any(|s| s.contains(m.as_str())));
            if !any {
                return false;
            }
        }
        if self.requires_identifiers && snap.page.identifiers.is_empty() {
            return false;
        }
        true
    }
}

/// Is a change record *suspicious enough* to feed signature extraction?
/// (Reachability resurrection, new content, sitemap anomalies, language
/// flips — §3's observations.)
pub fn is_suspicious(rec: &ChangeRecord) -> bool {
    if !rec.after.is_serving() {
        return false;
    }
    let flagged = rec.kinds.iter().any(|k| {
        matches!(
            k,
            ChangeKind::BecameReachable
                | ChangeKind::Content
                | ChangeKind::SitemapAppeared
                | ChangeKind::SitemapGrew
                | ChangeKind::Language
        )
    });
    if !flagged {
        return false;
    }
    // Routine-update suppression: a pure content change whose vocabulary
    // largely overlaps the previous state is an ordinary site update, not a
    // takeover (the abuse *replaces* the content wholesale).
    let only_content = rec.kinds.iter().all(|k| {
        matches!(
            k,
            ChangeKind::Content | ChangeKind::HttpStatus | ChangeKind::Dns
        )
    });
    if only_content
        && crate::keywords::overlap(&rec.before_keywords, &rec.after.page.keywords) >= 0.5
    {
        return false;
    }
    true
}

/// The per-member features signature emission consumes — everything
/// [`SignatureFold`] keeps of a change record, so a long-running fold never
/// retains snapshot HTML.
#[derive(Debug, Clone)]
struct GroupMember {
    /// `member_keywords` of the record (the grouping fingerprint).
    fingerprint: Vec<String>,
    sld: Option<Name>,
    sitemap_bytes: Option<u64>,
    /// Distinct script *filenames* loaded by the after-snapshot.
    script_files: std::collections::BTreeSet<String>,
    has_identifiers: bool,
}

impl GroupMember {
    fn of(rec: &ChangeRecord, fingerprint: Vec<String>) -> Self {
        let mut script_files = std::collections::BTreeSet::new();
        for src in &rec.after.page.script_srcs {
            if let Some(fname) = src.rsplit('/').next() {
                script_files.insert(fname.to_string());
            }
        }
        GroupMember {
            fingerprint,
            sld: rec.fqdn.sld(),
            sitemap_bytes: rec.after.sitemap_bytes,
            script_files,
            has_identifiers: !rec.after.page.identifiers.is_empty(),
        }
    }
}

/// The greedy signature-grouping pass as an explicit *prefix-consistent
/// fold*: push suspicious change records in `(day, fqdn)` order and the
/// internal group state — and therefore [`SignatureFold::signatures`] — is
/// at every point exactly what [`derive_signatures`] would compute over the
/// records pushed so far.
///
/// Grouping is greedy: a record joins the first existing group whose seed
/// fingerprint overlaps its own by ≥ 0.5 (overlap coefficient), otherwise it
/// seeds a new group. Greedy placement is order-defined, which is precisely
/// why it streams: the pipeline feeds rounds in day order (fqdn-sorted
/// within a round), reproducing the canonical `(day, fqdn)` sort, so no
/// record ever has to be re-placed. The retro fold
/// (`core::pipeline::IncrementalRetro`) leans on two further properties:
/// the fold is `Clone` (a resume snapshot continues identically) and
/// rebuilding it from the same record sequence is state-identical (replay).
#[derive(Debug, Clone, Default)]
pub struct SignatureFold {
    seeds: Vec<Vec<String>>,
    groups: Vec<Vec<GroupMember>>,
    records: usize,
}

impl SignatureFold {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one suspicious record into the running groups. The caller is
    /// responsible for ordering (`(day, fqdn)` ascending) and for the
    /// [`is_suspicious`] filter; records with an empty fingerprint are
    /// ignored.
    pub fn push(&mut self, rec: &ChangeRecord) {
        let fingerprint = member_keywords(rec);
        if fingerprint.is_empty() {
            return;
        }
        self.records += 1;
        for (gi, seed) in self.seeds.iter().enumerate() {
            if crate::keywords::overlap(seed, &fingerprint) >= 0.5 {
                self.groups[gi].push(GroupMember::of(rec, fingerprint));
                return;
            }
        }
        self.seeds.push(fingerprint.clone());
        self.groups.push(vec![GroupMember::of(rec, fingerprint)]);
    }

    /// Records folded so far (after fingerprint filtering).
    pub fn len(&self) -> usize {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Groups formed so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Emit the signatures of the current groups — for the same pushed
    /// sequence, byte-identical to what [`derive_signatures`] returns.
    pub fn signatures(&self, min_slds: usize) -> Vec<Signature> {
        let mut signatures = Vec::new();
        for members in &self.groups {
            let slds: std::collections::BTreeSet<&Name> =
                members.iter().filter_map(|m| m.sld.as_ref()).collect();
            if slds.len() < min_slds {
                continue;
            }
            // Signature keywords: the 2–3 terms with the best member coverage
            // (paper: 2.72 keywords per signature on average). Prefer terms on
            // ≥80% of members; fall back to ≥60% for heterogeneous groups.
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for m in members.iter() {
                for k in &m.fingerprint {
                    *counts.entry(k.as_str()).or_insert(0) += 1;
                }
            }
            let pick = |min_cover: f64| -> Vec<String> {
                let threshold = (members.len() as f64 * min_cover).ceil() as usize;
                let mut v: Vec<(&str, usize)> = counts
                    .iter()
                    .filter(|(_, c)| **c >= threshold)
                    .map(|(k, c)| (*k, *c))
                    .collect();
                v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
                v.truncate(2);
                v.into_iter().map(|(k, _)| k.to_string()).collect()
            };
            let mut common = pick(0.8);
            if common.len() < 2 {
                common = pick(0.6);
            }
            if common.is_empty() {
                continue;
            }
            // Sitemap feature when most members carry a mass upload.
            let huge = members
                .iter()
                .filter(|m| m.sitemap_bytes.unwrap_or(0) >= HUGE_SITEMAP_BYTES)
                .count();
            let min_sitemap_bytes = (huge * 2 >= members.len()).then_some(HUGE_SITEMAP_BYTES);
            // Infra markers: script filenames shared by at least two members.
            let mut marker_counts: HashMap<&str, usize> = HashMap::new();
            for m in members.iter() {
                for f in &m.script_files {
                    *marker_counts.entry(f.as_str()).or_insert(0) += 1;
                }
            }
            let mut script_markers: Vec<String> = marker_counts
                .into_iter()
                .filter(|(_, c)| *c >= 2 && *c * 2 >= members.len())
                .map(|(f, _)| f.to_string())
                .collect();
            script_markers.sort();
            // Identifier requirement only when every member carries
            // identifiers (otherwise it would suppress legitimate matches).
            let requires_identifiers = members.iter().all(|m| m.has_identifiers);
            // Emit a plain keywords signature plus (when structural features
            // exist) a stricter enhanced variant. The benign-corpus
            // validation that follows discards whichever of the two is
            // unsafe — exactly the "validate, then discard those that fire"
            // loop of §3.2. Figure 2's mix of keyword-only and combined
            // signatures emerges from which variants survive.
            signatures.push(Signature {
                id: signatures.len() as u32,
                keywords: common.clone(),
                min_sitemap_bytes: None,
                script_markers: Vec::new(),
                requires_identifiers: false,
                source_members: members.len(),
                source_slds: slds.len(),
            });
            if min_sitemap_bytes.is_some() || !script_markers.is_empty() || requires_identifiers {
                signatures.push(Signature {
                    id: signatures.len() as u32,
                    keywords: common,
                    min_sitemap_bytes,
                    script_markers,
                    requires_identifiers,
                    source_members: members.len(),
                    source_slds: slds.len(),
                });
            }
        }
        signatures
    }
}

/// Group suspicious changes by *keyword overlap* and derive one signature
/// per group that spans at least `min_slds` distinct SLDs.
///
/// The one-shot form of [`SignatureFold`]: it fixes the canonical processing
/// order by sorting suspicious records on the unique `(day, fqdn)` key, then
/// folds them. The pipeline's retro fold reaches the same order round by
/// round; the property tests use this function as the definition of it.
pub fn derive_signatures(changes: &[ChangeRecord], min_slds: usize) -> Vec<Signature> {
    // Deterministic processing order.
    let mut suspicious: Vec<&ChangeRecord> = changes.iter().filter(|r| is_suspicious(r)).collect();
    suspicious.sort_by(|a, b| a.day.cmp(&b.day).then_with(|| a.fqdn.cmp(&b.fqdn)));

    let mut fold = SignatureFold::new();
    for rec in suspicious {
        fold.push(rec);
    }
    fold.signatures(min_slds)
}

fn member_keywords(rec: &ChangeRecord) -> Vec<String> {
    let mut v = rec.after.page.keywords.clone();
    v.extend(rec.after.page.meta_keywords.iter().cloned());
    v.sort();
    v.dedup();
    v
}

/// Validate signatures against a benign corpus: any signature that fires on
/// a benign snapshot is discarded (§3.2). Returns `(kept, discarded_count)`,
/// the kept signatures in input order.
///
/// Parallel: each signature is checked against the whole corpus
/// independently, and the keep/discard verdicts are re-assembled in input
/// order, so the result is the same for any thread count.
pub fn validate_signatures_sharded(
    signatures: Vec<Signature>,
    benign: &[&Snapshot],
    exec: &crate::pipeline::ShardedExecutor,
) -> (Vec<Signature>, usize) {
    let before = signatures.len();
    let keep: Vec<bool> = exec.map(
        &signatures,
        || (),
        |_, _, sig| !benign.iter().any(|b| sig.matches(b)),
    );
    let kept: Vec<Signature> = signatures
        .into_iter()
        .zip(keep)
        .filter_map(|(sig, keep)| keep.then_some(sig))
        .collect();
    let discarded = before - kept.len();
    (kept, discarded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::Rcode;
    use simcore::SimTime;

    fn snap(fqdn: &str, kws: &[&str], sitemap: Option<u64>, ids: &[&str]) -> Snapshot {
        let mut s = Snapshot::unreachable(fqdn.parse().unwrap(), SimTime(10), Rcode::NoError, None);
        s.http_status = Some(200);
        s.index_hash = 42;
        s.page_mut().keywords = kws.iter().map(|k| k.to_string()).collect();
        s.sitemap_bytes = sitemap;
        s.page_mut().identifiers = ids.iter().map(|i| i.to_string()).collect();
        s
    }

    fn change(fqdn: &str, kws: &[&str], sitemap: Option<u64>, ids: &[&str]) -> ChangeRecord {
        ChangeRecord {
            fqdn: fqdn.parse().unwrap(),
            day: SimTime(10),
            kinds: vec![ChangeKind::BecameReachable],
            before_language: None,
            before_sitemap_bytes: None,
            before_serving: false,
            before_keywords: Vec::new(),
            after: snap(fqdn, kws, sitemap, ids),
        }
    }

    #[test]
    fn derives_signature_across_slds() {
        let changes = vec![
            change(
                "a.victim1.com",
                &["slot", "judi", "gacor"],
                Some(800_000),
                &["phone:62x"],
            ),
            change(
                "b.victim2.org",
                &["slot", "judi", "gacor"],
                Some(900_000),
                &["phone:62y"],
            ),
            change(
                "c.victim3.net",
                &["slot", "judi", "gacor"],
                Some(700_000),
                &[],
            ),
        ];
        let sigs = derive_signatures(&changes, 2);
        // Dual emission: a plain keywords signature plus the enhanced one.
        assert_eq!(sigs.len(), 2);
        assert_eq!(sigs[0].kind(), SignatureKind::KeywordsOnly);
        let s = &sigs[1];
        assert!(s
            .keywords
            .iter()
            .all(|k| ["slot", "judi", "gacor"].contains(&k.as_str())));
        assert_eq!(s.min_sitemap_bytes, Some(HUGE_SITEMAP_BYTES));
        assert!(!s.requires_identifiers); // member c has none
        assert_eq!(s.source_slds, 3);
        assert_eq!(s.kind(), SignatureKind::KeywordsSitemap);
    }

    #[test]
    fn single_sld_clusters_skipped() {
        let changes = vec![
            change("a.same.com", &["slot", "judi"], None, &[]),
            change("b.same.com", &["slot", "judi"], None, &[]),
        ];
        assert!(derive_signatures(&changes, 2).is_empty());
    }

    #[test]
    fn matching_requires_all_features() {
        let sig = Signature {
            id: 0,
            keywords: vec!["slot".into(), "judi".into()],
            min_sitemap_bytes: Some(HUGE_SITEMAP_BYTES),
            script_markers: vec![],
            requires_identifiers: false,
            source_members: 3,
            source_slds: 3,
        };
        // All features present: match.
        assert!(sig.matches(&snap("x.v.com", &["slot", "judi"], Some(500_000), &[])));
        // Majority keyword rule: 1 of 2 keywords still matches…
        assert!(sig.matches(&snap("x.v.com", &["slot"], Some(500_000), &[])));
        // …but zero keywords does not.
        assert!(!sig.matches(&snap("x.v.com", &["other"], Some(500_000), &[])));
        // Small sitemap: no match.
        assert!(!sig.matches(&snap("x.v.com", &["slot", "judi"], Some(10_000), &[])));
        // Meta keywords count too.
        let mut s = snap("x.v.com", &[], Some(500_000), &[]);
        s.page_mut().meta_keywords = vec!["slot".into(), "judi".into()];
        assert!(sig.matches(&s));
        // Unreachable snapshots never match.
        let mut dead = snap("x.v.com", &["slot", "judi"], Some(500_000), &[]);
        dead.http_status = None;
        assert!(!sig.matches(&dead));
    }

    #[test]
    fn benign_validation_discards() {
        let changes = vec![
            change("a.v1.com", &["premium", "domains", "sale"], None, &[]),
            change("b.v2.com", &["premium", "domains", "sale"], None, &[]),
        ];
        let sigs = derive_signatures(&changes, 2);
        assert_eq!(sigs.len(), 1);
        // A benign (parked) snapshot with the same words kills it.
        let benign = snap(
            "parked.other.com",
            &["premium", "domains", "sale"],
            None,
            &[],
        );
        let exec =
            crate::pipeline::ShardedExecutor::new(1, crate::exec_metric_names!("test.signature"));
        let (kept, discarded) = validate_signatures_sharded(sigs, &[&benign], &exec);
        assert!(kept.is_empty());
        assert_eq!(discarded, 1);
    }

    #[test]
    fn script_marker_matching() {
        let sig = Signature {
            id: 0,
            keywords: vec!["slot".into()],
            min_sitemap_bytes: None,
            script_markers: vec!["popunder.js".into()],
            requires_identifiers: false,
            source_members: 2,
            source_slds: 2,
        };
        let mut s = snap("x.v.com", &["slot"], None, &[]);
        assert!(!sig.matches(&s));
        s.page_mut().script_srcs = vec!["http://203.0.113.7/js/popunder.js".into()];
        assert!(sig.matches(&s));
        assert_eq!(sig.kind(), SignatureKind::KeywordsInfra);
    }

    #[test]
    fn identifier_requirement() {
        let changes = vec![
            change("a.v1.com", &["slot", "gacor"], None, &["phone:1"]),
            change("b.v2.com", &["slot", "gacor"], None, &["phone:2"]),
        ];
        let sigs = derive_signatures(&changes, 2);
        // The enhanced variant carries the identifier requirement.
        let enhanced = sigs.iter().find(|s| s.requires_identifiers).unwrap();
        assert!(!enhanced.matches(&snap("c.v3.com", &["slot", "gacor"], None, &[])));
        assert!(enhanced.matches(&snap("c.v3.com", &["slot", "gacor"], None, &["phone:9"])));
        // The plain variant matches on keywords alone (benign validation is
        // what decides whether it survives).
        assert!(sigs.iter().any(|s| !s.requires_identifiers
            && s.matches(&snap("c.v3.com", &["slot", "gacor"], None, &[]))));
    }

    #[test]
    fn non_suspicious_changes_ignored() {
        let mut rec = change("a.v1.com", &["slot", "judi"], None, &[]);
        rec.kinds = vec![ChangeKind::Dns];
        let changes = vec![rec, change("b.v2.com", &["slot", "judi"], None, &[])];
        // Only one suspicious member -> still forms a group of 1 -> but only
        // one SLD -> no signature.
        assert!(derive_signatures(&changes, 2).is_empty());
    }
}
