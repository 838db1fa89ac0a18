//! The horizon emission of the retrospective signature pass (§3.2).
//!
//! The pass itself is one fold, [`super::IncrementalRetro`]: it ingests the
//! change log, grows the identical-change clusters and the greedy signature
//! groups, and caches match verdicts. This module holds what the fold emits
//! once at the horizon: [`assemble_results`] turns the matched changes into
//! the abuse map, correction times, the detection evaluation and the
//! assembled [`StudyResults`].
//!
//! [`RetroStage`] is the one-shot entry point over a finished [`RunState`]:
//! the fold ingests the whole change log at once and emits once. A
//! `--incremental` run feeds the same fold every round and then calls the
//! same [`super::IncrementalRetro::finalize`], so the two cadences cannot
//! disagree; the committed golden digest (`intern_equivalence`) pins the
//! bytes at every thread count.

use super::{IncrementalRetro, RunState};
use crate::classify::Topic;
use crate::diff::{ChangeKind, ChangeRecord};
use crate::report::{AbuseRecord, DetectionEval, StudyResults};
use crate::signature::{Signature, SignatureKind};
use contentgen::abuse::SeoTechnique;
use dns::Name;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What the matching phase computed for one suspicious change: the matching
/// signature kinds plus the content classification of the after-snapshot
/// (the expensive per-record work, all read-only).
pub(crate) struct MatchOutcome {
    pub(crate) kinds: Vec<SignatureKind>,
    pub(crate) topic: Topic,
    pub(crate) techniques: Vec<SeoTechnique>,
}

/// The retro pass's horizon emission: fold the matched changes into the
/// abuse map, extract correction times, evaluate against ground truth, and
/// assemble [`StudyResults`].
///
/// `matched` must hold only records with a non-empty match, ordered by the
/// records' position in `rs.changes` — the abuse map's first-writer fields
/// (`first_seen`, the snapshot columns) and the append order of
/// `signature_kinds` both depend on it. The fold sorts its cache hits back
/// into that order.
pub(crate) fn assemble_results(
    rs: RunState,
    change_clusters: Vec<crate::benign::ChangeCluster>,
    signatures: Vec<Signature>,
    signatures_discarded: usize,
    matched: Vec<(ChangeRecord, MatchOutcome)>,
) -> StudyResults {
    let RunState {
        cfg,
        world,
        horizon,
        feed,
        monitored,
        monitored_by_service,
        monitored_monthly,
        changes,
        ip_lottery_declines,
        caa_blocked_certs,
        liveness,
        round_latency,
        ..
    } = rs;

    // FQDN -> plan index (for service attribution). Lookup-only: its
    // iteration order never escapes.
    let fqdn_plan: HashMap<Name, usize> = world
        .population
        .plans
        .iter()
        .enumerate()
        .map(|(i, p)| (p.subdomain.clone(), i))
        .collect();

    let mut abuse_map: BTreeMap<Name, AbuseRecord> = BTreeMap::new();
    for (rec, outcome) in matched {
        let entry = abuse_map.entry(rec.fqdn.clone()).or_insert_with(|| {
            let sld = rec.fqdn.sld().unwrap_or_else(|| rec.fqdn.clone());
            let org = world
                .population
                .orgs
                .iter()
                .find(|o| o.apex == sld)
                .map(|o| o.id);
            let service = fqdn_plan
                .get(&rec.fqdn)
                .map(|&i| world.population.plans[i].service);
            AbuseRecord {
                fqdn: rec.fqdn.clone(),
                sld,
                org,
                first_seen: rec.day,
                corrected_at: None,
                signature_kinds: Vec::new(),
                topic: outcome.topic,
                techniques: outcome.techniques,
                language: rec.after.page.language.clone(),
                cname_target: rec.after.cname_target.clone(),
                service,
                sitemap_bytes: rec.after.sitemap_bytes,
                page_count_est: rec
                    .after
                    .sitemap_bytes
                    .map(|b| b.saturating_sub(120) / 80)
                    .unwrap_or(0),
                identifiers: rec.after.page.identifiers.clone(),
                meta_keywords: rec.after.page.meta_keywords.clone(),
                keywords: rec.after.page.keywords.clone(),
                generator: rec.after.page.generator.clone(),
                html: rec.after.html.clone(),
            }
        });
        for k in outcome.kinds {
            if !entry.signature_kinds.contains(&k) {
                entry.signature_kinds.push(k);
            }
        }
    }
    // Correction times: the first unreachability/DNS-removal change after
    // first_seen.
    for rec in &changes {
        if !rec
            .kinds
            .iter()
            .any(|k| matches!(k, ChangeKind::BecameUnreachable | ChangeKind::Dns))
        {
            continue;
        }
        if let Some(a) = abuse_map.get_mut(&rec.fqdn) {
            if rec.day > a.first_seen && a.corrected_at.map(|c| rec.day < c).unwrap_or(true) {
                a.corrected_at = Some(rec.day);
            }
        }
    }
    let abuse: Vec<AbuseRecord> = abuse_map.into_values().collect();

    // Detection evaluation against ground truth. Sorted sets: only
    // intersection/size arithmetic escapes today, but a sorted set keeps any
    // future iteration from leaking hash order into ordered output.
    let truth_fqdns: BTreeSet<&Name> = world.truth.iter().map(|t| &t.victim_fqdn).collect();
    let detected_fqdns: BTreeSet<&Name> = abuse.iter().map(|a| &a.fqdn).collect();
    let tp = detected_fqdns.intersection(&truth_fqdns).count();
    let detection = DetectionEval {
        true_positives: tp,
        false_positives: detected_fqdns.len() - tp,
        false_negatives: truth_fqdns.len() - tp,
    };

    StudyResults {
        scale: cfg.world.scale,
        horizon,
        monitored_monthly: monitored_monthly.dense(),
        feed_size: feed.len(),
        monitored_total: monitored.len(),
        monitored_by_service,
        abuse,
        signatures,
        signatures_discarded,
        change_clusters,
        changes_total: changes.len(),
        world,
        detection,
        ip_lottery_declines,
        caa_blocked_certs,
        changes,
        liveness,
        resolution_latency: round_latency,
    }
}

/// The retrospective stage over a finished run: the fold run once over the
/// whole change log, emitting once.
pub struct RetroStage {
    threads: usize,
}

impl RetroStage {
    pub fn new(threads: usize) -> Self {
        RetroStage { threads }
    }

    pub fn assemble(self, rs: RunState) -> StudyResults {
        IncrementalRetro::new(self.threads).finalize(rs)
    }
}
