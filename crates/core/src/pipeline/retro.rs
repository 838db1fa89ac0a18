//! Retrospective signature pass (§3.2), run once at the horizon.
//!
//! Consumes the final [`RunState`]: registrar rule-out, signature derivation
//! and validation against the benign corpus, matching, correction-time
//! extraction, and the detection evaluation against ground truth. Produces
//! the assembled [`StudyResults`].
//!
//! ## Determinism under parallelism
//!
//! The pass is shard-parallel under the same contract as the crawl
//! (`--threads` drives both): benign clustering, signature validation and
//! signature matching are fanned out through [`ShardedExecutor`], with work
//! bucketed by the pipeline's fixed FQDN hash
//! ([`crate::snapshot::fqdn_shard`]) and outputs merged back in canonical
//! input order before any ordered state (the abuse map, the kept-signature
//! list) is built. Signature *derivation* stays serial: its greedy grouping
//! is order-defined, and it already canonicalizes its own input order by
//! sorting suspicious records by `(day, fqdn)`. `StudyResults` is therefore
//! byte-identical for any thread count — locked in by the
//! `retro_parallel_equivalence` differential suite.
//!
//! ## One assembly tail, two front halves
//!
//! Everything downstream of "which suspicious changes matched which
//! signatures" — the abuse map, correction times, the detection eval, the
//! `StudyResults` literal — lives in [`assemble_results`], shared verbatim
//! with the streaming counterpart ([`super::IncrementalRetro`]). The two
//! modes can only diverge in how they *arrive* at the matched set, which is
//! exactly what the `incremental_equivalence` differential suite pins.

use super::{RunState, ShardedExecutor};
use crate::classify::Topic;
use crate::diff::{ChangeKind, ChangeRecord};
use crate::report::{AbuseRecord, DetectionEval, StudyResults};
use crate::signature::{
    derive_signatures, is_suspicious, match_all, validate_signatures_sharded, Signature,
    SignatureKind,
};
use crate::snapshot::fqdn_shard;
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

/// Shared tail of the batch and incremental retro passes: fold the matched
/// changes into the abuse map, extract correction times, evaluate against
/// ground truth, and assemble [`StudyResults`].
///
/// `matched` must hold only records with a non-empty match, ordered by the
/// records' position in `rs.changes` — the abuse map's first-writer fields
/// (`first_seen`, the snapshot columns) and the append order of
/// `signature_kinds` both depend on it. Batch mode produces that order by
/// construction (it matches a filtered scan of `rs.changes`); the
/// incremental pass sorts its cache hits back into it.
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
    // intersection/size arithmetic escapes, but see the hazard note on
    // `registrar_driven_fqdns`.
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

/// The retrospective stage. Unlike the event-driven stages it runs exactly
/// once, consuming the run state.
pub struct RetroStage {
    threads: usize,
}

impl RetroStage {
    pub fn new(threads: usize) -> Self {
        RetroStage {
            threads: threads.max(1),
        }
    }

    pub fn assemble(self, rs: RunState) -> StudyResults {
        // Registrar rule-out first (Figure 10's machinery): clusters of
        // identical changes confined to one registrar are registrar-driven
        // (parking rotations) and are excluded from signature derivation and
        // matching.
        let registrar_of = |sld: &Name| -> Option<u16> {
            rs.world
                .population
                .orgs
                .iter()
                .find(|o| &o.apex == sld)
                .map(|o| o.registrar.0)
        };
        let suspicious_all: Vec<ChangeRecord> = rs
            .changes
            .iter()
            .filter(|c| is_suspicious(c))
            .cloned()
            .collect();
        let change_clusters = {
            let _s = obs::span("retro.cluster", "retro").record_into("retro.cluster_ns");
            let exec =
                ShardedExecutor::new(self.threads, crate::exec_metric_names!("retro.cluster"));
            crate::benign::cluster_changes_sharded(&suspicious_all, registrar_of, &exec)
        };
        // BTreeSet, not HashSet: only membership is consulted today, but a
        // sorted set keeps any future iteration from leaking hash order into
        // ordered output.
        let registrar_driven_fqdns: BTreeSet<Name> = change_clusters
            .iter()
            .filter(|c| c.fqdns.len() >= 2 && c.registrar_driven())
            .flat_map(|c| c.fqdns.iter().cloned())
            .collect();
        let changes_ruled: Vec<ChangeRecord> = rs
            .changes
            .iter()
            .filter(|c| !registrar_driven_fqdns.contains(&c.fqdn))
            .cloned()
            .collect();
        let sigs = {
            let _s = obs::span("retro.derive_signatures", "retro").record_into("retro.derive_ns");
            derive_signatures(&changes_ruled, rs.cfg.min_signature_slds)
        };
        // Benign corpus: latest snapshots of monitored FQDNs that never
        // produced a suspicious change. `store.iter()` is canonical-order, so
        // the `take` below samples the same corpus on every run and thread
        // count.
        let suspicious_fqdns: BTreeSet<&Name> = rs
            .changes
            .iter()
            .filter(|c| is_suspicious(c))
            .map(|c| &c.fqdn)
            .collect();
        let benign_corpus: Vec<&crate::snapshot::Snapshot> = rs
            .store
            .iter()
            .filter(|s| !suspicious_fqdns.contains(&s.fqdn) && s.is_serving())
            .take(4000)
            .collect();
        let (signatures, signatures_discarded) = {
            let _s =
                obs::span("retro.validate_signatures", "retro").record_into("retro.validate_ns");
            let exec =
                ShardedExecutor::new(self.threads, crate::exec_metric_names!("retro.validate"));
            validate_signatures_sharded(sigs, &benign_corpus, &exec)
        };
        obs::gauge("retro.signatures").set(signatures.len() as f64);
        obs::gauge("retro.signatures_discarded").set(signatures_discarded as f64);
        obs::gauge("retro.clusters").set(change_clusters.len() as f64);

        // Match every suspicious change's after-snapshot, shard-parallel:
        // matching and content classification are pure per-record reads, so
        // they fan out bucketed by the crawl's FQDN hash; the outcomes come
        // back in input order and the abuse map is then built serially — the
        // same canonical merge the diff stage applies to crawl outcomes.
        let matched = {
            let _match_span = obs::span("retro.match_all", "retro").record_into("retro.match_ns");
            let suspicious_ruled: Vec<&ChangeRecord> =
                changes_ruled.iter().filter(|c| is_suspicious(c)).collect();
            let match_exec =
                ShardedExecutor::new(self.threads, crate::exec_metric_names!("retro.match"));
            let shards = rs.store.shard_count();
            let outcomes: Vec<Option<MatchOutcome>> = match_exec.map(
                &suspicious_ruled,
                shards,
                |rec| fqdn_shard(&rec.fqdn, shards),
                || (),
                |_, _, rec| {
                    let matched = match_all(&signatures, &rec.after);
                    if matched.is_empty() {
                        return None;
                    }
                    Some(MatchOutcome {
                        kinds: matched.iter().map(|s| s.kind()).collect(),
                        topic: crate::classify::classify_topic(&rec.after),
                        techniques: crate::classify::detect_techniques(&rec.after),
                    })
                },
            );
            // `suspicious_ruled` scans `changes_ruled`, which scans
            // `rs.changes`: filtering preserves order, so zipping restores
            // the canonical matched order `assemble_results` requires.
            suspicious_ruled
                .into_iter()
                .zip(outcomes)
                .filter_map(|(rec, outcome)| outcome.map(|o| (rec.clone(), o)))
                .collect()
        };
        assemble_results(
            rs,
            change_clusters,
            signatures,
            signatures_discarded,
            matched,
        )
    }
}
