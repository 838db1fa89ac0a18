//! The retrospective pass (§3.2) as one fold with two emission cadences.
//!
//! `IncrementalRetro` consumes the [`ChangeRecord`]s the diff stage appends
//! to `RunState::changes`. It clusters identical changes, derives keyword
//! signatures, and caches which signatures match which suspicious changes.
//! [`IncrementalRetro::finalize`] catches up on anything not yet ingested,
//! validates the signatures against the final benign corpus, and emits
//! [`StudyResults`](crate::report::StudyResults) through
//! [`super::retro::assemble_results`]. That is the only way results are made.
//!
//! The two cadences differ only in how often the fold runs:
//!
//! - **At the horizon** (the default, and
//!   [`RetroStage`](super::RetroStage)): nothing is ingested until
//!   `finalize`, which folds the whole change log in one go.
//! - **Every round** (`Scenario::incremental(true)`, `repro --incremental`):
//!   each round's changes are ingested right behind the diff stage. When a
//!   round sink is attached (service mode), the round also emits an
//!   advisory [`ProvisionalRound`] plus the `retro.incr.*` round gauges
//!   for the sink to publish; [`Stage::weekly`] always emits them.
//!
//! Both cadences serialize `StudyResults` to the same bytes at any thread
//! count, fresh or resumed; the committed golden digest
//! (`intern_equivalence`) pins all of them.
//!
//! ## Why the cadence cannot change the result
//!
//! Each step of the pass decomposes differently:
//!
//! - **Benign clustering** is a fingerprint → member-set union, commutative
//!   and idempotent. Folding rounds into one growing map
//!   ([`crate::benign::fold_cluster_map`]) reaches the same map contents as
//!   folding the whole log at once, and the sorted-key emission on top is
//!   order-blind.
//! - **Signature derivation** is greedy and order-defined, so its order is
//!   fixed to `(day, fqdn)`. Rounds arrive in strictly increasing day order
//!   and each ingest sorts its batch by `(day, fqdn)`, so any split of the
//!   log into ingests pushes records into the [`SignatureFold`] in the same
//!   order: the fold is prefix-consistent, and no record ever needs
//!   re-placing.
//! - **Registrar rule-out is not monotone**: a cluster that gains a second
//!   fqdn becomes rule-out-capable, and one that gains a second registrar
//!   stops being registrar-driven — membership can both grow and shrink.
//!   When the ruled-out set changes, the fold is rebuilt from the retained
//!   suspicious prefix (`retro.incr.fold_rebuilds` counts these); rebuilding
//!   from the same sequence is state-identical, so exactness survives.
//! - **Matching is pure** in (signature content, snapshot), and a recorded
//!   change's after-snapshot never mutates. Verdicts are therefore cached
//!   per signature *content key* — a derived signature that reappears next
//!   round (same keywords/features, new id) reuses its verdict column, and
//!   each ingest only evaluates new signatures × all records plus all
//!   signatures × new records.
//! - **Benign-corpus validation is advisory per round**: the corpus
//!   ("monitored fqdns that never produced a suspicious change") *shrinks*
//!   as fqdns turn suspicious, so a mid-run verdict can be invalidated
//!   later. Per-round validation feeds the `retro.incr.*` gauges and the
//!   [`ProvisionalRound`]; `finalize` always revalidates against the final
//!   corpus. This is the one step that cannot be folded exactly, and the
//!   docs say so rather than pretend.
//!
//! ## Determinism under parallelism
//!
//! Fan-out (verdict extension, new-signature matching, validation, content
//! classification) goes through one [`ShardedExecutor`], whose `map`
//! re-assembles outputs in canonical input order — so `--threads` drives
//! the retro pass too.

use super::retro::{assemble_results, MatchOutcome};
use super::{RunState, ShardedExecutor, Stage};
use crate::diff::ChangeRecord;
use crate::report::StudyResults;
use crate::signature::{
    is_suspicious, validate_signatures_sharded, Signature, SignatureFold, SignatureKind,
};
use dns::Name;
use simcore::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A signature's *content key*: every field [`Signature::matches`] reads.
/// Two derivations that agree on the key have identical verdicts on every
/// snapshot, no matter what ids they were assigned — the cache invariant.
type SigKey = (Vec<String>, Option<u64>, Vec<String>, bool);

fn sig_key(sig: &Signature) -> SigKey {
    (
        sig.keywords.clone(),
        sig.min_sitemap_bytes,
        sig.script_markers.clone(),
        sig.requires_identifiers,
    )
}

/// One suspicious change the pass has ingested: just enough to re-find the
/// record (`change_idx` into `RunState::changes`) and keep the canonical
/// `(day, fqdn)` order without holding snapshot clones.
#[derive(Debug, Clone)]
struct SuspiciousEntry {
    change_idx: usize,
    fqdn: Name,
    day: SimTime,
}

/// The streaming pass's advisory per-round state, promoted from bare
/// `retro.incr.*` gauges into a structured value so service mode can
/// publish real payloads (verdicts, catalog, clusters) instead of two
/// numbers. Everything here is provisional *by construction*: the benign
/// validation corpus shrinks as fqdns turn suspicious, so a mid-run verdict
/// can be invalidated later and [`IncrementalRetro::finalize`] revalidates
/// from scratch (module docs). Consumers must surface that distinction —
/// the serve API stamps `provisional: true` on every field derived from
/// this.
#[derive(Debug, Clone)]
pub struct ProvisionalRound {
    /// Day of the monitoring round this state was computed after.
    pub day: SimTime,
    /// Derived signatures before validation (`retro.incr.signatures`).
    pub signatures_total: usize,
    /// Survivors of this round's advisory validation
    /// (`retro.incr.valid_signatures`).
    pub signatures_valid: usize,
    /// Distinct non-ruled-out fqdns with a provisionally-valid signature
    /// hit (`retro.incr.provisional_abuse`).
    pub provisional_abuse: usize,
    /// Live greedy derivation groups (`retro.incr.groups`).
    pub fold_groups: usize,
    /// One verdict per suspicious fqdn so far, in name order.
    pub verdicts: Vec<ProvisionalVerdict>,
    /// The current signature catalog, in derivation (id) order.
    pub signatures: Vec<ProvisionalSignature>,
    /// Identical-change clusters, in fingerprint order.
    pub clusters: Vec<ProvisionalCluster>,
}

/// Advisory per-fqdn verdict: what the streaming pass would answer *today*
/// for "is this resource abused?".
#[derive(Debug, Clone)]
pub struct ProvisionalVerdict {
    pub fqdn: Name,
    /// Some provisionally-valid signature matches one of this fqdn's
    /// suspicious changes, and the fqdn is not ruled out.
    pub abused: bool,
    /// Ruled out by the registrar-diversity check (not monotone: can flip
    /// back in a later round).
    pub ruled_out: bool,
    /// First / last day a suspicious change was observed.
    pub first_day: SimTime,
    pub last_day: SimTime,
    /// Feature classes of the provisionally-valid signatures that hit,
    /// sorted and deduplicated.
    pub kinds: Vec<SignatureKind>,
}

/// One derived signature plus its advisory validation verdict.
#[derive(Debug, Clone)]
pub struct ProvisionalSignature {
    pub id: u32,
    pub kind: SignatureKind,
    pub keywords: Vec<String>,
    pub source_members: usize,
    pub source_slds: usize,
    /// Survived this round's validation against the current benign corpus.
    pub valid: bool,
}

/// One identical-change cluster from the registrar rule-out.
#[derive(Debug, Clone)]
pub struct ProvisionalCluster {
    pub key: String,
    pub members: usize,
    pub registrar_count: usize,
    /// Multi-fqdn and confined to ≤1 registrar: members are ruled out.
    pub ruled_out: bool,
}

/// Cached matching state for one signature content key.
struct CachedSig {
    /// A representative signature carrying this key (id irrelevant).
    matcher: Signature,
    /// Verdict per suspicious entry, aligned with the entry list — extended
    /// every round, never recomputed.
    verdicts: Vec<bool>,
    /// Did the key survive the *latest* advisory per-round validation?
    /// Advisory only: finalize revalidates against the final corpus.
    provisional_valid: bool,
}

/// The retro fold. Optionally feed it every round via [`Stage::weekly`]
/// (after the diff stage); consume it with [`IncrementalRetro::finalize`] at
/// the horizon.
pub struct IncrementalRetro {
    exec: ShardedExecutor,
    /// Cursor into `RunState::changes`: everything before it is ingested.
    processed: usize,
    /// Fingerprint → member set, grown by [`crate::benign::fold_cluster_map`].
    cluster_map: HashMap<String, BTreeSet<Name>>,
    /// Current registrar-driven rule-out set (recomputed each round; not
    /// monotone).
    ruled_out: BTreeSet<Name>,
    /// All suspicious changes so far, in `(day, fqdn)` order (append-only:
    /// days strictly increase across rounds, fqdns are sorted within one).
    suspicious: Vec<SuspiciousEntry>,
    /// Fqdns of `suspicious` — the corpus exclusion set.
    suspicious_fqdns: BTreeSet<Name>,
    /// The running greedy grouping over the non-ruled suspicious prefix.
    fold: SignatureFold,
    /// Verdict columns per signature content key.
    match_cache: BTreeMap<SigKey, CachedSig>,
    /// apex → registrar, built from the population on first ingest (the
    /// first org listing an apex wins).
    registrars: Option<HashMap<Name, u16>>,
    min_signature_slds: usize,
    /// Advisory state of the last round, rebuilt by each per-round ingest;
    /// `None` until the first one (and never refreshed by the finalize
    /// catch-up, whose validation is authoritative instead).
    provisional: Option<ProvisionalRound>,
}

impl IncrementalRetro {
    pub fn new(threads: usize) -> Self {
        IncrementalRetro {
            exec: ShardedExecutor::new(threads, crate::exec_metric_names!("retro.incr")),
            processed: 0,
            cluster_map: HashMap::new(),
            ruled_out: BTreeSet::new(),
            suspicious: Vec::new(),
            suspicious_fqdns: BTreeSet::new(),
            fold: SignatureFold::new(),
            match_cache: BTreeMap::new(),
            registrars: None,
            min_signature_slds: 2,
            provisional: None,
        }
    }

    /// The advisory state computed after the most recent round, if any —
    /// what a service-mode sink publishes. See [`ProvisionalRound`] for why
    /// every consumer must carry its provisional flag forward.
    pub fn provisional_round(&self) -> Option<&ProvisionalRound> {
        self.provisional.as_ref()
    }

    fn registrar_of(&self, sld: &Name) -> Option<u16> {
        self.registrars.as_ref().and_then(|m| m.get(sld)).copied()
    }

    /// The benign validation corpus: latest snapshots of serving monitored
    /// fqdns that have not produced a suspicious change. `store.iter()` is
    /// in canonical order, so the `take` samples the same corpus on every
    /// run and thread count.
    fn benign_corpus<'a>(&self, rs: &'a RunState) -> Vec<&'a crate::snapshot::Snapshot> {
        rs.store
            .iter()
            .filter(|s| !self.suspicious_fqdns.contains(&s.fqdn) && s.is_serving())
            .take(4000)
            .collect()
    }

    /// Recompute the rule-out set from the cluster map: members of any
    /// multi-fqdn cluster confined to ≤1 registrar. Pure function of the
    /// map's contents (output is a sorted set), so the map's iteration order
    /// never escapes.
    fn compute_ruled_out(&self) -> BTreeSet<Name> {
        let mut ruled = BTreeSet::new();
        for fqdns in self.cluster_map.values() {
            if fqdns.len() < 2 {
                continue;
            }
            let registrars: BTreeSet<u16> = fqdns
                .iter()
                .filter_map(|f| f.sld())
                .filter_map(|sld| self.registrar_of(&sld))
                .collect();
            if registrars.len() <= 1 {
                ruled.extend(fqdns.iter().cloned());
            }
        }
        ruled
    }

    /// Rebuild the derivation fold over the retained suspicious prefix. The
    /// entry list is already in canonical `(day, fqdn)` order, so a rebuild
    /// reaches exactly the state an uninterrupted fold over the same ruled
    /// set would have.
    fn rebuild_fold(&mut self, changes: &[ChangeRecord]) {
        let mut fold = SignatureFold::new();
        for e in &self.suspicious {
            if !self.ruled_out.contains(&e.fqdn) {
                fold.push(&changes[e.change_idx]);
            }
        }
        self.fold = fold;
    }

    /// Ingest every not-yet-processed change record. `advisory` carries the
    /// round's day and additionally runs the per-round benign validation,
    /// refreshing the `retro.incr.*` round gauges and the structured
    /// [`ProvisionalRound`]. It is `None` during the finalize catch-up,
    /// where the real validation follows immediately, and for rounds no
    /// sink reads (`Scenario::run` passes the day only with a sink
    /// attached).
    pub(crate) fn ingest(&mut self, rs: &RunState, advisory: Option<SimTime>) {
        let _s = obs::span("retro.incr.round", "retro").record_into("retro.incr.round_ns");
        if self.registrars.is_none() {
            let mut m: HashMap<Name, u16> = HashMap::new();
            for org in &rs.world.population.orgs {
                m.entry(org.apex.clone()).or_insert(org.registrar.0);
            }
            self.registrars = Some(m);
            self.min_signature_slds = rs.cfg.min_signature_slds;
        }
        let new = &rs.changes[self.processed..];
        let new_start = self.processed;
        self.processed = rs.changes.len();

        // New suspicious entries, sorted by (day, fqdn) within the batch.
        // Days never decrease across rounds, so appending the sorted batch
        // keeps the whole list in canonical order.
        let mut fresh: Vec<SuspiciousEntry> = new
            .iter()
            .enumerate()
            .filter(|(_, rec)| is_suspicious(rec))
            .map(|(i, rec)| SuspiciousEntry {
                change_idx: new_start + i,
                fqdn: rec.fqdn.clone(),
                day: rec.day,
            })
            .collect();
        fresh.sort_by(|a, b| a.day.cmp(&b.day).then_with(|| a.fqdn.cmp(&b.fqdn)));
        if let (Some(last), Some(first)) = (self.suspicious.last(), fresh.first()) {
            debug_assert!(
                (last.day, &last.fqdn) < (first.day, &first.fqdn),
                "rounds must arrive in increasing (day, fqdn) order"
            );
        }
        obs::counter("retro.incr.rounds").add(1);
        obs::counter("retro.incr.new_suspicious").add(fresh.len() as u64);
        let prev_len = self.suspicious.len();
        for e in &fresh {
            self.suspicious_fqdns.insert(e.fqdn.clone());
        }
        crate::benign::fold_cluster_map(
            &mut self.cluster_map,
            fresh.iter().map(|e| &rs.changes[e.change_idx]),
        );
        self.suspicious.extend(fresh);

        // Registrar rule-out is not monotone; on any membership change the
        // fold restarts from the retained prefix (state-identical to an
        // uninterrupted fold, see module docs).
        let ruled = self.compute_ruled_out();
        if ruled != self.ruled_out {
            self.ruled_out = ruled;
            obs::counter("retro.incr.fold_rebuilds").add(1);
            self.rebuild_fold(&rs.changes);
        } else {
            for i in prev_len..self.suspicious.len() {
                let idx = self.suspicious[i].change_idx;
                if !self.ruled_out.contains(&self.suspicious[i].fqdn) {
                    self.fold.push(&rs.changes[idx]);
                }
            }
        }

        let sigs_all = self.fold.signatures(self.min_signature_slds);

        // Extend every cached verdict column over the new entries: one
        // parallel map over the new records, each task evaluating all cached
        // matchers, scattered back serially in key order.
        let new_entries: Vec<&ChangeRecord> = self.suspicious[prev_len..]
            .iter()
            .map(|e| &rs.changes[e.change_idx])
            .collect();
        if !new_entries.is_empty() && !self.match_cache.is_empty() {
            let matchers: Vec<(SigKey, Signature)> = self
                .match_cache
                .iter()
                .map(|(k, c)| (k.clone(), c.matcher.clone()))
                .collect();
            let columns: Vec<Vec<bool>> = self.exec.map(
                &new_entries,
                || (),
                |_, _, rec| {
                    matchers
                        .iter()
                        .map(|(_, m)| m.matches(&rec.after))
                        .collect()
                },
            );
            for (ki, (key, _)) in matchers.iter().enumerate() {
                let cached = self.match_cache.get_mut(key).expect("key just listed");
                cached.verdicts.extend(columns.iter().map(|col| col[ki]));
            }
        }
        // New signature content keys match against *all* entries so far.
        let mut new_keys: Vec<(SigKey, Signature)> = Vec::new();
        let mut seen: BTreeSet<SigKey> = BTreeSet::new();
        for sig in &sigs_all {
            let key = sig_key(sig);
            if !self.match_cache.contains_key(&key) && seen.insert(key.clone()) {
                new_keys.push((key, sig.clone()));
            }
        }
        if !new_keys.is_empty() {
            obs::counter("retro.incr.match_cache_misses").add(new_keys.len() as u64);
            let all_entries: Vec<&ChangeRecord> = self
                .suspicious
                .iter()
                .map(|e| &rs.changes[e.change_idx])
                .collect();
            let columns: Vec<Vec<bool>> = self.exec.map(
                &all_entries,
                || (),
                |_, _, rec| {
                    new_keys
                        .iter()
                        .map(|(_, m)| m.matches(&rec.after))
                        .collect()
                },
            );
            for (ki, (key, matcher)) in new_keys.into_iter().enumerate() {
                self.match_cache.insert(
                    key,
                    CachedSig {
                        matcher,
                        verdicts: columns.iter().map(|col| col[ki]).collect(),
                        provisional_valid: false,
                    },
                );
            }
        }
        debug_assert!(self
            .match_cache
            .values()
            .all(|c| c.verdicts.len() == self.suspicious.len()));

        obs::gauge("retro.incr.groups").set(self.fold.group_count() as f64);
        obs::gauge("retro.incr.signatures").set(sigs_all.len() as f64);
        if let Some(day) = advisory {
            self.advisory_validation(rs, sigs_all, day);
        }
    }

    /// Per-round sharded validation against the *current* benign corpus plus
    /// the provisional-abuse gauge and the structured [`ProvisionalRound`].
    /// Advisory by design: the corpus shrinks as fqdns turn suspicious, so
    /// these verdicts steer dashboards and service-mode queries, not the
    /// final result.
    fn advisory_validation(&mut self, rs: &RunState, sigs_all: Vec<Signature>, day: SimTime) {
        let _s = obs::span("retro.incr.validate", "retro").record_into("retro.incr.validate_ns");
        let corpus = self.benign_corpus(rs);
        let discarded_keys: BTreeSet<SigKey> = {
            let (kept, _) = validate_signatures_sharded(sigs_all.clone(), &corpus, &self.exec);
            let kept_keys: BTreeSet<SigKey> = kept.iter().map(sig_key).collect();
            sigs_all
                .iter()
                .map(sig_key)
                .filter(|k| !kept_keys.contains(k))
                .collect()
        };
        let mut valid = 0usize;
        for sig in &sigs_all {
            let key = sig_key(sig);
            let ok = !discarded_keys.contains(&key);
            if let Some(c) = self.match_cache.get_mut(&key) {
                c.provisional_valid = ok;
            }
            if ok {
                valid += 1;
            }
        }
        obs::gauge("retro.incr.valid_signatures").set(valid as f64);
        // Provisional abuse: non-ruled suspicious fqdns with at least one
        // provisionally-valid signature hit. Alongside the flat hit vector,
        // keep the matching feature classes per entry so the structured
        // verdicts can say *how* each fqdn was flagged.
        let mut hit = vec![false; self.suspicious.len()];
        let mut hit_kinds: Vec<Vec<SignatureKind>> = vec![Vec::new(); self.suspicious.len()];
        for c in self.match_cache.values().filter(|c| c.provisional_valid) {
            let kind = c.matcher.kind();
            for (i, v) in c.verdicts.iter().enumerate() {
                if *v {
                    hit[i] = true;
                    if !hit_kinds[i].contains(&kind) {
                        hit_kinds[i].push(kind);
                    }
                }
            }
        }

        // Aggregate per fqdn (BTreeMap: verdicts come out in name order).
        let mut per_fqdn: BTreeMap<Name, ProvisionalVerdict> = BTreeMap::new();
        for ((entry, h), kinds) in self.suspicious.iter().zip(&hit).zip(&hit_kinds) {
            let ruled = self.ruled_out.contains(&entry.fqdn);
            let v = per_fqdn
                .entry(entry.fqdn.clone())
                .or_insert_with(|| ProvisionalVerdict {
                    fqdn: entry.fqdn.clone(),
                    abused: false,
                    ruled_out: ruled,
                    first_day: entry.day,
                    last_day: entry.day,
                    kinds: Vec::new(),
                });
            v.ruled_out = ruled;
            v.first_day = v.first_day.min(entry.day);
            v.last_day = v.last_day.max(entry.day);
            if *h && !ruled {
                v.abused = true;
            }
            for k in kinds {
                if !v.kinds.contains(k) {
                    v.kinds.push(*k);
                }
            }
        }
        let abused = per_fqdn.values().filter(|v| v.abused).count();
        obs::gauge("retro.incr.provisional_abuse").set(abused as f64);

        let signatures: Vec<ProvisionalSignature> = sigs_all
            .iter()
            .map(|s| ProvisionalSignature {
                id: s.id,
                kind: s.kind(),
                keywords: s.keywords.clone(),
                source_members: s.source_members,
                source_slds: s.source_slds,
                valid: !discarded_keys.contains(&sig_key(s)),
            })
            .collect();
        let clusters: Vec<ProvisionalCluster> =
            crate::benign::clusters_from_map(&self.cluster_map, |sld| self.registrar_of(sld))
                .into_iter()
                .map(|c| ProvisionalCluster {
                    ruled_out: c.fqdns.len() >= 2 && c.registrar_driven(),
                    key: c.key,
                    members: c.fqdns.len(),
                    registrar_count: c.registrar_count,
                })
                .collect();
        let mut verdicts: Vec<ProvisionalVerdict> = per_fqdn.into_values().collect();
        for v in &mut verdicts {
            v.kinds.sort_unstable();
        }
        self.provisional = Some(ProvisionalRound {
            day,
            signatures_total: sigs_all.len(),
            signatures_valid: valid,
            provisional_abuse: abused,
            fold_groups: self.fold.group_count(),
            verdicts,
            signatures,
            clusters,
        });
    }

    /// Consume the run state and emit: catch up on any tail (the whole log
    /// when no round was ingested), validate against the final benign
    /// corpus (per-round advisory verdicts are deliberately not reused),
    /// read the matched set out of the verdict cache, and assemble
    /// [`StudyResults`].
    pub fn finalize(mut self, rs: RunState) -> StudyResults {
        let _s = obs::span("retro.incr.finalize", "retro").record_into("retro.incr.finalize_ns");
        self.ingest(&rs, None);

        let change_clusters =
            crate::benign::clusters_from_map(&self.cluster_map, |sld| self.registrar_of(sld));
        let sigs_all = self.fold.signatures(self.min_signature_slds);
        let corpus = self.benign_corpus(&rs);
        let (signatures, signatures_discarded) =
            validate_signatures_sharded(sigs_all, &corpus, &self.exec);
        obs::gauge("retro.incr.signatures").set(signatures.len() as f64);
        obs::gauge("retro.incr.signatures_discarded").set(signatures_discarded as f64);
        obs::gauge("retro.incr.clusters").set(change_clusters.len() as f64);

        // Matched kinds per retained entry, read from the verdict columns in
        // kept-signature order.
        let kept_columns: Vec<Option<&CachedSig>> = signatures
            .iter()
            .map(|sig| self.match_cache.get(&sig_key(sig)))
            .collect();
        let mut matched_idx: Vec<(usize, Vec<SignatureKind>)> = Vec::new();
        for (pos, entry) in self.suspicious.iter().enumerate() {
            if self.ruled_out.contains(&entry.fqdn) {
                continue;
            }
            let kinds: Vec<SignatureKind> = signatures
                .iter()
                .zip(&kept_columns)
                .filter(|(sig, col)| match col {
                    Some(c) => c.verdicts[pos],
                    // Cache miss (invariant breach): fall back to a direct
                    // match so correctness never depends on the cache.
                    None => {
                        obs::counter("retro.incr.match_cache_misses").add(1);
                        sig.matches(&rs.changes[entry.change_idx].after)
                    }
                })
                .map(|(sig, _)| sig.kind())
                .collect();
            if !kinds.is_empty() {
                matched_idx.push((entry.change_idx, kinds));
            }
        }
        // The entry list is (day, fqdn)-ordered; the assembly tail wants
        // rs.changes position order. Within one round the two differ (the
        // diff stage emits in monitored order), so re-sort by index.
        matched_idx.sort_unstable_by_key(|(idx, _)| *idx);

        // Content classification of the matched records, in parallel
        // (pure per-record reads).
        let matched_recs: Vec<&ChangeRecord> = matched_idx
            .iter()
            .map(|(idx, _)| &rs.changes[*idx])
            .collect();
        let classified: Vec<(crate::classify::Topic, Vec<contentgen::abuse::SeoTechnique>)> =
            self.exec.map(
                &matched_recs,
                || (),
                |_, _, rec| {
                    (
                        crate::classify::classify_topic(&rec.after),
                        crate::classify::detect_techniques(&rec.after),
                    )
                },
            );
        let matched: Vec<(ChangeRecord, MatchOutcome)> = matched_idx
            .into_iter()
            .zip(classified)
            .map(|((idx, kinds), (topic, techniques))| {
                (
                    rs.changes[idx].clone(),
                    MatchOutcome {
                        kinds,
                        topic,
                        techniques,
                    },
                )
            })
            .collect();

        assemble_results(
            rs,
            change_clusters,
            signatures,
            signatures_discarded,
            matched,
        )
    }
}

impl Stage for IncrementalRetro {
    fn name(&self) -> &'static str {
        "incr_retro"
    }

    fn weekly(&mut self, rs: &mut RunState, now: SimTime) {
        self.ingest(rs, Some(now));
    }
}
