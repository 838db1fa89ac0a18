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
//!   corpus with [`validate_signatures_sharded`]. This is the one step that
//!   cannot be folded exactly, and the docs say so rather than pretend.
//!
//! ## The delta rule (advisory validation)
//!
//! An advisory round costs what changed since the previous one, not the
//! history. The corpus is a walk of the monitored names kept in canonical
//! order ([`BenignCorpus`]), never a sort of the store. Each corpus member
//! carries a [`MatchStamp`]: what [`Signature::matches`] read from its
//! snapshot (the page `Arc` and the sitemap size) in the previous advisory
//! corpus. A member is *steady* if it was in that corpus and its stamp is
//! unchanged; every other member (new to the corpus, or changed) is
//! *fresh*. Each key then gets one of three treatments:
//!
//! - **kept last round**: matched against the fresh members only;
//! - **discarded last round**: stays discarded if the member that matched
//!   it (its witness) is a steady member of this corpus;
//! - **anything else** (new, skipped a round, or its witness left or
//!   changed): matched against the whole corpus, stopping at the first
//!   match, which becomes its witness.
//!
//! This is exact because matching is pure in (key, stamp) for a serving
//! snapshot, and every corpus member serves. A key kept last round matched
//! no member of the last corpus, so it matches no steady member now: only
//! a fresh one can discard it. A steady witness still matches, so the key
//! is still discarded. The stamp holds a clone of the page `Arc`, so an
//! unchanged pointer really is the same page: nothing else can be
//! allocated at that address while the stamp lives, and a
//! [`Snapshot::page_mut`] write through a shared page copies it first.
//! `advisory_equivalence` pins the resulting stream to a digest recorded
//! before the rule existed, and the unit tests below hold it to
//! `validate_signatures_sharded` over random round sequences.
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
    is_suspicious, validate_signatures_sharded, MatchStamp, Signature, SignatureFold, SignatureKind,
};
use crate::snapshot::{Snapshot, SnapshotStore};
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
    /// The advisory round ([`BenignCorpus::round`]) that last validated this
    /// key; 0 before its first. A key missing from a round's catalog is not
    /// validated that round and keeps its last verdict.
    validated_at: u64,
    /// The corpus member that discarded the key at `validated_at`; `None`
    /// if the key was kept. Together with `validated_at` this is all the
    /// delta rule needs (module docs): a key kept last round is matched
    /// only against the corpus members that are new or changed, and a key
    /// discarded last round stays discarded while its witness stays in the
    /// corpus unchanged.
    witness: Option<Name>,
}

impl CachedSig {
    /// Did the key survive its latest advisory validation? Advisory only:
    /// finalize revalidates against the final corpus.
    fn provisionally_valid(&self) -> bool {
        self.validated_at > 0 && self.witness.is_none()
    }
}

/// Most snapshots a benign validation corpus holds, advisory or final.
const BENIGN_CORPUS_CAP: usize = 4000;

/// One monitored name in the [`BenignCorpus`] list.
struct CorpusName {
    name: Name,
    /// Its `RunState::monitored_shards` id: the store shard holding its
    /// snapshot.
    shard: u16,
    /// Has produced a suspicious change: never in the corpus again.
    suspicious: bool,
    /// What [`Signature::matches`] read from the name's snapshot, held
    /// while the name is in the latest advisory corpus (`None` otherwise).
    stamp: Option<MatchStamp>,
    /// In the latest advisory corpus with the stamp it had in the one
    /// before.
    steady: bool,
}

/// The benign validation corpus: the monitored names in canonical (`Name`)
/// order, each with its shard and a suspicious flag, walked instead of
/// sorting the store. The store's keys are exactly the monitored names
/// (`PersistStage::record_round` refuses a round that leaves one without a
/// snapshot), so the walk reads the same snapshots, in the same order, as
/// a filter over the sorted `SnapshotStore::iter`.
///
/// The list catches up lazily, when a corpus is read: `rs.monitored` only
/// grows, so each catch-up merges the sorted admissions since the last one
/// and flags the names that turned suspicious since, by binary search.
#[derive(Default)]
struct BenignCorpus {
    names: Vec<CorpusName>,
    /// `rs.monitored` prefix already merged into `names`.
    admitted: usize,
    /// `IncrementalRetro::suspicious` prefix already flagged.
    flagged: usize,
    /// Advisory rounds validated so far.
    round: u64,
}

impl BenignCorpus {
    fn position(&self, name: &Name) -> Option<usize> {
        self.names.binary_search_by(|e| e.name.cmp(name)).ok()
    }

    /// Merge the names admitted since the last call (`monitored` and
    /// `shards` are `RunState`'s aligned columns), then flag the suspicious
    /// entries pushed since.
    fn sync(&mut self, monitored: &[Name], shards: &[u16], suspicious: &[SuspiciousEntry]) {
        if self.admitted < monitored.len() {
            let mut fresh: Vec<CorpusName> = monitored[self.admitted..]
                .iter()
                .zip(&shards[self.admitted..])
                .map(|(name, &shard)| CorpusName {
                    name: name.clone(),
                    shard,
                    suspicious: false,
                    stamp: None,
                    steady: false,
                })
                .collect();
            fresh.sort_unstable_by(|a, b| a.name.cmp(&b.name));
            self.admitted = monitored.len();
            // Place each admission by binary search, then move the list
            // over in runs between those places. Comparing two names reads
            // their labels' text, so a merge comparing every listed name
            // each round would cost more than the round's validation.
            let places: Vec<usize> = fresh
                .iter()
                .map(|f| self.names.partition_point(|e| e.name < f.name))
                .collect();
            let mut listed = std::mem::take(&mut self.names).into_iter();
            let mut merged = Vec::with_capacity(listed.len() + fresh.len());
            let mut moved = 0;
            for (f, place) in fresh.into_iter().zip(places) {
                merged.extend(listed.by_ref().take(place - moved));
                moved = place;
                merged.push(f);
            }
            merged.extend(listed);
            self.names = merged;
        }
        for e in &suspicious[self.flagged..] {
            if let Some(i) = self.position(&e.fqdn) {
                self.names[i].suspicious = true;
            }
        }
        self.flagged = suspicious.len();
    }

    /// The corpus: latest snapshots of serving monitored names that have
    /// not produced a suspicious change, the first `cap` in canonical order
    /// (so every run and thread count samples the same corpus), each with
    /// its position in `names`.
    fn members<'s>(&self, store: &'s SnapshotStore, cap: usize) -> Vec<(usize, &'s Snapshot)> {
        let shards = store.shards();
        self.names
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.suspicious)
            .filter_map(|(i, e)| {
                shards[usize::from(e.shard)]
                    .get(&e.name)
                    .filter(|s| s.is_serving())
                    .map(|s| (i, s))
            })
            .take(cap)
            .collect()
    }

    /// One advisory round: walk the corpus, restamp it, and validate
    /// `keys` by the delta rule (module docs), recording each key's round
    /// and witness.
    fn validate(
        &mut self,
        store: &SnapshotStore,
        cap: usize,
        mut keys: Vec<&mut CachedSig>,
        exec: &ShardedExecutor,
    ) {
        self.round += 1;
        let round = self.round;
        let corpus = self.members(store, cap);
        // Restamp: only this corpus's members keep a stamp, so a stamp
        // found here was taken in the previous advisory corpus. Collect the
        // positions (in `corpus`) of the members that are new or changed.
        let mut changed: Vec<usize> = Vec::new();
        let mut members = corpus.iter().enumerate().peekable();
        for (i, e) in self.names.iter_mut().enumerate() {
            let Some((pos, &(_, snap))) = members.next_if(|(_, (m, _))| *m == i) else {
                e.stamp = None;
                e.steady = false;
                continue;
            };
            e.steady = e.stamp.as_ref().is_some_and(|st| st.unchanged(snap));
            if !e.steady {
                e.stamp = Some(MatchStamp::of(snap));
                changed.push(pos);
            }
        }

        let everything: Vec<usize> = (0..corpus.len()).collect();
        let hits: Vec<(usize, Option<usize>)> = {
            let mut scans: Vec<(usize, &Signature, &[usize])> = Vec::new();
            for (k, c) in keys.iter().enumerate() {
                let last_round = c.validated_at > 0 && c.validated_at + 1 == round;
                match &c.witness {
                    None if last_round => scans.push((k, &c.matcher, &changed)),
                    Some(w) if last_round && self.holds_steady(w) => {}
                    _ => scans.push((k, &c.matcher, &everything)),
                }
            }
            let first_match: Vec<Option<usize>> = exec.map(
                &scans,
                || (),
                |_, _, (_, sig, at)| at.iter().copied().find(|&p| sig.matches(corpus[p].1)),
            );
            scans.iter().map(|s| s.0).zip(first_match).collect()
        };
        for (k, hit) in hits {
            keys[k].witness = hit.map(|p| self.names[corpus[p].0].name.clone());
        }
        for c in keys {
            c.validated_at = round;
        }
    }

    /// Is `name` in the current round's corpus with an unchanged stamp?
    fn holds_steady(&self, name: &Name) -> bool {
        self.position(name).is_some_and(|i| self.names[i].steady)
    }
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
    /// The benign validation corpus, with `suspicious` as its exclusion set.
    corpus: BenignCorpus,
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
            corpus: BenignCorpus::default(),
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
                        validated_at: 0,
                        witness: None,
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
    /// final result. Its cost follows what changed since the last advisory
    /// round, not the history (the delta rule, module docs).
    fn advisory_validation(&mut self, rs: &RunState, sigs_all: Vec<Signature>, day: SimTime) {
        let _s = obs::span("retro.incr.validate", "retro").record_into("retro.incr.validate_ns");
        self.corpus
            .sync(&rs.monitored, &rs.monitored_shards, &self.suspicious);
        let catalog: BTreeSet<SigKey> = sigs_all.iter().map(sig_key).collect();
        let keys: Vec<&mut CachedSig> = self
            .match_cache
            .iter_mut()
            .filter(|(k, _)| catalog.contains(*k))
            .map(|(_, c)| c)
            .collect();
        self.corpus
            .validate(&rs.store, BENIGN_CORPUS_CAP, keys, &self.exec);
        // Every catalog key is cached: ingest inserted the new ones.
        let sig_valid: Vec<bool> = sigs_all
            .iter()
            .map(|s| self.match_cache[&sig_key(s)].provisionally_valid())
            .collect();
        let valid = sig_valid.iter().filter(|v| **v).count();
        obs::gauge("retro.incr.valid_signatures").set(valid as f64);
        // Provisional abuse: non-ruled suspicious fqdns with at least one
        // provisionally-valid signature hit. Alongside the flat hit vector,
        // keep the matching feature classes per entry so the structured
        // verdicts can say *how* each fqdn was flagged.
        let mut hit = vec![false; self.suspicious.len()];
        let mut hit_kinds: Vec<Vec<SignatureKind>> = vec![Vec::new(); self.suspicious.len()];
        for c in self
            .match_cache
            .values()
            .filter(|c| c.provisionally_valid())
        {
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
            .zip(sig_valid)
            .map(|(s, valid)| ProvisionalSignature {
                id: s.id,
                kind: s.kind(),
                keywords: s.keywords.clone(),
                source_members: s.source_members,
                source_slds: s.source_slds,
                valid,
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
        self.corpus
            .sync(&rs.monitored, &rs.monitored_shards, &self.suspicious);
        let corpus: Vec<&Snapshot> = self
            .corpus
            .members(&rs.store, BENIGN_CORPUS_CAP)
            .into_iter()
            .map(|(_, s)| s)
            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use dns::Rcode;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseResult;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const VOCAB: &[&str] = &["slot", "judi", "gacor", "casino", "bonus"];

    fn words(rng: &mut StdRng, max: usize) -> Vec<String> {
        let n = rng.gen_range(0..=max);
        (0..n)
            .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())].to_string())
            .collect()
    }

    fn sitemap(rng: &mut StdRng) -> Option<u64> {
        [None, Some(1_000), Some(500_000)][rng.gen_range(0..3)]
    }

    fn status(rng: &mut StdRng) -> Option<u16> {
        [Some(200), Some(200), Some(200), Some(404), Some(503), None][rng.gen_range(0..6)]
    }

    /// A snapshot on a page of its own, small enough that signatures hit
    /// it often.
    fn snapshot(rng: &mut StdRng, fqdn: &Name, day: i32) -> Snapshot {
        let mut s = Snapshot::unreachable(fqdn.clone(), SimTime(day), Rcode::NoError, None);
        s.http_status = status(rng);
        s.sitemap_bytes = sitemap(rng);
        let page = s.page_mut();
        page.keywords = words(rng, 3);
        page.meta_keywords = words(rng, 1);
        if rng.gen_bool(0.3) {
            page.script_srcs = vec!["https://cdn.evil.example/x.js".into()];
        }
        if rng.gen_bool(0.3) {
            page.identifiers = vec!["phone:62x".into()];
        }
        s
    }

    fn signature_pool(rng: &mut StdRng) -> Vec<Signature> {
        (0..10)
            .map(|id| Signature {
                id,
                keywords: {
                    let mut k = words(rng, 2);
                    k.push(VOCAB[rng.gen_range(0..VOCAB.len())].to_string());
                    k
                },
                min_sitemap_bytes: rng.gen_bool(0.3).then_some(400_000),
                script_markers: if rng.gen_bool(0.3) {
                    vec!["evil".into()]
                } else {
                    Vec::new()
                },
                requires_identifiers: rng.gen_bool(0.2),
                source_members: 2,
                source_slds: 2,
            })
            .collect()
    }

    /// A store and a monitored list grown and rewritten at random, round by
    /// round, with every kind of write the validation must notice: pages
    /// replaced, pages written through `page_mut` (in place or, while the
    /// corpus holds the page's stamp, copied), pages inherited unchanged,
    /// sitemap sizes and serving flips. Every advisory round, the delta
    /// validation must give each catalog key the verdict that
    /// `validate_signatures_sharded` gives it over the filtered, sorted
    /// `store.iter()` corpus, which must also be the walked corpus.
    fn check_rounds(seed: u64, cap: usize, rounds: usize) -> TestCaseResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let exec = ShardedExecutor::new(2, crate::exec_metric_names!("test.incr"));
        let pool: Vec<Name> = (0..30)
            .map(|i| format!("h{}.site{}.com", i, i % 7).parse().unwrap())
            .collect();
        let sigs = signature_pool(&mut rng);
        let mut store = SnapshotStore::with_shards(4);
        let mut monitored: Vec<Name> = Vec::new();
        let mut shards: Vec<u16> = Vec::new();
        let mut suspicious: Vec<SuspiciousEntry> = Vec::new();
        let mut cache: BTreeMap<SigKey, CachedSig> = BTreeMap::new();
        let mut corpus = BenignCorpus::default();

        for round in 0..rounds {
            let day = round as i32 * 7;
            // Admissions, each with its first snapshot.
            for _ in 0..rng.gen_range(0..4) {
                let name = &pool[rng.gen_range(0..pool.len())];
                if !monitored.contains(name) {
                    monitored.push(name.clone());
                    shards.push(store.shard_id(name));
                    store.insert(snapshot(&mut rng, name, day));
                }
            }
            // Rewrites of monitored names' snapshots.
            for (name, &shard) in monitored.iter().zip(&shards) {
                let snap = store.shards_mut()[usize::from(shard)]
                    .get_mut(name)
                    .expect("monitored names have snapshots");
                match rng.gen_range(0..12) {
                    0 => *snap = snapshot(&mut rng, name, day),
                    1 => snap.page_mut().keywords = words(&mut rng, 3),
                    2 => snap.sitemap_bytes = sitemap(&mut rng),
                    3 => snap.http_status = status(&mut rng),
                    4 => {
                        let mut next =
                            Snapshot::unreachable(name.clone(), SimTime(day), Rcode::NoError, None);
                        next.http_status = snap.http_status;
                        next.inherit_features(snap);
                        *snap = next;
                    }
                    _ => {}
                }
            }
            // Names turning suspicious.
            for _ in 0..rng.gen_range(0..2) {
                if monitored.is_empty() {
                    break;
                }
                let fqdn = monitored[rng.gen_range(0..monitored.len())].clone();
                suspicious.push(SuspiciousEntry {
                    change_idx: suspicious.len(),
                    fqdn,
                    day: SimTime(day),
                });
            }
            // This round's catalog: keys appear, vanish and come back.
            let catalog: Vec<&Signature> = sigs.iter().filter(|_| rng.gen_bool(0.6)).collect();
            for sig in &catalog {
                cache.entry(sig_key(sig)).or_insert_with(|| CachedSig {
                    matcher: (*sig).clone(),
                    verdicts: Vec::new(),
                    validated_at: 0,
                    witness: None,
                });
            }
            // Some rounds run no advisory validation (no sink reads them).
            if rng.gen_bool(0.25) {
                continue;
            }

            corpus.sync(&monitored, &shards, &suspicious);
            let keys: BTreeSet<SigKey> = catalog.iter().map(|s| sig_key(s)).collect();
            let wanted: Vec<&mut CachedSig> = cache
                .iter_mut()
                .filter(|(k, _)| keys.contains(*k))
                .map(|(_, c)| c)
                .collect();
            corpus.validate(&store, cap, wanted, &exec);

            let excluded: BTreeSet<&Name> = suspicious.iter().map(|e| &e.fqdn).collect();
            let oracle: Vec<&Snapshot> = store
                .iter()
                .filter(|s| !excluded.contains(&s.fqdn) && s.is_serving())
                .take(cap)
                .collect();
            let walked = corpus.members(&store, cap);
            prop_assert_eq!(walked.len(), oracle.len(), "round {}", round);
            for ((_, w), o) in walked.iter().zip(&oracle) {
                prop_assert!(std::ptr::eq(*w, *o), "round {}: corpus differs", round);
            }
            let (kept, _) = validate_signatures_sharded(
                catalog.iter().map(|s| (*s).clone()).collect(),
                &oracle,
                &exec,
            );
            let kept: BTreeSet<SigKey> = kept.iter().map(sig_key).collect();
            for key in &keys {
                prop_assert_eq!(
                    cache[key].provisionally_valid(),
                    kept.contains(key),
                    "round {}: key {:?}",
                    round,
                    key
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A cap of 8 over up to 30 names: the window fills and slides as
        /// names are admitted ahead of it, turn suspicious or stop serving.
        #[test]
        fn delta_validation_matches_the_oracle_with_a_sliding_window(seed in any::<u64>()) {
            check_rounds(seed, 8, 40)?;
        }

        /// A cap no corpus reaches: the window never slides.
        #[test]
        fn delta_validation_matches_the_oracle_with_an_open_window(seed in any::<u64>()) {
            check_rounds(seed, BENIGN_CORPUS_CAP, 40)?;
        }
    }
}
