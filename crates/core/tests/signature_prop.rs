//! Property tests for the signature pipeline's determinism and safety
//! contracts (§3.2):
//!
//! - `derive_signatures` is invariant under input shuffling — it sorts its
//!   suspicious records by `(day, fqdn)` internally, and the pipeline
//!   guarantees that key is unique (one change per FQDN per round), so the
//!   generated records keep `(day, fqdn)` pairs unique too;
//! - `validate_signatures_sharded` is the paper's "discard those that fire"
//!   loop, stated as invariants: a kept signature matches no document of the
//!   benign corpus, every discarded one matches at least one, the kept list
//!   keeps input order, and the output is the same at every thread count;
//! - [`SignatureFold`] is *prefix-consistent*: folding the suspicious
//!   stream round by round yields, at every round boundary, exactly the
//!   signatures `derive_signatures` computes over the concatenated prefix —
//!   the invariant that lets the retro fold run at any cadence;
//! - interrupting the fold at a round boundary and resuming from a cloned
//!   snapshot of its state is invisible in the derived signatures.

use dangling_core::diff::{ChangeKind, ChangeRecord};
use dangling_core::pipeline::ShardedExecutor;
use dangling_core::signature::{
    derive_signatures, is_suspicious, validate_signatures_sharded, Signature, SignatureFold,
};
use dangling_core::snapshot::Snapshot;
use dns::Rcode;
use proptest::prelude::*;
use simcore::SimTime;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic Fisher–Yates from a seed.
fn shuffled<T>(mut v: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..v.len()).rev() {
        seed = splitmix(seed);
        v.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    v
}

/// Campaign vocabulary pools: records drawing from the same pool overlap
/// enough (≥ 0.5) to land in one derivation group; different pools do not.
const POOLS: &[&[&str]] = &[
    &["slot", "judi", "gacor", "daftar"],
    &["premium", "domains", "sale", "offer"],
    &["casino", "poker", "bonus", "spin"],
    &["replica", "watches", "luxury", "outlet"],
];

fn snap(fqdn: &str, kws: &[String], sitemap: Option<u64>, ids: &[String]) -> Snapshot {
    let mut s = Snapshot::unreachable(fqdn.parse().unwrap(), SimTime(10), Rcode::NoError, None);
    s.http_status = Some(200);
    s.index_hash = 42;
    s.page_mut().keywords = kws.to_vec();
    s.sitemap_bytes = sitemap;
    s.page_mut().identifiers = ids.to_vec();
    s
}

/// One generated change: pool choice, which 3 of the pool's 4 words, a
/// mass-upload flag, and an identifier flag.
type ChangeSpec = (usize, usize, bool, bool);

/// Materialize specs as records with *unique* `(day, fqdn)` pairs: the FQDN
/// embeds the record index (every change record in one pipeline round has a
/// distinct FQDN), days cycle over a few rounds.
fn build_changes(specs: &[ChangeSpec]) -> Vec<ChangeRecord> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(pool, skip, huge, with_ids))| {
            let pool = POOLS[pool % POOLS.len()];
            let kws: Vec<String> = pool
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != skip % pool.len())
                .map(|(_, w)| w.to_string())
                .collect();
            let fqdn = format!("h{i}.apex{}.com", i % 7);
            let ids: Vec<String> = if with_ids {
                vec![format!("phone:62{}", i % 3)]
            } else {
                Vec::new()
            };
            ChangeRecord {
                fqdn: fqdn.parse().unwrap(),
                day: SimTime(10 + (i as i32 % 4) * 7),
                kinds: vec![ChangeKind::BecameReachable],
                before_language: None,
                before_sitemap_bytes: None,
                before_serving: false,
                before_keywords: Vec::new(),
                after: snap(&fqdn, &kws, huge.then_some(800_000), &ids),
            }
        })
        .collect()
}

fn arb_specs() -> impl Strategy<Value = Vec<ChangeSpec>> {
    proptest::collection::vec(
        (0usize..POOLS.len(), 0usize..4, any::<bool>(), any::<bool>()),
        0..40,
    )
}

/// Benign documents: arbitrary keyword mixes, some drawn from the campaign
/// pools (so validation actually kills signatures sometimes).
fn arb_benign() -> impl Strategy<Value = Vec<Snapshot>> {
    proptest::collection::vec(
        (
            0usize..POOLS.len(),
            proptest::collection::vec("[a-z]{3,8}", 0..4),
            any::<bool>(),
            any::<bool>(),
        ),
        0..20,
    )
    .prop_map(|docs| {
        docs.into_iter()
            .enumerate()
            .map(|(i, (pool, extra, from_pool, huge))| {
                let mut kws: Vec<String> = extra;
                if from_pool {
                    kws.extend(POOLS[pool].iter().map(|w| w.to_string()));
                }
                snap(
                    &format!("benign{i}.other.com"),
                    &kws,
                    huge.then_some(900_000),
                    &[],
                )
            })
            .collect()
    })
}

/// The suspicious stream exactly as the pipeline delivers it to the retro
/// fold at the per-round cadence: suspicious records only, batched into
/// rounds by strictly increasing day, FQDN-sorted within each round.
fn rounds_in_arrival_order(changes: &[ChangeRecord]) -> Vec<Vec<&ChangeRecord>> {
    let mut suspicious: Vec<&ChangeRecord> =
        changes.iter().filter(|rec| is_suspicious(rec)).collect();
    suspicious.sort_by(|a, b| (a.day, &a.fqdn).cmp(&(b.day, &b.fqdn)));
    let mut rounds: Vec<Vec<&ChangeRecord>> = Vec::new();
    for rec in suspicious {
        match rounds.last_mut() {
            Some(round) if round[0].day == rec.day => round.push(rec),
            _ => rounds.push(vec![rec]),
        }
    }
    rounds
}

/// Validate `sigs` against `corpus` at 1, 2 and 8 threads and check the
/// §3.2 contract: the same output at every thread count; the kept list is
/// `sigs` in input order minus the discards; a kept signature matches no
/// corpus document and a discarded one matches at least one. Returns the
/// common `(kept, discarded)`.
fn validate_checked(sigs: &[Signature], corpus: &[&Snapshot]) -> (Vec<Signature>, usize) {
    let runs: Vec<(Vec<Signature>, usize)> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            let exec =
                ShardedExecutor::new(threads, dangling_core::exec_metric_names!("test.sigprop"));
            validate_signatures_sharded(sigs.to_vec(), corpus, &exec)
        })
        .collect();
    for (threads, run) in [2, 8].into_iter().zip(&runs[1..]) {
        assert_eq!(
            *run, runs[0],
            "validation differs between 1 and {threads} threads"
        );
    }
    let (kept, discarded) = runs.into_iter().next().unwrap();
    assert_eq!(kept.len() + discarded, sigs.len());
    let mut next_kept = kept.iter().peekable();
    for sig in sigs {
        let fires_on = corpus.iter().find(|doc| sig.matches(doc));
        if next_kept.peek() == Some(&sig) {
            next_kept.next();
            assert!(
                fires_on.is_none(),
                "kept signature {} fires on {}",
                sig.id,
                fires_on.unwrap().fqdn
            );
        } else {
            assert!(
                fires_on.is_some(),
                "signature {} was discarded but matches no benign page",
                sig.id
            );
        }
    }
    assert!(
        next_kept.next().is_none(),
        "kept signatures are not an in-order subsequence of the input"
    );
    (kept, discarded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shuffling the change set never changes the derived signature list —
    /// not just the set: ids, ordering and source counts are all identical,
    /// because derivation canonicalizes on the unique `(day, fqdn)` key.
    #[test]
    fn derivation_invariant_under_shuffle(specs in arb_specs(), seed in any::<u64>()) {
        let changes = build_changes(&specs);
        let reference = derive_signatures(&changes, 2);
        let perm = shuffled(changes, seed);
        prop_assert_eq!(derive_signatures(&perm, 2), reference);
    }

    /// Validation keeps exactly the signatures no benign page fires on, in
    /// input order, at every thread count.
    #[test]
    fn validation_keeps_exactly_the_signatures_no_benign_page_fires_on(
        specs in arb_specs(),
        benign in arb_benign(),
    ) {
        let sigs = derive_signatures(&build_changes(&specs), 2);
        let corpus: Vec<&Snapshot> = benign.iter().collect();
        validate_checked(&sigs, &corpus);
    }

    /// Prefix-consistency: after every round the streaming fold's signatures
    /// equal `derive_signatures` over the concatenation of all rounds so
    /// far. This is the exact invariant that makes the retro fold's final
    /// results independent of how often it ingests.
    #[test]
    fn fold_is_prefix_consistent_at_every_round_boundary(specs in arb_specs()) {
        let changes = build_changes(&specs);
        let rounds = rounds_in_arrival_order(&changes);
        let mut fold = SignatureFold::new();
        let mut prefix: Vec<ChangeRecord> = Vec::new();
        for round in &rounds {
            for rec in round {
                fold.push(rec);
                prefix.push((*rec).clone());
            }
            prop_assert_eq!(
                fold.signatures(2),
                derive_signatures(&prefix, 2),
                "fold diverged from derive_signatures after day {}",
                round[0].day.0
            );
        }
    }

    /// Interrupting the fold at any round boundary and resuming from a
    /// cloned snapshot of its state is invisible: the resumed fold derives
    /// exactly the signatures of the uninterrupted one. This is what lets a
    /// killed `--persist --incremental` run resume mid-study.
    #[test]
    fn fold_resume_at_round_boundary_is_invisible(specs in arb_specs(), cut in any::<usize>()) {
        let changes = build_changes(&specs);
        let rounds = rounds_in_arrival_order(&changes);
        let cut = if rounds.is_empty() { 0 } else { cut % (rounds.len() + 1) };

        let mut straight = SignatureFold::new();
        for rec in rounds.iter().flatten() {
            straight.push(rec);
        }

        let mut first = SignatureFold::new();
        for rec in rounds[..cut].iter().flatten() {
            first.push(rec);
        }
        let mut resumed = first.clone();
        for rec in rounds[cut..].iter().flatten() {
            resumed.push(rec);
        }

        prop_assert_eq!(resumed.group_count(), straight.group_count());
        prop_assert_eq!(resumed.len(), straight.len());
        prop_assert_eq!(resumed.signatures(2), straight.signatures(2));
    }
}

/// A fixed case of the validation contract where the corpus both kills and
/// spares signatures, so neither branch of the check can pass vacuously.
#[test]
fn validation_contract_holds_with_kept_and_discarded_signatures() {
    let specs: Vec<ChangeSpec> = (0..24)
        .map(|i| (i % 4, i % 3, i % 5 == 0, i % 2 == 0))
        .collect();
    let sigs = derive_signatures(&build_changes(&specs), 2);
    let benign: Vec<Snapshot> = (0..12)
        .map(|i| {
            let kws: Vec<String> = POOLS[i % 2].iter().map(|w| w.to_string()).collect();
            snap(
                &format!("pin{i}.other.com"),
                &kws,
                (i % 2 == 0).then_some(900_000),
                &[],
            )
        })
        .collect();
    let corpus: Vec<&Snapshot> = benign.iter().collect();
    let (kept, discarded) = validate_checked(&sigs, &corpus);
    assert!(discarded > 0, "the corpus must kill some signatures");
    assert!(!kept.is_empty(), "the corpus must spare some signatures");
}
