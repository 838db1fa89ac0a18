//! Property-based tests for the global label interner (256 cases each):
//! dense-id bijection, intern-order determinism under sharded interning,
//! `Name` round-trips through ids (including 63-octet and punycode-shaped
//! "unicode-adjacent" labels), and id stability across a storelog-style
//! record/resume cycle.
//!
//! The interner itself is generic over strings — only `Name` construction
//! restricts the alphabet — so the interner-level properties run on
//! arbitrary printable text (multi-byte characters included) while the
//! `Name`-level properties stick to the RFC 1035 label charset.

use dns::{Interner, Name};
use proptest::prelude::*;
use std::collections::HashMap;
use storelog::intern::InternTable;

/// Arbitrary interner input: printable strings including multi-byte
/// characters (the `\PC` universe), 1–20 chars.
fn arb_free_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("\\PC{1,20}").unwrap()
}

/// Valid DNS labels, biased toward the edges: ordinary labels up to the
/// 63-octet limit, punycode-shaped `xn--` labels (how real unicode names
/// reach the DNS), underscore service labels, and the exact-63-octet case.
fn arb_dns_label() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[a-z0-9_][a-z0-9_-]{0,62}").unwrap(),
        proptest::string::string_regex("xn--[a-z0-9]{1,10}-[a-z0-9]{1,8}").unwrap(),
        proptest::string::string_regex("_[a-z]{1,12}").unwrap(),
        Just("a".repeat(63)),
        Just(format!("x{}9", "-".repeat(61))),
    ]
}

/// Build a `Name` from as many of `labels` as fit the 255-octet wire limit.
fn name_from(labels: &[String]) -> Name {
    let mut kept: Vec<&String> = Vec::new();
    let mut wire = 1usize; // root byte
    for l in labels {
        if wire + 1 + l.len() > 255 {
            break;
        }
        wire += 1 + l.len();
        kept.push(l);
    }
    Name::from_labels(kept).expect("validated labels within limits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dense-id bijection: ids are assigned 0,1,2,… in first-sight order,
    /// distinct strings get distinct ids, equal strings always get the same
    /// id, and every id resolves back to exactly its string.
    #[test]
    fn dense_id_bijection(labels in proptest::collection::vec(arb_free_label(), 1..50)) {
        let t = Interner::new();
        let mut first_ids: HashMap<&str, u32> = HashMap::new();
        for label in &labels {
            let id = t.intern(label);
            match first_ids.get(label.as_str()) {
                // Re-intern: the id must be the one first sight assigned.
                Some(&prev) => prop_assert_eq!(id.index(), prev),
                // First sight: ids are handed out densely, in order.
                None => {
                    prop_assert_eq!(id.index() as usize, first_ids.len());
                    first_ids.insert(label, id.index());
                }
            }
            prop_assert_eq!(t.get(id), label.as_str());
            prop_assert_eq!(t.lookup(label), Some(id));
        }
        prop_assert_eq!(t.len(), first_ids.len());
        // Bijection: no two distinct strings share an id.
        let mut by_id: HashMap<u32, &str> = HashMap::new();
        for (s, id) in &first_ids {
            prop_assert!(by_id.insert(*id, s).is_none(), "id {} assigned twice", id);
        }
    }

    /// Determinism under sharded interning: the crawl's shard workers
    /// admit labels in a schedule-dependent interleaving. The contract is
    /// two-sided — (a) the *same* admission sequence always produces the
    /// same ids (what replay relies on), and (b) *any* interleaving of the
    /// same label population produces the same vocabulary with every label
    /// resolving identically (why ids may never escape into results).
    #[test]
    fn sharded_interning_is_deterministic(
        labels in proptest::collection::vec(arb_free_label(), 1..60),
        shards in 1usize..5,
    ) {
        // Shard the stream by a content hash, then admit round-robin
        // across shards — a deterministic stand-in for a thread schedule.
        let mut per_shard: Vec<Vec<&String>> = vec![Vec::new(); shards];
        for l in &labels {
            let h = simcore::fnv1a(l.as_bytes());
            per_shard[(h % shards as u64) as usize].push(l);
        }
        let sharded_order: Vec<&String> = {
            let mut out = Vec::new();
            let mut cursors = vec![0usize; shards];
            loop {
                let mut progressed = false;
                for (s, cursor) in cursors.iter_mut().enumerate() {
                    if let Some(l) = per_shard[s].get(*cursor) {
                        out.push(*l);
                        *cursor += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            out
        };

        // (a) Same sequence, fresh tables: identical ids.
        let a = Interner::new();
        let b = Interner::new();
        for l in &sharded_order {
            prop_assert_eq!(a.intern(l).index(), b.intern(l).index());
        }

        // (b) Different interleavings (arrival order vs sharded order):
        // same vocabulary, and every label resolves to itself in both.
        let arrival = Interner::new();
        for l in &labels {
            let id = arrival.intern(l);
            prop_assert_eq!(arrival.get(id), l.as_str());
        }
        prop_assert_eq!(arrival.len(), a.len());
        for l in &labels {
            let ia = arrival.lookup(l).expect("interned on arrival");
            let is = a.lookup(l).expect("interned via shards");
            prop_assert_eq!(arrival.get(ia), a.get(is));
        }
    }

    /// `Name` round-trips through its interned ids: rebuilding from the id
    /// strings, and re-parsing the display form, reproduce an equal name —
    /// at the 63-octet label edge and for punycode-shaped labels too.
    #[test]
    fn name_roundtrip_through_ids(
        labels in proptest::collection::vec(arb_dns_label(), 1..6),
    ) {
        let name = name_from(&labels);
        // Through the ids.
        let rebuilt = Name::from_labels(name.labels().iter().map(|id| id.as_str()))
            .expect("labels came from a valid name");
        prop_assert_eq!(&rebuilt, &name);
        // Through the presentation form.
        let reparsed: Name = name.to_string().parse().expect("display form reparses");
        prop_assert_eq!(&reparsed, &name);
        // Ids are the global interner's: equal labels share ids across
        // independently constructed names.
        for (i, id) in name.labels().iter().enumerate() {
            prop_assert_eq!(rebuilt.labels()[i], *id);
            prop_assert_eq!(id.as_str().len() <= 63, true);
        }
    }

    /// Name ordering over interned ids must equal lexicographic ordering
    /// of the label strings — the canonical order every pipeline pass
    /// sorts by, unchanged from `Arc<[String]>` storage.
    #[test]
    fn name_order_matches_string_order(
        a in proptest::collection::vec(arb_dns_label(), 1..5),
        b in proptest::collection::vec(arb_dns_label(), 1..5),
    ) {
        let na = name_from(&a);
        let nb = name_from(&b);
        let sa: Vec<&str> = na.labels().iter().map(|l| l.as_str()).collect();
        let sb: Vec<&str> = nb.labels().iter().map(|l| l.as_str()).collect();
        prop_assert_eq!(na.cmp(&nb), sa.cmp(&sb));
        prop_assert_eq!(na == nb, sa == sb);
    }

    /// Id stability across a storelog-style resume: replaying the recorded
    /// label stream into a fresh table reassigns exactly the recorded ids
    /// (dense, first-sight order), and the global-interner design agrees
    /// with `storelog::intern::InternTable` — the streaming-intern scheme
    /// it reuses — id for id.
    #[test]
    fn id_stability_across_storelog_resume(
        labels in proptest::collection::vec(arb_free_label(), 1..60),
    ) {
        // Record: a storelog intern table sees the stream once.
        let mut recorded = InternTable::new();
        let mut sink = Vec::new();
        let record_ids: Vec<u32> = labels
            .iter()
            .map(|l| {
                recorded.put_ref(l, &mut sink);
                recorded.lookup(l).expect("just interned")
            })
            .collect();

        // Resume: a fresh process replays the same stream.
        let mut resumed = InternTable::new();
        let replay_ids: Vec<u32> = labels
            .iter()
            .map(|l| {
                resumed.put_ref(l, &mut sink);
                resumed.lookup(l).expect("just interned")
            })
            .collect();
        prop_assert_eq!(&record_ids, &replay_ids);

        // The global-interner design assigns the same dense ids for the
        // same stream, and resolution agrees with the recorded table.
        let fresh = Interner::new();
        for (l, &recorded_id) in labels.iter().zip(&record_ids) {
            let id = fresh.intern(l);
            prop_assert_eq!(id.index(), recorded_id);
            prop_assert_eq!(fresh.get(id), recorded.get(recorded_id));
        }
        prop_assert_eq!(fresh.len(), resumed.len());
    }
}
