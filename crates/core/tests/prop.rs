//! Property tests for the detection pipeline: keyword extraction, diffing,
//! signature matching, the capability model, and the serde round-trips the
//! persistence log depends on.

use attacker::cookievault::can_steal_cookie;
use dangling_core::capability::{capabilities, cookie_access, CookieAccess};
use dangling_core::diff::{diff, ChangeKind};
use dangling_core::keywords::{cluster_key, extract_keywords, overlap, rank_tokens};
use dangling_core::signature::Signature;
use dangling_core::snapshot::Snapshot;
use dns::{Name, Rcode};
use proptest::prelude::*;
use simcore::SimTime;
use std::net::Ipv4Addr;

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        proptest::collection::vec("[a-z]{3,8}", 0..8),
        proptest::collection::vec("[a-z]{3,8}", 0..5),
        proptest::option::of(0u64..2_000_000),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(kws, meta, sitemap, serving, hash)| {
            let mut s = Snapshot::unreachable(
                "x.victim.com".parse().unwrap(),
                SimTime(10),
                Rcode::NoError,
                None,
            );
            if serving {
                s.http_status = Some(200);
            }
            s.index_hash = hash;
            s.page_mut().keywords = kws;
            s.page_mut().meta_keywords = meta;
            s.sitemap_bytes = sitemap;
            s
        })
}

/// Arbitrary valid names in dotted form: 1–4 labels over the accepted
/// alphabet (lowercase alphanumerics, `-`, `_`), each ≤63 chars.
fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec("[a-z0-9_-]{1,12}", 1..5)
        .prop_map(|labels| Name::parse(&labels.join(".")).expect("generated labels are valid"))
}

/// Snapshots exercising the full field surface the observation log must
/// round-trip: unicode titles, arbitrary keyword sets, optional IPs, and
/// None-heavy variants (the common unreachable case).
fn arb_persisted_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        arb_name(),
        0i32..3000,
        proptest::option::of("\\PC{0,24}"),
        proptest::option::of(any::<[u8; 4]>()),
        proptest::option::of(100u16..600),
        proptest::collection::vec("[a-z]{2,10}", 0..6),
        any::<u64>(),
        proptest::option::of(0u64..5_000_000),
        proptest::option::of("\\PC{0,80}"),
    )
        .prop_map(
            |(fqdn, day, title, ip, status, keywords, hash, sitemap, html)| {
                let mut s = Snapshot::unreachable(fqdn, SimTime(day), Rcode::NoError, None);
                s.page_mut().title = title;
                s.ip = ip.map(Ipv4Addr::from);
                s.http_status = status;
                s.page_mut().keywords = keywords;
                s.index_hash = hash;
                s.sitemap_bytes = sitemap;
                s.html = html;
                s
            },
        )
}

fn arb_signature() -> impl Strategy<Value = Signature> {
    (
        proptest::collection::vec("[a-z]{3,8}", 1..4),
        proptest::option::of(Just(400_000u64)),
        any::<bool>(),
    )
        .prop_map(
            |(keywords, min_sitemap_bytes, requires_identifiers)| Signature {
                id: 0,
                keywords,
                min_sitemap_bytes,
                script_markers: Vec::new(),
                requires_identifiers,
                source_members: 2,
                source_slds: 2,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keyword extraction is total, deterministic, bounded, and lowercase.
    #[test]
    fn keywords_total_and_bounded(html in "\\PC{0,500}", k in 0usize..20) {
        let a = extract_keywords(&html, k);
        let b = extract_keywords(&html, k);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.len() <= k);
        for kw in &a {
            prop_assert_eq!(kw.clone(), kw.to_lowercase());
        }
    }

    /// cluster_key is order- and duplicate-insensitive.
    #[test]
    fn cluster_key_canonical(mut kws in proptest::collection::vec("[a-z]{2,6}", 0..8)) {
        let k1 = cluster_key(&kws);
        kws.reverse();
        let dup = kws.first().cloned();
        if let Some(d) = dup {
            kws.push(d);
        }
        prop_assert_eq!(cluster_key(&kws), k1);
    }

    /// overlap is symmetric and within [0, 1].
    #[test]
    fn overlap_symmetric(
        a in proptest::collection::vec("[a-z]{2,5}", 0..8),
        b in proptest::collection::vec("[a-z]{2,5}", 0..8),
    ) {
        let ab = overlap(&a, &b);
        let ba = overlap(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        if !a.is_empty() {
            prop_assert_eq!(overlap(&a, &a), 1.0);
        }
    }

    /// diff(x, x) is always empty; diff never panics on arbitrary pairs.
    #[test]
    fn diff_reflexive_and_total(a in arb_snapshot(), b in arb_snapshot()) {
        prop_assert!(diff(&a, &a).is_empty());
        let kinds = diff(&a, &b);
        // No duplicates.
        let mut sorted: Vec<ChangeKind> = kinds.clone();
        sorted.sort_by_key(|k| format!("{k:?}"));
        sorted.dedup();
        prop_assert_eq!(sorted.len(), kinds.len());
    }

    /// An unreachable snapshot never matches any signature.
    #[test]
    fn dead_snapshots_never_match(sig in arb_signature(), mut snap in arb_snapshot()) {
        snap.http_status = None;
        prop_assert!(!sig.matches(&snap));
    }

    /// Matching is monotone in snapshot richness: adding the signature's own
    /// keywords and raising the sitemap never turns a match into a non-match.
    #[test]
    fn matching_monotone(sig in arb_signature(), mut snap in arb_snapshot()) {
        snap.http_status = Some(200);
        snap.page_mut().identifiers = vec!["phone:62".into()];
        let before = sig.matches(&snap);
        snap.page_mut().keywords.extend(sig.keywords.iter().cloned());
        snap.sitemap_bytes = Some(snap.sitemap_bytes.unwrap_or(0).max(10_000_000));
        let after = sig.matches(&snap);
        prop_assert!(!before || after);
        // And the enriched snapshot always matches.
        prop_assert!(after);
    }

    /// Names serialize as their dotted string and parse back to an equal
    /// name — the on-disk representation every observation record uses.
    #[test]
    fn name_serde_roundtrips_dotted(n in arb_name()) {
        let text = serde_json::to_string(&n).unwrap();
        prop_assert!(text.starts_with('"'), "names must serialize as strings");
        let back: Name = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, n);
    }

    /// Snapshots round-trip through JSON exactly, across unicode titles,
    /// optional IPs/statuses/HTML, and None-heavy unreachable shapes. The
    /// resume guarantee reduces to this property: the replayed crawl batch
    /// equals the recorded one field-for-field.
    #[test]
    fn snapshot_serde_roundtrips(s in arb_persisted_snapshot()) {
        let text = serde_json::to_string(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, s);
    }

    /// The body hash (`simcore::fnv1a`) is deterministic and collision-free on short distinct inputs
    /// differing in one byte.
    #[test]
    fn body_hash_sensitivity(data in proptest::collection::vec(any::<u8>(), 1..128), idx in any::<prop::sample::Index>()) {
        let h1 = simcore::fnv1a(&data);
        prop_assert_eq!(h1, simcore::fnv1a(&data));
        let mut flipped = data.clone();
        let i = idx.index(flipped.len());
        flipped[i] ^= 0xFF;
        prop_assert_ne!(h1, simcore::fnv1a(&flipped));
    }

    /// rank_tokens respects k and never returns stopword-class junk tokens.
    #[test]
    fn rank_tokens_bounds(tokens in proptest::collection::vec("[a-z]{1,8}", 0..60), k in 0usize..10) {
        let ranked = rank_tokens(tokens, k);
        prop_assert!(ranked.len() <= k);
        for t in &ranked {
            prop_assert!(t.len() >= 3);
            prop_assert!(!t.chars().all(|c| c.is_ascii_digit()));
        }
    }

    /// Capability monotonicity: anything stealable from static content is
    /// stealable from a full webserver (given the same HTTPS capability).
    #[test]
    fn capability_monotone(https in any::<bool>(), http_only in any::<bool>(), secure in any::<bool>()) {
        use cloudsim::CapabilityClass::*;
        if can_steal_cookie(StaticContent, https, http_only, secure) {
            prop_assert!(can_steal_cookie(FullWebserver, https, http_only, secure));
        }
        // The rule the hijacks run agrees with the Table 4 row repro prints.
        for class in [StaticContent, FullWebserver] {
            prop_assert_eq!(
                can_steal_cookie(class, true, true, false),
                cookie_access(class) == CookieAccess::AllCookies
            );
        }
        // Full webserver capabilities strictly dominate.
        let s = capabilities(StaticContent);
        let f = capabilities(FullWebserver);
        for (a, b) in [
            (s.file, f.file),
            (s.content, f.content),
            (s.html, f.html),
            (s.javascript, f.javascript),
            (s.headers, f.headers),
            (s.https, f.https),
        ] {
            prop_assert!(!a || b);
        }
    }
}
