//! Property tests for the v2 binary `ObsRecord` codec: streamed
//! encode→decode identity over arbitrary record sequences (unicode strings,
//! max-length names, None-heavy snapshots, change metadata), intern
//! determinism, and totality of the decoder under truncation.

use dangling_core::diff::ChangeKind;
use dangling_core::pipeline::obs_codec::ShardCodec;
use dangling_core::pipeline::persist::{ChangeMeta, ObsRecord};
use dangling_core::snapshot::Snapshot;
use dns::{Name, Rcode};
use proptest::prelude::*;
use simcore::SimTime;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Arbitrary valid names: 1–4 labels over the accepted alphabet, plus a
/// slot for maximum-length labels (63 chars — the DNS wire limit edge).
fn arb_name() -> impl Strategy<Value = Name> {
    prop_oneof![
        4 => proptest::collection::vec("[a-z0-9_-]{1,12}", 1..5)
            .prop_map(|l| Name::parse(&l.join(".")).expect("valid labels")),
        1 => proptest::collection::vec("[a-z]{63}", 1..4)
            .prop_map(|l| Name::parse(&l.join(".")).expect("valid max labels")),
    ]
}

fn arb_rcode() -> impl Strategy<Value = Rcode> {
    prop_oneof![
        Just(Rcode::NoError),
        Just(Rcode::NxDomain),
        Just(Rcode::ServFail),
        Just(Rcode::Refused),
    ]
}

/// Snapshots over the full field surface: unicode titles/html, optional
/// everything, arbitrary 64-bit hashes and sitemap sizes (including
/// `u64::MAX`, which must not overflow the varint paths).
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        (
            arb_name(),
            0i32..3000,
            arb_rcode(),
            proptest::option::of(arb_name()),
            proptest::option::of(any::<[u8; 4]>()),
            proptest::option::of(100u16..600),
            any::<u64>(),
            any::<u32>(),
        ),
        (
            proptest::option::of("\\PC{0,24}"),
            proptest::option::of("[a-z]{2}"),
            proptest::collection::vec("[a-z]{2,10}", 0..5),
            proptest::collection::vec("[a-z]{2,10}", 0..4),
            proptest::option::of("[A-Za-z0-9 .]{0,16}"),
            proptest::option::of(any::<u64>()),
            proptest::collection::vec("[a-z/.:]{3,20}", 0..4),
            proptest::option::of("\\PC{0,60}"),
        ),
    )
        .prop_map(
            |(
                (fqdn, day, rcode, cname, ip, status, hash, size),
                (title, language, keywords, meta, generator, sitemap, srcs, html),
            )| {
                let mut s = Snapshot::unreachable(fqdn, SimTime(day), rcode, None);
                s.cname_target = cname;
                s.ip = ip.map(Ipv4Addr::from);
                s.http_status = status;
                s.index_hash = hash;
                s.index_size = size;
                s.sitemap_bytes = sitemap;
                let page = s.page_mut();
                page.title = title;
                page.language = language;
                page.keywords = keywords.clone();
                page.meta_keywords = meta;
                page.generator = generator;
                page.script_srcs = srcs;
                page.identifiers = keywords; // reuse: interned lists may repeat
                s.html = html;
                s
            },
        )
}

fn arb_change() -> impl Strategy<Value = ChangeMeta> {
    (
        proptest::collection::vec(0u8..8, 1..4),
        proptest::option::of("[a-z]{2}"),
        proptest::option::of(any::<u64>()),
        any::<bool>(),
        proptest::collection::vec("[a-z]{2,8}", 0..4),
    )
        .prop_map(|(codes, lang, sitemap, serving, kws)| ChangeMeta {
            kinds: codes
                .into_iter()
                .map(|c| {
                    [
                        ChangeKind::Dns,
                        ChangeKind::HttpStatus,
                        ChangeKind::Content,
                        ChangeKind::Language,
                        ChangeKind::SitemapAppeared,
                        ChangeKind::SitemapGrew,
                        ChangeKind::BecameUnreachable,
                        ChangeKind::BecameReachable,
                    ][c as usize]
                })
                .collect(),
            before_language: lang,
            before_sitemap_bytes: sitemap,
            before_serving: serving,
            before_keywords: kws,
        })
}

fn arb_stream() -> impl Strategy<Value = Vec<ObsRecord>> {
    proptest::collection::vec(
        (
            arb_snapshot(),
            proptest::option::of(arb_change()),
            any::<u32>(),
        ),
        1..24,
    )
    .prop_map(|items| {
        // Repeated FQDNs across the stream are likely and intended: later
        // records of the same name become deltas automatically.
        items
            .into_iter()
            .map(|(snap, change, seq)| ObsRecord {
                round: SimTime(snap.day.0),
                seq: seq % 10_000,
                snap,
                change,
            })
            .collect()
    })
}

fn assert_records_equal(a: &ObsRecord, b: &ObsRecord) {
    // ObsRecord has no PartialEq; JSON is its canonical equality surface
    // (it is what the v1 log stored).
    assert_eq!(
        serde_json::to_string(a).unwrap(),
        serde_json::to_string(b).unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Streamed encode→decode identity: any record sequence round-trips
    /// byte-exactly through one shard's codec context, in order.
    #[test]
    fn stream_roundtrips(records in arb_stream()) {
        let mut enc = ShardCodec::new();
        let mut payloads = Vec::new();
        for r in &records {
            let mut buf = Vec::new();
            enc.encode_into(r, &mut buf);
            payloads.push(buf);
        }
        let mut dec = ShardCodec::new();
        for (r, p) in records.iter().zip(&payloads) {
            let back = dec.decode(p).expect("own payload decodes");
            assert_records_equal(&back, r);
        }
        prop_assert_eq!(enc.observed_names(), dec.observed_names());
    }

    /// Intern determinism: encoding the same stream through two fresh
    /// contexts yields byte-identical payloads (table ids depend only on
    /// stream content and order, never on hash-map iteration or timing).
    #[test]
    fn encoding_is_deterministic(records in arb_stream()) {
        let (mut a, mut b) = (ShardCodec::new(), ShardCodec::new());
        for r in &records {
            let (mut pa, mut pb) = (Vec::new(), Vec::new());
            a.encode_into(r, &mut pa);
            b.encode_into(r, &mut pb);
            prop_assert_eq!(pa, pb);
        }
    }

    /// Totality under truncation: every proper prefix of a valid payload
    /// must decode to an error (never panic, never a record).
    #[test]
    fn truncated_payloads_error(records in arb_stream()) {
        let mut enc = ShardCodec::new();
        let mut dec = ShardCodec::new();
        for r in &records {
            let mut buf = Vec::new();
            enc.encode_into(r, &mut buf);
            // Decode prefixes against a clone so the real context advances
            // only by the intact payload.
            for cut in [0, buf.len() / 2, buf.len().saturating_sub(1)] {
                if cut < buf.len() {
                    let mut probe = dec.clone();
                    prop_assert!(probe.decode(&buf[..cut]).is_err());
                }
            }
            dec.decode(&buf).expect("intact payload decodes");
        }
    }

    /// An unchanged re-observation decodes as a delta whose page is the
    /// codec context's — the previous decoded record's — allocation, while
    /// a changed page is a fresh copy that leaves earlier records intact.
    #[test]
    fn unchanged_delta_shares_the_decoded_page(snap in arb_snapshot()) {
        let week = |r: &ObsRecord| {
            let mut next = r.clone();
            next.snap.day = SimTime(r.snap.day.0 + 7);
            next.round = next.snap.day;
            next
        };
        let first = ObsRecord { round: snap.day, seq: 0, snap, change: None };
        let same = week(&first);
        let mut changed = week(&same);
        // Longer than any generated title, so the page really changes.
        changed.snap.page_mut().title = Some("re-registered by a new tenant".into());
        let title = first.snap.page.title.clone();

        let mut enc = ShardCodec::new();
        let mut dec = ShardCodec::new();
        let mut decoded = Vec::new();
        for r in [&first, &same, &changed] {
            let mut buf = Vec::new();
            enc.encode_into(r, &mut buf);
            decoded.push(dec.decode(&buf).expect("decodes"));
        }
        prop_assert!(Arc::ptr_eq(&decoded[0].snap.page, &decoded[1].snap.page));
        prop_assert!(!Arc::ptr_eq(&decoded[1].snap.page, &decoded[2].snap.page));
        prop_assert_eq!(&decoded[1].snap.page.title, &title);
        assert_records_equal(&decoded[1], &same);
        assert_records_equal(&decoded[2], &changed);
    }

    /// Replaying an encoded stream into a second encoder reproduces the
    /// original encoder's context: re-encoding the next record yields the
    /// same bytes (the resume writer-handoff invariant).
    #[test]
    fn decode_rebuilds_the_encoder_context(records in arb_stream()) {
        let mut enc = ShardCodec::new();
        let mut dec = ShardCodec::new();
        let mut last = None;
        for r in &records {
            let mut buf = Vec::new();
            enc.encode_into(r, &mut buf);
            dec.decode(&buf).expect("decodes");
            last = Some(r);
        }
        if let Some(r) = last {
            // One more observation of the final record's FQDN, a week on.
            let mut next = r.clone();
            next.snap.day = SimTime(next.snap.day.0 + 7);
            next.round = SimTime(next.round.0 + 7);
            let (mut via_enc, mut via_dec) = (Vec::new(), Vec::new());
            enc.encode_into(&next, &mut via_enc);
            dec.encode_into(&next, &mut via_dec);
            prop_assert_eq!(via_enc, via_dec);
        }
    }
}
