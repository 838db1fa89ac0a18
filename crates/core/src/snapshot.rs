//! Site snapshots — the unit of longitudinal observation (§3.2).
//!
//! A [`Snapshot`] captures what one weekly crawl of one FQDN saw: the DNS
//! state, the HTTP outcome, and content features. Full HTML is retained only
//! on *change* (the real system also stores samples, not every fetch — the
//! study kept 54,325 abused index files out of millions of fetches).

use contentgen::{extract, lang};
use dns::{Name, Rcode};
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

/// Content features extracted from an index body.
///
/// Shared copy-on-write between snapshots ([`Snapshot::page`]): most weeks a
/// page's body hash is unchanged, and the crawl's inherited snapshot, the
/// log record, the v2 codec's delta base and a change record's `after` all
/// point at one allocation instead of each copying ~20 strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageFeatures {
    pub title: Option<String>,
    /// BCP47-ish tag from content language detection.
    pub language: Option<String>,
    /// Top content keywords (extracted lazily, only when content changed).
    pub keywords: Vec<String>,
    pub meta_keywords: Vec<String>,
    pub generator: Option<String>,
    pub script_srcs: Vec<String>,
    /// Tagged §6 identifiers found on the page.
    pub identifiers: Vec<String>,
}

impl PageFeatures {
    /// Heap bytes owned by this page when it is held alone: the struct, the
    /// `Arc` header (strong + weak counts) and every string (capacities
    /// approximated by length).
    pub fn approx_bytes(&self) -> usize {
        fn s(v: &Option<String>) -> usize {
            v.as_ref().map_or(0, String::len)
        }
        fn vs(v: &[String]) -> usize {
            v.iter()
                .map(|x| std::mem::size_of::<String>() + x.len())
                .sum()
        }
        std::mem::size_of::<PageFeatures>()
            + 2 * std::mem::size_of::<usize>()
            + s(&self.title)
            + s(&self.language)
            + s(&self.generator)
            + vs(&self.keywords)
            + vs(&self.meta_keywords)
            + vs(&self.script_srcs)
            + vs(&self.identifiers)
    }
}

/// The one featureless page every unreachable or not-yet-extracted
/// snapshot shares (so the common case allocates nothing).
fn empty_page() -> &'static Arc<PageFeatures> {
    static EMPTY: OnceLock<Arc<PageFeatures>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(PageFeatures::default()))
}

/// One observation of one FQDN.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub fqdn: Name,
    pub day: SimTime,
    pub rcode: Rcode,
    pub cname_target: Option<Name>,
    pub ip: Option<Ipv4Addr>,
    /// `None` = no HTTP response at all (connection failed / no address).
    pub http_status: Option<u16>,
    /// FNV hash of the served index body (cheap change detector).
    pub index_hash: u64,
    pub index_size: u32,
    /// Content features, shared copy-on-write (write through
    /// [`Snapshot::page_mut`]).
    pub page: Arc<PageFeatures>,
    /// Advertised sitemap size in bytes (`Content-Length` of /sitemap.xml).
    pub sitemap_bytes: Option<u64>,
    /// Retained HTML (only populated for changed/flagged snapshots).
    pub html: Option<String>,
}

impl Snapshot {
    /// An "unreachable" snapshot (NXDOMAIN / no response).
    pub fn unreachable(fqdn: Name, day: SimTime, rcode: Rcode, cname: Option<Name>) -> Self {
        Snapshot {
            fqdn,
            day,
            rcode,
            cname_target: cname,
            ip: None,
            http_status: None,
            index_hash: 0,
            index_size: 0,
            page: empty_page().clone(),
            sitemap_bytes: None,
            html: None,
        }
    }

    /// Mutable access to the content features, unsharing them first if any
    /// other snapshot holds the same page (value semantics).
    pub fn page_mut(&mut self) -> &mut PageFeatures {
        Arc::make_mut(&mut self.page)
    }

    /// Populate content features from an HTML body (the expensive path, run
    /// only when the body hash differs from the previous snapshot).
    pub fn ingest_content(&mut self, html: &str, keep_html: bool) {
        self.index_size = html.len() as u32;
        self.page = Arc::new(PageFeatures {
            title: extract::title(html),
            language: lang::detect(&extract::visible_text_chars(html)).map(|l| l.tag().into()),
            keywords: crate::keywords::extract_keywords(html, 10),
            meta_keywords: extract::meta_keywords(html),
            generator: extract::generator(html),
            script_srcs: extract::script_srcs(html),
            identifiers: extract::identifiers(html).tagged(),
        });
        if keep_html {
            self.html = Some(html.to_string());
        }
    }

    /// Carry content features forward from the previous snapshot when the
    /// body hash is unchanged (the lazy-extraction fast path must not erase
    /// what we know about the site). Shares the previous page, copying
    /// nothing.
    pub fn inherit_features(&mut self, prev: &Snapshot) {
        self.page = Arc::clone(&prev.page);
        self.sitemap_bytes = prev.sitemap_bytes;
    }

    /// Is the FQDN serving content at all?
    pub fn is_serving(&self) -> bool {
        matches!(self.http_status, Some(s) if s < 500)
    }

    /// Approximate resident bytes of this snapshot: the struct itself plus
    /// every owned heap allocation (string capacities approximated by
    /// length). This is the per-snapshot term of the paper-scale
    /// `pipeline.bytes_per_fqdn` budget; interned label text is accounted
    /// once per process by the interner, not here. The page is charged in
    /// full ([`PageFeatures::approx_bytes`]) to every snapshot that holds it,
    /// except the one process-wide empty page.
    pub fn approx_bytes(&self) -> usize {
        let page = if Arc::ptr_eq(&self.page, empty_page()) {
            0
        } else {
            self.page.approx_bytes()
        };
        std::mem::size_of::<Snapshot>()
            + self.fqdn.heap_bytes()
            + self.cname_target.as_ref().map_or(0, Name::heap_bytes)
            + page
            + self.html.as_ref().map_or(0, String::len)
    }
}

/// Serialized flat, in the field order of the pre-`PageFeatures` struct:
/// the v1 log payloads and the golden result digests pin this layout.
impl Serialize for Snapshot {
    fn to_json_value(&self) -> serde::Value {
        use serde::to_value;
        let p = &*self.page;
        serde::Value::Object(vec![
            ("fqdn".into(), to_value(&self.fqdn)),
            ("day".into(), to_value(&self.day)),
            ("rcode".into(), to_value(&self.rcode)),
            ("cname_target".into(), to_value(&self.cname_target)),
            ("ip".into(), to_value(&self.ip)),
            ("http_status".into(), to_value(&self.http_status)),
            ("index_hash".into(), to_value(&self.index_hash)),
            ("index_size".into(), to_value(&self.index_size)),
            ("title".into(), to_value(&p.title)),
            ("language".into(), to_value(&p.language)),
            ("keywords".into(), to_value(&p.keywords)),
            ("meta_keywords".into(), to_value(&p.meta_keywords)),
            ("generator".into(), to_value(&p.generator)),
            ("sitemap_bytes".into(), to_value(&self.sitemap_bytes)),
            ("script_srcs".into(), to_value(&p.script_srcs)),
            ("identifiers".into(), to_value(&p.identifiers)),
            ("html".into(), to_value(&self.html)),
        ])
    }
}

impl Deserialize for Snapshot {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        // Same rules as the derive: a missing field reads as `null`, which
        // only `Option` fields accept.
        fn field<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
            match v.get(name) {
                Some(x) => T::from_json_value(x),
                None => T::from_json_value(&serde::Value::Null).map_err(|_| {
                    serde::Error::custom(format!("missing field `{name}` in Snapshot"))
                }),
            }
        }
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::Error::unexpected("object", v));
        }
        let page = PageFeatures {
            title: field(v, "title")?,
            language: field(v, "language")?,
            keywords: field(v, "keywords")?,
            meta_keywords: field(v, "meta_keywords")?,
            generator: field(v, "generator")?,
            script_srcs: field(v, "script_srcs")?,
            identifiers: field(v, "identifiers")?,
        };
        Ok(Snapshot {
            fqdn: field(v, "fqdn")?,
            day: field(v, "day")?,
            rcode: field(v, "rcode")?,
            cname_target: field(v, "cname_target")?,
            ip: field(v, "ip")?,
            http_status: field(v, "http_status")?,
            index_hash: field(v, "index_hash")?,
            index_size: field(v, "index_size")?,
            page: if page == PageFeatures::default() {
                empty_page().clone()
            } else {
                Arc::new(page)
            },
            sitemap_bytes: field(v, "sitemap_bytes")?,
            html: field(v, "html")?,
        })
    }
}

/// Default shard count for [`SnapshotStore`]. Sixteen keeps per-shard maps
/// small at production scale while staying cheap at test scale.
pub const DEFAULT_SHARDS: usize = 16;

/// The pipeline's one work-partitioning hash: FNV-1a over an FQDN's labels,
/// reduced modulo `n`. A fixed hash — not the std `RandomState` — so the
/// partition is identical across runs, processes and thread counts. Every
/// shard-parallel pass (crawl, Algorithm-1 classification, the retrospective
/// signature matching and clustering) buckets by this same function.
pub fn fqdn_shard(fqdn: &Name, n: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for label in fqdn.labels() {
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0xff; // label separator, so ["ab","c"] != ["a","bc"]
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % n.max(1) as u64) as usize
}

/// Latest-snapshot store, sharded by a stable hash of the FQDN.
///
/// Sharding serves the parallel monitoring pipeline: the crawl executor
/// partitions work by [`SnapshotStore::shard_of`], so every worker thread
/// commits into its own shard, a disjoint slice of the keyspace, and
/// [`SnapshotStore::iter`] yields snapshots in canonical FQDN order — never
/// raw `HashMap` order — so downstream passes (the §3.2 benign-corpus sample
/// in particular) are byte-deterministic for any shard or thread count.
#[derive(Debug)]
pub struct SnapshotStore {
    shards: Vec<HashMap<Name, Snapshot>>,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl SnapshotStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// A store with a specific shard count (minimum 1).
    pub fn with_shards(n: usize) -> Self {
        SnapshotStore {
            shards: (0..n.max(1)).map(|_| HashMap::new()).collect(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an FQDN lives in — [`fqdn_shard`] over this store's shard
    /// count.
    pub fn shard_of(&self, fqdn: &Name) -> usize {
        fqdn_shard(fqdn, self.shards.len())
    }

    /// [`SnapshotStore::shard_of`] as the compact id a pass keeps beside
    /// each name, so it hashes the name once ([`RunState::monitored_shards`]).
    ///
    /// [`RunState::monitored_shards`]: crate::pipeline::RunState::monitored_shards
    pub fn shard_id(&self, fqdn: &Name) -> u16 {
        u16::try_from(self.shard_of(fqdn)).expect("a store has at most 65,536 shards")
    }

    pub fn latest(&self, fqdn: &Name) -> Option<&Snapshot> {
        self.shards[self.shard_of(fqdn)].get(fqdn)
    }

    /// Insert a new snapshot, returning the previous one (for diffing).
    pub fn insert(&mut self, snap: Snapshot) -> Option<Snapshot> {
        let shard = self.shard_of(&snap.fqdn);
        self.shards[shard].insert(snap.fqdn.clone(), snap)
    }

    /// The shards themselves, for a pass that already knows each FQDN's
    /// shard (the hash is not free: it walks every label's text).
    pub(crate) fn shards(&self) -> &[HashMap<Name, Snapshot>] {
        &self.shards
    }

    /// The shards themselves, for a pass that commits into each shard from
    /// its own worker. Shard `i` must only ever hold FQDNs whose
    /// [`SnapshotStore::shard_of`] is `i`.
    pub(crate) fn shards_mut(&mut self) -> &mut [HashMap<Name, Snapshot>] {
        &mut self.shards
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(HashMap::is_empty)
    }

    /// Approximate resident bytes of the whole store: every snapshot's
    /// [`Snapshot::approx_bytes`] plus HashMap bucket overhead (key + value
    /// slot per capacity unit, 7/8 load factor approximated by counting
    /// capacity). Feeds the `pipeline.bytes_per_fqdn` gauge.
    pub fn approx_bytes(&self) -> usize {
        let slot = std::mem::size_of::<(Name, Snapshot)>() + std::mem::size_of::<u64>();
        self.shards
            .iter()
            .map(|m| {
                m.capacity() * slot
                    + m.iter()
                        .map(|(k, v)| {
                            k.heap_bytes() + v.approx_bytes() - std::mem::size_of::<Snapshot>()
                        })
                        .sum::<usize>()
            })
            .sum()
    }

    /// All latest snapshots in canonical (sorted-FQDN) order. O(n log n)
    /// per call, so no pipeline stage calls it per round: the retrospective
    /// pass walks its own name-ordered list of the monitored names instead.
    /// Tests and benches use it as the reference for the canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Snapshot> {
        let mut all: Vec<&Snapshot> = self.shards.iter().flat_map(HashMap::values).collect();
        all.sort_unstable_by(|a, b| a.fqdn.cmp(&b.fqdn));
        all.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_extracts_features() {
        let mut s = Snapshot::unreachable(
            "x.example.com".parse().unwrap(),
            SimTime(0),
            Rcode::NoError,
            None,
        );
        s.http_status = Some(200);
        s.ingest_content(
            "<html><head><title>SLOT GACOR</title>\
             <meta name=\"keywords\" content=\"slot, judi\"></head>\
             <body>daftar situs judi slot online slot</body></html>",
            true,
        );
        assert_eq!(s.page.title.as_deref(), Some("SLOT GACOR"));
        assert_eq!(s.page.language.as_deref(), Some("id"));
        assert!(s.page.keywords.contains(&"slot".to_string()));
        assert_eq!(s.page.meta_keywords, vec!["slot", "judi"]);
        assert!(s.html.is_some());
        assert!(s.is_serving());
    }

    fn serving_page(fqdn: &str) -> Snapshot {
        let mut s = Snapshot::unreachable(fqdn.parse().unwrap(), SimTime(0), Rcode::NoError, None);
        s.http_status = Some(200);
        s.ingest_content(
            "<html><head><title>Shop</title></head><body>buy now</body></html>",
            false,
        );
        s
    }

    #[test]
    fn inherit_features_shares_the_page() {
        let prev = serving_page("shop.example.com");
        let mut next = Snapshot::unreachable(prev.fqdn.clone(), SimTime(7), Rcode::NoError, None);
        next.inherit_features(&prev);
        assert!(Arc::ptr_eq(&next.page, &prev.page));
        assert_eq!(next.page.title.as_deref(), Some("Shop"));
    }

    #[test]
    fn page_mut_on_a_shared_page_copies_on_write() {
        let a = serving_page("shop.example.com");
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.page, &b.page));
        b.page_mut().title = Some("Hijacked".into());
        assert!(!Arc::ptr_eq(&a.page, &b.page));
        assert_eq!(a.page.title.as_deref(), Some("Shop"));
        assert_eq!(b.page.title.as_deref(), Some("Hijacked"));
        assert_eq!(a.page.keywords, b.page.keywords);
    }

    #[test]
    fn serializes_flat_in_the_pinned_field_order() {
        let s = serving_page("shop.example.com");
        let json = serde_json::to_string(&s).unwrap();
        let keys = [
            "fqdn",
            "day",
            "rcode",
            "cname_target",
            "ip",
            "http_status",
            "index_hash",
            "index_size",
            "title",
            "language",
            "keywords",
            "meta_keywords",
            "generator",
            "sitemap_bytes",
            "script_srcs",
            "identifiers",
            "html",
        ];
        let at: Vec<usize> = keys
            .iter()
            .map(|k| json.find(&format!("\"{k}\":")).expect(k))
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{json}");
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // A featureless snapshot decodes onto the shared empty page.
        let dead = Snapshot::unreachable(s.fqdn.clone(), SimTime(7), Rcode::NxDomain, None);
        let back: Snapshot = serde_json::from_str(&serde_json::to_string(&dead).unwrap()).unwrap();
        assert!(Arc::ptr_eq(&back.page, empty_page()));
    }

    #[test]
    fn approx_bytes_charges_the_page_struct() {
        let dead =
            Snapshot::unreachable("a.b.com".parse().unwrap(), SimTime(0), Rcode::NoError, None);
        let live = serving_page("a.b.com");
        assert_eq!(
            live.approx_bytes() - dead.approx_bytes(),
            live.page.approx_bytes()
        );
        assert!(
            live.page.approx_bytes()
                > std::mem::size_of::<PageFeatures>() + 2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn unreachable_defaults() {
        let s = Snapshot::unreachable(
            "gone.example.com".parse().unwrap(),
            SimTime(5),
            Rcode::NxDomain,
            Some("gone.azurewebsites.net".parse().unwrap()),
        );
        assert!(!s.is_serving());
        assert_eq!(s.http_status, None);
        assert!(s.cname_target.is_some());
    }

    #[test]
    fn store_returns_previous() {
        let mut store = SnapshotStore::new();
        let n: Name = "a.b.com".parse().unwrap();
        let s1 = Snapshot::unreachable(n.clone(), SimTime(0), Rcode::NoError, None);
        assert!(store.insert(s1.clone()).is_none());
        let s2 = Snapshot::unreachable(n.clone(), SimTime(7), Rcode::NxDomain, None);
        let prev = store.insert(s2).unwrap();
        assert_eq!(prev.day, SimTime(0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.latest(&n).unwrap().day, SimTime(7));
    }

    #[test]
    fn body_hash_distinguishes() {
        assert_ne!(simcore::fnv1a(b"a"), simcore::fnv1a(b"b"));
        assert_eq!(simcore::fnv1a(b"same"), simcore::fnv1a(b"same"));
    }

    #[test]
    fn store_iterates_in_canonical_order() {
        let mut store = SnapshotStore::with_shards(4);
        for host in ["z.b.com", "a.b.com", "m.b.com", "k.a.com"] {
            store.insert(Snapshot::unreachable(
                host.parse().unwrap(),
                SimTime(0),
                Rcode::NoError,
                None,
            ));
        }
        let order: Vec<String> = store.iter().map(|s| s.fqdn.to_string()).collect();
        let mut sorted = order.clone();
        sorted.sort_by(|a, b| {
            let na: Name = a.parse().unwrap();
            let nb: Name = b.parse().unwrap();
            na.cmp(&nb)
        });
        assert_eq!(order, sorted);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn shard_assignment_is_stable_and_total() {
        let store = SnapshotStore::with_shards(8);
        let n: Name = "host.example.com".parse().unwrap();
        let s = store.shard_of(&n);
        assert!(s < 8);
        assert_eq!(s, store.shard_of(&"HOST.example.com".parse().unwrap()));
        // Different shard counts still cover every name.
        let one = SnapshotStore::with_shards(1);
        assert_eq!(one.shard_of(&n), 0);
    }
}
