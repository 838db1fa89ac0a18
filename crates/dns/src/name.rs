//! Domain names.
//!
//! [`Name`] stores a fully-qualified domain name as a sequence of interned
//! lowercase labels (dense [`LabelId`]s into the process-global
//! [`crate::intern`] table). Comparison, hashing and suffix matching are
//! case-insensitive, as DNS requires, and — because equal labels have equal
//! ids — equality, hashing and suffix matching compare integers, never
//! strings. Ordering and display resolve ids back to label text, so the
//! canonical (lexicographic) order every pipeline pass sorts by is exactly
//! what it was when labels were stored as strings. RFC 1035 length limits
//! (63 octets per label, 255 octets per name including the root length
//! byte) are enforced at construction, so every `Name` is a valid DNS name.
//!
//! Names of up to [`INLINE_LABELS`] labels (which covers every name the
//! synthetic world generates, and all but pathological real-world FQDNs)
//! are stored inline: cloning is a 24-byte copy and costs no allocation or
//! reference-count traffic at all. Longer names spill to a shared
//! `Arc<[LabelId]>`.

use crate::intern::{self, LabelId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Errors produced when constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (e.g. `foo..com`).
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong(String),
    /// The whole name exceeded 255 octets in wire form.
    NameTooLong,
    /// A label contained a byte outside `[A-Za-z0-9-_*]`.
    ///
    /// Underscore is permitted (service labels like `_acme-challenge`),
    /// asterisk only as a standalone leftmost label (wildcards).
    InvalidCharacter(char),
    /// `*` appeared somewhere other than as the entire leftmost label.
    BadWildcard,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(l) => write!(f, "label too long: {l:?}"),
            NameError::NameTooLong => write!(f, "name exceeds 255 octets"),
            NameError::InvalidCharacter(c) => write!(f, "invalid character {c:?}"),
            NameError::BadWildcard => write!(f, "wildcard label must be leftmost and alone"),
        }
    }
}

impl std::error::Error for NameError {}

/// Labels stored inline before spilling to shared heap storage.
pub const INLINE_LABELS: usize = 5;

/// Label storage: id sequence, inline for short names.
#[derive(Clone)]
enum Labels {
    Inline {
        len: u8,
        ids: [LabelId; INLINE_LABELS],
    },
    Heap(Arc<[LabelId]>),
}

/// A fully-qualified, case-normalized domain name.
///
/// ```
/// use dns::Name;
/// let n: Name = "Foo.Example.COM".parse().unwrap();
/// assert_eq!(n.to_string(), "foo.example.com");
/// assert!(n.ends_with(&"example.com".parse().unwrap()));
/// assert_eq!(n.label_count(), 3);
/// ```
#[derive(Clone)]
pub struct Name {
    /// Interned labels in most-significant-last order: `www.example.com` is
    /// `["www", "example", "com"]`. Always lowercase (enforced at intern
    /// time by construction-path validation).
    labels: Labels,
}

impl Name {
    /// The DNS root (empty name).
    pub fn root() -> Self {
        Name::from_ids(&[])
    }

    /// Build from an already-interned id slice (internal fast path: parent,
    /// suffix and wildcard operations never revalidate or re-intern).
    fn from_ids(ids: &[LabelId]) -> Self {
        if ids.len() <= INLINE_LABELS {
            let mut inline = [LabelId(0); INLINE_LABELS];
            inline[..ids.len()].copy_from_slice(ids);
            Name {
                labels: Labels::Inline {
                    len: ids.len() as u8,
                    ids: inline,
                },
            }
        } else {
            Name {
                labels: Labels::Heap(ids.into()),
            }
        }
    }

    /// Build from an iterator of labels (leftmost first).
    pub fn from_labels<I, S>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut ids = Vec::new();
        for l in labels {
            ids.push(validate_label(l.as_ref())?);
        }
        let name = Name::from_ids(&ids);
        name.check_total_length()?;
        name.check_wildcard()?;
        Ok(name)
    }

    /// Parse from dotted presentation form. A single trailing dot is allowed
    /// and ignored (`"example.com."`).
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Self::from_labels(s.split('.'))
    }

    /// The interned label ids, leftmost first. Resolve one with
    /// [`LabelId::as_str`] (or rely on its `Deref<Target = str>`).
    pub fn labels(&self) -> &[LabelId] {
        match &self.labels {
            Labels::Inline { len, ids } => &ids[..*len as usize],
            Labels::Heap(ids) => ids,
        }
    }

    /// The labels as strings, leftmost first.
    pub fn label_strs(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.labels().iter().map(|l| l.as_str())
    }

    pub fn label_count(&self) -> usize {
        self.labels().len()
    }

    pub fn is_root(&self) -> bool {
        self.labels().is_empty()
    }

    /// Whether the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.labels().first() == Some(&star_id())
    }

    /// Length of the name in uncompressed wire form, including the root byte.
    pub fn wire_len(&self) -> usize {
        1 + self.label_strs().map(|l| 1 + l.len()).sum::<usize>()
    }

    /// True if `self` equals `suffix` or is a subdomain of it — a pure
    /// integer-slice comparison on the interned ids.
    /// `ends_with(root)` is true for every name.
    pub fn ends_with(&self, suffix: &Name) -> bool {
        let mine = self.labels();
        let theirs = suffix.labels();
        if theirs.len() > mine.len() {
            return false;
        }
        mine[mine.len() - theirs.len()..] == *theirs
    }

    /// True if `self` is a *strict* subdomain of `ancestor`.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        self.label_count() > ancestor.label_count() && self.ends_with(ancestor)
    }

    /// The immediate parent (drops the leftmost label). Root's parent is None.
    pub fn parent(&self) -> Option<Name> {
        let ids = self.labels();
        if ids.is_empty() {
            None
        } else {
            Some(Name::from_ids(&ids[1..]))
        }
    }

    /// Prepend a label, producing a child name.
    pub fn child(&self, label: &str) -> Result<Name, NameError> {
        let l = validate_label(label)?;
        let mut ids = Vec::with_capacity(self.label_count() + 1);
        ids.push(l);
        ids.extend_from_slice(self.labels());
        let name = Name::from_ids(&ids);
        name.check_total_length()?;
        name.check_wildcard()?;
        Ok(name)
    }

    /// The top-level domain label, if any (`"com"` for `www.example.com`).
    pub fn tld(&self) -> Option<&'static str> {
        self.labels().last().map(|l| l.as_str())
    }

    /// The registrable second-level domain (`example.com` for
    /// `a.b.example.com`), treating the last two labels as the SLD. The
    /// paper's dataset reasons in terms of SLDs (Figures 4, 5, 10, 18); a
    /// public-suffix list is out of scope for the synthetic world, which only
    /// generates two-label registrable domains.
    pub fn sld(&self) -> Option<Name> {
        let ids = self.labels();
        if ids.len() < 2 {
            return None;
        }
        Some(Name::from_ids(&ids[ids.len() - 2..]))
    }

    /// True if the name has more labels than its SLD, i.e. it is a subdomain
    /// like `www.example.com` rather than `example.com` itself.
    pub fn is_subdomain(&self) -> bool {
        self.label_count() > 2
    }

    /// Match against a wildcard owner name per RFC 4592: `*.example.com`
    /// matches any name with at least one label followed by `example.com`.
    pub fn matches_wildcard(&self, pattern: &Name) -> bool {
        if !pattern.is_wildcard() {
            return self == pattern;
        }
        let suffix = Name::from_ids(&pattern.labels()[1..]);
        self.is_subdomain_of(&suffix)
    }

    /// Heap bytes this name holds beyond `size_of::<Name>()` — the term a
    /// per-FQDN memory budget charges per stored name. Inline names cost
    /// zero; spilled names pay their shared `Arc` allocation (counted in
    /// full: sharing is an optimization the budget should not rely on).
    /// The interned label text itself is charged once per process via
    /// [`crate::intern::Interner::label_bytes`], not per name.
    pub fn heap_bytes(&self) -> usize {
        match &self.labels {
            Labels::Inline { .. } => 0,
            // Arc<[T]> allocation: strong + weak counts + the slice.
            Labels::Heap(ids) => 2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&ids[..]),
        }
    }

    fn check_total_length(&self) -> Result<(), NameError> {
        if self.wire_len() > 255 {
            Err(NameError::NameTooLong)
        } else {
            Ok(())
        }
    }

    fn check_wildcard(&self) -> Result<(), NameError> {
        let star = star_id();
        for (i, l) in self.labels().iter().enumerate() {
            if (*l == star && i != 0) || (*l != star && l.as_str().contains('*')) {
                return Err(NameError::BadWildcard);
            }
        }
        Ok(())
    }
}

/// The interned id of the wildcard label, cached so `is_wildcard` is one
/// integer compare.
fn star_id() -> LabelId {
    use std::sync::OnceLock;
    static STAR: OnceLock<LabelId> = OnceLock::new();
    *STAR.get_or_init(|| intern::global().intern("*"))
}

fn validate_label(label: &str) -> Result<LabelId, NameError> {
    if label.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if label.len() > 63 {
        return Err(NameError::LabelTooLong(label.to_string()));
    }
    let mut lower = false;
    for c in label.chars() {
        let ok = c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '*';
        if !ok {
            return Err(NameError::InvalidCharacter(c));
        }
        lower |= c.is_ascii_uppercase();
    }
    if lower {
        Ok(intern::global().intern(&label.to_ascii_lowercase()))
    } else {
        // Fast path: already lowercase (the overwhelmingly common case at
        // paper scale), no temporary allocation.
        Ok(intern::global().intern(label))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels() == other.labels()
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.labels().hash(state);
    }
}

/// Canonical order: lexicographic over label *strings*, leftmost label
/// first — byte-for-byte the order `Arc<[String]>` storage derived, which
/// every canonical-order reassembly and `BTreeMap` in the pipeline relies
/// on. Equal ids short-circuit without touching label text; the interner is
/// injective, so unequal ids always resolve to unequal strings.
impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        let a = self.labels();
        let b = other.labels();
        for (x, y) in a.iter().zip(b.iter()) {
            if x != y {
                return x.as_str().cmp(y.as_str());
            }
        }
        a.len().cmp(&b.len())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({:?})", self.to_string())
    }
}

impl fmt::Display for Name {
    /// The root displays as `"."`; other names display dotted without a
    /// trailing dot (presentation form used throughout the study output).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for (i, l) in self.label_strs().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(l)?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// Names serialize as their dotted presentation form (`"www.example.com"`,
/// root as `"."`), the shape every DNS dataset and the study's own output
/// use, rather than as a label array.
impl Serialize for Name {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl Deserialize for Name {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::unexpected("domain name string", v))?;
        Name::parse(s).map_err(|e| serde::Error::custom(format!("invalid name {s:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("Example.COM").to_string(), "example.com");
        assert_eq!(n("example.com.").to_string(), "example.com");
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("").label_count(), 0);
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("WWW.Example.Com"), n("www.example.com"));
    }

    #[test]
    fn label_limits() {
        let long = "a".repeat(63);
        assert!(Name::parse(&format!("{long}.com")).is_ok());
        let too_long = "a".repeat(64);
        assert!(matches!(
            Name::parse(&format!("{too_long}.com")),
            Err(NameError::LabelTooLong(_))
        ));
    }

    #[test]
    fn total_length_limit() {
        // 4 labels of 63 = 4*64+1 = 257 > 255
        let l = "a".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}");
        assert_eq!(Name::parse(&s), Err(NameError::NameTooLong));
        // 3 labels of 63 + one of 59: 3*64 + 60 + 1 = 253 <= 255
        let s = format!("{l}.{l}.{l}.{}", "a".repeat(59));
        assert!(Name::parse(&s).is_ok());
    }

    #[test]
    fn invalid_characters() {
        assert!(matches!(
            Name::parse("exa mple.com"),
            Err(NameError::InvalidCharacter(' '))
        ));
        assert!(matches!(
            Name::parse("foo..com"),
            Err(NameError::EmptyLabel)
        ));
        assert!(Name::parse("_acme-challenge.example.com").is_ok());
    }

    #[test]
    fn suffix_matching() {
        let fqdn = n("shop.assets.example.azurewebsites.net");
        assert!(fqdn.ends_with(&n("azurewebsites.net")));
        assert!(fqdn.ends_with(&n("example.azurewebsites.net")));
        assert!(!fqdn.ends_with(&n("amazonaws.com")));
        assert!(fqdn.ends_with(&Name::root()));
        assert!(fqdn.ends_with(&fqdn));
        assert!(!n("net").ends_with(&fqdn));
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("a.example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn parent_child() {
        let p = n("example.com");
        let c = p.child("www").unwrap();
        assert_eq!(c, n("www.example.com"));
        assert_eq!(c.parent().unwrap(), p);
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn sld_and_tld() {
        assert_eq!(n("a.b.example.com").sld().unwrap(), n("example.com"));
        assert_eq!(n("example.com").sld().unwrap(), n("example.com"));
        assert_eq!(n("com").sld(), None);
        assert_eq!(n("a.b.example.com").tld(), Some("com"));
        assert!(n("a.example.com").is_subdomain());
        assert!(!n("example.com").is_subdomain());
    }

    #[test]
    fn wildcards() {
        let w = n("*.example.com");
        assert!(w.is_wildcard());
        assert!(n("foo.example.com").matches_wildcard(&w));
        assert!(n("a.b.example.com").matches_wildcard(&w));
        assert!(!n("example.com").matches_wildcard(&w));
        assert!(!n("other.com").matches_wildcard(&w));
        // wildcard must be leftmost and alone
        assert_eq!(Name::parse("foo.*.com"), Err(NameError::BadWildcard));
        assert_eq!(Name::parse("f*o.com"), Err(NameError::BadWildcard));
    }

    #[test]
    fn wire_len() {
        // example.com: 1+7 + 1+3 + 1 = 13
        assert_eq!(n("example.com").wire_len(), 13);
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn serde_dotted_string_roundtrip() {
        use serde::{Deserialize, Serialize, Value};
        let name = n("www.Example.com");
        assert_eq!(
            name.to_json_value(),
            Value::String("www.example.com".into())
        );
        assert_eq!(Name::from_json_value(&name.to_json_value()), Ok(name));
        // Root survives the trip through its "." presentation form.
        assert_eq!(
            Name::from_json_value(&Name::root().to_json_value()),
            Ok(Name::root())
        );
        assert!(Name::from_json_value(&Value::String("bad domain".into())).is_err());
    }

    #[test]
    fn interned_ids_are_shared_across_names() {
        let a = n("deep.sub.example.com");
        let b = n("other.example.com");
        // Same label, same id — the property every hot-loop comparison
        // relies on.
        assert_eq!(a.labels()[2], b.labels()[1]);
        assert_eq!(a.labels().last(), b.labels().last());
        assert_eq!(a.labels()[2].as_str(), "example");
    }

    #[test]
    fn short_names_are_inline_long_names_share_storage() {
        // ≤ INLINE_LABELS labels: no heap at all.
        let short = n("a.b.c.example.com");
        assert_eq!(short.label_count(), INLINE_LABELS);
        assert_eq!(short.heap_bytes(), 0);
        // Longer names spill to a shared Arc: clones alias the storage.
        let long = n("a.b.c.d.example.com");
        assert!(long.heap_bytes() > 0);
        let clone = long.clone();
        assert!(std::ptr::eq(
            long.labels().as_ptr(),
            clone.labels().as_ptr()
        ));
        assert_eq!(long, clone);
    }

    #[test]
    fn ordering_matches_string_label_order() {
        // The pre-interning derived order compared label Strings
        // lexicographically, leftmost first, shorter-prefix-first. Pin a
        // few adversarial pairs (shared prefixes, prefix labels, differing
        // lengths) against that oracle.
        let cases = [
            "a.com",
            "aa.com",
            "a.b.com",
            "b.com",
            "a.ab.com",
            "z.a.com",
            "example.com",
            "example.net",
            "www.example.com",
            ".",
        ];
        for x in &cases {
            for y in &cases {
                let nx = n(x);
                let ny = n(y);
                let want = nx
                    .label_strs()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
                    .cmp(&ny.label_strs().map(str::to_string).collect::<Vec<_>>());
                assert_eq!(nx.cmp(&ny), want, "{x} vs {y}");
            }
        }
    }
}
