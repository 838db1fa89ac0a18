//! Snapshot diffing (§3.2).
//!
//! "By comparing these snapshots, including changes to DNS, HTTP response,
//! sitemap (e.g., size changes of 100KB), language changes, and keywords,
//! differences can be detected."

use crate::snapshot::Snapshot;
use dns::Name;
use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// The sitemap-growth threshold the paper names (100 KB).
pub const SITEMAP_JUMP_BYTES: u64 = 100_000;

/// One detected difference class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChangeKind {
    /// CNAME target / terminal IP / rcode changed.
    Dns,
    /// HTTP status class changed (e.g. 404 → 200: a released resource came
    /// back to life — the hijack tell).
    HttpStatus,
    /// Index content hash changed.
    Content,
    /// Detected content language changed.
    Language,
    /// A sitemap appeared where none was.
    SitemapAppeared,
    /// Sitemap grew by ≥ 100 KB.
    SitemapGrew,
    /// Was serving, now unreachable (remediation or release).
    BecameUnreachable,
    /// Was unreachable, now serving (re-registration!).
    BecameReachable,
}

/// A change event with full context for the signature pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChangeRecord {
    pub fqdn: Name,
    pub day: SimTime,
    pub kinds: Vec<ChangeKind>,
    /// Features of the previous state (content features may be empty if the
    /// previous crawl skipped extraction).
    pub before_language: Option<String>,
    pub before_sitemap_bytes: Option<u64>,
    pub before_serving: bool,
    /// Content keywords of the previous state (routine-update suppression).
    pub before_keywords: Vec<String>,
    /// The new snapshot (carries HTML when content changed).
    pub after: Snapshot,
}

/// Compare consecutive snapshots of one FQDN.
pub fn diff(prev: &Snapshot, curr: &Snapshot) -> Vec<ChangeKind> {
    let mut kinds = Vec::new();
    if prev.cname_target != curr.cname_target || prev.rcode != curr.rcode || prev.ip != curr.ip {
        kinds.push(ChangeKind::Dns);
    }
    match (prev.is_serving(), curr.is_serving()) {
        (false, true) => kinds.push(ChangeKind::BecameReachable),
        (true, false) => kinds.push(ChangeKind::BecameUnreachable),
        _ => {
            if prev.http_status != curr.http_status {
                kinds.push(ChangeKind::HttpStatus);
            }
        }
    }
    if curr.is_serving() && prev.index_hash != curr.index_hash && prev.index_hash != 0 {
        kinds.push(ChangeKind::Content);
    }
    if let (Some(a), Some(b)) = (&prev.page.language, &curr.page.language) {
        if a != b {
            kinds.push(ChangeKind::Language);
        }
    }
    match (prev.sitemap_bytes, curr.sitemap_bytes) {
        (None, Some(b)) if prev.is_serving() && b > 0 => kinds.push(ChangeKind::SitemapAppeared),
        (Some(a), Some(b)) if b >= a + SITEMAP_JUMP_BYTES => kinds.push(ChangeKind::SitemapGrew),
        _ => {}
    }
    kinds
}

/// Build a [`ChangeRecord`] when anything changed. `curr` is cloned into the
/// record only then, so the common unchanged crawl copies nothing.
pub fn record(prev: &Snapshot, curr: &Snapshot) -> Option<ChangeRecord> {
    let kinds = diff(prev, curr);
    if kinds.is_empty() {
        return None;
    }
    Some(ChangeRecord {
        fqdn: curr.fqdn.clone(),
        day: curr.day,
        kinds,
        before_language: prev.page.language.clone(),
        before_sitemap_bytes: prev.sitemap_bytes,
        before_serving: prev.is_serving(),
        before_keywords: prev.page.keywords.clone(),
        after: curr.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::Rcode;

    fn base(day: i32) -> Snapshot {
        let mut s = Snapshot::unreachable(
            "x.a.com".parse().unwrap(),
            SimTime(day),
            Rcode::NoError,
            None,
        );
        s.http_status = Some(200);
        s.index_hash = 111;
        s.page_mut().language = Some("en".into());
        s
    }

    #[test]
    fn no_change_no_record() {
        let a = base(0);
        let b = base(7);
        assert!(diff(&a, &b).is_empty());
        assert!(record(&a, &b).is_none());
    }

    #[test]
    fn content_and_language_change() {
        let a = base(0);
        let mut b = base(7);
        b.index_hash = 222;
        b.page_mut().language = Some("id".into());
        let kinds = diff(&a, &b);
        assert!(kinds.contains(&ChangeKind::Content));
        assert!(kinds.contains(&ChangeKind::Language));
    }

    #[test]
    fn reachability_transitions() {
        let mut dead = base(0);
        dead.http_status = None;
        let alive = base(7);
        assert!(diff(&dead, &alive).contains(&ChangeKind::BecameReachable));
        assert!(diff(&alive, &dead).contains(&ChangeKind::BecameUnreachable));
    }

    #[test]
    fn sitemap_thresholds() {
        let mut a = base(0);
        a.sitemap_bytes = Some(50_000);
        let mut b = base(7);
        b.sitemap_bytes = Some(149_000);
        assert!(
            diff(&a, &b).is_empty(),
            "99KB growth is under the threshold"
        );
        b.sitemap_bytes = Some(150_000);
        assert!(diff(&a, &b).contains(&ChangeKind::SitemapGrew));
        // Appearance.
        let none = base(0);
        let mut c = base(7);
        c.sitemap_bytes = Some(10_000);
        assert!(diff(&none, &c).contains(&ChangeKind::SitemapAppeared));
    }

    #[test]
    fn dns_change_detected() {
        let a = base(0);
        let mut b = base(7);
        b.cname_target = Some("new.azurewebsites.net".parse().unwrap());
        assert!(diff(&a, &b).contains(&ChangeKind::Dns));
    }

    #[test]
    fn first_content_after_unreachable_is_not_content_change() {
        // index_hash 0 on the unreachable previous snapshot must not count
        // as a content change (it is a reachability change).
        let mut dead = base(0);
        dead.http_status = None;
        dead.index_hash = 0;
        let alive = base(7);
        let kinds = diff(&dead, &alive);
        assert!(!kinds.contains(&ChangeKind::Content));
        assert!(kinds.contains(&ChangeKind::BecameReachable));
    }
}
