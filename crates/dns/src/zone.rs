//! Authoritative zone storage.
//!
//! A [`Zone`] owns an origin (e.g. `example.com`) and a mutable record set.
//! The study's world mutates zones constantly: organizations add CNAMEs when
//! provisioning cloud resources, *fail to purge them* when the resource is
//! released (creating the dangling records the paper studies), and finally
//! delete or re-point them when a hijack is remediated — the timestamp of
//! that correction is one endpoint of the abuse-duration analysis (§4.4).

use crate::name::Name;
use crate::record::{RecordData, RecordType, ResourceRecord};
use std::collections::HashMap;

/// Result of looking a name up inside one zone.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneLookup {
    /// Records of the requested type exist at the name.
    Found(Vec<ResourceRecord>),
    /// The name exists (has records of *some* type) but not the requested
    /// type — a NODATA answer (NOERROR with empty answer section).
    NoData,
    /// A CNAME exists at the name (and the query was not for CNAME).
    Cname(ResourceRecord),
    /// The name does not exist in the zone at all — NXDOMAIN.
    NxDomain,
}

/// One authoritative zone.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    /// Records keyed by owner name; values hold all types at that name.
    records: HashMap<Name, Vec<ResourceRecord>>,
    /// Reference counts of proper ancestors of record owners — the "empty
    /// non-terminal" index that makes the NXDOMAIN/NODATA distinction O(1)
    /// instead of a zone scan.
    non_terminals: HashMap<Name, u32>,
}

impl Zone {
    /// Create an empty zone.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            records: HashMap::new(),
            non_terminals: HashMap::new(),
        }
    }

    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Adjust the empty-non-terminal refcounts for one owner name.
    fn track_ancestors(&mut self, name: &Name, delta: i32) {
        let mut anc = name.parent();
        while let Some(a) = anc {
            if !a.ends_with(&self.origin) || a.label_count() < self.origin.label_count() {
                break;
            }
            match delta {
                1 => *self.non_terminals.entry(a.clone()).or_insert(0) += 1,
                _ => {
                    if let Some(c) = self.non_terminals.get_mut(&a) {
                        *c -= 1;
                        if *c == 0 {
                            self.non_terminals.remove(&a);
                        }
                    }
                }
            }
            anc = a.parent();
        }
    }

    /// Add a record. The owner name must be at or under the origin.
    /// Adding a CNAME removes conflicting records at the same name (a CNAME
    /// must be the only record at its node, RFC 1034 §3.6.2); adding any
    /// other type at a name holding a CNAME replaces the CNAME.
    pub fn add(&mut self, rr: ResourceRecord) {
        assert!(
            rr.name.ends_with(&self.origin),
            "record {} outside zone {}",
            rr.name,
            self.origin
        );
        let name = rr.name.clone();
        // Most owners hold one record (a CNAME, or a cloud name's A): start
        // at capacity 1, not `Vec`'s minimum first allocation of 4.
        let entry = self
            .records
            .entry(rr.name.clone())
            .or_insert_with(|| Vec::with_capacity(1));
        let was_empty = entry.is_empty();
        match rr.rtype() {
            RecordType::Cname => entry.clear(),
            _ => entry.retain(|r| r.rtype() != RecordType::Cname),
        }
        entry.push(rr);
        if was_empty {
            self.track_ancestors(&name, 1);
        }
    }

    /// Remove all records of `rtype` at `name`. Returns how many were removed.
    pub fn remove_type(&mut self, name: &Name, rtype: RecordType) -> usize {
        let mut removed = 0;
        let mut emptied = false;
        if let Some(rrs) = self.records.get_mut(name) {
            let before = rrs.len();
            rrs.retain(|r| r.rtype() != rtype);
            removed = before - rrs.len();
            if rrs.is_empty() {
                self.records.remove(name);
                emptied = true;
            }
        }
        if emptied {
            self.track_ancestors(name, -1);
        }
        removed
    }

    /// Remove every record at `name` (the "purge the stale record"
    /// remediation). Returns how many were removed.
    pub fn remove_name(&mut self, name: &Name) -> usize {
        let removed = self.records.remove(name).map(|v| v.len()).unwrap_or(0);
        if removed > 0 {
            self.track_ancestors(name, -1);
        }
        removed
    }

    /// Look up `name`/`rtype` with CNAME and wildcard handling.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> ZoneLookup {
        if let Some(rrs) = self.records.get(name) {
            let matching: Vec<ResourceRecord> =
                rrs.iter().filter(|r| r.rtype() == rtype).cloned().collect();
            if !matching.is_empty() {
                return ZoneLookup::Found(matching);
            }
            if rtype != RecordType::Cname {
                if let Some(cname) = rrs.iter().find(|r| r.rtype() == RecordType::Cname) {
                    return ZoneLookup::Cname(cname.clone());
                }
            }
            return ZoneLookup::NoData;
        }
        // Wildcard synthesis (RFC 4592): look for `*.<suffix>` owners.
        let mut ancestor = name.parent();
        while let Some(anc) = ancestor {
            if !anc.ends_with(&self.origin) {
                break;
            }
            if let Ok(wild) = anc.child("*") {
                if let Some(rrs) = self.records.get(&wild) {
                    let synthesized: Vec<ResourceRecord> = rrs
                        .iter()
                        .filter(|r| r.rtype() == rtype)
                        .map(|r| ResourceRecord {
                            name: name.clone(),
                            ..r.clone()
                        })
                        .collect();
                    if !synthesized.is_empty() {
                        return ZoneLookup::Found(synthesized);
                    }
                    if rtype != RecordType::Cname {
                        if let Some(c) = rrs.iter().find(|r| r.rtype() == RecordType::Cname) {
                            return ZoneLookup::Cname(ResourceRecord {
                                name: name.clone(),
                                ..c.clone()
                            });
                        }
                    }
                    return ZoneLookup::NoData;
                }
            }
            // An "empty non-terminal": if any record exists *under* this
            // name, the name itself exists (NODATA, not NXDOMAIN).
            ancestor = anc.parent();
        }
        // Empty non-terminal check via the ancestor refcount index.
        let has_descendants = self.non_terminals.contains_key(name);
        if has_descendants {
            ZoneLookup::NoData
        } else {
            ZoneLookup::NxDomain
        }
    }

    /// All records at a name (any type).
    pub fn records_at(&self, name: &Name) -> &[ResourceRecord] {
        self.records.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of owner names in the zone.
    pub fn name_count(&self) -> usize {
        self.records.len()
    }

    /// Convenience: the CNAME target at `name`, if one exists.
    pub fn cname_target(&self, name: &Name) -> Option<Name> {
        self.records.get(name).and_then(|rrs| {
            rrs.iter().find_map(|r| match &r.data {
                RecordData::Cname(t) => Some(t.clone()),
                _ => None,
            })
        })
    }
}

/// A set of zones with longest-suffix-match dispatch, standing in for "the
/// world's authoritative DNS".
#[derive(Debug, Default, Clone)]
pub struct ZoneSet {
    zones: HashMap<Name, Zone>,
}

impl ZoneSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a zone, replacing any existing zone with the same origin.
    pub fn insert(&mut self, zone: Zone) {
        self.zones.insert(zone.origin().clone(), zone);
    }

    /// Create-or-get a zone for `origin`.
    pub fn zone_mut_or_create(&mut self, origin: &Name) -> &mut Zone {
        self.zones
            .entry(origin.clone())
            .or_insert_with(|| Zone::new(origin.clone()))
    }

    /// The zone whose origin is the longest suffix of `name`.
    pub fn find_zone(&self, name: &Name) -> Option<&Zone> {
        let mut probe = Some(name.clone());
        while let Some(p) = probe {
            if let Some(z) = self.zones.get(&p) {
                return Some(z);
            }
            probe = p.parent();
        }
        None
    }

    /// Mutable variant of [`ZoneSet::find_zone`].
    pub fn find_zone_mut(&mut self, name: &Name) -> Option<&mut Zone> {
        let mut probe = Some(name.clone());
        while let Some(p) = probe {
            if self.zones.contains_key(&p) {
                return self.zones.get_mut(&p);
            }
            probe = p.parent();
        }
        None
    }

    pub fn get(&self, origin: &Name) -> Option<&Zone> {
        self.zones.get(origin)
    }

    pub fn get_mut(&mut self, origin: &Name) -> Option<&mut Zone> {
        self.zones.get_mut(origin)
    }

    pub fn len(&self) -> usize {
        self.zones.len()
    }

    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Every zone, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Zone> {
        self.zones.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a(name: &str, ip: [u8; 4]) -> ResourceRecord {
        ResourceRecord::new(n(name), 300, RecordData::A(Ipv4Addr::from(ip)))
    }

    fn cname(name: &str, target: &str) -> ResourceRecord {
        ResourceRecord::new(n(name), 300, RecordData::Cname(n(target)))
    }

    #[test]
    fn found_nodata_nxdomain() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("www.example.com", [1, 2, 3, 4]));
        assert!(matches!(
            z.lookup(&n("www.example.com"), RecordType::A),
            ZoneLookup::Found(v) if v.len() == 1
        ));
        assert_eq!(
            z.lookup(&n("www.example.com"), RecordType::Mx),
            ZoneLookup::NoData
        );
        assert_eq!(
            z.lookup(&n("gone.example.com"), RecordType::A),
            ZoneLookup::NxDomain
        );
    }

    #[test]
    fn cname_returned_for_other_types() {
        let mut z = Zone::new(n("example.com"));
        z.add(cname("shop.example.com", "shop-prod.azurewebsites.net"));
        match z.lookup(&n("shop.example.com"), RecordType::A) {
            ZoneLookup::Cname(rr) => {
                assert_eq!(rr.name, n("shop.example.com"));
            }
            other => panic!("expected CNAME, got {other:?}"),
        }
        // Asking for the CNAME itself returns Found.
        assert!(matches!(
            z.lookup(&n("shop.example.com"), RecordType::Cname),
            ZoneLookup::Found(_)
        ));
    }

    #[test]
    fn cname_excludes_other_records() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("x.example.com", [1, 1, 1, 1]));
        z.add(cname("x.example.com", "y.example.com"));
        // CNAME displaced the A record.
        assert!(matches!(
            z.lookup(&n("x.example.com"), RecordType::A),
            ZoneLookup::Cname(_)
        ));
        // And adding an A displaces the CNAME again.
        z.add(a("x.example.com", [2, 2, 2, 2]));
        assert!(matches!(
            z.lookup(&n("x.example.com"), RecordType::A),
            ZoneLookup::Found(_)
        ));
    }

    #[test]
    fn wildcard_synthesis() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("*.apps.example.com", [9, 9, 9, 9]));
        match z.lookup(&n("foo.apps.example.com"), RecordType::A) {
            ZoneLookup::Found(v) => {
                assert_eq!(v[0].name, n("foo.apps.example.com"));
            }
            other => panic!("expected wildcard match, got {other:?}"),
        }
        // Wildcard does not match the owner of the wildcard's parent.
        assert_eq!(
            z.lookup(&n("apps.example.com"), RecordType::A),
            ZoneLookup::NoData // empty non-terminal: *.apps exists below it
        );
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("a.b.example.com", [1, 2, 3, 4]));
        assert_eq!(
            z.lookup(&n("b.example.com"), RecordType::A),
            ZoneLookup::NoData
        );
    }

    #[test]
    fn removal() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("www.example.com", [1, 2, 3, 4]));
        assert_eq!(z.remove_type(&n("www.example.com"), RecordType::A), 1);
        assert_eq!(
            z.lookup(&n("www.example.com"), RecordType::A),
            ZoneLookup::NxDomain
        );
        assert_eq!(z.remove_name(&n("nope.example.com")), 0);
    }

    #[test]
    fn zoneset_longest_match() {
        let mut zs = ZoneSet::new();
        zs.insert(Zone::new(n("example.com")));
        zs.insert(Zone::new(n("sub.example.com")));
        assert_eq!(
            zs.find_zone(&n("a.sub.example.com")).unwrap().origin(),
            &n("sub.example.com")
        );
        assert_eq!(
            zs.find_zone(&n("b.example.com")).unwrap().origin(),
            &n("example.com")
        );
        assert!(zs.find_zone(&n("other.net")).is_none());
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_zone_record() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("www.other.net", [1, 2, 3, 4]));
    }

    #[test]
    fn cname_target_helper() {
        let mut z = Zone::new(n("example.com"));
        z.add(cname("s.example.com", "t.azurewebsites.net"));
        assert_eq!(
            z.cname_target(&n("s.example.com")),
            Some(n("t.azurewebsites.net"))
        );
        assert_eq!(z.cname_target(&n("x.example.com")), None);
    }
}
