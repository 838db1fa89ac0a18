//! Property-based tests for the DNS substrate: name parse/display
//! roundtrips, suffix-algebra invariants, and zone storage under mutation
//! against flat-list oracles.

use dns::zone::ZoneLookup;
use dns::{Name, RecordData, RecordType, ResourceRecord, Zone, ZoneSet};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_][a-z0-9_-]{0,14}").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..6)
        .prop_map(|labels| Name::from_labels(labels).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Name parse/display roundtrip and suffix algebra.
    #[test]
    fn name_parse_display_roundtrip(name in arb_name()) {
        let s = name.to_string();
        let back: Name = s.parse().unwrap();
        prop_assert_eq!(&back, &name);
        // every name ends with its own parent chain
        let mut p = name.parent();
        while let Some(anc) = p {
            prop_assert!(name.ends_with(&anc));
            if anc.label_count() > 0 {
                prop_assert!(name.is_subdomain_of(&anc));
            }
            p = anc.parent();
        }
    }

    /// child() then parent() is the identity.
    #[test]
    fn child_parent_inverse(name in arb_name(), label in arb_label()) {
        if let Ok(c) = name.child(&label) {
            prop_assert_eq!(c.parent().unwrap(), name);
        }
    }
}

const ORIGIN: &str = "z.test";

/// Owners the mutations touch: the apex, nested names whose ancestors are
/// empty non-terminals until something is added at them, and wildcards.
const OWNERS: [&str; 8] = [
    "z.test",
    "a.z.test",
    "b.z.test",
    "a.b.z.test",
    "c.a.b.z.test",
    "*.z.test",
    "*.b.z.test",
    "*.a.b.z.test",
];

/// Names that are never owners: wildcard matches and misses.
const OTHERS: [&str; 5] = [
    "q.z.test",
    "q.b.z.test",
    "q.a.b.z.test",
    "q.q.a.b.z.test",
    "b.q.z.test",
];

const CNAME_TARGETS: [&str; 3] = ["a.z.test", "q.b.z.test", "app.cloud.example"];

const QTYPES: [RecordType; 4] = [
    RecordType::A,
    RecordType::Cname,
    RecordType::Txt,
    RecordType::Mx,
];

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Add(usize, RecordData),
    RemoveType(usize, RecordType),
    RemoveName(usize),
}

fn arb_data() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        (0u8..3).prop_map(|k| RecordData::A(Ipv4Addr::new(10, 0, 0, k))),
        (0..CNAME_TARGETS.len()).prop_map(|t| RecordData::Cname(n(CNAME_TARGETS[t]))),
        (0u8..2).prop_map(|k| RecordData::Txt(vec![format!("v={k}")])),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let owner = 0..OWNERS.len();
    prop_oneof![
        3 => (owner.clone(), arb_data()).prop_map(|(o, d)| Op::Add(o, d)),
        1 => (owner.clone(), 0..3usize).prop_map(|(o, t)| Op::RemoveType(o, QTYPES[t])),
        1 => owner.prop_map(Op::RemoveName),
    ]
}

/// Apply `op` to the flat record list the way RFC 1034 §3.6.2 says a zone
/// must: a CNAME is alone at its name, and any other type displaces it.
fn oracle_apply(flat: &mut Vec<ResourceRecord>, op: &Op) {
    match op {
        Op::Add(o, data) => {
            let owner = n(OWNERS[*o]);
            let adding_cname = data.rtype() == RecordType::Cname;
            flat.retain(|r| r.name != owner || (!adding_cname && r.rtype() != RecordType::Cname));
            flat.push(ResourceRecord::new(owner, 300, data.clone()));
        }
        Op::RemoveType(o, t) => flat.retain(|r| r.name != n(OWNERS[*o]) || r.rtype() != *t),
        Op::RemoveName(o) => flat.retain(|r| r.name != n(OWNERS[*o])),
    }
}

/// The answer at one node's record set, renamed to `qname` (wildcard
/// synthesis); `None` when the node holds no records.
fn oracle_at(at: &[&ResourceRecord], qname: &Name, qtype: RecordType) -> Option<ZoneLookup> {
    if at.is_empty() {
        return None;
    }
    let renamed = |r: &ResourceRecord| ResourceRecord {
        name: qname.clone(),
        ..r.clone()
    };
    let found: Vec<ResourceRecord> = at
        .iter()
        .filter(|r| r.rtype() == qtype)
        .map(|r| renamed(r))
        .collect();
    if !found.is_empty() {
        return Some(ZoneLookup::Found(found));
    }
    let cname = at.iter().find(|r| r.rtype() == RecordType::Cname);
    Some(match cname {
        Some(c) if qtype != RecordType::Cname => ZoneLookup::Cname(renamed(c)),
        _ => ZoneLookup::NoData,
    })
}

/// `Zone::lookup` computed from the flat list: the exact name, else the
/// nearest `*.<ancestor>` inside the zone, else NODATA when anything lives
/// below the name (an empty non-terminal) and NXDOMAIN otherwise.
fn oracle_lookup(flat: &[ResourceRecord], qname: &Name, qtype: RecordType) -> ZoneLookup {
    let at = |owner: &Name| flat.iter().filter(|r| &r.name == owner).collect::<Vec<_>>();
    if let Some(answer) = oracle_at(&at(qname), qname, qtype) {
        return answer;
    }
    let origin = n(ORIGIN);
    let mut anc = qname.parent();
    while let Some(a) = anc.filter(|a| a.ends_with(&origin)) {
        if let Some(answer) = oracle_at(&at(&a.child("*").unwrap()), qname, qtype) {
            return answer;
        }
        anc = a.parent();
    }
    if flat
        .iter()
        .any(|r| r.name != *qname && r.name.ends_with(qname))
    {
        ZoneLookup::NoData
    } else {
        ZoneLookup::NxDomain
    }
}

/// Nested origins, some absent, for the longest-suffix check.
const ORIGINS: [&str; 5] = ["test", "z.test", "b.z.test", "a.b.z.test", "example"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every mutation, every (name, type) lookup and every owner's
    /// record list matches the oracle: the hash-keyed record map and the
    /// empty-non-terminal refcounts stay exact under add/remove churn.
    #[test]
    fn zone_lookup_matches_flat_oracle(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut zone = Zone::new(n(ORIGIN));
        let mut flat: Vec<ResourceRecord> = Vec::new();
        for op in &ops {
            match op {
                Op::Add(o, data) => {
                    zone.add(ResourceRecord::new(n(OWNERS[*o]), 300, data.clone()))
                }
                Op::RemoveType(o, t) => {
                    zone.remove_type(&n(OWNERS[*o]), *t);
                }
                Op::RemoveName(o) => {
                    zone.remove_name(&n(OWNERS[*o]));
                }
            }
            oracle_apply(&mut flat, op);
            for qname in OWNERS.iter().chain(&OTHERS).map(|s| n(s)) {
                for qtype in QTYPES {
                    prop_assert_eq!(
                        zone.lookup(&qname, qtype),
                        oracle_lookup(&flat, &qname, qtype),
                        "{} {:?} after {:?}", qname, qtype, op
                    );
                }
                let at: Vec<&ResourceRecord> = flat.iter().filter(|r| r.name == qname).collect();
                prop_assert_eq!(zone.records_at(&qname).iter().collect::<Vec<_>>(), at);
            }
            let mut owners: Vec<&Name> = flat.iter().map(|r| &r.name).collect();
            owners.sort();
            owners.dedup();
            prop_assert_eq!(zone.name_count(), owners.len());
        }
    }

    /// `find_zone` picks the longest origin that is a suffix of the name.
    #[test]
    fn find_zone_is_longest_suffix(present in proptest::collection::vec(any::<bool>(), 5)) {
        let mut zones = ZoneSet::new();
        let origins: Vec<Name> = ORIGINS
            .iter()
            .zip(&present)
            .filter(|(_, &p)| p)
            .map(|(o, _)| n(o))
            .collect();
        for o in &origins {
            zones.insert(Zone::new(o.clone()));
        }
        for qname in OWNERS.iter().chain(&OTHERS).chain(&ORIGINS).map(|s| n(s)) {
            let want = origins
                .iter()
                .filter(|o| qname.ends_with(o))
                .max_by_key(|o| o.label_count());
            prop_assert_eq!(zones.find_zone(&qname).map(Zone::origin), want);
        }
    }
}
