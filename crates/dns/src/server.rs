//! Authoritative lookup.
//!
//! [`lookup_in`] answers a typed query against a [`ZoneSet`] the way an
//! authoritative server would: in-zone CNAME chains are followed and
//! included in the answers, NXDOMAIN (no such name) is kept apart from
//! NODATA (`NoError` with no answers: the name exists, the type does not),
//! and out-of-zone names get REFUSED. [`lookup_from`] is the same answer
//! for a caller that already found the question's zone, so a question
//! costs one zone search however it is dispatched.

use crate::name::Name;
use crate::record::{Rcode, RecordData, RecordType, ResourceRecord};
use crate::zone::{Zone, ZoneLookup, ZoneSet};

/// Look `name`/`qtype` up in `zones`: returns `(rcode, answers)`.
///
/// A name outside every zone is REFUSED. In-zone CNAME chains are chased up
/// to a depth limit; chains that leave the known zones stop with the CNAME
/// as the final answer record (the resolver continues from there), matching
/// real-world behaviour.
pub fn lookup_in(zones: &ZoneSet, name: &Name, qtype: RecordType) -> (Rcode, Vec<ResourceRecord>) {
    match zones.find_zone(name) {
        Some(zone) => lookup_from(zones, zone, name, qtype),
        // No zone for the question itself: not our name.
        None => (Rcode::Refused, Vec::new()),
    }
}

/// [`lookup_in`] with the question's zone already found: `zone` must be
/// `zones.find_zone(name)`. Later hops of a CNAME chain search `zones`.
pub fn lookup_from(
    zones: &ZoneSet,
    zone: &Zone,
    name: &Name,
    qtype: RecordType,
) -> (Rcode, Vec<ResourceRecord>) {
    let mut answers: Vec<ResourceRecord> = Vec::new();
    let mut zone = zone;
    let mut current = name.clone();
    // A CNAME chain longer than this inside one authority is a
    // misconfiguration; bail out with what we have.
    const MAX_CHAIN: usize = 16;
    for hop in 0..MAX_CHAIN {
        if hop > 0 {
            // The chain may cross into a different zone we are also
            // authoritative for; if it left our authority, return what we
            // have so far (the CNAMEs: NOERROR).
            match zones.find_zone(&current) {
                Some(z) => zone = z,
                None => return (Rcode::NoError, answers),
            }
        }
        match zone.lookup(&current, qtype) {
            ZoneLookup::Found(mut rrs) => {
                answers.append(&mut rrs);
                return (Rcode::NoError, answers);
            }
            ZoneLookup::Cname(rr) => {
                let target = match &rr.data {
                    RecordData::Cname(t) => t.clone(),
                    _ => unreachable!("ZoneLookup::Cname holds a CNAME"),
                };
                answers.push(rr);
                current = target;
            }
            // If we already collected CNAMEs the overall rcode stays
            // NOERROR (the terminal name exists but lacks the type).
            ZoneLookup::NoData => return (Rcode::NoError, answers),
            // NXDOMAIN applies to the *final* name of the chain; with a
            // preceding CNAME the rcode is still NXDOMAIN per RFC 2308 §2.1.
            ZoneLookup::NxDomain => return (Rcode::NxDomain, answers),
        }
    }
    (Rcode::ServFail, answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn build() -> ZoneSet {
        let mut zs = ZoneSet::new();
        let mut ex = Zone::new(n("example.com"));
        ex.add(ResourceRecord::new(
            n("www.example.com"),
            300,
            RecordData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        ex.add(ResourceRecord::new(
            n("shop.example.com"),
            300,
            RecordData::Cname(n("shop-prod.azurewebsites.net")),
        ));
        ex.add(ResourceRecord::new(
            n("alias.example.com"),
            300,
            RecordData::Cname(n("www.example.com")),
        ));
        zs.insert(ex);
        let mut az = Zone::new(n("azurewebsites.net"));
        az.add(ResourceRecord::new(
            n("shop-prod.azurewebsites.net"),
            60,
            RecordData::A(Ipv4Addr::new(20, 40, 60, 80)),
        ));
        zs.insert(az);
        zs
    }

    #[test]
    fn direct_a() {
        let (rcode, answers) = lookup_in(&build(), &n("www.example.com"), RecordType::A);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn in_authority_cname_chain_followed() {
        let (rcode, answers) = lookup_in(&build(), &n("shop.example.com"), RecordType::A);
        assert_eq!(rcode, Rcode::NoError);
        // CNAME + target A
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].rtype(), RecordType::Cname);
        assert_eq!(answers[1].rtype(), RecordType::A);
    }

    #[test]
    fn same_zone_alias() {
        let (_, answers) = lookup_in(&build(), &n("alias.example.com"), RecordType::A);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[1].data, RecordData::A(Ipv4Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn nxdomain() {
        let (rcode, answers) = lookup_in(&build(), &n("missing.example.com"), RecordType::A);
        assert_eq!(rcode, Rcode::NxDomain);
        assert!(answers.is_empty());
    }

    #[test]
    fn dangling_cname_is_nxdomain_at_target() {
        // The signature situation of the paper: CNAME exists, target zone is
        // ours (azurewebsites.net) but the resource name was released.
        let mut zs = build();
        zs.get_mut(&n("azurewebsites.net"))
            .unwrap()
            .remove_name(&n("shop-prod.azurewebsites.net"));
        let (rcode, answers) = lookup_in(&zs, &n("shop.example.com"), RecordType::A);
        // CNAME is present in answers, final rcode NXDOMAIN.
        assert_eq!(rcode, Rcode::NxDomain);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].rtype(), RecordType::Cname);
    }

    #[test]
    fn nodata_for_wrong_type() {
        // NODATA: the name exists, so NOERROR, but nothing of the type.
        let (rcode, answers) = lookup_in(&build(), &n("www.example.com"), RecordType::Mx);
        assert_eq!(rcode, Rcode::NoError);
        assert!(answers.is_empty());
    }

    #[test]
    fn refused_outside_authority() {
        let (rcode, _) = lookup_in(&build(), &n("www.google.com"), RecordType::A);
        assert_eq!(rcode, Rcode::Refused);
    }

    #[test]
    fn cname_loop_servfails() {
        let mut zs = ZoneSet::new();
        let mut z = Zone::new(n("loop.test"));
        z.add(ResourceRecord::new(
            n("a.loop.test"),
            60,
            RecordData::Cname(n("b.loop.test")),
        ));
        z.add(ResourceRecord::new(
            n("b.loop.test"),
            60,
            RecordData::Cname(n("a.loop.test")),
        ));
        zs.insert(z);
        let (rcode, _) = lookup_in(&zs, &n("a.loop.test"), RecordType::A);
        assert_eq!(rcode, Rcode::ServFail);
    }
}
