//! Authoritative query answering.
//!
//! [`Authority`] wraps a [`ZoneSet`] and answers queries the way a real
//! authoritative server would: in-zone CNAME chains are followed and included
//! in the answer section, negative answers carry the zone SOA in the
//! authority section, and out-of-zone names get REFUSED.

use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::record::{RecordData, RecordType, ResourceRecord};
use crate::zone::{ZoneLookup, ZoneSet};

/// An authoritative DNS server over a set of zones.
#[derive(Debug, Default, Clone)]
pub struct Authority {
    zones: ZoneSet,
}

impl Authority {
    pub fn new(zones: ZoneSet) -> Self {
        Authority { zones }
    }

    pub fn zones(&self) -> &ZoneSet {
        &self.zones
    }

    pub fn zones_mut(&mut self) -> &mut ZoneSet {
        &mut self.zones
    }

    /// Answer a single-question query message.
    pub fn answer(&self, query: &Message) -> Message {
        answer_with(&self.zones, query)
    }

    /// Core lookup: returns `(rcode, answers, authority)`.
    pub fn lookup(
        &self,
        name: &Name,
        qtype: RecordType,
    ) -> (Rcode, Vec<ResourceRecord>, Vec<ResourceRecord>) {
        lookup_in(&self.zones, name, qtype)
    }
}

/// Answer a single-question query against a borrowed [`ZoneSet`]. This is
/// the composition point for multi-authority worlds (organization zones +
/// cloud-platform zones served live from their owners).
pub fn answer_with(zones: &ZoneSet, query: &Message) -> Message {
    let Some(q) = query.questions.first() else {
        return Message::response(query, Rcode::FormErr);
    };
    let (rcode, answers, authority) = lookup_in(zones, &q.name, q.qtype);
    let mut resp = Message::response(query, rcode);
    resp.answers = answers;
    resp.authority = authority;
    resp
}

/// Core lookup against a borrowed [`ZoneSet`]: returns
/// `(rcode, answers, authority)`.
///
/// In-zone CNAME chains are chased up to a depth limit; chains that leave
/// the known zones stop with the CNAME as the final answer record (the
/// resolver continues from there), matching real-world behaviour.
pub fn lookup_in(
    zones: &ZoneSet,
    name: &Name,
    qtype: RecordType,
) -> (Rcode, Vec<ResourceRecord>, Vec<ResourceRecord>) {
    {
        if zones.find_zone(name).is_none() {
            return (Rcode::Refused, Vec::new(), Vec::new());
        }
        let mut answers: Vec<ResourceRecord> = Vec::new();
        let mut current = name.clone();
        // A CNAME chain longer than this inside one authority is a
        // misconfiguration; bail out with what we have.
        const MAX_CHAIN: usize = 16;
        for _ in 0..MAX_CHAIN {
            // The chain may cross into a different zone we are also
            // authoritative for.
            let Some(z) = zones.find_zone(&current) else {
                // Chain left our authority; return what we have so far.
                return (Rcode::NoError, answers, Vec::new());
            };
            match z.lookup(&current, qtype) {
                ZoneLookup::Found(mut rrs) => {
                    answers.append(&mut rrs);
                    return (Rcode::NoError, answers, Vec::new());
                }
                ZoneLookup::Cname(rr) => {
                    let target = match &rr.data {
                        RecordData::Cname(t) => t.clone(),
                        _ => unreachable!("ZoneLookup::Cname holds a CNAME"),
                    };
                    answers.push(rr);
                    current = target;
                }
                ZoneLookup::NoData => {
                    let soa = ResourceRecord::new(
                        z.origin().clone(),
                        z.soa().minimum,
                        RecordData::Soa(z.soa().clone()),
                    );
                    // If we already collected CNAMEs the overall rcode stays
                    // NOERROR (the terminal name exists but lacks the type).
                    return (Rcode::NoError, answers, vec![soa]);
                }
                ZoneLookup::NxDomain => {
                    let soa = ResourceRecord::new(
                        z.origin().clone(),
                        z.soa().minimum,
                        RecordData::Soa(z.soa().clone()),
                    );
                    // NXDOMAIN applies to the *final* name of the chain; with
                    // a preceding CNAME the rcode is still NXDOMAIN per
                    // RFC 2308 §2.1.
                    return (Rcode::NxDomain, answers, vec![soa]);
                }
            }
        }
        (Rcode::ServFail, answers, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::zone::Zone;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn build() -> Authority {
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
        Authority::new(zs)
    }

    #[test]
    fn direct_a() {
        let auth = build();
        let q = Message::query(n("www.example.com"), RecordType::A);
        let r = auth.answer(&q);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn in_authority_cname_chain_followed() {
        let auth = build();
        let q = Message::query(n("shop.example.com"), RecordType::A);
        let r = auth.answer(&q);
        assert_eq!(r.header.rcode, Rcode::NoError);
        // CNAME + target A
        assert_eq!(r.answers.len(), 2);
        assert_eq!(r.answers[0].rtype(), RecordType::Cname);
        assert_eq!(r.answers[1].rtype(), RecordType::A);
    }

    #[test]
    fn same_zone_alias() {
        let auth = build();
        let q = Message::query(n("alias.example.com"), RecordType::A);
        let r = auth.answer(&q);
        assert_eq!(r.answers.len(), 2);
        assert_eq!(r.answers[1].data, RecordData::A(Ipv4Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn nxdomain_with_soa() {
        let auth = build();
        let q = Message::query(n("missing.example.com"), RecordType::A);
        let r = auth.answer(&q);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert!(r.answers.is_empty());
        assert_eq!(r.authority.len(), 1);
        assert_eq!(r.authority[0].rtype(), RecordType::Soa);
    }

    #[test]
    fn dangling_cname_is_nxdomain_at_target() {
        // The signature situation of the paper: CNAME exists, target zone is
        // ours (azurewebsites.net) but the resource name was released.
        let mut auth = build();
        auth.zones_mut()
            .get_mut(&n("azurewebsites.net"))
            .unwrap()
            .remove_name(&n("shop-prod.azurewebsites.net"));
        let q = Message::query(n("shop.example.com"), RecordType::A);
        let r = auth.answer(&q);
        // CNAME is present in answers, final rcode NXDOMAIN.
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].rtype(), RecordType::Cname);
    }

    #[test]
    fn nodata_for_wrong_type() {
        let auth = build();
        let q = Message::query(n("www.example.com"), RecordType::Mx);
        let r = auth.answer(&q);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert_eq!(r.authority.len(), 1);
    }

    #[test]
    fn refused_outside_authority() {
        let auth = build();
        let q = Message::query(n("www.google.com"), RecordType::A);
        let r = auth.answer(&q);
        assert_eq!(r.header.rcode, Rcode::Refused);
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
        let auth = Authority::new(zs);
        let q = Message::query(n("a.loop.test"), RecordType::A);
        let r = auth.answer(&q);
        assert_eq!(r.header.rcode, Rcode::ServFail);
    }
}
