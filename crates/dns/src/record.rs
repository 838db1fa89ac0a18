//! Resource records.
//!
//! Covers the record types the study touches: `A` and `CNAME` (Algorithm 1's
//! inputs), `NS` (the stale-NS attack surface of related work), `TXT` (ACME
//! DNS-01 style validation), `MX`, `AAAA`, and `CAA` (§5.6.2's
//! proposed-and-rejected countermeasure), plus the response codes a lookup
//! returns.

use crate::name::Name;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Response codes the study distinguishes. `NxDomain` matters: the paper's
/// feed filtered "more than 87,000,000 non-NXDOMAIN" FQDNs, and hijack
/// remediation usually manifests as a record deletion → NXDOMAIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    NotImp,
    Refused,
}

impl Rcode {
    /// The RFC 1035 code. Frozen: observation logs store it as one byte.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
        }
    }

    pub fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            _ => return None,
        })
    }
}

/// DNS record types (RFC 1035 / RFC 3596 / RFC 8659).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RecordType {
    A,
    Ns,
    Cname,
    Mx,
    Txt,
    Aaaa,
    Caa,
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Ns => "NS",
            RecordType::Cname => "CNAME",
            RecordType::Mx => "MX",
            RecordType::Txt => "TXT",
            RecordType::Aaaa => "AAAA",
            RecordType::Caa => "CAA",
        };
        write!(f, "{s}")
    }
}

/// CAA RDATA (RFC 8659).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CaaRecord {
    /// Only the critical bit (0x80) of the flags octet is defined.
    pub flags: u8,
    /// Property tag: `issue`, `issuewild`, or `iodef`.
    pub tag: String,
    /// Property value, e.g. a CA domain (`letsencrypt.org`) or `";"` to deny
    /// all issuance.
    pub value: String,
}

impl CaaRecord {
    pub fn issue(ca: &str) -> Self {
        CaaRecord {
            flags: 0,
            tag: "issue".into(),
            value: ca.into(),
        }
    }

    pub fn issue_wild(ca: &str) -> Self {
        CaaRecord {
            flags: 0,
            tag: "issuewild".into(),
            value: ca.into(),
        }
    }

    /// `issue ";"` — forbid all issuance.
    pub fn deny_all() -> Self {
        CaaRecord {
            flags: 0,
            tag: "issue".into(),
            value: ";".into(),
        }
    }

    pub fn is_critical(&self) -> bool {
        self.flags & 0x80 != 0
    }
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordData {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Cname(Name),
    Ns(Name),
    Mx { preference: u16, exchange: Name },
    Txt(Vec<String>),
    Caa(CaaRecord),
}

impl RecordData {
    pub fn rtype(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Aaaa(_) => RecordType::Aaaa,
            RecordData::Cname(_) => RecordType::Cname,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Mx { .. } => RecordType::Mx,
            RecordData::Txt(_) => RecordType::Txt,
            RecordData::Caa(_) => RecordType::Caa,
        }
    }
}

impl fmt::Display for RecordData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordData::A(ip) => write!(f, "{ip}"),
            RecordData::Aaaa(ip) => write!(f, "{ip}"),
            RecordData::Cname(n) => write!(f, "{n}"),
            RecordData::Ns(n) => write!(f, "{n}"),
            RecordData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RecordData::Txt(parts) => write!(f, "{:?}", parts),
            RecordData::Caa(c) => write!(f, "{} {} {:?}", c.flags, c.tag, c.value),
        }
    }
}

/// A complete resource record (class `IN`, the only one the study sees).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceRecord {
    pub name: Name,
    pub ttl: u32,
    pub data: RecordData,
}

impl ResourceRecord {
    pub fn new(name: Name, ttl: u32, data: RecordData) -> Self {
        ResourceRecord { name, ttl, data }
    }

    pub fn rtype(&self) -> RecordType {
        self.data.rtype()
    }
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} IN {} {}",
            self.name,
            self.ttl,
            self.rtype(),
            self.data
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rcode_roundtrip() {
        for r in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
        ] {
            assert_eq!(Rcode::from_code(r.code()), Some(r));
        }
        assert_eq!(Rcode::from_code(15), None);
    }

    /// Every v2 observation-log record stores its rcode as this byte, so
    /// the mapping can never change without a format version bump.
    #[test]
    fn rcode_codes_are_frozen() {
        assert_eq!(
            [
                Rcode::NoError,
                Rcode::FormErr,
                Rcode::ServFail,
                Rcode::NxDomain,
                Rcode::NotImp,
                Rcode::Refused,
            ]
            .map(Rcode::code),
            [0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn data_knows_its_type() {
        let n: Name = "x.example.com".parse().unwrap();
        assert_eq!(RecordData::Cname(n.clone()).rtype(), RecordType::Cname);
        assert_eq!(
            RecordData::A(Ipv4Addr::new(1, 2, 3, 4)).rtype(),
            RecordType::A
        );
        assert_eq!(
            RecordData::Mx {
                preference: 10,
                exchange: n
            }
            .rtype(),
            RecordType::Mx
        );
    }

    #[test]
    fn caa_helpers() {
        let c = CaaRecord::issue("letsencrypt.org");
        assert_eq!(c.tag, "issue");
        assert!(!c.is_critical());
        let d = CaaRecord::deny_all();
        assert_eq!(d.value, ";");
        let crit = CaaRecord {
            flags: 0x80,
            tag: "issue".into(),
            value: "x".into(),
        };
        assert!(crit.is_critical());
    }

    #[test]
    fn display_presentation() {
        let rr = ResourceRecord::new(
            "www.example.com".parse().unwrap(),
            300,
            RecordData::A(Ipv4Addr::new(93, 184, 216, 34)),
        );
        assert_eq!(rr.to_string(), "www.example.com 300 IN A 93.184.216.34");
    }
}
