//! DNS message model (RFC 1035 §4).

use crate::name::Name;
use crate::record::{RecordClass, RecordType, ResourceRecord};
use serde::{Deserialize, Serialize};

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

/// Operation codes; only QUERY is used by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Opcode {
    Query,
    Status,
}

/// Message header flags. Messages travel as values, so section counts are
/// the section vectors' lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    pub id: u16,
    /// Query (false) or response (true).
    pub qr: bool,
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncation.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    pub rcode: Rcode,
}

impl Header {
    pub fn query(id: u16) -> Self {
        Header {
            id,
            qr: false,
            opcode: Opcode::Query,
            aa: false,
            tc: false,
            rd: true,
            ra: false,
            rcode: Rcode::NoError,
        }
    }

    pub fn response_to(query: &Header, rcode: Rcode) -> Self {
        Header {
            id: query.id,
            qr: true,
            opcode: query.opcode,
            aa: true,
            tc: false,
            rd: query.rd,
            ra: true,
            rcode,
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Question {
    pub name: Name,
    pub qtype: RecordType,
    pub qclass: RecordClass,
}

impl Question {
    pub fn new(name: Name, qtype: RecordType) -> Self {
        Question {
            name,
            qtype,
            qclass: RecordClass::In,
        }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    pub header: Header,
    pub questions: Vec<Question>,
    pub answers: Vec<ResourceRecord>,
    pub authority: Vec<ResourceRecord>,
    pub additional: Vec<ResourceRecord>,
}

impl Message {
    /// Build a standard recursive query for `name`/`qtype`.
    pub fn query(id: u16, name: Name, qtype: RecordType) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![Question::new(name, qtype)],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Build an (authoritative) response skeleton echoing the question.
    pub fn response(query: &Message, rcode: Rcode) -> Self {
        Message {
            header: Header::response_to(&query.header, rcode),
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// All answer records of a given type.
    pub fn answers_of(&self, rtype: RecordType) -> impl Iterator<Item = &ResourceRecord> {
        self.answers.iter().filter(move |rr| rr.rtype() == rtype)
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

    #[test]
    fn response_echoes_query() {
        let q = Message::query(7, "x.example.com".parse().unwrap(), RecordType::A);
        let r = Message::response(&q, Rcode::NxDomain);
        assert_eq!(r.header.id, 7);
        assert!(r.header.qr);
        assert!(r.header.aa);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.questions, q.questions);
    }

    #[test]
    fn answers_of_filters() {
        use crate::record::RecordData;
        use std::net::Ipv4Addr;
        let mut m = Message::query(1, "a.b".parse().unwrap(), RecordType::A);
        m.answers.push(ResourceRecord::new(
            "a.b".parse().unwrap(),
            60,
            RecordData::Cname("c.d".parse().unwrap()),
        ));
        m.answers.push(ResourceRecord::new(
            "c.d".parse().unwrap(),
            60,
            RecordData::A(Ipv4Addr::LOCALHOST),
        ));
        assert_eq!(m.answers_of(RecordType::A).count(), 1);
        assert_eq!(m.answers_of(RecordType::Cname).count(), 1);
        assert_eq!(m.answers_of(RecordType::Ns).count(), 0);
    }
}
