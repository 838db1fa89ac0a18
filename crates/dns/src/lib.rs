//! # dangling-dns — DNS substrate for the dangling-resource study
//!
//! A self-contained DNS implementation covering everything the paper's
//! methodology touches:
//!
//! - [`name::Name`] — domain names with RFC 1035 length limits,
//!   case-insensitive comparison, and the suffix matching Algorithm 1 uses to
//!   recognize cloud-generated CNAME targets,
//! - [`record`] — A/AAAA/CNAME/NS/SOA/TXT/MX and the CAA record type that
//!   §5.6.2 evaluates,
//! - [`zone`] — authoritative zone storage with dynamic updates (domain
//!   owners purging or re-pointing records mid-study),
//! - [`server`] — authoritative query answering (CNAME inclusion, NXDOMAIN
//!   vs NODATA distinction, which the collection pipeline depends on),
//! - [`resolver`] — a stateless stub resolver that chases CNAME chains
//!   with loop detection and retries dropped queries.
//!
//! The paper's collection methodology (Algorithm 1) issues A queries and
//! inspects both the CNAME chain and the final A records; this crate provides
//! exactly that interface via [`resolver::Resolver::resolve_a`].

pub mod intern;
pub mod message;
pub mod name;
pub mod record;
pub mod resolver;
pub mod server;
pub mod zone;

pub use intern::{Interner, LabelId};
pub use message::{Header, Message, Opcode, Question, Rcode};
pub use name::{Name, NameError};
pub use record::{CaaRecord, RecordClass, RecordData, RecordType, ResourceRecord, Soa};
pub use resolver::{ResolutionOutcome, Resolver};
pub use server::Authority;
pub use zone::{Zone, ZoneSet};
