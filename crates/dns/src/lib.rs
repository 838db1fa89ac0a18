//! # dangling-dns — DNS substrate for the dangling-resource study
//!
//! A self-contained DNS implementation covering everything the paper's
//! methodology touches:
//!
//! - [`name::Name`] — domain names with RFC 1035 length limits,
//!   case-insensitive comparison, and the suffix matching Algorithm 1 uses to
//!   recognize cloud-generated CNAME targets,
//! - [`record`] — A/AAAA/CNAME/NS/TXT/MX, the CAA record type that §5.6.2
//!   evaluates, and the response codes ([`Rcode`]) a lookup returns,
//! - [`zone`] — authoritative zone storage with dynamic updates (domain
//!   owners purging or re-pointing records mid-study),
//! - [`server`] — the authoritative lookup over a [`ZoneSet`] (CNAME
//!   inclusion, NXDOMAIN vs NODATA distinction, which the collection
//!   pipeline depends on),
//! - [`resolver`] — a stateless stub resolver that chases CNAME chains
//!   with loop detection and retries dropped queries.
//!
//! A query is a typed lookup, `(name, type) → (rcode, answers)`: the paper's
//! collection methodology (Algorithm 1) issues A queries and reads only the
//! rcode, the CNAME chain and the final A records, so no message headers or
//! authority sections are modeled. [`resolver::Resolver::resolve_a`] is that
//! interface.

pub mod intern;
pub mod name;
pub mod record;
pub mod resolver;
pub mod server;
pub mod zone;

pub use intern::{Interner, LabelId};
pub use name::{Name, NameError};
pub use record::{CaaRecord, Rcode, RecordData, RecordType, ResourceRecord};
pub use resolver::{ResolutionOutcome, Resolver};
pub use zone::{Zone, ZoneSet};
