//! # httpsim — HTTP substrate for the dangling-resource study
//!
//! The paper's crucial methodological point in §2 is that **liveness must be
//! checked at the application layer**: ICMP and TCP probes mis-estimate the
//! availability of virtually-hosted services (72% / 93% responsive vs 89%
//! for real HTTP requests on their hijacked set), so the pipeline downloads
//! HTML per-FQDN instead of port-scanning. This crate supplies what the
//! weekly crawl and the liveness probe send and receive:
//!
//! - [`message`] — GET requests carrying the FQDN in `Host`, and responses,
//! - [`body`] — immutable, shared response bodies, each hashed at most once,
//! - [`headers`] — a case-insensitive, order-preserving header map,
//! - [`probe`] — the three liveness probe types (ICMP / TCP / HTTP) whose
//!   disagreement motivates the paper's collection design.

pub mod body;
pub mod headers;
pub mod message;
pub mod probe;

pub use body::Body;
pub use headers::HeaderMap;
pub use message::{Request, Response, StatusCode};
pub use probe::{Endpoint, ProbeKind, ProbeResult};
