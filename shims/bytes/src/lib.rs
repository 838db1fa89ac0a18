//! Offline stand-in for the `bytes` crate, now empty: its only user, the DNS
//! wire codec, is gone. `dangling-dns` still declares the dependency because
//! removing it rewrites `studybench/Cargo.lock`; delete this crate together
//! with that line.
