//! The study benchmark: the paper's weekly study run end to end through the
//! same `Scenario` entry point `repro` uses, on three workloads, with a
//! separate traced run that times every call into each pipeline layer.
//!
//! See `NOTES.md` beside this crate for why each workload exists and how the
//! bounds were chosen.

pub mod bench;
pub mod cache;
pub mod client;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
