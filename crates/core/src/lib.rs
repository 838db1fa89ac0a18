//! # dangling-core — the paper's methodology, end to end
//!
//! Everything the authors built, runnable against the simulated world:
//!
//! - [`collect`] — Algorithm 1 (cloud-pointing FQDN collection) and the
//!   growing feed of §3.1,
//! - [`monitor`] — the weekly snapshot crawler (≤2 HTTP requests per FQDN
//!   per round, per the paper's ethics constraints),
//! - [`diff`] — snapshot comparison: DNS, HTTP status, sitemap (new or
//!   ≥100 KB growth), language, content-hash changes,
//! - [`keywords`] — keyword extraction for signatures and Tables 1/5,
//! - [`signature`] — signature derivation from clustered contemporaneous
//!   changes, validation against a benign corpus, and the matching engine
//!   behind Figure 2,
//! - [`benign`] — the registrar-diversity rule-out of Figure 10,
//! - [`classify`] — abuse topic + SEO-technique classification (Figure 3,
//!   §5.2.1),
//! - [`capability`] — the Table 4 attacker-capability model and its cookie
//!   access consequences (§5.1, §5.5),
//! - [`lifespan`] — hijack-duration analysis (Figures 15/16),
//! - [`certs`] — CT history analysis, anomaly windows, CAA census
//!   (Figure 20, §5.6),
//! - [`infra`] — identifier extraction and infrastructure clustering
//!   (Figures 21/22/26/27/28),
//! - [`world`] + [`scenario`] — the simulated world and the longitudinal
//!   driver that runs organizations, attackers and the pipeline over
//!   2015–2023 and assembles a [`report::StudyResults`],
//! - [`pipeline`] — the staged monitoring pipeline behind [`scenario`]:
//!   world advancement, Algorithm-1 collection, the shard-parallel weekly
//!   crawl, diff/record, and the retrospective signature pass.

pub mod benign;
pub mod capability;
pub mod certs;
pub mod classify;
pub mod collect;
pub mod diff;
pub mod infra;
pub mod keywords;
pub mod lifespan;
pub mod monitor;
pub mod pipeline;
pub mod report;
pub mod scenario;
pub mod signature;
pub mod snapshot;
pub mod world;

pub use pipeline::persist::{compact_state_dir, PersistError, PersistOptions, OBS_FORMAT};
pub use pipeline::{
    bytes_per_fqdn_of, ProvisionalCluster, ProvisionalRound, ProvisionalSignature,
    ProvisionalVerdict, RoundSink, RoundView, BYTES_PER_FQDN_BUDGET,
};
pub use report::StudyResults;
pub use scenario::{Scenario, ScenarioConfig};
pub use world::{HijackTruth, World};
