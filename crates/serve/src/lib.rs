//! # dangling-serve — service mode: the study as a monitoring daemon
//!
//! Turns the batch reproduction into a long-running monitor: the pipeline
//! runs persist + incremental retro continuously (`repro --serve`), and
//! after every committed round this crate publishes a **versioned,
//! read-only view** of live state — current abuse verdicts per FQDN, the
//! validated signature catalog, campaign clusters, and `retro.incr.*`
//! health — behind an in-process query API.
//!
//! The read path is the engineering core:
//!
//! - **Snapshot consistency.** A reader sees round N in full or not at all.
//!   Each [`LiveView`] is built off to the side from the committed round's
//!   state and published with a single swap of a shared `Arc`
//!   ([`arc_swap::ArcSwap`], a `RwLock<Arc<LiveView>>`); every value a reply
//!   carries comes from one view, and a [`ViewStamp`] (counts + checksum
//!   frozen at build time) lets readers *prove* the absence of torn reads.
//! - **Short reads.** A query holds the read lock only to clone the view's
//!   `Arc` and answers without any lock, so a query delays the committing
//!   round by at most one `Arc` clone; publication holds the write lock
//!   only for the swap.
//! - **Advisory, and saying so.** The per-round verdicts are the streaming
//!   pass's advisory state (the benign corpus can still shrink), so every
//!   payload carries an explicit `provisional: true` flag — clients cannot
//!   mistake a mid-run verdict for the final authoritative pass.
//!
//! Out-of-band by construction: a [`ServeSink`] receives `&RunState` only,
//! so query load cannot perturb results — the `serve_equivalence` test pins
//! byte-identical `StudyResults` under concurrent query hammering, the same
//! contract telemetry obeys (DESIGN.md §11).
//!
//! Clients are real threads calling [`ServeHandle::query`]: the
//! `consistency` suite and the `serve_load` bench run reader threads
//! against a live run (BENCH_serve.json), and studybench's live-daemon
//! workload measures a closed-loop client end to end.

pub mod daemon;
pub mod query;
pub mod view;

pub use daemon::{daemon, ServeHandle, ServeSink, SloBudgets};
pub use query::{Query, Reply, ReplyBody};
pub use view::{ClusterEntry, FqdnVerdict, Health, LiveView, SignatureEntry, SloHealth, ViewStamp};
