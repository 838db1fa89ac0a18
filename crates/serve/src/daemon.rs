//! The daemon core: round publication and the reader handle.
//!
//! [`daemon`] returns a connected pair — a [`ServeSink`] to attach to the
//! pipeline via [`Scenario::round_sink`](dangling_core::Scenario::round_sink)
//! and a cloneable [`ServeHandle`] for any number of reader threads. The
//! two sides share only an [`ArcSwap`]`<LiveView>` plus a few counters:
//!
//! - **Writer** (pipeline thread): after each committed round, build the
//!   next [`LiveView`] off to the side, then publish it with one swap of
//!   the shared `Arc`. Readers still answering from round N keep their own
//!   `Arc` to it; the view is freed when the last of them drops it.
//! - **Readers**: [`ServeHandle::query`] clones out the current view's
//!   `Arc` (a read lock held only for the clone) and answers from that
//!   view alone. No lock is held while a query runs, so a query never
//!   holds up the committing round.
//!
//! Graceful shutdown is cooperative: [`ServeHandle::request_stop`] raises a
//! flag the pipeline polls at each round boundary (the SIGTERM handler of a
//! real deployment would call exactly this), the run stops *after* the
//! in-progress round is sealed by the persist protocol, and
//! [`ServeHandle::drain`] waits for in-flight queries to finish. A later
//! `--serve --resume` replays the sealed rounds back through the sink and
//! picks up where the daemon left off.

use crate::query::{Query, Reply};
use crate::view::{LiveView, SloHealth};
use arc_swap::ArcSwap;
use dangling_core::pipeline::{RoundSink, RoundView};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;

/// SLO budgets the watchdog enforces. A round (or query) exceeding its
/// budget burns a counter and flags the published view; it never affects
/// the pipeline itself. Defaults are deliberately generous so a healthy
/// run publishes zero violations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBudgets {
    /// Wall-clock budget per round (commit-to-commit).
    pub round_wall_ns: u64,
    /// Simulated-makespan budget per round's crawl.
    pub round_virtual_ns: u64,
    /// Wall-clock budget per query.
    pub query_ns: u64,
}

impl Default for SloBudgets {
    fn default() -> Self {
        SloBudgets {
            round_wall_ns: 120_000_000_000,      // 120 s of wall per round
            round_virtual_ns: 3_600_000_000_000, // 1 simulated hour of crawl
            query_ns: 50_000_000,                // 50 ms per query
        }
    }
}

struct Shared {
    view: ArcSwap<LiveView>,
    stop: AtomicBool,
    inflight: AtomicU64,
    queries: AtomicU64,
    published: AtomicU64,
    query_budget_ns: AtomicU64,
    queries_over_budget: AtomicU64,
}

/// Create a connected sink/handle pair, initialized with the empty seq-0
/// view so queries are answerable before the first round commits.
pub fn daemon() -> (ServeSink, ServeHandle) {
    let shared = Arc::new(Shared {
        view: ArcSwap::new(Arc::new(LiveView::empty())),
        stop: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
        queries: AtomicU64::new(0),
        published: AtomicU64::new(0),
        query_budget_ns: AtomicU64::new(SloBudgets::default().query_ns),
        queries_over_budget: AtomicU64::new(0),
    });
    (
        ServeSink {
            shared: shared.clone(),
            seq: 0,
            budgets: SloBudgets::default(),
            last_publish: Instant::now(),
            round_walls: Vec::new(),
            rounds_over_budget: 0,
            injected_stall_ns: None,
            last_violation: String::new(),
        },
        ServeHandle { shared },
    )
}

/// The read side: cheap to clone, safe to hammer from any number of
/// threads concurrently with round commits.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Answer one query from the currently published view. The entire
    /// reply is read from a single view, so it is snapshot-consistent by
    /// construction.
    pub fn query(&self, q: &Query) -> Reply {
        self.shared.inflight.fetch_add(1, SeqCst);
        let started = std::time::Instant::now();
        let reply = {
            let view = self.shared.view.load_full();
            Reply::answer(&view, q)
        };
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        obs::histogram("serve.query_ns").record(elapsed_ns);
        if elapsed_ns > self.shared.query_budget_ns.load(SeqCst) {
            self.shared.queries_over_budget.fetch_add(1, SeqCst);
            obs::counter("serve.slo_queries_over_budget").inc();
        }
        obs::counter("serve.queries").inc();
        self.shared.queries.fetch_add(1, SeqCst);
        self.shared.inflight.fetch_sub(1, SeqCst);
        reply
    }

    /// Clone out the current view (for bulk readers; `query` is the hot
    /// path).
    pub fn view(&self) -> Arc<LiveView> {
        self.shared.view.load_full()
    }

    /// Rounds published so far (0 until the first commit).
    pub fn rounds_published(&self) -> u64 {
        self.shared.published.load(SeqCst)
    }

    /// Queries answered through this daemon.
    pub fn queries_served(&self) -> u64 {
        self.shared.queries.load(SeqCst)
    }

    /// Queries currently executing.
    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(SeqCst)
    }

    /// Queries that exceeded the SLO query budget.
    pub fn queries_over_budget(&self) -> u64 {
        self.shared.queries_over_budget.load(SeqCst)
    }

    /// Ask the run to stop at the next round boundary (SIGTERM-style). The
    /// round in progress is still sealed through the persist protocol, so
    /// a later `--resume` continues cleanly.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, SeqCst);
    }

    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(SeqCst)
    }

    /// Wait until no query is in flight. Readers that keep querying after
    /// a stop still get answers (the last view stays published); drain
    /// only waits for the *current* in-flight set to clear.
    pub fn drain(&self) {
        while self.shared.inflight.load(SeqCst) > 0 {
            std::thread::yield_now();
        }
    }
}

/// The write side: a [`RoundSink`] that turns each committed round into a
/// published [`LiveView`]. Exactly one exists per daemon — publication is
/// single-writer by construction (the `ArcSwap` itself also serializes
/// multiple writers, which the consistency suite exercises separately).
pub struct ServeSink {
    shared: Arc<Shared>,
    seq: u64,
    budgets: SloBudgets,
    /// When the previous view was published (sink creation for round 1) —
    /// the commit-to-commit wall clock the watchdog meters.
    last_publish: Instant,
    /// Sorted wall times of published rounds, for the percentile section.
    round_walls: Vec<u64>,
    rounds_over_budget: u64,
    /// Test hook: pretend the next round took this long on the wall.
    injected_stall_ns: Option<u64>,
    last_violation: String,
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl ServeSink {
    /// Another handle onto this daemon's read side.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: self.shared.clone(),
        }
    }

    /// Replace the watchdog's SLO budgets (builder-style).
    pub fn with_budgets(mut self, budgets: SloBudgets) -> Self {
        self.budgets = budgets;
        self.shared.query_budget_ns.store(budgets.query_ns, SeqCst);
        self
    }

    /// Test hook: report the next published round as having taken
    /// `wall_ns` on the wall clock, so watchdog behavior is testable
    /// without actually stalling a pipeline.
    pub fn inject_stalled_round(&mut self, wall_ns: u64) {
        self.injected_stall_ns = Some(wall_ns);
    }

    /// Publish a pre-built view as-is (benches use this to drive
    /// publication without a live pipeline). The normal path is
    /// [`RoundSink::round_committed`], which routes through the watchdog
    /// via [`Self::publish_watched`].
    pub fn publish_raw(&mut self, view: Arc<LiveView>) {
        let started = std::time::Instant::now();
        self.seq = self.seq.max(view.seq);
        self.shared.view.store(view);
        obs::histogram("serve.store_ns").record(started.elapsed().as_nanos() as u64);
        self.shared.published.fetch_add(1, SeqCst);
        obs::counter("serve.rounds_published").inc();
    }

    /// Run the watchdog over a freshly built view, fill in its health/SLO
    /// section, and publish it. The view's stamp excludes the health
    /// section, so this mutation cannot introduce a stamp mismatch.
    pub fn publish_watched(&mut self, mut view: LiveView) {
        let now = Instant::now();
        let lag_ns = now.duration_since(self.last_publish).as_nanos() as u64;
        self.last_publish = now;
        let wall_ns = self.injected_stall_ns.take().unwrap_or(lag_ns);
        let virtual_ns = obs::gauge("crawl.makespan_ns").get() as u64;

        let pos = self.round_walls.partition_point(|&w| w <= wall_ns);
        self.round_walls.insert(pos, wall_ns);

        let mut stalled = false;
        if wall_ns > self.budgets.round_wall_ns {
            stalled = true;
            self.last_violation = format!(
                "round {} exceeded its wall budget: {} ns > {} ns",
                view.round, wall_ns, self.budgets.round_wall_ns
            );
        }
        if virtual_ns > self.budgets.round_virtual_ns {
            stalled = true;
            self.last_violation = format!(
                "round {} exceeded its virtual budget: {} ns > {} ns",
                view.round, virtual_ns, self.budgets.round_virtual_ns
            );
        }
        if stalled {
            self.rounds_over_budget += 1;
            obs::counter("serve.slo_rounds_over_budget").inc();
            obs::warn!("serve watchdog: {}", self.last_violation);
        }

        let q = obs::histogram("serve.query_ns").snapshot();
        view.health.slo = SloHealth {
            round_wall_p50_ns: nearest_rank(&self.round_walls, 0.50),
            round_wall_p95_ns: nearest_rank(&self.round_walls, 0.95),
            round_wall_p99_ns: nearest_rank(&self.round_walls, 0.99),
            round_wall_p999_ns: nearest_rank(&self.round_walls, 0.999),
            last_round_wall_ns: wall_ns,
            last_round_virtual_ns: virtual_ns,
            publish_lag_ns: lag_ns,
            query_p50_ns: q.quantile(0.5),
            query_p95_ns: q.quantile(0.95),
            query_p99_ns: q.quantile(0.99),
            query_p999_ns: q.quantile(0.999),
            rounds_over_budget: self.rounds_over_budget,
            queries_over_budget: self.shared.queries_over_budget.load(SeqCst),
            round_wall_budget_ns: self.budgets.round_wall_ns,
            round_virtual_budget_ns: self.budgets.round_virtual_ns,
            query_budget_ns: self.budgets.query_ns,
            stalled,
            last_violation: self.last_violation.clone(),
        };
        debug_assert!(view.consistent(), "health mutation must not break stamp");
        self.publish_raw(Arc::new(view));
    }
}

impl RoundSink for ServeSink {
    fn round_committed(&mut self, round: RoundView<'_>) {
        let _s = obs::span("serve.publish", "serve")
            .arg_i64("day", round.now.0 as i64)
            .record_into("serve.publish_round_ns");
        self.seq += 1;
        let built = std::time::Instant::now();
        let view = LiveView::from_round(&round, self.seq);
        obs::histogram("serve.build_ns").record(built.elapsed().as_nanos() as u64);
        obs::gauge("serve.view_verdicts").set(view.verdicts.len() as f64);
        obs::gauge("serve.view_signatures").set(view.signatures.len() as f64);
        obs::gauge("serve.view_seq").set(view.seq as f64);
        self.publish_watched(view);
    }

    fn stop_requested(&self) -> bool {
        self.shared.stop.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_daemon_answers_with_seq_zero() {
        let (_sink, handle) = daemon();
        let r = handle.query(&Query::Status);
        assert_eq!(r.seq, 0);
        assert_eq!(r.round, 0);
        assert!(r.consistent());
        assert_eq!(handle.queries_served(), 1);
        assert_eq!(handle.inflight(), 0);
    }

    #[test]
    fn publish_raw_advances_the_served_view() {
        let (mut sink, handle) = daemon();
        sink.publish_raw(Arc::new(LiveView::synthetic(1, 8)));
        sink.publish_raw(Arc::new(LiveView::synthetic(2, 12)));
        let r = handle.query(&Query::Status);
        assert_eq!(r.seq, 2);
        assert!(r.consistent());
        assert_eq!(handle.rounds_published(), 2);
    }

    #[test]
    fn stop_flag_reaches_the_sink() {
        let (sink, handle) = daemon();
        assert!(!RoundSink::stop_requested(&sink));
        handle.request_stop();
        assert!(RoundSink::stop_requested(&sink));
        assert!(handle.stop_requested());
        handle.drain();
        assert_eq!(handle.inflight(), 0);
    }
}
