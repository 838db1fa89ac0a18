//! The closed-loop query client and the round-clock sink.
//!
//! One client thread waits for each publish, then sends a fixed batch: one
//! query of each aggregate kind, timed singly, and [`GROUPS`] groups of
//! [`GROUP`] `Verdict` lookups, each group timed as a whole. Timing a group
//! rather than a sub-µs lookup keeps clock overhead out of the figure, and
//! keeping kinds apart means a percentile never falls on a boundary between
//! two kinds of query.

use dangling_core::{RoundSink, RoundView};
use serve::{Query, Reply, ServeHandle, ServeSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const GROUPS: usize = 8;
pub const GROUP: usize = 64;
/// `Verdict` lookups per batch.
pub const LOOKUPS: usize = GROUPS * GROUP;

/// What the client measured and checked.
#[derive(Debug, Default, Clone)]
pub struct QueryStats {
    /// µs per `Verdict` lookup, one sample per timed group.
    pub verdict_us: Vec<f64>,
    pub status_us: Vec<f64>,
    pub health_us: Vec<f64>,
    pub signatures_us: Vec<f64>,
    pub clusters_us: Vec<f64>,
    pub batches: u64,
    pub attempted: u64,
    /// Replies that were not `consistent()` or whose round went backwards.
    pub failed: u64,
}

pub struct QueryClient {
    verdicts: Vec<Query>,
    last_round: u64,
    replies: Vec<Reply>,
    pub stats: QueryStats,
}

impl QueryClient {
    /// A client looking up `fqdns` (cycled to fill [`LOOKUPS`]).
    pub fn new(fqdns: &[String]) -> QueryClient {
        assert!(!fqdns.is_empty(), "the query batch needs FQDNs");
        QueryClient {
            verdicts: fqdns
                .iter()
                .cycle()
                .take(LOOKUPS)
                .map(|fqdn| Query::Verdict { fqdn: fqdn.clone() })
                .collect(),
            last_round: 0,
            replies: Vec::with_capacity(GROUP),
            stats: QueryStats::default(),
        }
    }

    /// Send one batch against the daemon's current view.
    pub fn batch(&mut self, handle: &ServeHandle) {
        for query in [
            Query::Status,
            Query::Health,
            Query::Signatures,
            Query::Clusters,
        ] {
            let started = Instant::now();
            let reply = handle.query(&query);
            let us = started.elapsed().as_secs_f64() * 1e6;
            let samples = match query {
                Query::Status => &mut self.stats.status_us,
                Query::Health => &mut self.stats.health_us,
                Query::Signatures => &mut self.stats.signatures_us,
                _ => &mut self.stats.clusters_us,
            };
            samples.push(us);
            self.check(&reply);
        }
        for g in 0..GROUPS {
            let mut replies = std::mem::take(&mut self.replies);
            let group = &self.verdicts[g * GROUP..(g + 1) * GROUP];
            let started = Instant::now();
            for query in group {
                replies.push(handle.query(query));
            }
            let us = started.elapsed().as_secs_f64() * 1e6 / GROUP as f64;
            self.stats.verdict_us.push(us);
            for reply in replies.drain(..) {
                self.check(&reply);
            }
            self.replies = replies;
        }
        self.stats.batches += 1;
    }

    fn check(&mut self, reply: &Reply) {
        self.stats.attempted += 1;
        if !reply.consistent() || reply.round < self.last_round {
            self.stats.failed += 1;
        }
        self.last_round = self.last_round.max(reply.round);
    }

    /// Closed loop: send a batch after every publish until `done` is set
    /// and no publish is left unanswered.
    pub fn follow(mut self, handle: &ServeHandle, done: &AtomicBool) -> QueryStats {
        let mut seen = 0;
        loop {
            let published = handle.rounds_published();
            if published != seen {
                seen = published;
                self.batch(handle);
            } else if done.load(Ordering::SeqCst) {
                return self.stats;
            } else {
                // The poll interval of `repro --serve`'s query thread.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Commit-to-commit wall times, observed from outside the pipeline.
#[derive(Debug, Default)]
pub struct RoundClock {
    pub walls_ms: Vec<f64>,
    pub rounds: u64,
}

/// A [`RoundSink`] that timestamps every commit and forwards it to the
/// serve daemon's sink, if any. The first commit only starts the clock, so
/// `n` rounds give `n - 1` samples.
pub struct TimingSink {
    inner: Option<ServeSink>,
    pub clock: Arc<Mutex<RoundClock>>,
    last: Option<Instant>,
}

impl TimingSink {
    pub fn new(inner: Option<ServeSink>) -> TimingSink {
        TimingSink {
            inner,
            clock: Arc::new(Mutex::new(RoundClock::default())),
            last: None,
        }
    }
}

impl RoundSink for TimingSink {
    fn round_committed(&mut self, view: RoundView<'_>) {
        let rounds = view.rounds_done;
        if let Some(inner) = self.inner.as_mut() {
            inner.round_committed(view);
        }
        let now = Instant::now();
        let mut clock = self.clock.lock().expect("round clock poisoned");
        if let Some(last) = self.last {
            clock
                .walls_ms
                .push(now.duration_since(last).as_secs_f64() * 1e3);
        }
        self.last = Some(now);
        clock.rounds = rounds;
    }
}
