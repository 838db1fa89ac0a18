//! In-process load driver: thousands of concurrent clients over one event
//! loop.
//!
//! Uses the crawl's latency model (DESIGN.md §10): each simulated client
//! is a submit/complete pair on a [`CompletionQueue`], with the round-trip
//! priced by a keyed-RNG [`LatencyModel`] draw — so one driver thread
//! interleaves thousands of *outstanding* queries. On submit the query
//! executes against the live [`ServeHandle`] (wall-clock timed — that is
//! the real read-path latency under whatever contention the committing
//! rounds produce); completion frees the client to submit its next one.
//!
//! The driver verifies every reply with [`Reply::consistent`] and reports
//! torn reads (must be zero), peak in-flight (published to the
//! `serve.inflight` gauge, asserted ≥1,000 by the `serve_load` bench), and
//! the wall-clock query-latency percentiles baselined in BENCH_serve.json.

use crate::daemon::ServeHandle;
use crate::query::Query;
use rand::Rng;
use simcore::{CompletionQueue, LatencyProfile, NetTime, QueryClass, RngTree};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Simulated concurrent clients.
    pub clients: usize,
    /// Queries each client issues (closed loop: one outstanding per
    /// client).
    pub queries_per_client: usize,
    /// Latency profile pricing the simulated round trips (`wan` stretches
    /// completions enough that submissions pile up — the concurrency
    /// driver; `zero` degenerates to sequential).
    pub profile: String,
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 1_500,
            queries_per_client: 4,
            profile: "wan".into(),
            seed: 1,
        }
    }
}

/// What one load run observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    pub queries: u64,
    /// Peak simultaneously-outstanding queries (simulated clock).
    pub peak_inflight: u64,
    /// Replies failing [`Reply::consistent`] — any nonzero value is a
    /// snapshot-consistency violation.
    pub torn: u64,
    /// Wall-clock in-process query latency percentiles (nearest-rank).
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
    /// Lowest / highest round version observed across replies — strictly
    /// increasing between batches proves rounds advanced under load.
    pub first_round: u64,
    pub last_round: u64,
    /// Simulated duration of the whole run.
    pub sim_elapsed_ns: u64,
}

enum Ev {
    /// Client submits query `qidx` (executes it in-process, then schedules
    /// its completion one simulated round trip later).
    Submit { client: usize, qidx: usize },
    /// The round trip for `client` finished; it may submit its next query.
    Complete { client: usize, qidx: usize },
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drive `cfg.clients` simulated clients against the handle. Safe to call
/// while the pipeline publishes rounds — that contention is the point.
pub fn run_load(handle: &ServeHandle, cfg: &LoadConfig) -> LoadReport {
    let tree = RngTree::new(cfg.seed);
    let model = LatencyProfile::by_name(&cfg.profile)
        .unwrap_or_else(|| panic!("unknown latency profile {:?}", cfg.profile));
    let mut q: CompletionQueue<Ev> = CompletionQueue::new();

    // Sample verdict targets once up front; a run that has not published
    // verdicts yet still exercises the miss path.
    let fqdns: Vec<String> = {
        let view = handle.view();
        view.verdicts.keys().take(64).cloned().collect()
    };
    let query_for = |client: usize, qidx: usize| -> Query {
        match (client + qidx) % 5 {
            0 => Query::Status,
            1 => Query::Health,
            2 => Query::Signatures,
            3 => Query::Clusters,
            _ => Query::Verdict {
                fqdn: match fqdns.is_empty() {
                    true => format!("missing-{client}.example"),
                    false => fqdns[client % fqdns.len()].clone(),
                },
            },
        }
    };

    // Stagger arrivals over the first simulated millisecond, far shorter
    // than a wan round trip — submissions overlap by construction.
    for client in 0..cfg.clients {
        let jitter = tree
            .rng(&format!("serve/load/arrival/{client}"))
            .gen_range(0..1_000_000u64);
        q.schedule(NetTime(jitter), Ev::Submit { client, qidx: 0 });
    }

    let mut report = LoadReport {
        first_round: u64::MAX,
        ..LoadReport::default()
    };
    let mut samples: Vec<u64> = Vec::with_capacity(cfg.clients * cfg.queries_per_client);
    let mut inflight: u64 = 0;
    let inflight_gauge = obs::gauge("serve.inflight");
    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::Submit { client, qidx } => {
                inflight += 1;
                report.peak_inflight = report.peak_inflight.max(inflight);
                let query = query_for(client, qidx);
                let started = std::time::Instant::now();
                let reply = handle.query(&query);
                samples.push(started.elapsed().as_nanos() as u64);
                if !reply.consistent() {
                    report.torn += 1;
                }
                report.first_round = report.first_round.min(reply.round);
                report.last_round = report.last_round.max(reply.round);
                report.queries += 1;
                let fate = model.sample(
                    &tree,
                    &format!("serve/load/{client}/{qidx}"),
                    "api.serve.local",
                    QueryClass::Http,
                );
                q.schedule(
                    NetTime(now.0 + fate.cost_ns.max(1)),
                    Ev::Complete { client, qidx },
                );
            }
            Ev::Complete { client, qidx } => {
                inflight -= 1;
                if qidx + 1 < cfg.queries_per_client {
                    q.schedule(
                        NetTime(now.0 + 1),
                        Ev::Submit {
                            client,
                            qidx: qidx + 1,
                        },
                    );
                }
            }
        }
        report.sim_elapsed_ns = q.now().0;
    }
    if report.first_round == u64::MAX {
        report.first_round = 0;
    }
    if report.peak_inflight as f64 > inflight_gauge.get() {
        inflight_gauge.set(report.peak_inflight as f64);
    }
    samples.sort_unstable();
    report.p50_ns = nearest_rank(&samples, 0.50);
    report.p95_ns = nearest_rank(&samples, 0.95);
    report.p99_ns = nearest_rank(&samples, 0.99);
    report.p999_ns = nearest_rank(&samples, 0.999);
    report.max_ns = samples.last().copied().unwrap_or(0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::daemon;
    use crate::view::LiveView;
    use std::sync::Arc;

    #[test]
    fn wan_load_overlaps_thousands_of_queries() {
        let (mut sink, handle) = daemon();
        sink.publish_raw(Arc::new(LiveView::synthetic(1, 32)));
        let cfg = LoadConfig {
            clients: 1_200,
            queries_per_client: 2,
            ..LoadConfig::default()
        };
        let report = run_load(&handle, &cfg);
        assert_eq!(report.queries, 2_400);
        assert_eq!(report.torn, 0);
        assert!(
            report.peak_inflight >= 1_000,
            "wan pacing must overlap clients, peaked at {}",
            report.peak_inflight
        );
        assert_eq!((report.first_round, report.last_round), (1, 1));
        assert!(report.p99_ns >= report.p50_ns);
        assert!(report.sim_elapsed_ns > 0);
    }

    #[test]
    fn zero_profile_degenerates_but_still_answers() {
        let (_sink, handle) = daemon();
        let report = run_load(
            &handle,
            &LoadConfig {
                clients: 10,
                queries_per_client: 3,
                profile: "zero".into(),
                seed: 2,
            },
        );
        assert_eq!(report.queries, 30);
        assert_eq!(report.torn, 0);
    }
}
