//! The shard-parallel weekly crawl (§3.2).
//!
//! [`CrawlExecutor`] fans one monitoring round out over worker threads. The
//! contract is strict determinism: for the same world state the output is
//! byte-identical for any thread count, because
//!
//! 1. work is partitioned by [`SnapshotStore::shard_of`] — a fixed hash of
//!    the FQDN — never by arrival or iteration order,
//! 2. every task reads the *pre-round* store (each FQDN appears once per
//!    round, so no task can observe another's write), and
//! 3. any randomness (the transient-failure model) comes from an RNG stream
//!    keyed by `crawl/{fqdn}/{day}`, so it does not depend on which thread
//!    or in which order the FQDN was crawled,
//!
//! and the outcomes are re-assembled in the canonical monitored order before
//! the diff stage consumes them.

use super::{RunState, ShardedExecutor, Stage};
use crate::diff::{record as diff_record, ChangeRecord};
use crate::monitor::{CrawlInFlight, CrawlWait};
use crate::snapshot::{Snapshot, SnapshotStore};
use dns::resolver::Transport;
use dns::{Name, Resolver};
use httpsim::Endpoint;
use rand::Rng;
use simcore::{CompletionQueue, LatencyModel, QueryClass, QueryFate, RngTree, SimTime};

/// What one crawl task produced: the new snapshot and, when there was a
/// previous one, the diff against it. The two latency fields are timing
/// telemetry — they feed the per-round percentile summaries and never any
/// serialized result.
#[derive(Debug, Clone)]
pub struct CrawlOutcome {
    pub snap: Snapshot,
    pub change: Option<ChangeRecord>,
    /// Total simulated time this crawl consumed (0 under the zero profile).
    pub sim_elapsed_ns: u64,
    /// Simulated time the DNS resolution consumed.
    pub dns_elapsed_ns: u64,
}

/// Shard-parallel crawl executor: the [`ShardedExecutor`] discipline applied
/// to the weekly crawl (see module docs for the determinism contract).
pub struct CrawlExecutor {
    exec: ShardedExecutor,
    /// Per-fetch probability of a transient failure (network flake). Zero
    /// disables the model entirely — no RNG stream is even derived.
    failure_rate: f64,
    /// Per-query latency oracle pricing every wait in the shards'
    /// completion queues of interleaved in-flight crawls.
    latency: LatencyModel,
    /// Cap on concurrently in-flight crawls per shard event loop.
    max_inflight: usize,
    m_failures: &'static obs::Counter,
    m_inflight: &'static obs::Gauge,
    m_sim_latency: &'static obs::Histogram,
    m_timeouts: &'static obs::Counter,
    m_makespan: &'static obs::Gauge,
}

impl CrawlExecutor {
    pub fn new(threads: usize, failure_rate: f64) -> Self {
        CrawlExecutor {
            exec: ShardedExecutor::new(threads, crate::exec_metric_names!("crawl")),
            failure_rate,
            latency: LatencyModel::default(),
            max_inflight: 1024,
            m_failures: obs::counter("crawl.transient_failures"),
            m_inflight: obs::gauge("crawl.inflight"),
            m_sim_latency: obs::histogram("crawl.sim_latency_ns"),
            m_timeouts: obs::counter("crawl.query_timeouts"),
            m_makespan: obs::gauge("crawl.makespan_ns"),
        }
    }

    /// Select the latency model (builder-style).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Cap concurrently in-flight crawls per shard event loop.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self
    }

    /// Crawl `monitored` (in canonical order) against the pre-round `store`,
    /// returning one [`CrawlOutcome`] per FQDN in the same order.
    ///
    /// `make_resolver` / `make_web` are per-worker factories: each thread
    /// gets its own resolver (and thus its own TTL cache) so no lock is
    /// shared on the hot path. Within one round a cache hit returns exactly
    /// what a fresh resolution would (same authority state, same `now`), so
    /// per-thread caches cannot perturb results.
    pub fn run<T, E, FR, FW>(
        &self,
        monitored: &[Name],
        store: &SnapshotStore,
        tree: &RngTree,
        now: SimTime,
        make_resolver: &FR,
        make_web: &FW,
    ) -> Vec<CrawlOutcome>
    where
        T: Transport,
        E: Endpoint,
        FR: Fn() -> Resolver<T> + Sync,
        FW: Fn() -> E + Sync,
    {
        // Each shard drains its own completion queue, interleaving up to
        // `max_inflight` crawls. Work is partitioned by the store's shards —
        // a stable, FQDN-keyed split, so the same name always lands in the
        // same bucket no matter how many workers run — every latency draw
        // is keyed by (fqdn, day, event ordinal), and per-bucket outcome
        // lists are merged back in canonical input order, so the result
        // stays byte-identical for any thread count.
        let per_bucket = self.exec.fold_buckets(
            monitored,
            store.shard_count(),
            |fqdn| store.shard_of(fqdn),
            |_b, bucket| {
                let resolver = make_resolver();
                let web = make_web();
                self.run_bucket(bucket, store, tree, now, &resolver, &web)
            },
        );

        // Telemetry: peak concurrency and makespan across shard loops, each
        // crawl's simulated duration. All out-of-band.
        let peak = per_bucket
            .iter()
            .map(|b| b.peak_inflight)
            .max()
            .unwrap_or(0);
        let makespan = per_bucket.iter().map(|b| b.makespan_ns).max().unwrap_or(0);
        self.m_inflight.set(peak as f64);
        self.m_makespan.set(makespan as f64);

        let mut indexed: Vec<(usize, CrawlOutcome)> =
            per_bucket.into_iter().flat_map(|b| b.outcomes).collect();
        indexed.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(indexed.len(), monitored.len());
        for (_, o) in &indexed {
            self.m_sim_latency.record(o.sim_elapsed_ns);
        }
        indexed.into_iter().map(|(_, o)| o).collect()
    }

    /// Drain one shard's completion queue: admit crawls in canonical order
    /// up to the in-flight cap, price every network wait with the latency
    /// model, and pop completions in deterministic `(fire_time, seq)` order.
    fn run_bucket<T: Transport, E: Endpoint + ?Sized>(
        &self,
        bucket: &[(usize, &Name)],
        store: &SnapshotStore,
        tree: &RngTree,
        now: SimTime,
        resolver: &Resolver<T>,
        web: &E,
    ) -> BucketCrawl {
        struct Task<'s> {
            input_idx: usize,
            fqdn: &'s Name,
            fl: Option<CrawlInFlight<'s>>,
            /// Events scheduled so far for this task — the per-task ordinal
            /// that keys latency draws.
            ordinal: u64,
            /// Fate sampled when the pending wait was scheduled.
            pending: QueryFate,
            /// Root causal trace context when this crawl is sampled.
            trace: Option<obs::TraceCtx>,
        }

        /// Turn a finished task's machine into its [`CrawlOutcome`],
        /// emitting the trace's root span when the crawl was sampled.
        fn harvest(
            task: &mut Task<'_>,
            store: &SnapshotStore,
            outcomes: &mut Vec<(usize, CrawlOutcome)>,
        ) {
            let fl = task.fl.take().expect("harvesting an empty task");
            let sim_elapsed_ns = fl.elapsed_ns();
            let dns_elapsed_ns = fl.dns_elapsed_ns();
            let snap = fl.into_snapshot();
            if let Some(ctx) = task.trace.take() {
                // Root span: round start → completion. Queue-wait is the
                // virtual time before admission (ctx.base_ns); service is
                // the sum of priced waits — the two add up to the span
                // exactly, because a task's events are contiguous.
                obs::causal::emit(obs::CausalSpan {
                    trace: ctx.trace,
                    span_id: ctx.parent,
                    parent: None,
                    name: "crawl",
                    fqdn: task.fqdn.to_string(),
                    day: ctx.day,
                    start_ns: 0,
                    dur_ns: ctx.base_ns + sim_elapsed_ns,
                    queue_wait_ns: ctx.base_ns,
                    service_ns: sim_elapsed_ns,
                    args: Vec::new(),
                });
            }
            let change = store
                .latest(task.fqdn)
                .and_then(|p| diff_record(p, snap.clone()));
            outcomes.push((
                task.input_idx,
                CrawlOutcome {
                    snap,
                    change,
                    sim_elapsed_ns,
                    dns_elapsed_ns,
                },
            ));
        }

        let free = self.latency.is_free();
        let mut q: CompletionQueue<usize> = CompletionQueue::new();
        let mut slots: Vec<Task> = Vec::with_capacity(bucket.len().min(self.max_inflight));
        let mut outcomes: Vec<(usize, CrawlOutcome)> = Vec::with_capacity(bucket.len());
        let mut next = 0usize; // next bucket item to admit (canonical order)
        let mut inflight = 0usize;
        let mut peak_inflight = 0usize;
        let mut timeouts = 0u64;

        // Price and schedule a task's pending wait; returns false if the
        // task is already done (nothing to schedule).
        let schedule =
            |task: &mut Task, q: &mut CompletionQueue<usize>, slot: usize, timeouts: &mut u64| {
                let fl = task.fl.as_ref().expect("scheduling a harvested task");
                let Some(wait) = fl.wait() else { return false };
                let fate = if free {
                    QueryFate {
                        cost_ns: 0,
                        dropped: false,
                    }
                } else {
                    let class = match wait {
                        CrawlWait::Dns => QueryClass::Dns,
                        CrawlWait::Connect => QueryClass::Connect,
                        CrawlWait::Index | CrawlWait::Sitemap => QueryClass::Http,
                    };
                    let key = format!("net/{}/{}/{}", task.fqdn, now.0, task.ordinal);
                    self.latency
                        .sample(tree, &key, &fl.target().to_string(), class)
                };
                if fate.dropped {
                    *timeouts += 1;
                }
                task.ordinal += 1;
                task.pending = fate;
                q.schedule_in(fate.cost_ns, slot);
                true
            };

        while outcomes.len() < bucket.len() {
            // Admission in canonical order up to the in-flight cap.
            while inflight < self.max_inflight && next < bucket.len() {
                let (input_idx, fqdn) = bucket[next];
                next += 1;
                let fetch_dropped = self.failure_rate > 0.0
                    && tree
                        .rng(&format!("crawl/{fqdn}/{}", now.0))
                        .gen_bool(self.failure_rate);
                if fetch_dropped {
                    self.m_failures.inc();
                }
                let mut fl = CrawlInFlight::begin(
                    fqdn.clone(),
                    resolver,
                    store.latest(fqdn),
                    now,
                    fetch_dropped,
                );
                // Causal tracing: the sampling decision is a pure hash of
                // (fqdn, day) — no RNG stream touched, so results cannot
                // depend on it. Admission time (the queue's current
                // virtual instant) is the crawl's queue-wait.
                let mut trace = None;
                if obs::causal_enabled() {
                    let day = now.0 as i64;
                    let tid = obs::trace_id(&fqdn.to_string(), day);
                    if obs::sampled(tid) {
                        let ctx = obs::TraceCtx::root(tid, q.now().as_nanos(), day);
                        fl.set_trace(ctx);
                        trace = Some(ctx);
                    }
                }
                let slot = slots.len();
                slots.push(Task {
                    input_idx,
                    fqdn,
                    fl: Some(fl),
                    ordinal: 0,
                    pending: QueryFate {
                        cost_ns: 0,
                        dropped: false,
                    },
                    trace,
                });
                if schedule(&mut slots[slot], &mut q, slot, &mut timeouts) {
                    inflight += 1;
                    peak_inflight = peak_inflight.max(inflight);
                } else {
                    // Done at begin (DNS cache hit straight to a negative
                    // answer): harvest without ever entering the queue.
                    harvest(&mut slots[slot], store, &mut outcomes);
                }
            }
            // Drain the next completion.
            let Some((_at, slot)) = q.pop() else {
                debug_assert_eq!(outcomes.len(), bucket.len(), "queue dry with work left");
                break;
            };
            let task = &mut slots[slot];
            let fate = task.pending;
            task.fl
                .as_mut()
                .expect("completion for a harvested task")
                .step(resolver, web, fate.dropped, fate.cost_ns);
            if !schedule(task, &mut q, slot, &mut timeouts) {
                harvest(task, store, &mut outcomes);
                inflight -= 1;
            }
        }

        self.m_timeouts.add(timeouts);
        // Defensive: worker threads exit per round (their thread-local
        // buffers flush on drop), but flush explicitly so spans survive any
        // future executor that reuses threads.
        obs::causal::flush_thread();
        BucketCrawl {
            outcomes,
            peak_inflight: peak_inflight as u64,
            makespan_ns: q.now().as_nanos(),
        }
    }
}

/// One shard event loop's products: outcomes tagged with input indices plus
/// the loop's telemetry.
struct BucketCrawl {
    outcomes: Vec<(usize, CrawlOutcome)>,
    peak_inflight: u64,
    makespan_ns: u64,
}

/// The weekly-crawl stage: wraps [`CrawlExecutor`] and leaves the round's
/// outcomes in [`RunState::crawl_batch`] for the diff stage.
pub struct CrawlStage {
    exec: CrawlExecutor,
}

impl CrawlStage {
    pub fn new(threads: usize, failure_rate: f64) -> Self {
        CrawlStage {
            exec: CrawlExecutor::new(threads, failure_rate),
        }
    }

    /// Select the latency model (builder-style).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.exec = self.exec.with_latency(latency);
        self
    }

    /// Cap concurrently in-flight crawls per shard event loop.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.exec = self.exec.with_max_inflight(max_inflight);
        self
    }
}

impl Stage for CrawlStage {
    fn name(&self) -> &'static str {
        "crawl"
    }

    fn weekly(&mut self, rs: &mut RunState, now: SimTime) {
        let RunState {
            world,
            store,
            monitored,
            tree,
            crawl_batch,
            round_latency,
            ..
        } = rs;
        let world = &*world;
        *crawl_batch = self.exec.run(
            monitored,
            store,
            tree,
            now,
            &|| Resolver::new(world.dns()),
            &|| world.web(),
        );
        // Round telemetry: DNS resolution-latency percentiles. Out-of-band —
        // never serialized with results (see `report::RoundLatency`).
        let mut samples: Vec<u64> = crawl_batch.iter().map(|o| o.dns_elapsed_ns).collect();
        if let Some(r) = crate::report::RoundLatency::from_samples(now, &mut samples) {
            round_latency.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{AccountId, CloudPlatform, PlatformConfig, ServiceId, SiteContent};
    use dns::{Authority, RecordData, ResourceRecord, Zone, ZoneSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(n: usize) -> (CloudPlatform, ZoneSet, Vec<Name>) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut platform = CloudPlatform::new(PlatformConfig::default());
        let mut zs = ZoneSet::new();
        let mut zone = Zone::new("acme.com".parse().unwrap());
        let mut monitored = Vec::new();
        for i in 0..n {
            let id = platform
                .register(
                    ServiceId::AzureWebApp,
                    Some(&format!("site-{i}")),
                    None,
                    AccountId::Org(1),
                    SimTime(0),
                    &mut rng,
                )
                .unwrap();
            platform.set_content(id, SiteContent::placeholder(&format!("Site {i}")));
            let fqdn: Name = format!("s{i}.acme.com").parse().unwrap();
            platform.bind_custom_domain(id, fqdn.clone());
            zone.add(ResourceRecord::new(
                fqdn.clone(),
                300,
                RecordData::Cname(format!("site-{i}.azurewebsites.net").parse().unwrap()),
            ));
            monitored.push(fqdn);
        }
        zs.insert(zone);
        for pz in platform.zones().iter() {
            zs.insert(pz.clone());
        }
        (platform, zs, monitored)
    }

    #[test]
    fn parallel_matches_serial() {
        let (platform, zs, monitored) = build(23);
        let store = SnapshotStore::with_shards(4);
        let tree = RngTree::new(9);
        // Nonzero failure rate so the RNG-keyed path is exercised too.
        let serial = CrawlExecutor::new(1, 0.1).run(
            &monitored,
            &store,
            &tree,
            SimTime(7),
            &|| Resolver::new(Authority::new(zs.clone())),
            &|| &platform,
        );
        for threads in [2, 3, 8] {
            let par = CrawlExecutor::new(threads, 0.1).run(
                &monitored,
                &store,
                &tree,
                SimTime(7),
                &|| Resolver::new(Authority::new(zs.clone())),
                &|| &platform,
            );
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.snap, b.snap, "threads={threads}");
            }
        }
    }

    #[test]
    fn failure_model_off_by_default() {
        let (platform, zs, monitored) = build(5);
        let store = SnapshotStore::new();
        let tree = RngTree::new(9);
        let out = CrawlExecutor::new(1, 0.0).run(
            &monitored,
            &store,
            &tree,
            SimTime(7),
            &|| Resolver::new(Authority::new(zs.clone())),
            &|| &platform,
        );
        assert!(out.iter().all(|o| o.snap.is_serving()));
        assert!(out.iter().all(|o| o.change.is_none()));
    }
}
