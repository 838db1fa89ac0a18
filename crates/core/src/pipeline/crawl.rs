//! The shard-parallel weekly crawl (§3.2).
//!
//! [`CrawlExecutor`] fans one monitoring round out over worker threads and
//! commits it: each worker owns one [`SnapshotStore`] shard for the round,
//! and for every FQDN of its bucket it crawls against the previous
//! snapshot, builds the change record, and replaces the snapshot in place.
//! The contract is strict determinism: for the same world state the
//! committed store and the round's change list are byte-identical for any
//! thread count, because
//!
//! 1. work is partitioned by [`SnapshotStore::shard_of`] — a fixed hash of
//!    the FQDN, computed once when the name is admitted
//!    ([`RunState::monitored_shards`]) — never by arrival or iteration
//!    order, so each FQDN is crawled and committed by the one task that
//!    owns its shard,
//! 2. each FQDN is crawled at most once per round (the collect stage admits
//!    a name once), so a task only ever reads its FQDN's *pre-round*
//!    snapshot and no task can observe another crawl's write — the commit
//!    asserts it, and
//! 3. any randomness (the transient-failure model) comes from an RNG stream
//!    keyed by `crawl/{fqdn}/{day}`, so it does not depend on which thread
//!    or in which order the FQDN was crawled,
//!
//! and the round's change records are re-assembled in the canonical
//! monitored order before they reach the change log.

use super::{RunState, ShardedExecutor, Stage};
use crate::diff::{record as diff_record, ChangeRecord};
use crate::monitor::{crawl, CrawlWait, Web};
use crate::snapshot::{fqdn_shard, Snapshot, SnapshotStore};
use dns::resolver::Transport;
use dns::{Name, Resolver};
use obs::causal::{SALT_DNS, SALT_INDEX, SALT_SITEMAP};
use rand::Rng;
use simcore::{LatencyModel, QueryClass, RngTree, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Crawls one shard keeps in flight at once in virtual time: the 1,025th
/// crawl of a shard starts when the earliest of the first 1,024 finishes.
const MAX_INFLIGHT: usize = 1024;

/// What a committed crawl round returns besides the store it wrote.
#[derive(Debug)]
pub struct CrawlRound {
    /// The round's change records, in canonical monitored order.
    pub changes: Vec<ChangeRecord>,
    /// Each crawl's simulated DNS time, in shard order. Timing telemetry:
    /// it feeds the per-round percentile summary
    /// ([`crate::report::RoundLatency`]) and never a serialized result.
    pub dns_elapsed_ns: Vec<u64>,
}

/// Shard-parallel crawl executor: the [`ShardedExecutor`] discipline applied
/// to the weekly crawl (see module docs for the determinism contract).
pub struct CrawlExecutor {
    exec: ShardedExecutor,
    /// Per-fetch probability of a transient failure (network flake). Zero
    /// disables the model entirely — no RNG stream is even derived.
    failure_rate: f64,
    /// Per-query latency oracle pricing every network wait of a crawl.
    latency: LatencyModel,
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

    /// Crawl `monitored` (in canonical order) and commit every new snapshot
    /// into `store`, replacing each FQDN's previous snapshot in place (or
    /// inserting it on first sight). Returns the round's change records in
    /// canonical order plus the per-crawl DNS times.
    ///
    /// `shard_ids[i]` is `monitored[i]`'s [`SnapshotStore::shard_id`] in
    /// `store` (the crawl is partitioned by it and commits by it).
    ///
    /// `make_resolver` / `make_web` are per-worker factories: each shard
    /// builds its own resolver and web view over the round's read-only
    /// world.
    ///
    /// # Panics
    ///
    /// If an FQDN already holds a snapshot dated `now` or later, i.e. it
    /// appears twice in `monitored` or the round is not later than the
    /// last one, or if `shard_ids` is not as long as `monitored`.
    #[allow(clippy::too_many_arguments)]
    pub fn run<T, W, FR, FW>(
        &self,
        monitored: &[Name],
        shard_ids: &[u16],
        store: &mut SnapshotStore,
        tree: &RngTree,
        now: SimTime,
        make_resolver: &FR,
        make_web: &FW,
    ) -> CrawlRound
    where
        T: Transport,
        W: Web,
        FR: Fn() -> Resolver<T> + Sync,
        FW: Fn() -> W + Sync,
    {
        assert_eq!(
            shard_ids.len(),
            monitored.len(),
            "one shard id per monitored name"
        );
        // Work is partitioned by the store's shards — a stable, FQDN-keyed
        // split, so the same name always lands in the same bucket (and is
        // committed to the same shard) no matter how many workers run —
        // every latency draw is keyed by (fqdn, day, wait ordinal), and the
        // per-bucket change lists are merged back in canonical input order,
        // so the result stays byte-identical for any thread count.
        let shards = store.shards_mut();
        let n_shards = shards.len();
        let per_bucket = self.exec.fold_buckets(
            monitored,
            shards,
            |i, _| usize::from(shard_ids[i]),
            |b, shard, bucket| {
                debug_assert!(
                    bucket.iter().all(|(_, f)| fqdn_shard(f, n_shards) == b),
                    "a shard id disagrees with the store's hash"
                );
                let resolver = make_resolver();
                let web = make_web();
                self.run_bucket(bucket, shard, tree, now, &resolver, &web)
            },
        );

        // Telemetry: peak concurrency and makespan across shards. All
        // out-of-band.
        let peak = per_bucket
            .iter()
            .map(|b| b.dns_elapsed_ns.len().min(MAX_INFLIGHT))
            .max()
            .unwrap_or(0);
        let makespan = per_bucket.iter().map(|b| b.makespan_ns).max().unwrap_or(0);
        self.m_inflight.set(peak as f64);
        self.m_makespan.set(makespan as f64);

        let mut changes: Vec<(usize, ChangeRecord)> = Vec::new();
        let mut dns_elapsed_ns = Vec::with_capacity(monitored.len());
        for b in per_bucket {
            changes.extend(b.changes);
            dns_elapsed_ns.extend(b.dns_elapsed_ns);
        }
        changes.sort_unstable_by_key(|(i, _)| *i);
        CrawlRound {
            changes: changes.into_iter().map(|(_, c)| c).collect(),
            dns_elapsed_ns,
        }
    }

    /// Crawl one shard's bucket in canonical order and commit each snapshot
    /// into the shard. Each crawl runs to completion in turn; its admission
    /// time in virtual time comes from the [`Slots`] list scheduler, and
    /// every network wait is priced by a [`WaitPricer`].
    fn run_bucket<T: Transport, W: Web + ?Sized>(
        &self,
        bucket: &[(usize, &Name)],
        shard: &mut HashMap<Name, Snapshot>,
        tree: &RngTree,
        now: SimTime,
        resolver: &Resolver<T>,
        web: &W,
    ) -> BucketCrawl {
        let latency = (!self.latency.is_free()).then_some(&self.latency);
        let mut slots = Slots::new(MAX_INFLIGHT);
        let mut changes = Vec::new();
        let mut dns_elapsed_ns = Vec::with_capacity(bucket.len());
        let mut timeouts = 0u64;
        for &(input_idx, fqdn) in bucket {
            let prev = shard.get_mut(fqdn);
            if let Some(p) = &prev {
                // The in-place commit below is only sound if this crawl
                // reads the pre-round snapshot: one crawl per FQDN per round.
                assert!(
                    p.day < now,
                    "{fqdn} crawled on day {} over a snapshot of day {}",
                    now.0,
                    p.day.0
                );
            }
            let fetch_dropped = self.failure_rate > 0.0
                && tree
                    .rng(&format!("crawl/{fqdn}/{}", now.0))
                    .gen_bool(self.failure_rate);
            if fetch_dropped {
                self.m_failures.inc();
            }
            let admit_ns = slots.admit();
            // Causal tracing: the sampling decision is a pure hash of
            // (fqdn, day) — no RNG stream touched, so results cannot depend
            // on it. The admission time is the crawl's queue-wait.
            let mut trace = None;
            if obs::causal_enabled() {
                let day = now.0 as i64;
                let tid = obs::trace_id(&fqdn.to_string(), day);
                if obs::sampled(tid) {
                    trace = Some(obs::TraceCtx::root(tid, admit_ns, day));
                }
            }
            let mut pricer = WaitPricer::new(latency, tree, fqdn, now.0, trace);
            let snap = crawl(
                fqdn,
                resolver,
                web,
                prev.as_deref(),
                now,
                fetch_dropped,
                |wait, target| pricer.wait(wait, target),
            );
            slots.finish(admit_ns + pricer.elapsed_ns);
            timeouts += pricer.timeouts;
            if let Some(ctx) = trace {
                // Root span: round start → completion. Queue-wait is the
                // virtual time before admission; service is the sum of
                // priced waits, which run back to back.
                obs::causal::emit(obs::CausalSpan {
                    trace: ctx.trace,
                    span_id: ctx.parent,
                    parent: None,
                    name: "crawl",
                    fqdn: fqdn.to_string(),
                    day: ctx.day,
                    start_ns: 0,
                    dur_ns: admit_ns + pricer.elapsed_ns,
                    queue_wait_ns: admit_ns,
                    service_ns: pricer.elapsed_ns,
                    args: Vec::new(),
                });
            }
            self.m_sim_latency.record(pricer.elapsed_ns);
            dns_elapsed_ns.push(pricer.dns_elapsed_ns);
            match prev {
                Some(prev) => {
                    if let Some(change) = diff_record(prev, &snap) {
                        changes.push((input_idx, change));
                    }
                    *prev = snap;
                }
                None => {
                    shard.insert(fqdn.clone(), snap);
                }
            }
        }
        self.m_timeouts.add(timeouts);
        BucketCrawl {
            changes,
            dns_elapsed_ns,
            makespan_ns: slots.makespan_ns,
        }
    }
}

/// One shard's products besides its committed snapshots: change records
/// tagged with input indices, per-crawl DNS times, and the shard's virtual
/// makespan.
struct BucketCrawl {
    changes: Vec<(usize, ChangeRecord)>,
    dns_elapsed_ns: Vec<u64>,
    makespan_ns: u64,
}

/// List scheduling of a shard's crawls over a fixed number of in-flight
/// slots, in virtual time. A crawl is admitted when a slot is free: at 0
/// while fewer crawls than slots have started, and otherwise when the
/// earliest running crawl finishes. Because a crawl's waits run back to
/// back, this is exactly the admission schedule of an event loop that
/// interleaves up to `slots` crawls and pops completions in time order.
struct Slots {
    slots: usize,
    /// Finish times of the crawls holding a slot (min-heap).
    finish_ns: BinaryHeap<Reverse<u64>>,
    /// Latest finish time so far.
    makespan_ns: u64,
}

impl Slots {
    fn new(slots: usize) -> Self {
        Slots {
            slots,
            finish_ns: BinaryHeap::new(),
            makespan_ns: 0,
        }
    }

    /// Take a slot for the next crawl; returns its admission time. Pair
    /// every call with one [`Slots::finish`].
    fn admit(&mut self) -> u64 {
        if self.finish_ns.len() < self.slots {
            0
        } else {
            self.finish_ns.pop().map_or(0, |Reverse(t)| t)
        }
    }

    /// The crawl admitted last finishes at `at_ns`.
    fn finish(&mut self, at_ns: u64) {
        self.finish_ns.push(Reverse(at_ns));
        self.makespan_ns = self.makespan_ns.max(at_ns);
    }
}

/// Prices one crawl's network waits: maps each wait to a [`QueryClass`],
/// draws its fate from the latency model under the key
/// `net/{fqdn}/{day}/{ordinal}` (the ordinal counts the crawl's waits,
/// retries included), charges it to the crawl's virtual time, and emits
/// its causal child span when the crawl is traced.
struct WaitPricer<'a> {
    /// `None` when the model is free: every wait costs 0 and none is lost.
    latency: Option<&'a LatencyModel>,
    tree: &'a RngTree,
    fqdn: &'a Name,
    day: i32,
    trace: Option<obs::TraceCtx>,
    ordinal: u64,
    /// The index request was made, so a further connect opens the sitemap
    /// fetch.
    index_fetched: bool,
    elapsed_ns: u64,
    dns_elapsed_ns: u64,
    timeouts: u64,
}

impl<'a> WaitPricer<'a> {
    fn new(
        latency: Option<&'a LatencyModel>,
        tree: &'a RngTree,
        fqdn: &'a Name,
        day: i32,
        trace: Option<obs::TraceCtx>,
    ) -> Self {
        WaitPricer {
            latency,
            tree,
            fqdn,
            day,
            trace,
            ordinal: 0,
            index_fetched: false,
            elapsed_ns: 0,
            dns_elapsed_ns: 0,
            timeouts: 0,
        }
    }

    /// Price `wait` addressed to `target`; returns whether it was lost.
    fn wait(&mut self, wait: CrawlWait, target: &Name) -> bool {
        let (cost_ns, dropped) = match self.latency {
            None => (0, false),
            Some(latency) => {
                let class = match wait {
                    CrawlWait::Dns => QueryClass::Dns,
                    CrawlWait::Connect => QueryClass::Connect,
                    CrawlWait::Index | CrawlWait::Sitemap => QueryClass::Http,
                };
                let key = format!("net/{}/{}/{}", self.fqdn, self.day, self.ordinal);
                let fate = latency.sample(self.tree, &key, &target.to_string(), class);
                (fate.cost_ns, fate.dropped)
            }
        };
        self.timeouts += u64::from(dropped);
        if let Some(root) = &self.trace {
            // Each phase has its own span-id namespace: the DNS chain (the
            // DNS waits come first, so the ordinal is the attempt number),
            // the index fetch (connect 0, request 1) and the sitemap fetch.
            let (salt, index, name, arg) = match wait {
                CrawlWait::Dns => (SALT_DNS, self.ordinal, "dns.query", "qname"),
                CrawlWait::Connect if self.index_fetched => {
                    (SALT_SITEMAP, 0, "probe.connect", "host")
                }
                CrawlWait::Connect => (SALT_INDEX, 0, "probe.connect", "host"),
                CrawlWait::Index => (SALT_INDEX, 1, "probe.request", "host"),
                CrawlWait::Sitemap => (SALT_SITEMAP, 1, "probe.request", "host"),
            };
            let mut args = vec![(arg, obs::span::ArgValue::Str(target.to_string()))];
            if wait == CrawlWait::Dns {
                args.push(("dropped", obs::span::ArgValue::I64(dropped as i64)));
            }
            root.emit_child(
                salt,
                index,
                name,
                root.base_ns + self.elapsed_ns,
                cost_ns,
                args,
            );
        }
        match wait {
            CrawlWait::Dns => self.dns_elapsed_ns += cost_ns,
            CrawlWait::Index => self.index_fetched = true,
            _ => {}
        }
        self.ordinal += 1;
        self.elapsed_ns += cost_ns;
        dropped
    }
}

/// The weekly-crawl stage: wraps [`CrawlExecutor`], which commits the
/// round into [`RunState::store`]; the stage appends the round's changes to
/// [`RunState::changes`], so a live round leaves [`RunState::crawl_batch`]
/// empty.
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
            monitored_shards,
            tree,
            changes,
            round_latency,
            ..
        } = rs;
        let world = &*world;
        let mut round = self.exec.run(
            monitored,
            monitored_shards,
            store,
            tree,
            now,
            &|| Resolver::new(world.dns()),
            &|| world.web(),
        );
        obs::counter("diff.changes").add(round.changes.len() as u64);
        obs::counter("diff.snapshots").add(monitored.len() as u64);
        changes.append(&mut round.changes);
        // Round telemetry: DNS resolution-latency percentiles. Out-of-band —
        // never serialized with results (see `report::RoundLatency`).
        if let Some(r) = crate::report::RoundLatency::from_samples(now, &mut round.dns_elapsed_ns) {
            round_latency.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{AccountId, CloudPlatform, PlatformConfig, ServiceId, SiteContent};
    use dns::{RecordData, ResourceRecord, Zone, ZoneSet};
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

    fn shard_ids(store: &SnapshotStore, monitored: &[Name]) -> Vec<u16> {
        monitored.iter().map(|f| store.shard_id(f)).collect()
    }

    /// Admit crawls of the given durations in order; returns their
    /// admission times and the makespan.
    fn schedule(slots: usize, durations: &[u64]) -> (Vec<u64>, u64) {
        let mut s = Slots::new(slots);
        let admitted = durations
            .iter()
            .map(|d| {
                let at = s.admit();
                s.finish(at + d);
                at
            })
            .collect();
        (admitted, s.makespan_ns)
    }

    #[test]
    fn slot_scheduler_admits_at_the_earliest_finish() {
        let durations = [5, 3, 5, 2, 4, 1, 3];
        // One slot runs the crawls back to back.
        let (admitted, makespan) = schedule(1, &durations);
        assert_eq!(admitted, [0, 5, 8, 13, 15, 19, 20]);
        assert_eq!(makespan, durations.iter().sum::<u64>());
        // With a slot per crawl every crawl starts at once.
        for slots in [durations.len(), durations.len() + 5] {
            let (admitted, makespan) = schedule(slots, &durations);
            assert!(admitted.iter().all(|&t| t == 0));
            assert_eq!(makespan, 5);
        }
        // Three slots, worked by hand. The first three start at 0 and end
        // at 5, 3, 5. The fourth takes the slot freed at 3 and ends at 5,
        // so three slots free up at 5: the next three all start at 5 (ends
        // 9, 6, 8).
        let (admitted, makespan) = schedule(3, &durations);
        assert_eq!(admitted, [0, 0, 0, 3, 5, 5, 5]);
        assert_eq!(makespan, 9);
        // No crawls, no virtual time.
        assert_eq!(schedule(3, &[]), (vec![], 0));
    }

    /// Commit `rounds` crawl rounds of `monitored` into a fresh 4-shard
    /// store, with the transient-failure model on (rate 0.1) so the
    /// RNG-keyed path runs and flaky fetches come and go as changes.
    /// Returns the store's snapshots in canonical order and every round's
    /// change records, both as their `Debug` text. Checks on the way that
    /// each round's changes come in canonical monitored order and that the
    /// round replaced every snapshot.
    fn committed(
        threads: usize,
        (platform, zs, monitored): &(CloudPlatform, ZoneSet, Vec<Name>),
        rounds: &[i32],
    ) -> (Vec<String>, Vec<String>) {
        let exec = CrawlExecutor::new(threads, 0.1);
        let mut store = SnapshotStore::with_shards(4);
        let shard_ids = shard_ids(&store, monitored);
        let tree = RngTree::new(9);
        let mut changes = Vec::new();
        for &day in rounds {
            let round = exec.run(
                monitored,
                &shard_ids,
                &mut store,
                &tree,
                SimTime(day),
                &|| Resolver::new(zs.clone()),
                &|| platform,
            );
            assert_eq!(round.dns_elapsed_ns.len(), monitored.len());
            let at: Vec<usize> = round
                .changes
                .iter()
                .map(|c| monitored.iter().position(|m| *m == c.fqdn).unwrap())
                .collect();
            assert!(at.windows(2).all(|w| w[0] < w[1]), "day {day}: {at:?}");
            assert!(round.changes.iter().all(|c| c.day == SimTime(day)));
            assert!(store.iter().all(|s| s.day == SimTime(day)));
            changes.extend(round.changes.iter().map(|c| format!("{c:?}")));
        }
        assert_eq!(store.len(), monitored.len());
        let snaps = store.iter().map(|s| format!("{s:?}")).collect();
        (snaps, changes)
    }

    #[test]
    fn parallel_matches_serial() {
        let world = build(23);
        let rounds = [7, 14, 21];
        let serial = committed(1, &world, &rounds);
        assert!(!serial.1.is_empty(), "flaky fetches must leave changes");
        for threads in [2, 3, 8] {
            assert!(
                committed(threads, &world, &rounds) == serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_name_crawled_twice_in_one_round_panics() {
        let (platform, zs, mut monitored) = build(5);
        monitored.push(monitored[2].clone());
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut store = SnapshotStore::with_shards(4);
                CrawlExecutor::new(threads, 0.0).run(
                    &monitored,
                    &shard_ids(&store, &monitored),
                    &mut store,
                    &RngTree::new(9),
                    SimTime(7),
                    &|| Resolver::new(zs.clone()),
                    &|| &platform,
                );
            }));
            let err = result.expect_err("a duplicated name must panic");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                msg.contains("crawled on day 7 over a snapshot of day 7"),
                "threads={threads}: {msg}"
            );
        }
    }

    #[test]
    fn failure_model_off_by_default() {
        let (platform, zs, monitored) = build(5);
        let mut store = SnapshotStore::new();
        let shard_ids = shard_ids(&store, &monitored);
        let tree = RngTree::new(9);
        for day in [7, 14] {
            let round = CrawlExecutor::new(1, 0.0).run(
                &monitored,
                &shard_ids,
                &mut store,
                &tree,
                SimTime(day),
                &|| Resolver::new(zs.clone()),
                &|| &platform,
            );
            assert!(round.changes.is_empty());
        }
        assert_eq!(store.len(), monitored.len());
        assert!(store.iter().all(Snapshot::is_serving));
    }
}
