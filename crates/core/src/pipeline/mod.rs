//! The staged monitoring pipeline.
//!
//! [`crate::scenario::Scenario::run`] used to be a single ~1,000-line event
//! loop; it is now an orchestrator over five stages, each behind the small
//! [`Stage`] trait so ablations and benches can swap or instrument them:
//!
//! - [`WorldStage`] — world advancement: organizations provisioning,
//!   releasing and remediating resources, attacker campaigns, certificate
//!   history, liveness probes,
//! - [`CollectStage`] — Algorithm-1 collection: grows the monitored set
//!   from the feed every monitoring round,
//! - [`CrawlStage`] — the weekly crawl, shard-parallel via
//!   [`CrawlExecutor`]: each worker diffs its FQDNs against the previous
//!   snapshots and commits the new ones in place into the store shard it
//!   owns; the round's changes join the change log in canonical FQDN order,
//! - [`DiffStage`] — commits a replayed round (logged observations, in
//!   canonical FQDN order) into the change log and the sharded snapshot
//!   store,
//! - [`IncrementalRetro`] — the retrospective §3.2 signature pass: one fold
//!   over the change log that emits a [`crate::report::StudyResults`] at
//!   the horizon.
//!
//! The retro fold has two cadences. By default it ingests the whole change
//! log once, at the horizon ([`RetroStage`] is that one-shot call). With
//! `--incremental` it also runs after the diff stage every round, and when
//! a [`RoundSink`] is attached (service mode) it emits advisory per-round
//! state for the sink. The results are the same bytes either way (see its
//! module docs for why).
//!
//! ## Determinism under parallelism
//!
//! The crawl, Algorithm-1 classification, and the retrospective pass
//! (signature matching, validation, content classification) all fan out
//! through the shared [`ShardedExecutor`]. Three invariants make every
//! parallel stage's output independent of the thread count: the crawl's
//! shards are partitioned by the stable
//! [`crate::snapshot::fqdn_shard`] hash (never by iteration order), results
//! are re-assembled in the input's canonical order (or shard order) before
//! any downstream stage sees them, and any randomness a task consumes
//! comes from a [`simcore::RngTree`] stream keyed by the FQDN and day — not
//! from a shared sequential RNG that thread scheduling could reorder.
//! `StudyResults` is therefore byte-identical for any `K`, which the
//! `intern_equivalence` suite verifies end to end against a committed
//! golden digest.

mod collect_stage;
mod crawl;
mod diff_stage;
pub mod exec;
mod incr;
pub mod obs_codec;
pub mod persist;
mod retro;
mod world_stage;

pub use collect_stage::CollectStage;
pub use crawl::{CrawlExecutor, CrawlRound, CrawlStage};
pub use diff_stage::{CrawlOutcome, DiffStage};
pub use exec::{ExecMetricNames, ShardedExecutor};
pub use incr::{
    IncrementalRetro, ProvisionalCluster, ProvisionalRound, ProvisionalSignature,
    ProvisionalVerdict,
};
pub use persist::{PersistError, PersistOptions, PersistStage};
pub use retro::RetroStage;
pub use world_stage::WorldStage;

use crate::collect::Feed;
use crate::diff::ChangeRecord;
use crate::report::{LivenessSample, RoundLatency};
use crate::scenario::ScenarioConfig;
use crate::snapshot::SnapshotStore;
use crate::world::World;
use cloudsim::ServiceId;
use dns::Name;
use simcore::{Date, EventQueue, RngTree, SimTime};
use std::collections::BTreeMap;
use worldgen::Population;

/// Scheduled simulation events. Everything except `MonitorWeek` is world
/// advancement; `MonitorWeek` drives the collect → crawl → diff stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    Provision(usize),
    Release(usize),
    Remediate(usize),
    OrgCertRenewal(usize),
    AttackerWeek,
    MonitorWeek,
    BenignRefresh,
    HistoricCertWave,
    /// §2 probe comparison against one live hijack.
    LivenessProbe(usize),
}

/// One stage of the monitoring pipeline.
///
/// Stages keep their private bookkeeping in `self` and communicate through
/// [`RunState`]; the orchestrator invokes them in a fixed order so the data
/// flow (feed → monitored set → crawl batch → change log) is explicit.
pub trait Stage {
    fn name(&self) -> &'static str;

    /// React to a scheduled world event (everything but `MonitorWeek`).
    fn on_event(&mut self, _rs: &mut RunState, _now: SimTime, _ev: Ev) {}

    /// Run one monitoring round (`MonitorWeek`), in pipeline order.
    fn weekly(&mut self, _rs: &mut RunState, _now: SimTime) {}
}

/// A read-only snapshot of one committed round, handed to a [`RoundSink`]
/// right after the round is sealed (after the persist stage's
/// `finish_round`, before the next round starts).
///
/// The sink sees shared references only: it can build whatever external
/// surface it wants from the round (service mode builds a published query
/// view) but cannot perturb the run — the determinism contracts of the
/// equivalence suites hold with any sink attached, by construction.
pub struct RoundView<'a> {
    /// The full run state as of this round's commit.
    pub rs: &'a RunState,
    /// Simulated day of the round.
    pub now: SimTime,
    /// Monitoring rounds completed so far (1-based: 1 after the first).
    pub rounds_done: u64,
    /// The retro fold's advisory per-round state when it runs every round
    /// (`None` otherwise: a fold emitted only at the horizon has no mid-run
    /// verdicts).
    pub provisional: Option<&'a ProvisionalRound>,
}

/// An observer of committed rounds — the hook service mode builds on.
///
/// [`crate::scenario::Scenario::round_sink`] attaches one to a run; the
/// orchestrator calls [`RoundSink::round_committed`] once per monitoring
/// round and polls [`RoundSink::stop_requested`] right after, breaking out
/// of the event loop at the round boundary when it returns true. A
/// persisted run has already sealed the round at that point, so a stop
/// request is a clean shutdown: a later `--resume` picks up at the next
/// round exactly as after `PersistOptions::max_rounds`.
pub trait RoundSink: Send {
    fn round_committed(&mut self, view: RoundView<'_>);

    /// Ask the run to stop at this round boundary (SIGTERM-style graceful
    /// shutdown). Polled after every `round_committed`.
    fn stop_requested(&self) -> bool {
        false
    }
}

/// The paper-scale memory budget on the `pipeline.bytes_per_fqdn` gauge
/// ([`RunState::bytes_per_fqdn`]): the snapshot store, the monitored list
/// and the label-intern text, per monitored FQDN. It is a partial sum, not
/// resident memory. The change log, the world, CT history and telemetry
/// buffers are outside it; at the study benchmark's weekly-study world the
/// gauge reads 688 B while RSS grows ~18.4 KB per monitored FQDN (2-vCPU
/// host). Enforced by `repro --profile paper-scale`, the `memory_budget`
/// regression test and the `pipeline_parallel` bench contract row.
pub const BYTES_PER_FQDN_BUDGET: f64 = 1600.0;

/// Shared state the stages read and write; everything the retrospective
/// pass needs to assemble [`crate::report::StudyResults`].
pub struct RunState {
    pub cfg: ScenarioConfig,
    pub tree: RngTree,
    pub horizon: SimTime,
    pub monitor_start: SimTime,
    pub world: World,
    pub q: EventQueue<Ev>,
    pub feed: Feed,
    /// Monitored FQDNs in discovery order — the canonical crawl order every
    /// parallel schedule must reproduce.
    pub monitored: Vec<Name>,
    /// Each monitored FQDN's [`SnapshotStore::shard_id`], in `monitored`
    /// order: hashed once, when the collect stage admits the name, and read
    /// by the crawl's partition and the persist stage's record.
    pub monitored_shards: Vec<u16>,
    pub monitored_by_service: BTreeMap<ServiceId, u64>,
    pub monitored_monthly: analysis::MonthlySeries,
    pub store: SnapshotStore,
    /// A replayed round's logged observations, in `monitored` order:
    /// installed by [`PersistStage::replay_round`] and committed by the
    /// diff stage. Empty on live rounds, which the crawl stage commits
    /// into [`RunState::store`] and [`RunState::changes`] itself.
    pub crawl_batch: Vec<CrawlOutcome>,
    pub changes: Vec<ChangeRecord>,
    pub ip_lottery_declines: u64,
    pub caa_blocked_certs: u64,
    pub liveness: Vec<LivenessSample>,
    /// Per-round DNS resolution-latency percentiles, appended by the crawl
    /// stage (skipped on replayed rounds — persisted logs carry no timing).
    pub round_latency: Vec<RoundLatency>,
    /// Digest of the world stage's RNG stream positions, refreshed at every
    /// round boundary; recorded in persistence checkpoints so a resumed run
    /// can prove its replayed world marched in lockstep with the original.
    pub rng_witness: u64,
}

impl RunState {
    /// Generate the world, build the feed, and schedule every event of the
    /// 2015–2023 study window.
    pub fn new(cfg: ScenarioConfig) -> Self {
        let tree = RngTree::new(cfg.seed);
        let population = Population::generate(cfg.world.clone(), &tree);
        let campaigns = attacker::generate_campaigns(&cfg.campaigns, &tree);
        let world = World::new(population, campaigns, cfg.platform.clone(), tree.clone());

        let horizon = SimTime::monitor_end();
        let monitor_start = SimTime::monitor_start();

        // ----- feed -----
        let mut feed_entries: Vec<(Name, SimTime)> = Vec::new();
        for plan in &world.population.plans {
            feed_entries.push((
                plan.subdomain.clone(),
                plan.discovered_at.max(monitor_start),
            ));
        }
        // Non-cloud names (apexes) also flow through Algorithm 1 and must be
        // filtered out — the methodology's own selectivity.
        for org in &world.population.orgs {
            feed_entries.push((org.apex.clone(), monitor_start));
        }
        let feed = Feed::new(feed_entries);

        // ----- event queue -----
        let mut q: EventQueue<Ev> = EventQueue::new();
        for (i, plan) in world.population.plans.iter().enumerate() {
            q.schedule(plan.create_at.max(SimTime::EPOCH), Ev::Provision(i));
            if let Some(r) = plan.release_at {
                q.schedule(r, Ev::Release(i));
            }
        }
        let mut t = monitor_start;
        while t <= horizon {
            q.schedule(t, Ev::MonitorWeek);
            q.schedule(t, Ev::AttackerWeek);
            t += cfg.monitor_interval_days;
        }
        let mut m = Date::new(2016, 1, 1).to_sim();
        while m <= horizon {
            q.schedule(m, Ev::BenignRefresh);
            m = (m + 31).month_floor();
        }
        if cfg.historic_cert_wave {
            q.schedule(Date::new(2017, 8, 1).to_sim(), Ev::HistoricCertWave);
        }

        RunState {
            cfg,
            tree,
            horizon,
            monitor_start,
            world,
            q,
            feed,
            monitored: Vec::new(),
            monitored_shards: Vec::new(),
            monitored_by_service: BTreeMap::new(),
            monitored_monthly: analysis::MonthlySeries::new(),
            store: SnapshotStore::new(),
            crawl_batch: Vec::new(),
            changes: Vec::new(),
            ip_lottery_declines: 0,
            caa_blocked_certs: 0,
            liveness: Vec::new(),
            round_latency: Vec::new(),
            rng_witness: 0,
        }
    }

    /// Approximate resident bytes per monitored FQDN — see
    /// [`bytes_per_fqdn_of`]. Published as the `pipeline.bytes_per_fqdn`
    /// gauge once per run, at the last round the run commits.
    pub fn bytes_per_fqdn(&self) -> f64 {
        bytes_per_fqdn_of(&self.store, &self.monitored)
    }
}

/// Approximate resident bytes per monitored FQDN: the snapshot store, the
/// monitored list, and the process-global label-intern table's text, divided
/// by the monitored count. This is the quantity the paper-scale profile
/// budgets ([`BYTES_PER_FQDN_BUDGET`]): everything that grows with the
/// monitored *population*. The append-only change history is excluded — it
/// grows with events, is streamed to disk by persisted runs, and is reported
/// separately. The monitored list is counted at `len` (not `capacity`);
/// amortized growth headroom is part of the budget's slack.
pub fn bytes_per_fqdn_of(store: &SnapshotStore, monitored: &[Name]) -> f64 {
    if monitored.is_empty() {
        return 0.0;
    }
    let monitored_vec =
        std::mem::size_of_val(monitored) + monitored.iter().map(Name::heap_bytes).sum::<usize>();
    let total = store.approx_bytes() + monitored_vec + dns::intern::global().label_bytes();
    total as f64 / monitored.len() as f64
}
