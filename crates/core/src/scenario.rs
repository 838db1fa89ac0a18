//! The longitudinal scenario driver.
//!
//! Runs the full world — organizations provisioning and abandoning cloud
//! resources from 2016, attacker campaigns from 2020, certificate history
//! from 2017 — and, in the same event loop, the paper's monitoring pipeline
//! (weekly, per §3). At the horizon it performs the retrospective signature
//! derivation + validation + matching pass of §3.2 and assembles a
//! [`StudyResults`].
//!
//! [`Scenario::run`] is a thin orchestrator: the actual work lives in the
//! [`crate::pipeline`] stages — world advancement, Algorithm-1 collection,
//! the shard-parallel weekly crawl, diff/record, and the retrospective pass.
//! The pipeline-wide determinism contract (byte-identical results for any
//! `crawl_threads`) is documented in [`crate::pipeline`].

use crate::pipeline::{
    CollectStage, CrawlStage, DiffStage, Ev, IncrementalRetro, PersistError, PersistOptions,
    PersistStage, RoundSink, RoundView, RunState, Stage, WorldStage,
};
use crate::report::StudyResults;
use cloudsim::PlatformConfig;
use serde::{Deserialize, Serialize};
use simcore::{Date, Scale, SimTime};
use worldgen::WorldConfig;

/// Scenario parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    pub seed: u64,
    pub world: WorldConfig,
    pub campaigns: attacker::CampaignConfig,
    pub platform: PlatformConfig,
    /// Monitoring cadence (paper: weekly).
    pub monitor_interval_days: i32,
    /// Minimum distinct SLDs for a signature cluster.
    pub min_signature_slds: usize,
    /// Replay the 2017 mass-issuance wave into CT history (Figure 20's
    /// first anomaly).
    pub historic_cert_wave: bool,
    /// The 2022 issuance boost window (Figure 20's second anomaly).
    pub cert_boost_from: SimTime,
    pub cert_boost_until: SimTime,
    /// Probability an org certifies a freshly provisioned subdomain.
    pub org_cert_probability: f64,
    /// Per-hijack probability the campaign also runs a cookie stealer.
    pub cookie_stealer_probability: f64,
    /// Worker threads for every parallel stage — the weekly crawl,
    /// Algorithm-1 classification, and the retrospective pass (0 or 1 =
    /// serial). Results are byte-identical for any value — see
    /// [`crate::pipeline`].
    #[serde(default)]
    pub crawl_threads: usize,
    /// Per-fetch probability of a transient crawl failure (0.0 disables the
    /// model). Keyed per (FQDN, day), so also thread-count-invariant.
    #[serde(default)]
    pub crawl_failure_rate: f64,
    /// Network latency profile pricing the crawl's waits (one of
    /// [`simcore::LatencyProfile::NAMES`]; empty means the default `zero`
    /// profile). `zero`, `datacenter` and `wan` only move virtual time and
    /// cannot change results; `lossy` injects deterministic, thread-count-invariant query
    /// drops and is the one profile that does.
    #[serde(default)]
    pub latency_profile: String,
}

impl ScenarioConfig {
    /// Default configuration at the given scale denominator.
    pub fn at_scale(denominator: u32) -> Self {
        let scale = Scale::new(denominator);
        ScenarioConfig {
            seed: 42,
            world: WorldConfig {
                scale,
                ..Default::default()
            },
            campaigns: attacker::CampaignConfig {
                scale,
                ..Default::default()
            },
            platform: PlatformConfig::default(),
            monitor_interval_days: 7,
            min_signature_slds: 2,
            historic_cert_wave: true,
            cert_boost_from: Date::new(2022, 9, 9).to_sim(),
            cert_boost_until: Date::new(2022, 12, 16).to_sim(),
            org_cert_probability: 0.35,
            cookie_stealer_probability: 0.02,
            crawl_threads: 1,
            crawl_failure_rate: 0.0,
            latency_profile: "zero".into(),
        }
    }

    /// Resolve [`Self::latency_profile`] into a model. Panics on an unknown
    /// name — the `repro` CLI validates earlier; a config file with a typo
    /// should fail loudly, not silently crawl with a different clock.
    pub fn latency_model(&self) -> simcore::LatencyModel {
        if self.latency_profile.is_empty() {
            return simcore::LatencyModel::default();
        }
        simcore::LatencyProfile::by_name(&self.latency_profile).unwrap_or_else(|| {
            panic!(
                "unknown latency profile {:?} (expected one of {:?})",
                self.latency_profile,
                simcore::LatencyProfile::NAMES
            )
        })
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::at_scale(100)
    }
}

/// The scenario engine.
pub struct Scenario {
    cfg: ScenarioConfig,
    max_rounds: Option<u64>,
    incremental: bool,
    sink: Option<Box<dyn RoundSink>>,
}

impl Scenario {
    pub fn new(cfg: ScenarioConfig) -> Self {
        Scenario {
            cfg,
            max_rounds: None,
            incremental: false,
            sink: None,
        }
    }

    /// Stop after at most `rounds` monitoring rounds (the retrospective pass
    /// still runs over whatever was observed). Lets smoke runs bound their
    /// work without a state directory; persisted runs can equivalently use
    /// [`PersistOptions::max_rounds`].
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Set the retro pass's cadence. The pass is always one fold,
    /// [`IncrementalRetro`], emitted once at the horizon. With `on` the fold
    /// also ingests each round's changes right behind the diff stage; when
    /// a [`Self::round_sink`] is attached it also emits the advisory
    /// per-round state ([`crate::pipeline::ProvisionalRound`], the
    /// `retro.incr.*` gauges) that service mode publishes. Off, it ingests
    /// the whole change log at the horizon in one go. `StudyResults` is
    /// byte-identical either way.
    ///
    /// A builder flag rather than a [`ScenarioConfig`] field on purpose:
    /// like `crawl_threads`, it cannot affect results, so it must not fork
    /// the persistence config fingerprint — a run recorded at one cadence
    /// can be resumed at the other.
    pub fn incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Attach a [`RoundSink`]: an observer invoked after every committed
    /// monitoring round with a read-only [`RoundView`], and polled for a
    /// graceful stop at each round boundary. Service mode publishes its
    /// query views through this hook. The sink sees shared references only,
    /// so — like telemetry — it cannot perturb results; the
    /// `serve_equivalence` suite pins that byte for byte.
    pub fn round_sink(mut self, sink: Box<dyn RoundSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Run the full study and assemble results.
    ///
    /// Pure orchestration: builds the [`RunState`], instantiates the stages,
    /// dispatches events in scheduled order (for `MonitorWeek` the monitoring
    /// stages run in pipeline order: collect → crawl → diff, then the retro
    /// fold when [`Self::incremental`] is on), then hands the final state to
    /// the retro fold to emit.
    pub fn run(self) -> StudyResults {
        self.run_inner(None)
            .expect("a run without persistence cannot fail")
    }

    /// Run the study against a state directory: every round's observations
    /// are appended to an on-disk log and sealed with a checkpoint, so an
    /// interrupted run can continue with `opts.resume` (replaying recorded
    /// rounds instead of crawling them) and still serialize byte-identically
    /// to an uninterrupted run. See [`crate::pipeline::persist`].
    pub fn run_persisted(self, opts: &PersistOptions) -> Result<StudyResults, PersistError> {
        self.run_inner(Some(opts))
    }

    fn run_inner(
        self,
        persist_opts: Option<&PersistOptions>,
    ) -> Result<StudyResults, PersistError> {
        let threads = self.cfg.crawl_threads;
        let failure_rate = self.cfg.crawl_failure_rate;
        let max_rounds = self.max_rounds;
        let incremental = self.incremental;
        let mut sink = self.sink;
        let mut rs = RunState::new(self.cfg);

        // Telemetry handles, resolved once. Everything recorded below is
        // out-of-band (wall clock + process-global telemetry state); nothing
        // feeds back into the simulation.
        let m_rounds = obs::counter("pipeline.rounds");
        let m_monitored = obs::gauge("pipeline.monitored");
        let m_bytes_per_fqdn = obs::gauge("pipeline.bytes_per_fqdn");
        let m_world_ns = obs::histogram("pipeline.world_ns");
        let mut rounds: u64 = 0;

        let mut world_stage = WorldStage::new(&rs);
        let mut collect = CollectStage::new(&rs, threads);
        let mut crawl = CrawlStage::new(threads, failure_rate).with_latency(rs.cfg.latency_model());
        let mut diff = DiffStage;
        let mut persist = match persist_opts {
            Some(opts) => Some(PersistStage::open(opts, &rs.cfg, rs.store.shard_count())?),
            None => None,
        };
        let mut retro = IncrementalRetro::new(threads);

        while let Some((now, ev)) = rs.q.pop() {
            if now > rs.horizon {
                break;
            }
            match ev {
                Ev::MonitorWeek => {
                    let round_started = std::time::Instant::now();
                    let changes_before = rs.changes.len();
                    let _round = obs::span("monitor.round", "pipeline")
                        .arg_i64("day", now.0 as i64)
                        .record_into("pipeline.round_ns");
                    {
                        let _s = obs::span("collect.weekly", "pipeline")
                            .arg_i64("day", now.0 as i64)
                            .record_into("pipeline.collect_ns");
                        collect.weekly(&mut rs, now);
                    }
                    // Inside the recorded history a resumed run substitutes
                    // the logged outcomes for the crawl — the only stage
                    // whose work is not cheaply deterministic to repeat.
                    let replayed = match persist.as_mut() {
                        Some(p) => {
                            let _s = obs::span("persist.replay_round", "persist")
                                .arg_i64("day", now.0 as i64)
                                .record_into("pipeline.replay_ns");
                            p.replay_round(&mut rs, now)?
                        }
                        None => false,
                    };
                    if !replayed {
                        {
                            let _s = obs::span("crawl.weekly", "pipeline")
                                .arg_i64("day", now.0 as i64)
                                .arg_i64("monitored", rs.monitored.len() as i64)
                                .record_into("pipeline.crawl_ns");
                            crawl.weekly(&mut rs, now);
                        }
                        if let Some(p) = persist.as_mut() {
                            let _s = obs::span("persist.record_round", "persist")
                                .arg_i64("day", now.0 as i64)
                                .record_into("pipeline.persist_ns");
                            p.record_round(&rs, now)?;
                        }
                    }
                    {
                        let _s = obs::span("diff.weekly", "pipeline")
                            .arg_i64("day", now.0 as i64)
                            .record_into("pipeline.diff_ns");
                        diff.weekly(&mut rs, now);
                    }
                    // Per-round cadence: fold this round's changes right
                    // behind the diff stage. Replayed rounds flow through
                    // here too — resume feeds recorded segments straight
                    // into the retro fold without re-crawling. The advisory
                    // validation only runs when a sink will read it.
                    if incremental {
                        let _s = obs::span("incr.weekly", "retro")
                            .arg_i64("day", now.0 as i64)
                            .record_into("pipeline.incr_ns");
                        retro.ingest(&rs, sink.is_some().then_some(now));
                    }
                    rounds += 1;
                    m_rounds.inc();
                    m_monitored.set(rs.monitored.len() as f64);
                    obs::progress!(
                        "round {rounds:>4}  day {:>5}  monitored {:>6}  changes +{:<5}  {:.1} ms",
                        now.0,
                        rs.monitored.len(),
                        rs.changes.len() - changes_before,
                        round_started.elapsed().as_secs_f64() * 1e3
                    );
                    let mut stop = false;
                    if let Some(p) = persist.as_mut() {
                        rs.rng_witness = world_stage.rng_cursor_digest();
                        p.finish_round(&rs, now)?;
                        stop = p.should_stop();
                    }
                    // The round is sealed: hand the committed state to the
                    // sink (read-only — query surfaces are out-of-band by
                    // construction) and honor a graceful stop request at
                    // this round boundary.
                    if let Some(sink) = sink.as_mut() {
                        sink.round_committed(RoundView {
                            rs: &rs,
                            now,
                            rounds_done: rounds,
                            provisional: retro.provisional_round(),
                        });
                        stop = stop || sink.stop_requested();
                    }
                    let last = stop || max_rounds.is_some_and(|m| rounds >= m);
                    // The memory gauge walks the whole store, and every
                    // reader reads it after the run: publish it once, at the
                    // last round this run commits.
                    if last || now + rs.cfg.monitor_interval_days > rs.horizon {
                        m_bytes_per_fqdn.set(rs.bytes_per_fqdn());
                    }
                    if last {
                        break;
                    }
                }
                other => {
                    let t = std::time::Instant::now();
                    world_stage.on_event(&mut rs, now, other);
                    m_world_ns.record(t.elapsed().as_nanos() as u64);
                }
            }
        }

        let _retro = obs::span("retro.assemble", "retro").record_into("pipeline.retro_ns");
        Ok(retro.finalize(rs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::NamingModel;

    /// A very small but complete end-to-end run.
    fn small_results() -> StudyResults {
        let mut cfg = ScenarioConfig::at_scale(800);
        cfg.world.n_fortune1000 = 60;
        cfg.world.n_global500 = 30;
        cfg.seed = 7;
        Scenario::new(cfg).run()
    }

    #[test]
    fn end_to_end_detects_hijacks() {
        let r = small_results();
        assert!(r.monitored_total > 100, "monitored {}", r.monitored_total);
        assert!(!r.world.truth.is_empty(), "attackers must hijack something");
        assert!(!r.abuse.is_empty(), "pipeline must detect something");
        // Detection quality: the signature pipeline should be precise and
        // catch a majority of the hijacks.
        assert!(
            r.detection.precision() > 0.9,
            "precision {}",
            r.detection.precision()
        );
        assert!(
            r.detection.recall() > 0.5,
            "recall {} (tp={} fn={})",
            r.detection.recall(),
            r.detection.true_positives,
            r.detection.false_negatives
        );
    }

    #[test]
    fn no_ip_takeovers_and_declines_counted() {
        let r = small_results();
        // §4.3: every hijack used a freetext resource.
        for t in &r.world.truth {
            assert_eq!(
                cloudsim::provider::spec(t.service).naming,
                NamingModel::Freetext,
                "{:?}",
                t.service
            );
        }
        assert!(r.ip_lottery_declines > 0, "IP danglings must be evaluated");
    }

    #[test]
    fn monitored_grows_over_time() {
        let r = small_results();
        let series = &r.monitored_monthly;
        assert!(series.len() > 12);
        let first = series.iter().find(|(_, v)| *v > 0.0).unwrap().1;
        let last = series.last().unwrap().1;
        assert!(last > first, "feed growth: {first} -> {last}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small_results();
        let b = small_results();
        assert_eq!(a.world.truth.len(), b.world.truth.len());
        assert_eq!(a.abuse.len(), b.abuse.len());
        assert_eq!(a.monitored_total, b.monitored_total);
    }
}
