//! The traced run: `Scenario::run_inner`'s event loop repeated call for call
//! over the public stage API, with a span around every call into a layer.
//!
//! Spans (name, start, end, round, work count) are kept in memory and
//! written once at exit as a Chrome trace. The traced loop must reproduce
//! the untraced run's `StudyResults` byte for byte; the caller checks the
//! digest.
//!
//! The crawl split: after each round's crawl and before the diff stage, a
//! fixed 1-in-[`SAMPLE_EVERY`] hash sample of the round's FQDNs is crawled
//! again through the four layer functions (DNS resolution, HTTP serve,
//! content extraction, snapshot compare). These calls only read the world
//! and sit in their own `sample.*` spans, outside every stage span.

use dangling_core::pipeline::{
    CollectStage, CrawlStage, DiffStage, Ev, IncrementalRetro, PersistStage, RetroStage, RunState,
    Stage, WorldStage,
};
use dangling_core::snapshot::{fqdn_shard, Snapshot};
use dangling_core::StudyResults;
use dangling_core::{PersistError, PersistOptions, RoundSink, RoundView, ScenarioConfig};
use httpsim::probe::Endpoint;
use httpsim::Request;
use simcore::SimTime;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One FQDN in this many (by stable name hash) is re-crawled per round for
/// the crawl split. Prime, so the sample is not one storage shard.
pub const SAMPLE_EVERY: usize = 31;

/// World event kinds, in `world.<kind>` span-name order.
pub const WORLD_KINDS: [&str; 8] = [
    "provision",
    "release",
    "remediate",
    "cert_renewal",
    "attacker_week",
    "benign_refresh",
    "liveness_probe",
    "historic_cert_wave",
];

fn world_span(ev: Ev) -> &'static str {
    match ev {
        Ev::Provision(_) => "world.provision",
        Ev::Release(_) => "world.release",
        Ev::Remediate(_) => "world.remediate",
        Ev::OrgCertRenewal(_) => "world.cert_renewal",
        Ev::AttackerWeek => "world.attacker_week",
        Ev::BenignRefresh => "world.benign_refresh",
        Ev::LivenessProbe(_) => "world.liveness_probe",
        Ev::HistoricCertWave => "world.historic_cert_wave",
        Ev::MonitorWeek => unreachable!("monitoring rounds are not world events"),
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Monitoring rounds completed before the span started.
    pub round: u32,
    /// Work items the call handled (FQDNs crawled, records replayed, ...).
    pub n: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    round: u32,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            round: 0,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name` handling `n` work items.
    pub fn time<R>(&mut self, name: &'static str, n: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            round: self.round,
            n,
        });
        out
    }

    fn set_last_n(&mut self, n: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.n = n;
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total ns in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Total ns in spans whose name starts with `prefix`.
    pub fn total_ns_prefix(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::ns)
            .sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    pub fn work(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.n).sum()
    }

    /// Mean µs per call of `name`; 0 when never called.
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / n as f64 / 1e3,
        }
    }

    /// µs per work item of `name` over rounds in `[from, to)`.
    pub fn us_per_item(&self, name: &str, from: u32, to: u32) -> f64 {
        let (ns, n) = self
            .named(name)
            .filter(|s| (from..to).contains(&s.round))
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.ns(), n + s.n));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    }

    /// Write the spans as a Chrome `trace_event` file (opens in Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"round\":{},\"n\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.round,
                s.n
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Memory and storage readings the traced loop takes at layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct TraceReadings {
    pub setup_rss_mb: f64,
    /// RSS growth across `PersistStage::open`.
    pub open_rss_mb: f64,
    /// RSS at the last committed round.
    pub final_rss_mb: f64,
    pub monitored: u64,
    pub gauge_bytes_per_fqdn: f64,
    pub records_recorded: u64,
    pub records_replayed: u64,
    /// Crawl-split sample: FQDNs compared, and how many of those changed.
    pub compared: u64,
    pub changed: u64,
}

pub struct TracedRun {
    pub results: StudyResults,
    pub tracer: Tracer,
    pub readings: TraceReadings,
}

/// The traced study. Mirrors `Scenario::run_inner` stage call for stage
/// call, including the per-round gauge and persistence bookkeeping.
pub fn traced_study(
    cfg: ScenarioConfig,
    incremental: bool,
    persist_opts: Option<&PersistOptions>,
    mut sink: Option<Box<dyn RoundSink>>,
) -> Result<TracedRun, PersistError> {
    let mut t = Tracer::default();
    let mut rd = TraceReadings::default();
    let threads = cfg.crawl_threads;
    let failure_rate = cfg.crawl_failure_rate;

    let mut rs = t.time("setup.runstate", 0, || RunState::new(cfg));
    rd.setup_rss_mb = crate::sys::rss_mb();
    let mut world_stage = WorldStage::new(&rs);
    let mut collect = CollectStage::new(&rs, threads);
    let mut crawl = CrawlStage::new(threads, failure_rate).with_latency(rs.cfg.latency_model());
    let mut diff = DiffStage;
    let mut persist = match persist_opts {
        Some(opts) => {
            let before = crate::sys::rss_mb();
            let shards = rs.store.shard_count();
            let p = t.time("persist.open", 0, || {
                PersistStage::open(opts, &rs.cfg, shards)
            })?;
            rd.open_rss_mb = crate::sys::rss_mb() - before;
            Some(p)
        }
        None => None,
    };
    let mut incr = incremental.then(|| IncrementalRetro::new(threads));
    let mut rounds: u64 = 0;

    while let Some((now, ev)) = rs.q.pop() {
        if now > rs.horizon {
            break;
        }
        if ev != Ev::MonitorWeek {
            t.time(world_span(ev), 1, || world_stage.on_event(&mut rs, now, ev));
            continue;
        }
        let monitored_before = rs.monitored.len() as u64;
        t.time("collect.weekly", 0, || collect.weekly(&mut rs, now));
        t.set_last_n(rs.monitored.len() as u64 - monitored_before);
        let replayed = match persist.as_mut() {
            Some(p) => {
                let r = t.time("persist.replay", 0, || p.replay_round(&mut rs, now))?;
                if r {
                    t.set_last_n(rs.crawl_batch.len() as u64);
                    rd.records_replayed += rs.crawl_batch.len() as u64;
                }
                r
            }
            None => false,
        };
        if !replayed {
            let fqdns = rs.monitored.len() as u64;
            t.time("crawl.weekly", fqdns, || crawl.weekly(&mut rs, now));
            sample_crawl_split(&rs, now, &mut t, &mut rd);
            if let Some(p) = persist.as_mut() {
                let n = rs.crawl_batch.len() as u64;
                t.time("persist.record", n, || p.record_round(&rs, now))?;
                rd.records_recorded += n;
            }
        }
        let changes_before = rs.changes.len() as u64;
        t.time("diff.weekly", 0, || diff.weekly(&mut rs, now));
        t.set_last_n(rs.changes.len() as u64 - changes_before);
        if let Some(incr) = incr.as_mut() {
            t.time("incr.weekly", 0, || incr.weekly(&mut rs, now));
        }
        rounds += 1;
        // The orchestrator publishes this gauge every round; its cost is
        // part of the round.
        rd.gauge_bytes_per_fqdn = t.time("mem.gauge", 0, || rs.bytes_per_fqdn());
        let mut stop = false;
        if let Some(p) = persist.as_mut() {
            rs.rng_witness = world_stage.rng_cursor_digest();
            t.time("persist.finish", 0, || p.finish_round(&rs, now))?;
            stop = p.should_stop();
        }
        if let Some(sink) = sink.as_mut() {
            let provisional = incr.as_ref().and_then(|i| i.provisional_round());
            t.time("sink.commit", 0, || {
                sink.round_committed(RoundView {
                    rs: &rs,
                    now,
                    rounds_done: rounds,
                    provisional,
                })
            });
            stop = stop || sink.stop_requested();
        }
        t.round = rounds as u32;
        if stop {
            break;
        }
    }
    rd.final_rss_mb = crate::sys::rss_mb();
    rd.monitored = rs.monitored.len() as u64;

    let results = match incr {
        Some(incr) => t.time("incr.finalize", 0, || incr.finalize(rs)),
        None => t.time("retro.assemble", 0, || {
            RetroStage::new(threads).assemble(rs)
        }),
    };
    Ok(TracedRun {
        results,
        tracer: t,
        readings: rd,
    })
}

/// Re-crawl the round's sampled FQDNs through the layer functions. Only
/// reads `rs`; the round's own outcomes stay in `rs.crawl_batch`.
fn sample_crawl_split(rs: &RunState, now: SimTime, t: &mut Tracer, rd: &mut TraceReadings) {
    let start = t.spans.len();
    let sample_start = t.t0.elapsed().as_nanos() as u64;
    let resolver = dns::Resolver::new(rs.world.dns());
    let web = rs.world.web();
    for out in &rs.crawl_batch {
        let fqdn = &out.snap.fqdn;
        if fqdn_shard(fqdn, SAMPLE_EVERY) != 0 {
            continue;
        }
        resolver.flush_cache();
        let outcome = t.time("sample.dns", 1, || resolver.resolve_a(fqdn, now));
        if let Some(ip) = outcome.addresses.first().copied() {
            let request = Request::get(&fqdn.to_string(), "/");
            let response = t.time("sample.http", 1, || web.http_serve(ip, &request, now));
            if let Some(resp) = response.filter(|r| r.status.is_success()) {
                let html = String::from_utf8_lossy(&resp.body);
                let mut snap = Snapshot::unreachable(fqdn.clone(), now, outcome.rcode, None);
                t.time("sample.extract", 1, || snap.ingest_content(&html, true));
            }
        }
        if let Some(prev) = rs.store.latest(fqdn) {
            let kinds = t.time("sample.compare", 1, || {
                dangling_core::diff::diff(prev, &out.snap)
            });
            rd.compared += 1;
            rd.changed += u64::from(!kinds.is_empty());
        }
    }
    // One enclosing span so attribution can count the sample as a whole.
    let end_ns = t.t0.elapsed().as_nanos() as u64;
    let round = t.round;
    let n = (t.spans.len() - start) as u64;
    t.spans.push(Span {
        name: "trace.sample",
        start_ns: sample_start,
        end_ns,
        round,
        n,
    });
}
