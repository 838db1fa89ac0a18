//! One benchmark run: untimed preparation, set-up samples in fresh child
//! processes, timed repetitions of the workload, checks, and the report.

use crate::cache::Cache;
use crate::client::{QueryClient, QueryStats, TimingSink};
use crate::report::{Report, END_TO_END};
use crate::stats::{median, percentile, Digest};
use crate::sys;
use crate::trace::{traced_study, TraceReadings, Tracer, WORLD_KINDS};
use crate::workload::{expected_rounds, Sizing, Workload, TINY};
use dangling_core::{PersistOptions, Scenario, StudyResults};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Detection quality every run must reach against `world.truth`.
pub const MIN_PRECISION: f64 = 0.9;
pub const MIN_RECALL: f64 = 0.5;
/// The traced run's layer spans must cover this share of its `study_s`.
pub const ATTRIBUTION_TOLERANCE_PCT: f64 = 5.0;
/// Fresh-process set-up samples per run, taken in batches.
const SETUP_SAMPLES: usize = 15;
const SETUP_BATCH: usize = 5;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    pub root: PathBuf,
}

/// One repetition of the workload.
#[derive(Default)]
struct Rep {
    study_s: f64,
    /// VmHWM of the repetition's process once the study and its client end.
    peak_rss_mb: f64,
    walls_ms: Vec<f64>,
    rounds: u64,
    queries: QueryStats,
    state_bytes: u64,
    traced: Option<(Tracer, TraceReadings)>,
}

impl Rep {
    /// Line format a `rep` child prints and its parent parses.
    fn render(&self) -> String {
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        let q = &self.queries;
        format!(
            "study_s {}\npeak_rss_mb {}\nrounds {}\nstate_bytes {}\n\
             queries {} {} {}\nwalls_ms {}\nverdict_us {}\nstatus_us {}\n\
             health_us {}\nsignatures_us {}\nclusters_us {}\n",
            self.study_s,
            self.peak_rss_mb,
            self.rounds,
            self.state_bytes,
            q.batches,
            q.attempted,
            q.failed,
            list(&self.walls_ms),
            list(&q.verdict_us),
            list(&q.status_us),
            list(&q.health_us),
            list(&q.signatures_us),
            list(&q.clusters_us),
        )
    }

    /// Parse a child's output; `error` lines go to `errors`.
    fn parse(text: &str, errors: &mut Vec<String>) -> Result<Rep, String> {
        let mut rep = Rep::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            if key == "error" {
                errors.push(rest.to_string());
                continue;
            }
            let nums: Vec<f64> = rest
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("repetition output {line:?}: {e}"))?;
            let first = nums.first().copied().unwrap_or(0.0);
            let q = &mut rep.queries;
            match key {
                "study_s" => rep.study_s = first,
                "peak_rss_mb" => rep.peak_rss_mb = first,
                "rounds" => rep.rounds = first as u64,
                "state_bytes" => rep.state_bytes = first as u64,
                "queries" if nums.len() == 3 => {
                    (q.batches, q.attempted, q.failed) =
                        (first as u64, nums[1] as u64, nums[2] as u64)
                }
                "walls_ms" => rep.walls_ms = nums,
                "verdict_us" => q.verdict_us = nums,
                "status_us" => q.status_us = nums,
                "health_us" => q.health_us = nums,
                "signatures_us" => q.signatures_us = nums,
                "clusters_us" => q.clusters_us = nums,
                _ => return Err(format!("unexpected repetition output {line:?}")),
            }
        }
        Ok(rep)
    }
}

/// Sets the flag when dropped, so the client stops even if the study panics.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

struct Ctx<'a> {
    opts: &'a Options,
    cache: Cache,
    reference: Digest,
    fqdns: Vec<String>,
    /// Problems that make the run incorrect.
    errors: Vec<String>,
}

impl<'a> Ctx<'a> {
    /// Open the cache entry, recording it first when it is missing.
    fn prepare(opts: &'a Options) -> Result<Ctx<'a>, String> {
        let cache = Cache::new(&opts.root, &opts.sizing, opts.seed).map_err(|e| e.to_string())?;
        if !cache.is_ready(opts.workload == Workload::RestartReplay) {
            let entry = cache.entry.to_string_lossy().into_owned();
            child(opts, &["prep", "--entry", &entry])?;
            cache.evict_old_state().map_err(|e| e.to_string())?;
        }
        Ok(Ctx {
            reference: cache.reference()?,
            fqdns: cache.query_fqdns()?,
            cache,
            opts,
            errors: Vec::new(),
        })
    }

    /// Take `n` more fresh-process set-up samples.
    fn sample_setup(&self, samples: &mut Vec<f64>, n: usize) -> Result<(), String> {
        let part = if self.opts.trace {
            "generate"
        } else {
            "runstate"
        };
        for _ in 0..n {
            let out = child(self.opts, &["setup", "--part", part])?;
            samples.push(
                out.trim()
                    .parse()
                    .map_err(|e| format!("setup child output {out:?}: {e}"))?,
            );
        }
        Ok(())
    }

    /// Run one untraced repetition in a fresh child process.
    fn rep_in_child(&mut self, index: usize) -> Result<Rep, String> {
        let index = index.to_string();
        let out = child(
            self.opts,
            &[
                "rep",
                "--workload",
                self.opts.workload.name(),
                "--index",
                &index,
            ],
        )?;
        Rep::parse(&out, &mut self.errors)
    }
}

/// Run the benchmark and build its report. Failures of the run itself
/// (prep, persistence, a diverging digest) come back as an incorrect report
/// with the reasons on stderr.
pub fn run(opts: &Options) -> Report {
    match run_checked(opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("studybench: {e}");
            Report::default()
        }
    }
}

/// The `rep` child: one untraced repetition, printed for the parent.
pub fn rep_child(opts: &Options, index: usize) -> Result<String, String> {
    let mut ctx = Ctx::prepare(opts)?;
    let rep = run_rep(&mut ctx, index, false)?;
    let mut out = rep.render();
    for e in &ctx.errors {
        out.push_str(&format!("error {e}\n"));
    }
    Ok(out)
}

fn run_checked(opts: &Options) -> Result<Report, String> {
    let mut ctx = Ctx::prepare(opts)?;
    let mut setup_s = Vec::new();
    let mut reps = Vec::new();
    if opts.trace {
        ctx.sample_setup(&mut setup_s, SETUP_SAMPLES)?;
        // The traced repetition runs in this process, first, so its memory
        // readings are not inflated by anything before it; the untraced one
        // it is compared with runs in a fresh child like every other. One
        // pair only: a second would take live-daemon's traced run past the
        // time one run is allowed.
        reps.push(run_rep(&mut ctx, 0, true)?);
        reps.push(ctx.rep_in_child(1)?);
    } else {
        // A fixed number of whole repetitions that fill about `seconds`.
        // Set-up samples are spread over the run, between repetitions, so
        // one slow stretch of the host does not decide their median.
        ctx.sample_setup(&mut setup_s, SETUP_BATCH)?;
        for index in 0..opts.workload.reps(opts.seconds) {
            reps.push(ctx.rep_in_child(index)?);
            ctx.sample_setup(&mut setup_s, SETUP_BATCH)?;
        }
        while setup_s.len() < SETUP_SAMPLES {
            ctx.sample_setup(&mut setup_s, SETUP_BATCH)?;
        }
    }

    let mut report = Report::default();
    let expected = expected_rounds(&opts.sizing.config(opts.seed, 1));
    for rep in &reps {
        report.attempted += rep.rounds + rep.queries.attempted;
        report.failed += rep.queries.failed + u64::from(rep.rounds != expected);
    }
    if opts.trace {
        per_layer(&mut ctx, &reps, &setup_s, &mut report)?;
    } else {
        end_to_end(&reps, &setup_s, &mut report);
    }
    for e in &ctx.errors {
        eprintln!("studybench: {e}");
    }
    report.correct = ctx.errors.is_empty() && report.failed == 0;
    Ok(report)
}

/// Run this executable as a child (`prep` / `setup` / `rep`) and return its
/// stdout.
fn child(opts: &Options, args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = opts.seed.to_string();
    let mut cmd = Command::new(exe);
    cmd.args(args).args(["--seed", &seed]);
    if opts.sizing == TINY {
        cmd.arg("--tiny");
    }
    let out = cmd
        .current_dir(&opts.root)
        .output()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("child {args:?} failed with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn run_rep(ctx: &mut Ctx<'_>, index: usize, traced: bool) -> Result<Rep, String> {
    let w = ctx.opts.workload;
    let cfg = ctx.opts.sizing.config(ctx.opts.seed, w.threads());
    let tmp = ctx.cache.tmp_dir(&index.to_string());
    sys::remove_dir(&tmp).map_err(|e| e.to_string())?;
    let persist = match w {
        Workload::WeeklyStudy => None,
        Workload::LiveDaemon => Some(PersistOptions::new(tmp.join("state"))),
        Workload::RestartReplay => {
            sys::copy_dir(&ctx.cache.state_dir(), &tmp.join("state"))
                .map_err(|e| format!("copying the recorded state dir: {e}"))?;
            let mut o = PersistOptions::new(tmp.join("state"));
            o.resume = true;
            Some(o)
        }
    };
    let (inner, handle) = match w.serves_live() {
        true => {
            let (sink, handle) = serve::daemon();
            (Some(sink), Some(handle))
        }
        false => (None, None),
    };
    let sink = TimingSink::new(inner);
    let clock = sink.clock.clone();
    let done = AtomicBool::new(false);
    let fqdns = &ctx.fqdns;

    let (outcome, study_s, live) = std::thread::scope(|s| {
        let client = handle.as_ref().map(|h| {
            let c = QueryClient::new(fqdns);
            let done = &done;
            s.spawn(move || c.follow(h, done))
        });
        let stop_client = SetOnDrop(&done);
        let started = Instant::now();
        let outcome = if traced {
            traced_study(cfg, w.serves_live(), persist.as_ref(), Some(Box::new(sink)))
                .map(|t| (t.results, Some((t.tracer, t.readings))))
        } else {
            let sc = Scenario::new(cfg)
                .incremental(w.serves_live())
                .round_sink(Box::new(sink));
            match &persist {
                Some(o) => sc.run_persisted(o),
                None => Ok(sc.run()),
            }
            .map(|r| (r, None))
        };
        let study_s = started.elapsed().as_secs_f64();
        drop(stop_client);
        let live = client.map(|c| c.join().expect("query client panicked"));
        (outcome, study_s, live)
    });
    // Before the digest below serializes the results.
    let peak_rss_mb = sys::hwm_mb();
    let state_bytes = persist.as_ref().map_or(0, |o| sys::dir_bytes(&o.state_dir));
    sys::remove_dir(&tmp).map_err(|e| e.to_string())?;
    let (results, traced) = outcome.map_err(|e| format!("{}: {e}", w.name()))?;

    let mut clock = clock.lock().expect("round clock poisoned");
    check_results(ctx, &results, index);
    Ok(Rep {
        study_s,
        peak_rss_mb,
        walls_ms: std::mem::take(&mut clock.walls_ms),
        rounds: clock.rounds,
        queries: live.unwrap_or_default(),
        state_bytes,
        traced,
    })
}

/// The correctness gate: byte-identical results and detection quality.
fn check_results(ctx: &mut Ctx<'_>, results: &StudyResults, index: usize) {
    let w = ctx.opts.workload.name();
    if let Err(e) = Digest::of(results).check(&ctx.reference) {
        ctx.errors.push(format!("{w} repetition {index}: {e}"));
    }
    let (p, r) = (results.detection.precision(), results.detection.recall());
    if p < MIN_PRECISION || r < MIN_RECALL {
        ctx.errors.push(format!(
            "{w} repetition {index}: precision {p:.3} / recall {r:.3} below \
             {MIN_PRECISION} / {MIN_RECALL}"
        ));
    }
}

fn end_to_end(reps: &[Rep], setup_s: &[f64], report: &mut Report) {
    let study: Vec<f64> = reps.iter().map(|r| r.study_s).collect();
    let walls: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.walls_ms.iter().copied())
        .collect();
    let pct = |s: &[f64], q| percentile(s, q).unwrap_or(0.0);
    report.set("study_s", median(&study));
    report.set("setup_s", median(setup_s));
    let peaks: Vec<f64> = reps.iter().map(|r| r.peak_rss_mb).collect();
    report.set("peak_rss_mb", median(&peaks));
    report.set("round_p50_ms", pct(&walls, 0.50));
    report.set("round_p90_ms", pct(&walls, 0.90));
    eprintln!(
        "studybench: {} repetition(s), study_s {:?}; setup_s from {} samples; \
         round percentiles from {} samples",
        reps.len(),
        study,
        setup_s.len(),
        walls.len(),
    );
    debug_assert_eq!(report.metrics.len(), END_TO_END.len());
}

fn per_layer(
    ctx: &mut Ctx<'_>,
    reps: &[Rep],
    generate_s: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let (traced_rep, plain_rep) = (&reps[0], &reps[1]);
    let (t, rd) = traced_rep
        .traced
        .as_ref()
        .ok_or("the first repetition is traced")?;
    let ms = |name: &str| t.total_ns(name) as f64 / 1e6;
    let expected = expected_rounds(&ctx.opts.sizing.config(ctx.opts.seed, 1)) as u32;
    let serves = ctx.opts.workload.serves_live();

    // Attribution: every span the loop recorded at the top level.
    let top = [
        "setup.runstate",
        "persist.open",
        "collect.weekly",
        "persist.replay",
        "crawl.weekly",
        "trace.sample",
        "persist.record",
        "diff.weekly",
        "incr.weekly",
        "mem.gauge",
        "persist.finish",
        "sink.commit",
        "incr.finalize",
        "retro.assemble",
    ];
    let attributed_ns: u64 =
        top.iter().map(|n| t.total_ns(n)).sum::<u64>() + t.total_ns_prefix("world.");
    let attributed_pct = attributed_ns as f64 / 1e9 / traced_rep.study_s * 100.0;
    if (attributed_pct - 100.0).abs() > ATTRIBUTION_TOLERANCE_PCT {
        ctx.errors.push(format!(
            "traced layer spans cover {attributed_pct:.1}% of study_s (need 100 ± \
             {ATTRIBUTION_TOLERANCE_PCT})"
        ));
    }

    report.set("setup.generate_ms", median(generate_s) * 1e3);
    report.set("setup.runstate_ms", ms("setup.runstate"));
    let world_events: u64 = WORLD_KINDS
        .iter()
        .map(|k| t.count(&format!("world.{k}")))
        .sum();
    report.set("world.events", world_events as f64);
    report.set("world.busy_ms", t.total_ns_prefix("world.") as f64 / 1e6);
    report.set("collect.busy_ms", ms("collect.weekly"));
    report.set("collect.admitted", t.work("collect.weekly") as f64);
    report.set("crawl.busy_ms", ms("crawl.weekly"));
    report.set("crawl.fqdns", t.work("crawl.weekly") as f64);
    report.set(
        "crawl.us_per_fqdn",
        t.us_per_item("crawl.weekly", 0, u32::MAX),
    );
    report.set(
        "crawl.us_per_fqdn_q1",
        t.us_per_item("crawl.weekly", 0, expected / 4),
    );
    report.set(
        "crawl.us_per_fqdn_q4",
        t.us_per_item("crawl.weekly", expected - expected / 4, u32::MAX),
    );
    report.set("crawl.dns_us", t.mean_us("sample.dns"));
    report.set("crawl.http_us", t.mean_us("sample.http"));
    report.set("crawl.extract_us", t.mean_us("sample.extract"));
    report.set("crawl.compare_us", t.mean_us("sample.compare"));
    report.set(
        "crawl.changed_pct",
        100.0 * rd.changed as f64 / rd.compared.max(1) as f64,
    );
    report.set("crawl.sampled", rd.compared as f64);
    report.set("diff.busy_ms", ms("diff.weekly"));
    report.set("diff.changes", t.work("diff.weekly") as f64);
    report.set("incr.busy_ms", ms("incr.weekly"));
    report.set("incr.finalize_ms", ms("incr.finalize"));
    report.set("retro.assemble_ms", ms("retro.assemble"));
    report.set("persist.record_ms", ms("persist.record"));
    report.set("persist.finish_ms", ms("persist.finish"));
    report.set(
        "persist.state_mb",
        traced_rep.state_bytes as f64 / 1048576.0,
    );
    let records = rd.records_recorded + rd.records_replayed;
    report.set(
        "persist.bytes_per_record",
        if records == 0 {
            0.0
        } else {
            traced_rep.state_bytes as f64 / records as f64
        },
    );
    report.set("persist.open_ms", ms("persist.open"));
    report.set("persist.open_rss_mb", rd.open_rss_mb);
    report.set("persist.replay_ms", ms("persist.replay"));
    report.set("persist.records_replayed", rd.records_replayed as f64);
    let q = &plain_rep.queries;
    report.set(
        "serve.publish_us",
        if serves {
            t.mean_us("sink.commit")
        } else {
            0.0
        },
    );
    report.set(
        "serve.verdict_p50_us",
        percentile(&q.verdict_us, 0.50).unwrap_or(0.0),
    );
    report.set(
        "serve.verdict_p99_us",
        percentile(&q.verdict_us, 0.99).unwrap_or(0.0),
    );
    report.set("serve.status_us", median(&q.status_us));
    report.set("serve.health_us", median(&q.health_us));
    report.set("serve.signatures_us", median(&q.signatures_us));
    report.set("serve.clusters_us", median(&q.clusters_us));
    report.set("serve.queries", q.attempted as f64);
    report.set("serve.failed", q.failed as f64);
    report.set("mem.setup_rss_mb", rd.setup_rss_mb);
    report.set(
        "mem.rss_per_fqdn_kb",
        (rd.final_rss_mb - rd.setup_rss_mb) * 1024.0 / rd.monitored.max(1) as f64,
    );
    report.set("mem.gauge_bytes_per_fqdn", rd.gauge_bytes_per_fqdn);
    report.set("mem.gauge_ms", ms("mem.gauge"));
    report.set("trace.sample_ms", ms("trace.sample"));
    let untraced_s = plain_rep.study_s;
    report.set("trace.study_s", traced_rep.study_s);
    report.set("trace.untraced_study_s", untraced_s);
    report.set(
        "trace.overhead_pct",
        (traced_rep.study_s - untraced_s) / untraced_s * 100.0,
    );
    report.set("trace.attributed_pct", attributed_pct);
    report.set("trace.spans", t.spans.len() as f64);
    report.set("query.samples", q.verdict_us.len() as f64);
    report.set("round.samples", plain_rep.walls_ms.len() as f64);
    for kind in WORLD_KINDS {
        let name = format!("world.{kind}");
        report.set(&format!("{name}_count"), t.count(&name) as f64);
        report.set(&format!("{name}_us"), t.mean_us(&name));
    }

    let path = ctx.cache.base.join(format!(
        "trace-{}-seed{}.json",
        ctx.opts.workload.name(),
        ctx.opts.seed
    ));
    t.write_chrome(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "studybench: traced {} spans to {}; layers cover {attributed_pct:.1}% of \
         the traced study_s {:.3}s (untraced {:.3}s)",
        t.spans.len(),
        path.display(),
        traced_rep.study_s,
        untraced_s
    );
    Ok(())
}
