//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- fig20 table2 liveness
//! cargo run --release -p bench --bin repro -- --scale 100 --seed 42 all ablations
//! ```

use bench::{render_target, ABLATIONS, TARGETS};
use dangling_core::{compact_state_dir, infra, PersistOptions, Scenario, ScenarioConfig};
use std::cell::LazyCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Load a `--serve-queries` script: one JSON-encoded [`serve::Query`] per
/// line (`"Status"`, `{"Verdict":{"fqdn":"a.b.example"}}`, ...). Without a
/// script the daemon still answers a status+health pass per round.
fn load_query_script(path: Option<&str>) -> Vec<serve::Query> {
    let Some(path) = path else {
        return vec![serve::Query::Status, serve::Query::Health];
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading query script {path}: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            serde_json::from_str(l).unwrap_or_else(|e| panic!("bad query {l:?} in {path}: {e}"))
        })
        .collect()
}

fn main() {
    let mut scale: u32 = 200;
    let mut scale_explicit = false;
    let mut profile: Option<String> = None;
    let mut seed: u64 = 42;
    let mut threads: usize = 1;
    let mut latency_profile: String = "zero".into();
    let mut json_path: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut resume = false;
    let mut incremental = false;
    let mut max_rounds: Option<u64> = None;
    let mut compact = false;
    let mut trace_path: Option<String> = None;
    let mut trace_sample: u64 = 1;
    let mut critical_path_flag = false;
    let mut metrics_path: Option<String> = None;
    let mut progress = false;
    let mut quiet = false;
    let mut serve_mode = false;
    let mut serve_queries: Option<String> = None;
    let mut serve_out: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(args.next().expect("--json takes an output path"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a denominator");
                scale_explicit = true;
            }
            "--profile" => {
                profile = Some(args.next().expect("--profile takes a profile name"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes a u64");
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads takes a worker count");
            }
            "--latency-profile" => {
                let name = args.next().expect("--latency-profile takes a profile name");
                if !simcore::LatencyProfile::NAMES.contains(&name.as_str()) {
                    eprintln!(
                        "unknown latency profile {name:?}; expected one of: {}",
                        simcore::LatencyProfile::NAMES.join(" ")
                    );
                    std::process::exit(2);
                }
                latency_profile = name;
            }
            "--persist" => {
                state_dir.get_or_insert_with(|| "repro_state".into());
            }
            "--state-dir" => {
                state_dir = Some(args.next().expect("--state-dir takes a directory path"));
            }
            "--resume" => resume = true,
            "--incremental" => incremental = true,
            "--rounds" => {
                max_rounds = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--rounds takes a round count"),
                );
            }
            "--compact" => compact = true,
            "--trace" => {
                trace_path = Some(args.next().expect("--trace takes an output path"));
            }
            "--trace-sample" => {
                trace_sample = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trace-sample takes a sampling modulus (keep 1-in-N traces)");
            }
            "--critical-path" => critical_path_flag = true,
            "--metrics" => {
                metrics_path = Some(args.next().expect("--metrics takes an output path"));
            }
            "--serve" => serve_mode = true,
            "--serve-queries" => {
                serve_queries = Some(args.next().expect("--serve-queries takes a script path"));
            }
            "--serve-out" => {
                serve_out = Some(args.next().expect("--serve-out takes an output path"));
            }
            "--progress" => progress = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale N | --profile paper-scale] [--seed N] [--threads N] \
                     [--latency-profile NAME] [--json OUT] \
                     [--persist | --state-dir DIR] [--resume] [--incremental] [--rounds N] \
                     [--serve] [--serve-queries FILE] [--serve-out FILE] \
                     [--compact] [--trace OUT] [--trace-sample N] [--critical-path] \
                     [--metrics OUT] [--progress] [-q] <targets...>"
                );
                println!("targets: all | ablations | {}", TARGETS.join(" "));
                println!("ablations: {}", ABLATIONS.join(" "));
                println!("--profile paper-scale runs the full study population (scale 1: the");
                println!("  paper's 1.5M->3.1M monitored-FQDN growth curve), prints the monthly");
                println!("  growth curve, and fails if pipeline.bytes_per_fqdn exceeds the");
                println!(
                    "  documented budget ({:.0} bytes/FQDN). Combine with --scale to smoke the",
                    dangling_core::BYTES_PER_FQDN_BUDGET
                );
                println!("  same checks at reduced scale (CI does).");
                println!("--threads parallelizes the weekly crawl, Algorithm-1 classification");
                println!("  and the retrospective pass; results are byte-identical.");
                println!(
                    "--latency-profile selects the crawl's modeled network clock \
                     ({}; default zero).",
                    simcore::LatencyProfile::NAMES.join(" | ")
                );
                println!("  zero/datacenter/wan only move virtual time (results byte-identical);");
                println!("  lossy drops queries deterministically.");
                println!("--incremental runs the retrospective fold every round, not only at");
                println!("  the horizon (same results, byte for byte). Only with --serve does");
                println!("  each round also run the advisory signature validation (provisional");
                println!("  verdicts, retro.incr.valid_signatures / provisional_abuse). With");
                println!(
                    "  --resume, recorded rounds replay straight into it without re-crawling."
                );
                println!("--persist records observations to ./repro_state (--state-dir names it);");
                println!("--resume continues a recorded run, --rounds N stops after N rounds,");
                println!("--compact drops superseded records from the state dir and exits.");
                println!("State dirs record, resume and compact only in storelog format v2;");
                println!("  a dir in another format is refused untouched (see");
                println!("  crates/storelog/MIGRATIONS.md).");
                println!("--trace OUT writes a Chrome trace_event JSON of pipeline spans");
                println!("  (load it at ui.perfetto.dev); --metrics OUT dumps every counter,");
                println!("  gauge and histogram as JSON. Telemetry never changes results.");
                println!("--trace also records per-crawl causal spans (virtual-time track,");
                println!("  flow arrows dns -> connect -> request). --trace-sample N keeps a");
                println!("  deterministic 1-in-N of traces (keyed hash, not RNG; default 1).");
                println!("--critical-path enables causal tracing and renders the per-round");
                println!("  critical-path report (longest chain, queue-wait vs service).");
                println!("--serve runs the monitoring daemon: each committed round publishes a");
                println!("  snapshot-consistent query view (forces --incremental; provisional");
                println!("  verdicts). --serve-queries FILE runs a JSON-lines query script");
                println!("  against every published round; --serve-out FILE collects the");
                println!("  replies as JSON lines. Combine with --persist/--resume for");
                println!("  stop-and-continue service runs.");
                println!("--progress prints one status line per monitoring round;");
                println!("-q / --quiet silences narration (warnings still print).");
                return;
            }
            t => targets.push(t.to_string()),
        }
    }
    obs::set_verbosity(if quiet {
        obs::Verbosity::Quiet
    } else {
        obs::Verbosity::Normal
    });
    obs::set_progress(progress);
    if trace_path.is_some() {
        obs::set_tracing(true);
    }
    obs::set_trace_sample(trace_sample);
    if trace_path.is_some() || critical_path_flag {
        obs::set_causal_tracing(true);
    }
    if compact {
        let dir = state_dir.unwrap_or_else(|| "repro_state".into());
        match compact_state_dir(std::path::Path::new(&dir)) {
            Ok(stats) => {
                obs::info!(
                    "compacted {dir}: {} -> {} records, {} -> {} bytes",
                    stats.records_before,
                    stats.records_after,
                    stats.bytes_before,
                    stats.bytes_after
                );
                return;
            }
            Err(e) => {
                obs::warn!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    // Named profiles: bundles of settings plus post-run checks. `paper-scale`
    // is the full study population with the per-FQDN memory budget enforced;
    // an explicit --scale keeps the same checks at reduced scale (CI smoke).
    let mut budget_profile = false;
    if let Some(p) = &profile {
        match p.as_str() {
            "paper-scale" => {
                budget_profile = true;
                if !scale_explicit {
                    scale = 1;
                }
            }
            other => {
                eprintln!("unknown profile {other:?}; expected: paper-scale");
                std::process::exit(2);
            }
        }
    }
    if targets.is_empty() {
        targets.push("summary".into());
    }
    // Expand meta-targets.
    let mut expanded: Vec<String> = Vec::new();
    for t in targets {
        match t.as_str() {
            "all" => expanded.extend(TARGETS.iter().map(|s| s.to_string())),
            "ablations" => expanded.extend(ABLATIONS.iter().map(|s| s.to_string())),
            other => expanded.push(other.to_string()),
        }
    }
    if critical_path_flag && !expanded.iter().any(|t| t == "critical-path") {
        expanded.push("critical-path".into());
    }

    // Serve mode publishes the retro fold's advisory per-round state, so it
    // implies the per-round cadence.
    if serve_mode {
        incremental = true;
    }
    obs::info!(
        "running study at scale 1/{scale}, seed {seed}, {threads} worker thread(s), \
         latency profile {latency_profile}{}{}...",
        if incremental {
            ", incremental retro pass"
        } else {
            ""
        },
        if serve_mode { ", serve mode" } else { "" }
    );
    let mut cfg = ScenarioConfig::at_scale(scale);
    cfg.seed = seed;
    cfg.crawl_threads = threads;
    cfg.latency_profile = latency_profile;

    // The daemon pair plus a query thread replaying the script against
    // every published round. All of it is out-of-band: results stay
    // byte-identical with serve mode on (the serve_equivalence suite).
    let mut sink_box: Option<Box<dyn dangling_core::RoundSink>> = None;
    let served = serve_mode.then(|| {
        let (sink, handle) = serve::daemon();
        sink_box = Some(Box::new(sink));
        let script = load_query_script(serve_queries.as_deref());
        let stop = Arc::new(AtomicBool::new(false));
        let querier = {
            let handle = handle.clone();
            let script = script.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut replies: Vec<String> = Vec::new();
                let mut last_seen = u64::MAX;
                loop {
                    let published = handle.rounds_published();
                    if published != last_seen {
                        last_seen = published;
                        for q in &script {
                            let reply = handle.query(q);
                            replies.push(serde_json::to_string(&reply).expect("replies serialize"));
                        }
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                replies
            })
        };
        (handle, script, stop, querier)
    });

    let mut scenario = Scenario::new(cfg).incremental(incremental);
    if let Some(sink) = sink_box {
        scenario = scenario.round_sink(sink);
    }
    let start = Instant::now();
    let results = match &state_dir {
        None => match max_rounds {
            Some(r) => scenario.max_rounds(r).run(),
            None => scenario.run(),
        },
        Some(dir) => {
            let mut opts = PersistOptions::new(dir);
            opts.resume = resume;
            opts.max_rounds = max_rounds;
            obs::info!(
                "persisting to {dir}{}{}",
                if resume { " (resuming)" } else { "" },
                match max_rounds {
                    Some(n) => format!(", stopping after {n} rounds"),
                    None => String::new(),
                }
            );
            match scenario.run_persisted(&opts) {
                Ok(r) => r,
                Err(e) => {
                    obs::warn!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    obs::info!(
        "study complete in {:.1}s: {} monitored, {} hijacks (truth), {} detected\n",
        start.elapsed().as_secs_f64(),
        results.monitored_total,
        results.world.truth.len(),
        results.abuse.len()
    );
    // §6 clustering runs at most once, on first use: fig21/22/26/27 and the
    // JSON summary share it; runs that print none of them never cluster.
    let infra = LazyCell::new(|| {
        let t = Instant::now();
        let report = infra::cluster(&results.infra_inputs(), infra::CUTOFF);
        obs::info!(
            "§6 clustering: {} identifiers -> {} clusters in {:.1} ms",
            report.identifier_count,
            report.clusters.len(),
            t.elapsed().as_secs_f64() * 1e3
        );
        report
    });

    if budget_profile {
        // Growth curve: cumulative monitored FQDNs by month — at scale 1
        // this is the study's own 1.5M -> 3.1M timeline. Print yearly
        // waypoints (every 12th month) plus the final point.
        let mut acc = 0.0;
        let curve: Vec<(i32, f64)> = results
            .monitored_monthly
            .iter()
            .map(|&(m, v)| {
                acc += v;
                (m, acc)
            })
            .collect();
        obs::info!("paper-scale growth curve (cumulative monitored FQDNs):");
        for (i, (m, total)) in curve.iter().enumerate() {
            if i % 12 == 0 || i + 1 == curve.len() {
                obs::info!("  {:>4}-{:02}  {:>9}", m / 12, m % 12 + 1, *total as u64);
            }
        }
        let bpf = obs::gauge("pipeline.bytes_per_fqdn").get();
        let budget = dangling_core::BYTES_PER_FQDN_BUDGET;
        obs::info!(
            "paper-scale memory: {bpf:.0} bytes/FQDN (budget {budget:.0}, {} monitored)",
            results.monitored_total
        );
        if bpf > budget {
            obs::warn!(
                "error: pipeline.bytes_per_fqdn {bpf:.0} exceeds the documented \
                 budget of {budget:.0} bytes"
            );
            std::process::exit(1);
        }
    }

    if let Some((handle, script, stop, querier)) = served {
        // Graceful teardown mirrors the daemon contract: drain in-flight
        // queries, stop the querier, then run the script once more against
        // the final sealed round so --serve-out always covers it.
        handle.drain();
        stop.store(true, Ordering::SeqCst);
        let mut replies = querier.join().expect("query thread");
        for q in &script {
            let reply = handle.query(q);
            replies.push(serde_json::to_string(&reply).expect("replies serialize"));
        }
        let q = obs::histogram("serve.query_ns").snapshot();
        let p = obs::histogram("serve.publish_round_ns").snapshot();
        obs::info!(
            "serve: {} rounds published, {} queries answered \
             (query p50/p95/p99/p99.9 {:.0}/{:.0}/{:.0}/{:.0} us; \
             publish p50/p99/p99.9 {:.1}/{:.1}/{:.1} ms)",
            handle.rounds_published(),
            handle.queries_served(),
            q.quantile(0.50) as f64 / 1e3,
            q.quantile(0.95) as f64 / 1e3,
            q.quantile(0.99) as f64 / 1e3,
            q.quantile(0.999) as f64 / 1e3,
            p.quantile(0.50) as f64 / 1e6,
            p.quantile(0.99) as f64 / 1e6,
            p.quantile(0.999) as f64 / 1e6,
        );
        // Surface the serve-path percentiles as gauges so a `--metrics`
        // dump carries them as plain JSON numbers CI can assert against.
        obs::gauge("serve.query_p50_ns").set(q.quantile(0.50) as f64);
        obs::gauge("serve.query_p95_ns").set(q.quantile(0.95) as f64);
        obs::gauge("serve.query_p99_ns").set(q.quantile(0.99) as f64);
        obs::gauge("serve.query_p999_ns").set(q.quantile(0.999) as f64);
        obs::gauge("serve.publish_p50_ns").set(p.quantile(0.50) as f64);
        obs::gauge("serve.publish_p99_ns").set(p.quantile(0.99) as f64);
        obs::gauge("serve.publish_p999_ns").set(p.quantile(0.999) as f64);
        if let Some(path) = &serve_out {
            let mut text = replies.join("\n");
            text.push('\n');
            std::fs::write(path, text).expect("write serve replies");
            obs::info!("wrote {} serve replies to {path}", replies.len());
        }
    }

    if let Some(path) = &json_path {
        let summary = bench::json_summary(&results, &infra);
        std::fs::write(path, serde_json::to_string_pretty(&summary).unwrap())
            .expect("write json summary");
        obs::info!("wrote machine-readable summary to {path}");
    }
    if let Some(path) = &metrics_path {
        std::fs::write(path, obs::metrics_json()).expect("write metrics dump");
        obs::info!("wrote metrics dump to {path}");
    }
    if let Some(path) = &trace_path {
        match obs::export_trace(std::path::Path::new(path)) {
            Ok(n) => obs::info!("wrote {n} spans to {path} (open at ui.perfetto.dev)"),
            Err(e) => obs::warn!("error writing trace to {path}: {e}"),
        }
    }

    for t in expanded {
        let out = match t.as_str() {
            "ablation-randomized" => bench::ablations::randomized_names(scale.max(400), seed),
            "ablation-cooldown" => bench::ablations::cooldown(scale.max(400), seed),
            "ablation-signatures" => bench::ablations::naive_signatures(&results),
            "ablation-cutoff" => bench::ablations::cutoff_sweep(&results),
            "ablation-probe" => bench::ablations::probe_methods(&results),
            "extension-wordpress" => bench::ablations::wordpress_extension(scale.max(400), seed),
            other => render_target(&results, &infra, other),
        };
        println!("{out}");
    }
}
