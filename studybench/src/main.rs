//! `studybench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]`
//!
//! Prints the run's JSON result as the last line of stdout and exits 0 when
//! the outputs were correct. Three internal modes run in child processes:
//! `prep` records a seed's reference study into the cache, `setup` times
//! one set-up call in a fresh process, and `rep` runs one repetition of the
//! workload in a fresh process.

use simcore::RngTree;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use studybench::bench::{self, Options};
use studybench::workload::{Sizing, Workload, STUDY, TINY};

const USAGE: &str = "usage: studybench --workload weekly-study|live-daemon|restart-replay \
                     --seed N --seconds S --trace 0|1 [--tiny]";

struct Args {
    mode: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizing: Sizing,
    part: String,
    entry: Option<PathBuf>,
    index: usize,
}

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let mode = match argv.peek().map(String::as_str) {
        Some("prep") | Some("setup") | Some("rep") => argv.next().expect("peeked"),
        _ => "bench".to_string(),
    };
    let mut a = Args {
        mode,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizing: STUDY,
        part: "runstate".into(),
        entry: None,
        index: 0,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--tiny" => a.sizing = TINY,
            "--part" => a.part = value()?,
            "--entry" => a.entry = Some(PathBuf::from(value()?)),
            "--index" => a.index = value()?.parse().map_err(|e| format!("--index: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("studybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode.as_str() {
        "prep" => {
            let entry = args.entry.expect("prep is given --entry");
            match studybench::cache::prep(&args.sizing, args.seed, &entry) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("studybench prep: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "setup" => {
            println!("{}", setup_seconds(&args));
            ExitCode::SUCCESS
        }
        mode => {
            let Some(workload) = args.workload else {
                eprintln!("studybench: --workload is required\n{USAGE}");
                return ExitCode::from(2);
            };
            let opts = Options {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                sizing: args.sizing,
                root: PathBuf::from("."),
            };
            if mode == "rep" {
                return match bench::rep_child(&opts, args.index) {
                    Ok(out) => {
                        print!("{out}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("studybench rep: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            let report = bench::run(&opts);
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Time one set-up call, the first of its kind in this process. `runstate`
/// is `RunState::new` (world generation, feed, event schedule); `generate`
/// is world and campaign generation alone.
fn setup_seconds(args: &Args) -> f64 {
    let cfg = args.sizing.config(args.seed, 1);
    let started = Instant::now();
    if args.part == "generate" {
        let tree = RngTree::new(cfg.seed);
        let population = worldgen::Population::generate(cfg.world.clone(), &tree);
        let campaigns = attacker::generate_campaigns(&cfg.campaigns, &tree);
        let elapsed = started.elapsed().as_secs_f64();
        std::mem::forget((population, campaigns));
        elapsed
    } else {
        let rs = dangling_core::pipeline::RunState::new(cfg);
        let elapsed = started.elapsed().as_secs_f64();
        // The process exits next; freeing the world is not part of set-up.
        std::mem::forget(rs);
        elapsed
    }
}
