//! The benchmark's own end-to-end checks, on the tiny world: every workload
//! prints exactly the metric names `BENCHMARK.json` declares, a wrong
//! reference digest fails the run, and a state dir recorded under another
//! config is refused on resume.

use dangling_core::{PersistError, PersistOptions, Scenario};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use studybench::workload::TINY;

/// A seed whose tiny world clears the detection-quality gate.
const SEED: u64 = 7;

fn scratch_root(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("studybench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the benchmark binary; returns (exit success, parsed last line).
fn run(root: &Path, workload: &str, trace: u8) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_studybench"))
        .args(["--workload", workload, "--seed", &SEED.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--tiny"])
        .current_dir(root)
        .output()
        .expect("run studybench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        serde_json::from_str(last).expect("the last line is JSON"),
    )
}

fn object(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(pairs) => pairs,
        other => panic!("expected an object, got {}", other.kind()),
    }
}

/// (name, unit) pairs declared under `key` in the repository's
/// `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let spec: Value = serde_json::from_str(&text).unwrap();
    let mut names: Vec<(String, String)> = spec
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect();
    names.sort();
    names
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let root = scratch_root("smoke");
    for workload in ["weekly-study", "live-daemon", "restart-replay"] {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (ok, result) = run(&root, workload, trace);
            let context = format!("{workload} --trace {trace}");
            assert!(ok, "{context}: run failed");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let mut got: Vec<(String, String)> = object(result.get("metrics").unwrap())
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    let unit = m.get("unit").and_then(Value::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            got.sort();
            assert_eq!(got, declared(key), "{context}");
            if trace == 0 {
                for (name, m) in object(result.get("metrics").unwrap()) {
                    let v = m.get("value").and_then(Value::as_f64).unwrap();
                    assert!(v > 0.0, "{context}: end-to-end {name} is {v}");
                }
            }
        }
    }
}

#[test]
fn a_digest_mismatch_fails_the_run() {
    let root = scratch_root("mismatch");
    let (ok, _) = run(&root, "weekly-study", 0);
    assert!(ok, "the first run records the reference");
    // The entry sits under the benchmark executable's build key.
    let digest = std::fs::read_dir(root.join(".bench_cache"))
        .unwrap()
        .flatten()
        .map(|build| {
            build
                .path()
                .join(format!("{}-seed{SEED}", TINY.tag()))
                .join("digest")
        })
        .find(|p| p.is_file())
        .expect("a recorded reference digest");
    std::fs::write(digest, "1 0000000000000000\n").unwrap();
    let (ok, result) = run(&root, "weekly-study", 0);
    assert!(!ok, "a run that does not reproduce the reference must fail");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
}

#[test]
fn resuming_a_state_dir_of_another_seed_is_refused() {
    let root = scratch_root("config-mismatch");
    let entry = root.join("entry");
    studybench::cache::prep(&TINY, SEED, &entry).unwrap();
    let mut opts = PersistOptions::new(entry.join("state"));
    opts.resume = true;
    let other = Scenario::new(TINY.config(SEED + 1, 1))
        .incremental(true)
        .run_persisted(&opts);
    assert!(
        matches!(other, Err(PersistError::ConfigMismatch { .. })),
        "resuming another seed's recording must be refused"
    );
}
