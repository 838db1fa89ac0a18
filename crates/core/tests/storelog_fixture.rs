//! The committed storelog fixture: `tests/fixtures/v2_state/` is a tiny
//! 4-round recording of [`fixture_cfg`]. Resumed, it must replay to the
//! uninterrupted baseline on every build: recorded rounds come from its
//! records, the rest of the horizon is crawled live and appended. A copy
//! whose FORMAT names another version (the retired v1, an unknown future
//! one) must be refused untouched, pointing at `MIGRATIONS.md`.
//!
//! Replay checks the RNG witness and counters at the frontier, so a change
//! to what the world draws breaks the resume test. Re-record the fixture in
//! the same change, as a declared re-pin: run [`fixture_cfg`] persisted
//! with `max_rounds = 4` into an empty dir (any crawl thread count gives
//! the same bytes) and replace `v2_state` with it.

use dangling_core::scenario::{Scenario, ScenarioConfig};
use dangling_core::{compact_state_dir, PersistOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("slfix_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The exact scenario the fixture was recorded with. Changing anything here
/// (or in what `ScenarioConfig` serializes) invalidates the fixture — that
/// is the point: resume refuses mismatched configs, so this test fails
/// loudly instead of the fixture rotting silently.
fn fixture_cfg(threads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(12_000);
    cfg.world.n_fortune1000 = 2;
    cfg.world.n_global500 = 1;
    cfg.seed = 11;
    cfg.crawl_threads = threads;
    cfg.crawl_failure_rate = 0.02;
    cfg
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_state")
}

fn copy_fixture(tag: &str) -> TempDir {
    let dst = TempDir::new(tag);
    for entry in std::fs::read_dir(fixture_path()).expect("fixture dir exists — see module docs")
    {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.0.join(entry.file_name())).unwrap();
    }
    dst
}

/// A fixture copy whose FORMAT marker names `version`.
fn copy_fixture_as(tag: &str, version: u32) -> TempDir {
    let dir = copy_fixture(tag);
    std::fs::write(
        dir.0.join("FORMAT"),
        format!("storelog {version}\nshards 16\n"),
    )
    .unwrap();
    dir
}

fn resume(dir: &Path, threads: usize) -> Result<String, dangling_core::PersistError> {
    let mut opts = PersistOptions::new(dir);
    opts.resume = true;
    let results = Scenario::new(fixture_cfg(threads)).run_persisted(&opts)?;
    Ok(serde_json::to_string(&results).expect("results serialize"))
}

/// Every file of a dir, by name, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn fixture_is_v2() {
    let format = std::fs::read_to_string(fixture_path().join("FORMAT")).expect("fixture FORMAT");
    assert_eq!(
        format, "storelog 2\nshards 16\n",
        "fixture must stay a v2 dir"
    );
    let reader = storelog::LogReader::open(&fixture_path()).expect("fixture opens");
    assert_eq!(reader.shard_count(), 16);
    assert_eq!(reader.commits().len(), 4);
}

#[test]
fn v2_fixture_replays_to_the_uninterrupted_baseline() {
    let dir = copy_fixture("v2");
    let out = resume(&dir.0, 2).expect("resume of the v2 fixture");
    let baseline = serde_json::to_string(&Scenario::new(fixture_cfg(1)).run()).unwrap();
    assert_eq!(out, baseline, "v2 fixture resume diverged from baseline");
}

#[test]
fn resuming_an_unmigrated_v1_dir_is_refused_untouched() {
    let dir = copy_fixture_as("resume_v1", 1);
    let before = dir_bytes(&dir.0);
    let err = resume(&dir.0, 2).expect_err("a v1 dir must not resume");
    let msg = err.to_string();
    assert!(msg.contains("format v1;"), "{msg}");
    assert!(msg.contains("MIGRATIONS.md"), "{msg}");
    assert!(
        dir_bytes(&dir.0) == before,
        "a refused resume touched the v1 dir"
    );
}

#[test]
fn compacting_an_unmigrated_v1_dir_is_refused_untouched() {
    let dir = copy_fixture_as("compact_v1", 1);
    let before = dir_bytes(&dir.0);
    let err = compact_state_dir(&dir.0).expect_err("a v1 dir must not compact");
    let msg = err.to_string();
    assert!(msg.contains("format v1;"), "{msg}");
    assert!(msg.contains("MIGRATIONS.md"), "{msg}");
    assert!(
        dir_bytes(&dir.0) == before,
        "a refused compaction touched the v1 dir"
    );
}

#[test]
fn unknown_future_format_is_refused_with_a_migration_pointer() {
    // The exact failure mode an older reader exhibits on a newer dir: an
    // unsupported version must be a hard error pointing at MIGRATIONS.md,
    // never a silent decode attempt.
    let dir = copy_fixture_as("future", 999);
    let err = match storelog::LogReader::open(&dir.0) {
        Ok(_) => panic!("future version must be refused"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains("MIGRATIONS.md"), "{msg}");
    assert!(
        msg.contains(&format!("v{}", storelog::FORMAT_VERSION)),
        "error should name the supported version: {msg}"
    );
}
