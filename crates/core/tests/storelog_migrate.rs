//! v1→v2 state-dir migration: the committed fixture under
//! `tests/fixtures/v1_state/` is a tiny v1 (JSON-payload) recording; it
//! must keep migrating cleanly and replaying to the uninterrupted baseline
//! on every future build — the compatibility gate MIGRATIONS.md promises.
//! Un-migrated, resume and compaction must refuse it untouched.
//!
//! The fixture is frozen: this build no longer writes v1, so its bytes are
//! the oracle and cannot be regenerated.

use dangling_core::scenario::{Scenario, ScenarioConfig};
use dangling_core::{compact_state_dir, migrate_state_dir, PersistOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("slmig_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // migrate_state_dir publishes a sibling backup; sweep it too.
        let mut bak = self.0.as_os_str().to_owned();
        bak.push(".v1.bak");
        let _ = std::fs::remove_dir_all(PathBuf::from(bak));
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

/// Committed rounds in the fixture.
const FIXTURE_ROUNDS: u64 = 4;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_state")
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
fn fixture_is_v1() {
    let (version, shards) = storelog::read_format(&fixture_path()).expect("fixture readable");
    assert_eq!(version, 1, "fixture must stay a v1 dir");
    assert_eq!(shards, 16);
}

#[test]
fn migrated_fixture_replays_to_the_uninterrupted_baseline() {
    let v2 = copy_fixture("mig");

    let stats = migrate_state_dir(&v2.0).expect("migration");
    assert_eq!(stats.rounds, FIXTURE_ROUNDS);
    assert!(stats.records > 0);
    assert!(
        stats.bytes_after * 3 <= stats.bytes_before,
        "binary payloads should be far smaller: {} -> {} bytes",
        stats.bytes_before,
        stats.bytes_after
    );
    assert_eq!(storelog::read_format(&v2.0).unwrap().0, 2);
    // The original moved to the sibling backup, byte-for-byte.
    let mut bak = v2.0.as_os_str().to_owned();
    bak.push(".v1.bak");
    assert_eq!(
        storelog::read_format(&PathBuf::from(bak)).unwrap().0,
        1,
        "the v1 original must survive as the .v1.bak sibling"
    );

    // The migrated dir resumes into the uninterrupted in-memory study: the
    // recorded rounds replay from the transcoded records, the rest of the
    // horizon is crawled live and appended in v2.
    let out = resume(&v2.0, 2).expect("resume of the migrated fixture");
    let baseline = serde_json::to_string(&Scenario::new(fixture_cfg(1)).run()).unwrap();
    assert_eq!(
        out, baseline,
        "migrated fixture resume diverged from baseline"
    );
}

#[test]
fn resuming_an_unmigrated_v1_dir_is_refused_untouched() {
    let dir = copy_fixture("resume_v1");
    let before = dir_bytes(&dir.0);
    let err = resume(&dir.0, 2).expect_err("a v1 dir must not resume");
    let msg = err.to_string();
    assert!(msg.contains("--migrate-state"), "{msg}");
    assert!(
        dir_bytes(&dir.0) == before,
        "a refused resume touched the v1 dir"
    );
}

#[test]
fn compacting_an_unmigrated_v1_dir_is_refused_untouched() {
    let dir = copy_fixture("compact_v1");
    let before = dir_bytes(&dir.0);
    let err = compact_state_dir(&dir.0).expect_err("a v1 dir must not compact");
    let msg = err.to_string();
    assert!(msg.contains("--migrate-state"), "{msg}");
    assert!(
        dir_bytes(&dir.0) == before,
        "a refused compaction touched the v1 dir"
    );
}

#[test]
fn migrate_refuses_v2_dirs_and_existing_backups() {
    let dir = copy_fixture("refuse");
    migrate_state_dir(&dir.0).expect("first migration");
    // Already v2: a second migration must refuse, not double-transcode.
    let err = migrate_state_dir(&dir.0).expect_err("v2 dir refused");
    assert!(err.to_string().contains("expects a v1"), "{err}");

    // A fresh v1 copy whose backup name is already taken must refuse too
    // (never clobber the only pristine copy).
    let dir2 = copy_fixture("bak");
    let mut bak = dir2.0.as_os_str().to_owned();
    bak.push(".v1.bak");
    std::fs::create_dir_all(PathBuf::from(bak)).unwrap();
    let err = migrate_state_dir(&dir2.0).expect_err("existing backup refused");
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn unknown_future_format_is_refused_with_a_migration_pointer() {
    // The exact failure mode a v1-era reader exhibits on a v2 dir (its
    // FORMAT gate predates v2): an unsupported version must be a hard
    // error pointing at MIGRATIONS.md, never a silent decode attempt.
    let dir = copy_fixture("future");
    std::fs::write(dir.0.join("FORMAT"), "storelog 999\nshards 16\n").unwrap();
    let err = match storelog::LogReader::open(&dir.0) {
        Ok(_) => panic!("future version must be refused"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains("MIGRATIONS.md"), "{msg}");
    assert!(
        msg.contains(&format!("v{}", storelog::FORMAT_VERSION)),
        "error should name the supported range: {msg}"
    );
}
