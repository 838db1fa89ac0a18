//! The persistence subsystem's headline guarantee: a run interrupted at any
//! round boundary and resumed from its state directory serializes
//! [`dangling_core::StudyResults`] **byte-identically** to an uninterrupted
//! run — at any crawl thread count, including recording and resuming at
//! different thread counts.
//!
//! Same scenario as `parallel_equivalence` (transient-failure model on, so
//! the RNG-keyed crawl path is exercised), with the `max_rounds` knob as the
//! kill switch: it stops the simulation right after a commit, exactly the
//! state a crash at a round boundary leaves behind.
//!
//! The recorded bytes themselves are pinned too: a full recording of the
//! golden fixture study must hash to `tests/fixtures/storelog_eq/state.digest`,
//! so a change to where the persist stage reads a round from cannot change
//! what it writes.

mod golden;

use dangling_core::pipeline::obs_codec::ShardCodec;
use dangling_core::pipeline::persist::compact_state_dir;
use dangling_core::scenario::{Scenario, ScenarioConfig};
use dangling_core::snapshot::fqdn_shard;
use dangling_core::{PersistError, PersistOptions, RoundSink, RoundView};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("resume_eq_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn study_cfg(threads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    cfg.crawl_threads = threads;
    cfg.crawl_failure_rate = 0.02;
    cfg
}

/// The uninterrupted, non-persisted reference run (computed once).
fn baseline() -> &'static String {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let results = Scenario::new(study_cfg(1)).run();
        serde_json::to_string(&results).expect("results serialize")
    })
}

fn run_persisted(
    dir: &TempDir,
    threads: usize,
    resume: bool,
    max_rounds: Option<u64>,
) -> Result<String, PersistError> {
    let mut opts = PersistOptions::new(&dir.0);
    opts.resume = resume;
    opts.max_rounds = max_rounds;
    let results = Scenario::new(study_cfg(threads)).run_persisted(&opts)?;
    Ok(serde_json::to_string(&results).expect("results serialize"))
}

#[test]
fn interrupted_plus_resumed_is_byte_identical() {
    // Span collection on for the interrupted/resumed legs: telemetry must be
    // invisible to the recorded log and the replayed results alike. (The
    // baseline may or may not have run traced — irrelevant, by the same
    // contract.)
    obs::set_tracing(true);
    // (threads while recording, threads while resuming): same-count serial
    // and parallel, plus a cross-count resume — the log is thread-agnostic.
    for (record_threads, resume_threads) in [(1, 1), (4, 4), (1, 4)] {
        let dir = TempDir::new("kill");
        // Record 20 rounds, then die at the boundary.
        run_persisted(&dir, record_threads, false, Some(20)).expect("recording run");
        let resumed = run_persisted(&dir, resume_threads, true, None).expect("resumed run");
        assert_eq!(
            &resumed,
            baseline(),
            "resume diverged (recorded at {record_threads} threads, \
             resumed at {resume_threads})"
        );
    }
    obs::set_tracing(false);
    assert!(
        obs::take_spans()
            .iter()
            .any(|s| s.name == "persist.replay_round"),
        "traced resumed runs must have collected replay spans"
    );
}

/// Asserts at every committed round, live or replayed, that each
/// monitored name's admission-time shard id is its store shard; counts the
/// rounds it checked.
struct ShardIdCheck(std::sync::Arc<AtomicU64>);

impl RoundSink for ShardIdCheck {
    fn round_committed(&mut self, view: RoundView<'_>) {
        let rs = view.rs;
        assert_eq!(rs.monitored_shards.len(), rs.monitored.len());
        let shards = rs.store.shard_count();
        for (fqdn, &id) in rs.monitored.iter().zip(&rs.monitored_shards) {
            assert_eq!(usize::from(id), fqdn_shard(fqdn, shards), "{fqdn}");
        }
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn monitored_shard_ids_match_the_store_after_run_and_resume() {
    let dir = TempDir::new("shard_ids");
    let run = |resume: bool, max_rounds: Option<u64>| {
        let checked = std::sync::Arc::new(AtomicU64::new(0));
        let mut opts = PersistOptions::new(&dir.0);
        opts.resume = resume;
        opts.max_rounds = max_rounds;
        Scenario::new(study_cfg(2))
            .round_sink(Box::new(ShardIdCheck(checked.clone())))
            .run_persisted(&opts)
            .expect("persisted run");
        checked.load(Ordering::Relaxed)
    };
    assert_eq!(run(false, Some(12)), 12);
    // The resumed run replays the 12 recorded rounds through the sink,
    // then crawls the rest live.
    assert!(run(true, None) > 12);
}

#[test]
fn uninterrupted_persisted_run_matches_plain_run() {
    // Recording itself must not perturb results, and a second resume over a
    // fully recorded history (pure replay, zero crawls) must also agree.
    let dir = TempDir::new("full");
    let recorded = run_persisted(&dir, 1, false, None).expect("recorded run");
    assert_eq!(&recorded, baseline(), "persistence changed the results");
    assert_v2_is_5x_smaller_than_json(&dir);
    let replayed = run_persisted(&dir, 4, true, None).expect("pure replay");
    assert_eq!(&replayed, baseline(), "full replay diverged");
}

/// Every file of a state dir in name order, each as its name, a NUL, its
/// byte length (u64 LE) and its bytes: one document to digest.
fn state_dir_document(dir: &std::path::Path) -> Vec<u8> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("state dir lists")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut doc = Vec::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).expect("state file reads");
        doc.extend_from_slice(name.as_bytes());
        doc.push(0);
        doc.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        doc.extend_from_slice(&bytes);
    }
    doc
}

#[test]
fn recorded_state_dir_matches_golden_bytes() {
    // The golden fixture study recorded at 1, 2 and 4 threads: its results
    // are the intern_eq document, and every byte the persist stage wrote
    // (segments, commits, config, format marker) is pinned by one digest,
    // the same at every thread count.
    for threads in [1, 2, 4] {
        let dir = TempDir::new(&format!("golden_t{threads}"));
        let opts = PersistOptions::new(&dir.0);
        let results = Scenario::new(golden::fixture_config(threads))
            .run_persisted(&opts)
            .expect("recorded run");
        let doc = serde_json::to_string(&results).expect("results serialize");
        let what = format!("recorded run at {threads} threads");
        golden::assert_matches_golden(&doc, "intern_eq/results.digest", &what);
        golden::assert_matches_golden(
            state_dir_document(&dir.0),
            "storelog_eq/state.digest",
            &format!("recorded state dir at {threads} threads"),
        );
    }
}

/// The binary payload format's size gate: the committed segments of a
/// full-horizon recording take at most a fifth of what the retired v1
/// format wrote for the same history — each record's JSON in a frame.
fn assert_v2_is_5x_smaller_than_json(dir: &TempDir) {
    let reader = storelog::LogReader::open(&dir.0).expect("recorded dir opens");
    let offsets = &reader.last_commit().expect("a committed round").offsets;
    let v2_bytes: u64 = offsets.iter().sum();
    let mut json_bytes = 0u64;
    for shard in 0..reader.shard_count() {
        let mut codec = ShardCodec::new();
        for payload in reader.stream_shard(shard).unwrap().iter() {
            let rec = codec.decode(payload).expect("recorded payload decodes");
            let json = serde_json::to_vec(&rec).expect("record serializes");
            json_bytes += storelog::frame::frame_len(json.len());
        }
    }
    assert!(v2_bytes > 0);
    assert!(
        v2_bytes * 5 <= json_bytes,
        "v2 segments {v2_bytes} B vs {json_bytes} B as framed JSON — ratio {:.1}x < 5x",
        json_bytes as f64 / v2_bytes as f64
    );
}

#[test]
fn compaction_preserves_resume_equivalence() {
    let dir = TempDir::new("compact");
    run_persisted(&dir, 4, false, Some(30)).expect("recording run");
    let stats = compact_state_dir(&dir.0).expect("compaction");
    assert!(
        stats.records_after < stats.records_before,
        "30 weekly rounds must contain superseded no-change records \
         ({} -> {})",
        stats.records_before,
        stats.records_after
    );
    let resumed = run_persisted(&dir, 1, true, None).expect("resume after compaction");
    assert_eq!(&resumed, baseline(), "compaction broke replay");
}

#[test]
fn mismatched_config_is_refused() {
    let dir = TempDir::new("mismatch");
    run_persisted(&dir, 1, false, Some(3)).expect("recording run");

    // A different failure rate forks history: refused.
    let mut cfg = study_cfg(1);
    cfg.crawl_failure_rate = 0.5;
    let mut opts = PersistOptions::new(&dir.0);
    opts.resume = true;
    let Err(err) = Scenario::new(cfg).run_persisted(&opts) else {
        panic!("resume with a different failure rate must be refused");
    };
    assert!(
        matches!(err, PersistError::ConfigMismatch { .. }),
        "expected ConfigMismatch, got {err}"
    );

    // A different seed likewise.
    let mut cfg = study_cfg(1);
    cfg.seed = 12;
    let Err(err) = Scenario::new(cfg).run_persisted(&opts) else {
        panic!("resume with a different seed must be refused");
    };
    assert!(matches!(err, PersistError::ConfigMismatch { .. }));

    // Re-running without --resume must refuse to clobber the recording.
    let Err(err) = run_persisted(&dir, 1, false, Some(3)) else {
        panic!("re-running onto a populated state dir must be refused");
    };
    assert!(
        matches!(err, PersistError::AlreadyExists(_)),
        "expected AlreadyExists, got {err}"
    );
}
