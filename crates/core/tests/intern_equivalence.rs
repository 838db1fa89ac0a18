//! The golden-digest suite: one study config, every run mode, one
//! committed oracle.
//!
//! The oracle is a *committed golden fixture*, generated by
//! `examples/gen_intern_fixture.rs` from the last commit before FQDN labels
//! were interned:
//!
//! - `tests/fixtures/intern_eq/results.digest` — byte length + FNV-1a 64 of
//!   the full serialized `StudyResults` (the byte-exact pin),
//! - `tests/fixtures/intern_eq/results.head.json` — the same document minus
//!   the bulky `changes` array, committed so a divergence is diffable.
//!
//! Every test runs the same config (scale 2000, 30/15 orgs, seed 11, with
//! the transient-failure model on so the RNG-keyed crawl path is exercised)
//! and asserts the digest across crawl thread counts in fresh,
//! `--incremental`, `--resume`-replay and interrupted runs, untraced and
//! traced. It runs the *full* study window: the attacker campaigns only
//! start in 2020, so a round-bounded run would leave the retro pass with no
//! abuse to find. A failure means something leaked into results — thread
//! scheduling, the retro fold's cadence, the storelog round-trip,
//! telemetry, interned ids escaping into an output, an ordering switched
//! from strings to ids, or a changed shard hash.

mod golden;

use dangling_core::scenario::Scenario;
use dangling_core::PersistOptions;
use golden::{assert_matches_golden, fixture_config};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn serialize(results: &dangling_core::StudyResults) -> String {
    serde_json::to_string(results).expect("results serialize")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("intern_eq_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn fresh_runs_match_pre_interning_bytes_at_every_thread_count() {
    for threads in [1, 2, 4, 8] {
        let json = serialize(&Scenario::new(fixture_config(threads)).run());
        assert_matches_golden(
            &json,
            "intern_eq/results.digest",
            &format!("fresh, {threads} threads"),
        );
    }
}

#[test]
fn incremental_runs_match_pre_interning_bytes_at_every_thread_count() {
    for threads in [1, 2, 4, 8] {
        let json = serialize(
            &Scenario::new(fixture_config(threads))
                .incremental(true)
                .run(),
        );
        assert_matches_golden(
            &json,
            "intern_eq/results.digest",
            &format!("--incremental, {threads} threads"),
        );
    }
}

#[test]
fn resume_replay_matches_pre_interning_bytes_at_every_thread_count() {
    // Record the full history once (interned recorder), then replay it at
    // every thread count: the storelog round-trip must neither perturb the
    // interned pipeline nor depend on id-assignment order — a recorded
    // label's id on replay can differ from recording time, and must not
    // matter.
    let dir = TempDir::new("replay");
    let recorded = {
        let opts = PersistOptions::new(&dir.0);
        serialize(
            &Scenario::new(fixture_config(1))
                .run_persisted(&opts)
                .expect("recording run"),
        )
    };
    assert_matches_golden(
        &recorded,
        "intern_eq/results.digest",
        "--persist recording, 1 thread",
    );
    for threads in [1, 2, 4, 8] {
        let mut opts = PersistOptions::new(&dir.0);
        opts.resume = true;
        let replayed = serialize(
            &Scenario::new(fixture_config(threads))
                .run_persisted(&opts)
                .expect("replay run"),
        );
        assert_matches_golden(
            &replayed,
            "intern_eq/results.digest",
            &format!("--resume replay, {threads} threads"),
        );
    }
}

/// Interrupted-then-resumed runs cross the storelog boundary mid-history:
/// the resumed process re-interns every label from the log in replay order,
/// then keeps crawling with those ids — the id-stability-across-resume case
/// the interner proptests pin at the unit level, proven here end to end.
#[test]
fn interrupted_resume_matches_pre_interning_bytes() {
    let dir = TempDir::new("kill");
    {
        let mut opts = PersistOptions::new(&dir.0);
        opts.max_rounds = Some(20);
        Scenario::new(fixture_config(4))
            .run_persisted(&opts)
            .expect("interrupted recording");
    }
    let mut opts = PersistOptions::new(&dir.0);
    opts.resume = true;
    let resumed = serialize(
        &Scenario::new(fixture_config(2))
            .run_persisted(&opts)
            .expect("resumed run"),
    );
    assert_matches_golden(
        &resumed,
        "intern_eq/results.digest",
        "interrupted at round 20, resumed",
    );
}

/// Spans recorded on the calling thread since `marker` was dropped there.
/// The orchestrator's spans are recorded on the thread that runs the
/// scenario, so sibling tests running concurrently in this binary (traced
/// while tracing is on) cannot satisfy the span checks.
fn spans_of_this_thread(marker: &str) -> Vec<obs::SpanRecord> {
    let spans = obs::take_spans();
    let tid = spans
        .iter()
        .find(|s| s.name == marker)
        .expect("marker span recorded")
        .tid;
    spans.into_iter().filter(|s| s.tid == tid).collect()
}

/// Tracing on, one run per mode: fresh at 1 and N threads, `--incremental`
/// at N, and a `--resume` replay at N. Telemetry must stay out of the bytes,
/// and each mode must leave its own spans.
///
/// The history is recorded at the horizon-only retro cadence and resumed at
/// the per-round one on purpose: the cadence is a builder flag, not part of
/// the persisted config fingerprint, so recorded histories are portable
/// between the two. The replay must not re-crawl: `resolution_latency` is
/// written only by the crawl stage (and never serialized), so it is empty
/// after a full-history replay and non-empty after a fresh run.
#[test]
fn traced_runs_match_golden_bytes_in_every_mode() {
    const N: usize = 4;
    const MARKER: &str = "intern_eq.traced_test";
    obs::set_tracing(true);
    drop(obs::span(MARKER, "test"));

    // Meaningfulness gates: every retro step must have real work or the
    // byte comparisons are vacuous.
    let fresh = Scenario::new(fixture_config(1)).run();
    assert!(
        !fresh.world.truth.is_empty(),
        "scenario must contain hijacks for the retro pass to chase"
    );
    assert!(!fresh.abuse.is_empty(), "retro matching must detect abuse");
    assert!(
        !fresh.signatures.is_empty(),
        "retro derivation must produce signatures"
    );
    assert!(
        !fresh.change_clusters.is_empty(),
        "retro clustering must produce clusters"
    );
    assert!(
        !fresh.resolution_latency.is_empty(),
        "a fresh run crawls every round"
    );
    assert_matches_golden(
        serialize(&fresh),
        "intern_eq/results.digest",
        "traced fresh, 1 thread",
    );

    let dir = TempDir::new("traced");
    let recorded = Scenario::new(fixture_config(N))
        .run_persisted(&PersistOptions::new(&dir.0))
        .expect("recording run");
    assert!(!recorded.resolution_latency.is_empty());
    assert_matches_golden(
        serialize(&recorded),
        "intern_eq/results.digest",
        &format!("traced fresh --persist, {N} threads"),
    );

    let incremental = Scenario::new(fixture_config(N)).incremental(true).run();
    assert_matches_golden(
        serialize(&incremental),
        "intern_eq/results.digest",
        &format!("traced --incremental, {N} threads"),
    );

    let mut opts = PersistOptions::new(&dir.0);
    opts.resume = true;
    let replayed = Scenario::new(fixture_config(N))
        .incremental(true)
        .run_persisted(&opts)
        .expect("replay run");
    assert!(
        replayed.resolution_latency.is_empty(),
        "a full-history replay must not re-run the crawl"
    );
    assert_matches_golden(
        serialize(&replayed),
        "intern_eq/results.digest",
        &format!("traced --resume --incremental replay, {N} threads"),
    );

    obs::set_tracing(false);
    let spans = spans_of_this_thread(MARKER);
    for name in [
        "crawl.weekly",
        "incr.weekly",
        "retro.incr.round",
        "retro.incr.finalize",
        "persist.replay_round",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "traced runs must collect the {name} span"
        );
    }
    // No run here attaches a round sink, so nothing reads the per-round
    // advisory validation and it must not run.
    assert!(
        !spans.iter().any(|s| s.name == "retro.incr.validate"),
        "sinkless incremental runs must skip the advisory validation"
    );
}
