//! The advisory stream's golden digest: every round's [`ProvisionalRound`]
//! of the fixture study, rendered as canonical lines and pinned by
//! `tests/fixtures/advisory_eq/rounds.digest`.
//!
//! `StudyResults` never contains a provisional round, so the results
//! digests (`intern_eq` and the rest) cannot see a wrong advisory verdict.
//! This suite runs [`golden::fixture_config`] with the per-round retro
//! cadence and a round sink attached (what service mode does), at 1, 2 and
//! 4 threads, fresh and recorded-then-resumed. The resumed run replays the
//! recorded rounds through the sink before it crawls the rest, so its
//! stream must be the fresh run's stream.

mod golden;

use dangling_core::scenario::Scenario;
use dangling_core::{PersistOptions, ProvisionalRound, RoundSink, RoundView};
use golden::{assert_matches_golden, fixture_config};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Rounds the interrupted recording commits before the resume replays
/// them. The fixture derives its first signatures in round 2 and flags its
/// first provisional abuse in round 62, so both the replayed prefix and the
/// live tail carry real advisory verdicts.
const RECORDED_ROUNDS: u64 = 100;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("advisory_eq_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One round's advisory state as canonical lines: the counts, then every
/// verdict, signature and cluster in the order the round lists them.
fn render(out: &mut String, rounds_done: u64, p: Option<&ProvisionalRound>) {
    let Some(p) = p else {
        writeln!(out, "round {rounds_done} none").unwrap();
        return;
    };
    writeln!(
        out,
        "round {rounds_done} day {} signatures {} valid {} abuse {} groups {}",
        p.day.0, p.signatures_total, p.signatures_valid, p.provisional_abuse, p.fold_groups
    )
    .unwrap();
    for v in &p.verdicts {
        writeln!(
            out,
            "verdict {} abused={} ruled_out={} days={}..{} kinds={:?}",
            v.fqdn, v.abused, v.ruled_out, v.first_day.0, v.last_day.0, v.kinds
        )
        .unwrap();
    }
    for s in &p.signatures {
        writeln!(
            out,
            "signature {} {:?} [{}] members={} slds={} valid={}",
            s.id,
            s.kind,
            s.keywords.join(","),
            s.source_members,
            s.source_slds,
            s.valid
        )
        .unwrap();
    }
    for c in &p.clusters {
        writeln!(
            out,
            "cluster {} members={} registrars={} ruled_out={}",
            c.key, c.members, c.registrar_count, c.ruled_out
        )
        .unwrap();
    }
}

/// Renders every committed round into a shared document.
struct AdvisoryLines(Arc<Mutex<String>>);

impl RoundSink for AdvisoryLines {
    fn round_committed(&mut self, view: RoundView<'_>) {
        render(
            &mut self.0.lock().unwrap(),
            view.rounds_done,
            view.provisional,
        );
    }
}

/// Run the fixture study per-round with the rendering sink attached and
/// return the rendered stream.
fn advisory_stream(threads: usize, persist: Option<&PersistOptions>) -> String {
    let doc = Arc::new(Mutex::new(String::new()));
    let scenario = Scenario::new(fixture_config(threads))
        .incremental(true)
        .round_sink(Box::new(AdvisoryLines(doc.clone())));
    match persist {
        Some(opts) => {
            scenario.run_persisted(opts).expect("persisted run");
        }
        None => {
            scenario.run();
        }
    }
    let doc = doc.lock().unwrap();
    doc.clone()
}

#[test]
fn fresh_advisory_stream_matches_golden_at_every_thread_count() {
    for threads in [1, 2, 4] {
        assert_matches_golden(
            advisory_stream(threads, None),
            "advisory_eq/rounds.digest",
            &format!("fresh advisory stream, {threads} threads"),
        );
    }
}

#[test]
fn resumed_advisory_stream_matches_golden_at_every_thread_count() {
    for threads in [1, 2, 4] {
        let dir = TempDir::new(&format!("t{threads}"));
        let mut opts = PersistOptions::new(&dir.0);
        opts.max_rounds = Some(RECORDED_ROUNDS);
        advisory_stream(threads, Some(&opts));
        opts.max_rounds = None;
        opts.resume = true;
        assert_matches_golden(
            advisory_stream(threads, Some(&opts)),
            "advisory_eq/rounds.digest",
            &format!("recorded-then-resumed advisory stream, {threads} threads"),
        );
    }
}
