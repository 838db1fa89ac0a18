//! The committed golden digests and the study config they pin, shared by
//! the suites that hold a run mode to them (`intern_equivalence`,
//! `latency_equivalence`, `parallel_equivalence`, `causal_trace`,
//! `resume_equivalence`, `advisory_equivalence`).
//!
//! Each `tests/fixtures/<fixture>/results.digest` holds the byte length and
//! FNV-1a 64 of the full serialized `StudyResults`:
//!
//! - `intern_eq` — [`fixture_config`] as is, generated by
//!   `examples/gen_intern_fixture.rs`; `results.head.json` next to it is the
//!   same document minus the bulky `changes` array, committed so a
//!   divergence is diffable.
//! - `lossy_eq` — [`fixture_config`] with `latency_profile = "lossy"`,
//!   recorded at the last commit whose resolver still cached answers.
//!
//! `causal_wan/trace.digest` pins, the same way, the causal-span export of
//! [`fixture_config`] at 2 threads under the `wan` profile: every span's
//! virtual start and duration, so every crawl's queue-wait and every
//! round's makespan.
//!
//! `storelog_eq/state.digest` pins every file of the state dir a full
//! recording of [`fixture_config`] at 2 threads leaves, in name order
//! (`resume_equivalence`).
//!
//! `advisory_eq/rounds.digest` pins every round's `ProvisionalRound` of
//! [`fixture_config`] run per round with a round sink attached, rendered
//! as canonical lines (`advisory_equivalence`). It was recorded before the
//! advisory validation became incremental.

use dangling_core::scenario::ScenarioConfig;
use simcore::fnv1a;

/// The fixture study: scale 2000, 30/15 orgs, seed 11, with the
/// transient-failure model on so the RNG-keyed crawl path is exercised.
pub fn fixture_config(threads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    cfg.crawl_threads = threads;
    cfg.crawl_failure_rate = 0.02;
    cfg.latency_profile = "zero".into();
    cfg
}

/// The committed digest `tests/fixtures/<digest>`: (byte length, FNV-1a 64).
fn golden(digest: &str) -> (usize, u64) {
    let path = format!("{}/tests/fixtures/{digest}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("committed fixture digest");
    let mut parts = text.split_whitespace();
    let len = parts.next().and_then(|s| s.parse().ok()).expect("length");
    let hash = parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .expect("hash");
    (len, hash)
}

/// Assert that `doc` is the golden document pinned by
/// `tests/fixtures/<digest>` (e.g. `intern_eq/results.digest`).
pub fn assert_matches_golden(doc: impl AsRef<[u8]>, digest: &str, context: &str) {
    let doc = doc.as_ref();
    let (want_len, want_hash) = golden(digest);
    assert_eq!(
        (doc.len(), fnv1a(doc)),
        (want_len, want_hash),
        "{context}: output diverged from the committed {digest} golden \
         digest (for intern_eq, diff against its results.head.json; \
         regenerate a digest ONLY for intentional semantic changes)"
    );
}
