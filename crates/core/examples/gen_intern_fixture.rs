//! Regenerate the `intern_equivalence` golden fixture.
//!
//! The fixture freezes the serialized `StudyResults` of the **pre-interning
//! string pipeline** (PR 9 semantics) for the small differential config that
//! `parallel_equivalence` also uses. The interned pipeline must keep
//! reproducing these exact bytes in every mode and at every thread count —
//! that is the headline contract of the FQDN-interning change.
//!
//! ```sh
//! cargo run --release -p dangling-core --example gen_intern_fixture
//! ```
//!
//! Only rerun this when the *study semantics* change intentionally (a new
//! stage, changed world model); never to paper over an interning
//! regression — the whole point of the fixture is that interning is a pure
//! representation change.

//! Two artifacts are written:
//!
//! - `results.digest` — `<byte length> <FNV-1a 64>` of the full serialized
//!   `StudyResults`: the byte-exact pin (the full JSON is ~8 MB — too heavy
//!   to commit).
//! - `results.head.json` — the same document minus the bulky `changes`
//!   array, committed in full so a divergence is diffable by eye.

use dangling_core::scenario::{Scenario, ScenarioConfig};
use simcore::fnv1a;

/// The differential config: the same small-but-complete world
/// `parallel_equivalence` runs, with the transient-failure model on so the
/// RNG-keyed crawl path is part of the contract.
pub fn fixture_config() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    cfg.crawl_threads = 1;
    cfg.crawl_failure_rate = 0.02;
    cfg.latency_profile = "zero".into();
    cfg
}

fn main() {
    let results = Scenario::new(fixture_config()).run();
    let json = serde_json::to_string(&results).expect("results serialize");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/intern_eq");
    std::fs::create_dir_all(&dir).expect("create fixture dir");

    let digest = format!("{} {:016x}\n", json.len(), fnv1a(json.as_bytes()));
    std::fs::write(dir.join("results.digest"), &digest).expect("write digest");

    let mut doc: serde_json::Value = serde_json::from_str(&json).expect("reparse");
    if let serde_json::Value::Object(fields) = &mut doc {
        fields.retain(|(k, _)| k != "changes");
    }
    let head = serde_json::to_string_pretty(&doc).expect("head serializes");
    std::fs::write(dir.join("results.head.json"), &head).expect("write head");

    println!(
        "wrote {}: digest {} / head {} bytes (full doc {} bytes)",
        dir.display(),
        digest.trim(),
        head.len(),
        json.len()
    );
}
