//! Untimed preparation, cached per build and seed.
//!
//! For each seed the benchmark records the study once into a state dir
//! (restart-replay's input) and keeps the recording's `StudyResults` digest
//! (every workload's reference) plus the seeded FQDN list the query client
//! looks up. Entries live under
//! `<root>/.bench_cache/<build>/<world>-seed<N>/`, where `<build>` hashes
//! the benchmark executable, so a rebuilt program never reuses another
//! build's recording. Only the newest few state dirs are kept.

use crate::client::LOOKUPS;
use crate::stats::{fnv1a, Digest, SplitMix};
use crate::sys;
use crate::workload::{nproc, Sizing};
use dangling_core::{PersistOptions, RoundSink, RoundView, Scenario};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Recorded state dirs kept per build (each is tens of MB).
const KEEP_STATE_DIRS: usize = 3;

pub struct Cache {
    /// `<root>/.bench_cache`
    pub base: PathBuf,
    /// This build's entry directory for the sizing and seed.
    pub entry: PathBuf,
}

impl Cache {
    pub fn new(root: &Path, sizing: &Sizing, seed: u64) -> std::io::Result<Cache> {
        let base = root.join(".bench_cache");
        let build = build_key()?;
        let build_dir = base.join(&build);
        // Entries of other builds of this checkout are stale.
        if let Ok(dirs) = std::fs::read_dir(&base) {
            for d in dirs.flatten() {
                let name = d.file_name();
                if name != build.as_str() && name != "tmp" && d.path().is_dir() {
                    sys::remove_dir(&d.path())?;
                }
            }
        }
        let entry = build_dir.join(format!("{}-seed{seed}", sizing.tag()));
        Ok(Cache { base, entry })
    }

    pub fn digest_path(&self) -> PathBuf {
        self.entry.join("digest")
    }

    pub fn queries_path(&self) -> PathBuf {
        self.entry.join("queries.txt")
    }

    pub fn state_dir(&self) -> PathBuf {
        self.entry.join("state")
    }

    /// Scratch directory for one repetition's state dir; the caller removes
    /// it when the repetition ends.
    pub fn tmp_dir(&self, tag: &str) -> PathBuf {
        self.base
            .join("tmp")
            .join(format!("{}-{tag}", std::process::id()))
    }

    pub fn is_ready(&self, need_state: bool) -> bool {
        self.digest_path().is_file()
            && self.queries_path().is_file()
            && (!need_state || self.state_dir().join("FORMAT").is_file())
    }

    pub fn reference(&self) -> Result<Digest, String> {
        let text = std::fs::read_to_string(self.digest_path())
            .map_err(|e| format!("reading reference digest: {e}"))?;
        Digest::parse(&text).ok_or_else(|| format!("malformed reference digest {text:?}"))
    }

    pub fn query_fqdns(&self) -> Result<Vec<String>, String> {
        let text = std::fs::read_to_string(self.queries_path())
            .map_err(|e| format!("reading query list: {e}"))?;
        let fqdns: Vec<String> = text.lines().map(str::to_string).collect();
        if fqdns.is_empty() {
            return Err("empty query list".into());
        }
        Ok(fqdns)
    }

    /// Keep only the newest [`KEEP_STATE_DIRS`] recorded state dirs of this
    /// build; digests and query lists stay.
    pub fn evict_old_state(&self) -> std::io::Result<()> {
        let Some(build_dir) = self.entry.parent() else {
            return Ok(());
        };
        let mut states: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(build_dir)?
            .flatten()
            .map(|e| e.path().join("state"))
            .filter(|p| p.is_dir())
            .filter_map(|p| Some((p.metadata().ok()?.modified().ok()?, p)))
            .collect();
        states.sort_by_key(|s| std::cmp::Reverse(s.0));
        for (_, p) in states.into_iter().skip(KEEP_STATE_DIRS) {
            sys::remove_dir(&p)?;
        }
        Ok(())
    }
}

/// FNV-1a of the running executable: the cache's build key.
fn build_key() -> std::io::Result<String> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    Ok(format!("{:016x}", fnv1a(&exe)))
}

/// Samples population FQDNs at the first committed round.
struct PopulationSampler {
    seed: u64,
    out: Arc<Mutex<Vec<String>>>,
}

impl RoundSink for PopulationSampler {
    fn round_committed(&mut self, view: RoundView<'_>) {
        if view.rounds_done != 1 {
            return;
        }
        let mut names: Vec<String> = view
            .rs
            .world
            .population
            .plans
            .iter()
            .map(|p| p.subdomain.to_string())
            .collect();
        names.sort();
        names.dedup();
        SplitMix(self.seed).shuffle(&mut names);
        names.truncate(LOOKUPS);
        *self.out.lock().expect("sampler poisoned") = names;
    }
}

/// Record the reference study for `seed` into `entry` (the `prep` child
/// process). Writes into a sibling directory first and renames it into
/// place, so an interrupted prep never leaves a half entry behind.
pub fn prep(sizing: &Sizing, seed: u64, entry: &Path) -> Result<(), String> {
    let partial = entry.with_extension("partial");
    sys::remove_dir(&partial).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&partial).map_err(|e| e.to_string())?;

    let sampled = Arc::new(Mutex::new(Vec::new()));
    let sampler = PopulationSampler {
        seed,
        out: sampled.clone(),
    };
    let cfg = sizing.config(seed, nproc());
    let results = Scenario::new(cfg)
        .round_sink(Box::new(sampler))
        .run_persisted(&PersistOptions::new(partial.join("state")))
        .map_err(|e| format!("recording the reference study: {e}"))?;

    // Most sampled names never draw a verdict; mix in the hijacked ones so
    // the lookups exercise both outcomes.
    let mut fqdns: Vec<String> = results
        .world
        .truth
        .iter()
        .map(|t| t.victim_fqdn.to_string())
        .collect();
    fqdns.sort();
    fqdns.dedup();
    fqdns.truncate(LOOKUPS / 8);
    let population = std::mem::take(&mut *sampled.lock().expect("sampler poisoned"));
    for name in population {
        if fqdns.len() == LOOKUPS {
            break;
        }
        if !fqdns.contains(&name) {
            fqdns.push(name);
        }
    }
    SplitMix(seed ^ 0x5eed).shuffle(&mut fqdns);
    let write = |name: &str, text: String| {
        std::fs::write(partial.join(name), text).map_err(|e| format!("writing {name}: {e}"))
    };
    write("queries.txt", fqdns.join("\n") + "\n")?;
    write("digest", Digest::of(&results).render() + "\n")?;

    sys::remove_dir(entry).map_err(|e| e.to_string())?;
    std::fs::rename(&partial, entry).map_err(|e| format!("installing cache entry: {e}"))
}
