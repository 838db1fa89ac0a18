//! # storelog — append-only sharded snapshot persistence
//!
//! The durability substrate for resumable multi-year monitoring runs. The
//! paper's measurement ran for three years of wall clock; a reproduction that
//! must finish in one process lifetime cannot grow past toy scale. This crate
//! turns the monitoring pipeline's observations into an on-disk, append-only,
//! checksummed record log that survives crashes and lets a half-finished
//! study continue exactly where it stopped.
//!
//! ## Layout of a state directory
//!
//! ```text
//! state-dir/
//!   FORMAT          "storelog <version>\nshards <n>\n"  (refused on mismatch)
//!   config.json     opaque application config, written once at creation
//!   commits.log     framed commit records: per-shard durable offsets + an
//!                   opaque application checkpoint payload
//!   shard-000.seg   framed data records for shard 0
//!   shard-001.seg   ...
//! ```
//!
//! Data records are partitioned into one segment file per
//! [`SnapshotStore`](https://docs/snapshot) shard — the same stable FNV-1a
//! partition the parallel crawl uses — so a future parallel replayer can
//! stream shards independently, and compaction touches each shard in
//! isolation.
//!
//! ## Frames, commits, and the torn tail
//!
//! Every record (data and commit alike) is a length-prefixed, FNV-64
//! checksummed frame (see [`frame`]). Writers buffer a whole round in memory
//! and make it durable at the round boundary: segment bytes are written and
//! fsynced first, then a commit frame recording the resulting segment
//! offsets is appended to `commits.log` and fsynced. A crash at *any* point
//! therefore loses at most the round in flight:
//!
//! - torn bytes past the last commit's offsets are invisible (the reader
//!   never looks past the committed offsets),
//! - a torn commit frame fails its checksum and is dropped, falling back to
//!   the previous commit,
//! - a commit whose offsets point past the valid prefix of a segment (the
//!   segment itself was truncated) is rejected the same way.
//!
//! [`LogWriter::open_append`] physically truncates all files back to the
//! recovered commit before appending, so recovery is also self-healing.
//!
//! ## Compaction
//!
//! Most weekly observations are "no change" records that only matter until a
//! newer observation of the same key exists. [`compact_with`] hands each
//! shard's committed payloads to the application, which returns the
//! survivors re-encoded; the segments and a fresh single-entry commit log
//! are then swapped in crash-safely. See [`compact_with`] for the contract.
//!
//! The application-facing record payloads are opaque bytes; the crate that
//! owns the schema (`dangling-core`) decides what goes inside them. This
//! keeps `storelog` std-only and its format frozen: [`FORMAT_VERSION`] must
//! only change together with a migration note in `MIGRATIONS.md` (CI
//! enforces this).

pub mod codec;
mod compact;
pub mod frame;
pub mod intern;
mod log;

pub use compact::{compact_with, CompactStats};
pub use log::{CommitRecord, LogReader, LogWriter, ShardStream};

use std::path::{Path, PathBuf};

/// The on-disk format version, the only one this build reads or writes.
/// Bump ONLY with a migration note in `crates/storelog/MIGRATIONS.md` — CI
/// fails the build otherwise.
///
/// v2 changed the *record payload* encoding (binary interned/delta records,
/// see MIGRATIONS.md). A dir in any other version, the retired v1 included,
/// is refused by [`LogReader::open`] before anything else is read, so every
/// caller refuses it untouched through that one check.
pub const FORMAT_VERSION: u32 = 2;

/// Everything that can go wrong opening, reading or writing a state dir.
#[derive(Debug)]
pub enum Error {
    Io(std::io::Error),
    /// Structural problem: bad magic, unsupported version, malformed FORMAT.
    Format(String),
    /// The directory does not contain a storelog state.
    NoState(PathBuf),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "storelog I/O error: {e}"),
            Error::Format(m) => write!(f, "storelog format error: {m}"),
            Error::NoState(p) => write!(f, "no storelog state in {}", p.display()),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Path helpers for one state directory.
pub(crate) struct Layout {
    pub root: PathBuf,
}

impl Layout {
    pub fn new(root: &Path) -> Self {
        Layout {
            root: root.to_path_buf(),
        }
    }

    pub fn format_file(&self) -> PathBuf {
        self.root.join("FORMAT")
    }

    pub fn config_file(&self) -> PathBuf {
        self.root.join("config.json")
    }

    pub fn commits_file(&self) -> PathBuf {
        self.root.join("commits.log")
    }

    pub fn segment_file(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard:03}.seg"))
    }

    /// Write the FORMAT marker (current version + shard count).
    pub fn write_format(&self, shards: usize) -> Result<()> {
        std::fs::write(
            self.format_file(),
            format!("storelog {FORMAT_VERSION}\nshards {shards}\n"),
        )?;
        Ok(())
    }

    /// Parse the FORMAT marker, returning the shard count. The one version
    /// gate: a dir in any format but [`FORMAT_VERSION`] is refused here.
    pub fn read_format(&self) -> Result<usize> {
        let path = self.format_file();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(Error::NoState(self.root.clone()))
            }
            Err(e) => return Err(e.into()),
        };
        let mut version = None;
        let mut shards = None;
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("storelog ") {
                version = v.trim().parse::<u32>().ok();
            } else if let Some(s) = line.strip_prefix("shards ") {
                shards = s.trim().parse::<usize>().ok();
            }
        }
        match (version, shards) {
            (Some(v), _) if v != FORMAT_VERSION => Err(Error::Format(format!(
                "state dir {} is format v{v}; this build reads only \
                 v{FORMAT_VERSION} (see crates/storelog/MIGRATIONS.md)",
                self.root.display()
            ))),
            (Some(_), Some(s)) if s >= 1 => Ok(s),
            _ => Err(Error::Format(format!(
                "malformed FORMAT file in {}",
                self.root.display()
            ))),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A fresh scratch directory under the system temp dir; removed on drop.
    pub struct TempDir(pub PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> Self {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("storelog_test_{tag}_{}_{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::TempDir;

    #[test]
    fn format_roundtrip_and_version_gate() {
        let t = TempDir::new("format");
        let layout = Layout::new(&t.0);
        layout.write_format(16).unwrap();
        assert_eq!(layout.read_format().unwrap(), 16);

        // The retired v1 is refused exactly like an unknown future version:
        // one message, naming the dir's version and pointing at
        // MIGRATIONS.md.
        for v in [1, 999] {
            std::fs::write(layout.format_file(), format!("storelog {v}\nshards 4\n")).unwrap();
            let err = layout.read_format().unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, Error::Format(_)), "{msg}");
            assert!(msg.contains(&format!("format v{v};")), "{msg}");
            assert!(msg.contains("reads only v2"), "{msg}");
            assert!(msg.contains("MIGRATIONS.md"), "{msg}");
        }
    }

    #[test]
    fn missing_state_is_distinguishable() {
        let t = TempDir::new("nostate");
        let layout = Layout::new(&t.0);
        assert!(matches!(layout.read_format(), Err(Error::NoState(_))));
    }
}
