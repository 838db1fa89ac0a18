//! Compaction: drop records that a newer record of the same key supersedes.
//!
//! The monitoring pipeline writes one observation per (FQDN, round); the
//! overwhelming majority are "nothing changed" records whose only long-term
//! job is to be the latest-known state of their FQDN. Once a newer
//! observation of the same FQDN is durable, the older unchanged record is
//! dead weight. [`compact_with`] hands each shard's committed payloads to
//! the application, which decides what survives (upstream: every change
//! record plus the last record per FQDN) and re-encodes the survivors —
//! v2 payloads are interned/delta-coded against their stream, so they
//! cannot be dropped byte-verbatim.
//!
//! The pass is crash-safe: new segments and a fresh single-entry commit log
//! (carrying the previous head checkpoint) are written to `*.tmp` files,
//! fsynced, then renamed over the originals — a crash mid-compaction leaves
//! either the old state or the new one, never a mix of live files.

use crate::log::{CommitRecord, LogReader};
use crate::{frame, Error, Layout, Result};
use std::io::Write;
use std::path::Path;

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    pub records_before: usize,
    pub records_after: usize,
    pub bytes_before: u64,
    pub bytes_after: u64,
}

/// Shard-batch rewrite of the committed region of `dir`: `plan` receives
/// every committed payload of one shard in append order and returns the
/// replacement payload list (also in append order), or a format-error
/// message. A v2 interned/delta stream is decoded, filtered, and re-encoded
/// against a fresh table by the application-side `plan`. Uncommitted tails
/// are discarded (they were already invisible); a log that never committed
/// is a no-op, and a dir in another format is refused untouched by
/// [`LogReader::open`].
///
/// Crash safety: tmp files, fsync, segments-then-commit renames, directory
/// sync (see the module docs).
pub fn compact_with(
    dir: &Path,
    mut plan: impl FnMut(usize, Vec<Vec<u8>>) -> std::result::Result<Vec<Vec<u8>>, String>,
) -> Result<CompactStats> {
    let reader = LogReader::open(dir)?;
    let layout = Layout::new(dir);
    let shards = reader.shard_count();
    let Some(head) = reader.last_commit().cloned() else {
        return Ok(CompactStats {
            records_before: 0,
            records_after: 0,
            bytes_before: 0,
            bytes_after: 0,
        });
    };

    let mut stats = CompactStats {
        records_before: 0,
        records_after: 0,
        bytes_before: 0,
        bytes_after: 0,
    };
    let mut new_offsets = Vec::with_capacity(shards);
    let mut tmp_paths = Vec::with_capacity(shards + 1);

    for shard in 0..shards {
        let records = reader.read_shard(shard)?;
        stats.records_before += records.len();
        stats.bytes_before += head.offsets[shard];

        let survivors = plan(shard, records).map_err(Error::Format)?;
        let mut out = Vec::new();
        for rec in &survivors {
            frame::encode_into(rec, &mut out);
        }
        stats.records_after += survivors.len();
        stats.bytes_after += out.len() as u64;
        new_offsets.push(out.len() as u64);

        let tmp = layout.segment_file(shard).with_extension("seg.tmp");
        write_fsync(&tmp, &out)?;
        tmp_paths.push((tmp, layout.segment_file(shard)));
    }

    // Fresh single-entry commit log carrying the head checkpoint forward.
    let rebased = CommitRecord {
        offsets: new_offsets,
        app: head.app.clone(),
    };
    let mut commit_bytes = Vec::new();
    frame::encode_into(&rebased.encode(), &mut commit_bytes);
    let commits_tmp = layout.commits_file().with_extension("log.tmp");
    write_fsync(&commits_tmp, &commit_bytes)?;
    tmp_paths.push((commits_tmp, layout.commits_file()));

    // Publish. Renames are atomic per file; if a crash interleaves them the
    // next open still finds a consistent pair (old segments are supersets of
    // new ones at identical prefixes is NOT guaranteed, so order matters:
    // segments first, commit log last — a new commit log only ever points
    // into fully-renamed new segments, while the old commit log pointing at
    // a new (shorter) segment merely falls back to an older commit).
    for (tmp, live) in tmp_paths {
        std::fs::rename(tmp, live)?;
    }
    sync_dir(dir)?;
    Ok(stats)
}

fn write_fsync(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    Ok(())
}

fn sync_dir(dir: &Path) -> Result<()> {
    // Durability of the renames themselves. Directory fsync is
    // platform-dependent; failure to open the dir is not fatal.
    match std::fs::File::open(dir) {
        Ok(d) => {
            d.sync_all().map_err(Error::Io)?;
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogWriter;
    use crate::testutil::TempDir;

    /// The pipeline's retention rule in miniature, over payloads `key:kind`:
    /// kind `c` (a change record) is always kept, kind `u` (unchanged) only
    /// as the last record of its key.
    fn supersede(
        _shard: usize,
        records: Vec<Vec<u8>>,
    ) -> std::result::Result<Vec<Vec<u8>>, String> {
        let split = |p: &[u8]| {
            let (key, kind) = std::str::from_utf8(p).unwrap().split_once(':').unwrap();
            (key.to_string(), kind == "c")
        };
        let mut last_of = std::collections::HashMap::new();
        for (i, rec) in records.iter().enumerate() {
            if let (key, false) = split(rec) {
                last_of.insert(key, i);
            }
        }
        Ok(records
            .iter()
            .enumerate()
            .filter(|&(i, rec)| {
                let (key, change) = split(rec);
                change || last_of[&key] == i
            })
            .map(|(_, rec)| rec.clone())
            .collect())
    }

    #[test]
    fn drops_superseded_keeps_changes_and_latest() {
        let t = TempDir::new("compact");
        let mut w = LogWriter::create(&t.0, 2, b"cfg").unwrap();
        // Shard 0: a:u, a:c, a:u, a:u  → keep a:c and the final a:u.
        for (r, p) in ["a:u", "a:c", "a:u", "a:u"].iter().enumerate() {
            w.append(0, p.as_bytes());
            // Shard 1: b:u every round → only the last survives.
            w.append(1, b"b:u");
            w.commit(format!("round-{r}").as_bytes()).unwrap();
        }
        drop(w);

        let stats = compact_with(&t.0, supersede).unwrap();
        assert_eq!(stats.records_before, 8);
        assert_eq!(stats.records_after, 3);
        assert!(stats.bytes_after < stats.bytes_before);

        let r = LogReader::open(&t.0).unwrap();
        assert_eq!(r.torn_bytes(), 0);
        assert_eq!(r.commits().len(), 1, "single rebased commit");
        assert_eq!(
            r.last_commit().unwrap().app,
            b"round-3",
            "checkpoint carried"
        );
        assert_eq!(
            r.read_shard(0).unwrap(),
            vec![b"a:c".to_vec(), b"a:u".to_vec()]
        );
        assert_eq!(r.read_shard(1).unwrap(), vec![b"b:u".to_vec()]);
    }

    #[test]
    fn compacted_log_accepts_further_appends() {
        let t = TempDir::new("compact_append");
        let mut w = LogWriter::create(&t.0, 1, b"cfg").unwrap();
        for r in 0..3 {
            w.append(0, b"x:u");
            w.commit(format!("r{r}").as_bytes()).unwrap();
        }
        drop(w);
        compact_with(&t.0, supersede).unwrap();

        let mut w = LogWriter::open_append(&t.0).unwrap();
        w.append(0, b"x:c");
        w.commit(b"r3").unwrap();
        drop(w);

        let r = LogReader::open(&t.0).unwrap();
        assert_eq!(
            r.read_shard(0).unwrap(),
            vec![b"x:u".to_vec(), b"x:c".to_vec()]
        );
        assert_eq!(r.last_commit().unwrap().app, b"r3");
    }

    #[test]
    fn compact_with_can_transcode_payloads() {
        let t = TempDir::new("compact_with");
        let mut w = LogWriter::create(&t.0, 2, b"cfg").unwrap();
        for r in 0..3 {
            w.append(0, format!("rec{r}").as_bytes());
            w.append(1, format!("other{r}").as_bytes());
            w.commit(format!("r{r}").as_bytes()).unwrap();
        }
        drop(w);

        // Drop the first record of each shard and rewrite the rest —
        // payload bytes change, as a re-encoding plan's do.
        let stats = compact_with(&t.0, |shard, records| {
            Ok(records
                .into_iter()
                .skip(1)
                .map(|r| {
                    let mut v = format!("s{shard}:").into_bytes();
                    v.extend_from_slice(&r);
                    v
                })
                .collect())
        })
        .unwrap();
        assert_eq!(stats.records_before, 6);
        assert_eq!(stats.records_after, 4);

        let r = LogReader::open(&t.0).unwrap();
        assert_eq!(r.last_commit().unwrap().app, b"r2", "checkpoint carried");
        assert_eq!(
            r.read_shard(0).unwrap(),
            vec![b"s0:rec1".to_vec(), b"s0:rec2".to_vec()]
        );

        // A plan error aborts without touching the live files.
        assert!(compact_with(&t.0, |_, _| Err("boom".into())).is_err());
        let r = LogReader::open(&t.0).unwrap();
        assert_eq!(r.read_shard(0).unwrap().len(), 2);
    }

    #[test]
    fn v1_dir_is_refused_untouched() {
        let t = TempDir::new("compact_v1");
        let mut w = LogWriter::create(&t.0, 1, b"cfg").unwrap();
        for r in 0..2 {
            w.append(0, b"x:u");
            w.commit(format!("r{r}").as_bytes()).unwrap();
        }
        drop(w);
        let layout = Layout::new(&t.0);
        std::fs::write(layout.format_file(), "storelog 1\nshards 1\n").unwrap();
        let seg = std::fs::read(layout.segment_file(0)).unwrap();
        let commits = std::fs::read(layout.commits_file()).unwrap();
        for err in [
            compact_with(&t.0, supersede).err(),
            LogReader::open(&t.0).err(),
        ] {
            match err {
                Some(Error::Format(m)) => assert!(m.contains("MIGRATIONS.md"), "{m}"),
                other => panic!("expected a format error, got {other:?}"),
            }
        }
        assert_eq!(std::fs::read(layout.segment_file(0)).unwrap(), seg);
        assert_eq!(std::fs::read(layout.commits_file()).unwrap(), commits);
    }

    #[test]
    fn empty_log_compacts_to_noop() {
        let t = TempDir::new("compact_empty");
        LogWriter::create(&t.0, 2, b"cfg").unwrap();
        let stats = compact_with(&t.0, supersede).unwrap();
        assert_eq!(stats.records_before, 0);
        assert!(LogReader::open(&t.0).unwrap().last_commit().is_none());
    }
}
