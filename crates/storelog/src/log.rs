//! The sharded log: a batching writer with round-boundary commits, and a
//! recovering reader that trusts only committed, checksum-valid data.
//!
//! ## Durability protocol
//!
//! A "round" (one monitoring week upstream) is the atomicity unit:
//!
//! 1. [`LogWriter::append`] buffers framed records per shard, in memory;
//! 2. [`LogWriter::commit`] writes every dirty shard buffer to its segment
//!    file and fsyncs it, *then* appends one commit frame — the new segment
//!    offsets plus an opaque application checkpoint — to `commits.log` and
//!    fsyncs that.
//!
//! The commit frame is the linearization point. A crash before it leaves
//! segment tails past the last commit's offsets; the reader never looks at
//! those bytes and `open_append` physically truncates them. A crash during
//! it leaves a torn commit frame that fails its checksum and is dropped.
//!
//! ## Commit selection on recovery
//!
//! [`LogReader::open`] picks the newest commit record that is (a) itself
//! checksum-valid and (b) consistent: every segment's checksum-valid prefix
//! must reach that commit's offsets. (b) matters when a segment file — not
//! just the commit log — lost its tail: the reader walks back to the newest
//! commit the surviving bytes can support, losing whole rounds from the end
//! and never a record from the middle.

use crate::frame;
use crate::{Error, Layout, Result};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// One commit record: the durable segment offsets at a round boundary plus
/// the application's opaque checkpoint payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Segment byte lengths (per shard) at the moment of this commit.
    pub offsets: Vec<u64>,
    /// Opaque application checkpoint (the upstream `RunState` summary).
    pub app: Vec<u8>,
}

impl CommitRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 * self.offsets.len() + self.app.len());
        out.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        for off in &self.offsets {
            out.extend_from_slice(&off.to_le_bytes());
        }
        out.extend_from_slice(&self.app);
        out
    }

    fn decode(bytes: &[u8]) -> Option<CommitRecord> {
        let n = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let app_start = 4 + 8 * n;
        let mut offsets = Vec::with_capacity(n);
        for i in 0..n {
            let at = 4 + 8 * i;
            offsets.push(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
        }
        Some(CommitRecord {
            offsets,
            app: bytes.get(app_start..)?.to_vec(),
        })
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append side of the log (see module docs for the durability protocol).
pub struct LogWriter {
    segments: Vec<File>,
    seg_lens: Vec<u64>,
    commits: File,
    /// Per-shard frames buffered for the current round.
    buffers: Vec<Vec<u8>>,
    pending_records: usize,
    // Telemetry handles, resolved once so the per-record path never takes
    // the registry lock. Out-of-band only: no effect on the on-disk format.
    m_append_bytes: &'static obs::Counter,
    m_appends: &'static obs::Counter,
    m_commits: &'static obs::Counter,
}

fn writer_metrics() -> (
    &'static obs::Counter,
    &'static obs::Counter,
    &'static obs::Counter,
) {
    (
        obs::counter("storelog.append_bytes"),
        obs::counter("storelog.appends"),
        obs::counter("storelog.commits"),
    )
}

impl LogWriter {
    /// Initialize a fresh state directory at the current [`FORMAT_VERSION`]
    /// (refuses to clobber an existing one — recovery and resumption go
    /// through [`LogWriter::open_append`]).
    pub fn create(dir: &Path, shards: usize, config: &[u8]) -> Result<LogWriter> {
        assert!(shards >= 1, "at least one shard");
        std::fs::create_dir_all(dir)?;
        let layout = Layout::new(dir);
        if layout.format_file().exists() {
            return Err(Error::Format(format!(
                "{} already holds a storelog state (resume it, or remove it first)",
                dir.display()
            )));
        }
        layout.write_format(shards)?;
        std::fs::write(layout.config_file(), config)?;
        let segments = (0..shards)
            .map(|i| {
                OpenOptions::new()
                    .create(true)
                    .write(true)
                    .truncate(true)
                    .open(layout.segment_file(i))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let commits = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(layout.commits_file())?;
        let (m_append_bytes, m_appends, m_commits) = writer_metrics();
        Ok(LogWriter {
            seg_lens: vec![0; shards],
            buffers: vec![Vec::new(); shards],
            segments,
            commits,
            pending_records: 0,
            m_append_bytes,
            m_appends,
            m_commits,
        })
    }

    /// Open an existing state directory for appending, recovering from any
    /// torn tail first: files are truncated back to the newest consistent
    /// commit (see [`LogReader`] for the selection rule). A dir in another
    /// format is refused untouched by [`LogReader::open`].
    pub fn open_append(dir: &Path) -> Result<LogWriter> {
        let reader = LogReader::open(dir)?;
        let layout = Layout::new(dir);
        let shards = reader.shard_count();
        let offsets = match reader.last_commit() {
            Some(c) => c.offsets.clone(),
            None => vec![0; shards],
        };
        let commits_end = reader.durable_commits_len;

        let mut segments = Vec::with_capacity(shards);
        for (i, &off) in offsets.iter().enumerate() {
            let f = OpenOptions::new()
                .create(true)
                .truncate(false) // set_len below truncates to the commit point
                .write(true)
                .open(layout.segment_file(i))?;
            f.set_len(off)?;
            segments.push(f);
        }
        let commits = OpenOptions::new()
            .create(true)
            .truncate(false) // set_len below truncates to the commit point
            .write(true)
            .open(layout.commits_file())?;
        commits.set_len(commits_end)?;

        let (m_append_bytes, m_appends, m_commits) = writer_metrics();
        Ok(LogWriter {
            seg_lens: offsets,
            buffers: vec![Vec::new(); shards],
            segments,
            commits,
            pending_records: 0,
            m_append_bytes,
            m_appends,
            m_commits,
        })
    }

    pub fn shard_count(&self) -> usize {
        self.segments.len()
    }

    /// Records buffered since the last commit.
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Buffer one record for `shard`. Nothing touches disk until
    /// [`LogWriter::commit`].
    pub fn append(&mut self, shard: usize, payload: &[u8]) {
        let before = self.buffers[shard].len();
        frame::encode_into(payload, &mut self.buffers[shard]);
        self.m_append_bytes
            .add((self.buffers[shard].len() - before) as u64);
        self.m_appends.inc();
        self.pending_records += 1;
    }

    /// Make the buffered round durable: flush + fsync dirty segments, then
    /// append + fsync one commit frame carrying `app` (the application
    /// checkpoint). This is the only fsync point — one round, one commit.
    pub fn commit(&mut self, app: &[u8]) -> Result<()> {
        use std::io::Seek;
        let _s = obs::span("storelog.commit", "storelog").record_into("storelog.commit_ns");
        self.m_commits.inc();
        let fsync_ns = obs::histogram("storelog.fsync_ns");
        for (i, buf) in self.buffers.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            // Position explicitly: `open_append` may have truncated below a
            // previous write position, and O_APPEND is deliberately avoided
            // so truncation + reuse stays well-defined.
            self.segments[i].seek(std::io::SeekFrom::Start(self.seg_lens[i]))?;
            self.segments[i].write_all(buf)?;
            let t = std::time::Instant::now();
            self.segments[i].sync_data()?;
            fsync_ns.record(t.elapsed().as_nanos() as u64);
            self.seg_lens[i] += buf.len() as u64;
            buf.clear();
        }
        let rec = CommitRecord {
            offsets: self.seg_lens.clone(),
            app: app.to_vec(),
        };
        let mut framed = Vec::new();
        frame::encode_into(&rec.encode(), &mut framed);
        self.commits.seek(std::io::SeekFrom::End(0))?;
        self.commits.write_all(&framed)?;
        let t = std::time::Instant::now();
        self.commits.sync_data()?;
        fsync_ns.record(t.elapsed().as_nanos() as u64);
        self.pending_records = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Read side of the log. Opening performs full recovery analysis; all reads
/// are then served from the committed region only.
pub struct LogReader {
    layout: Layout,
    shards: usize,
    config: Vec<u8>,
    /// Commits up to and including the selected durable one.
    commits: Vec<CommitRecord>,
    /// Byte length of `commits.log` at the end of the selected commit.
    durable_commits_len: u64,
    /// Bytes discarded across all files by recovery (torn tails + commits
    /// that outran their segments).
    torn_bytes: u64,
}

fn read_or_empty(p: &Path) -> Result<Vec<u8>> {
    match std::fs::read(p) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// Checksum-scan every segment's valid prefix, fanning shards across up to
/// `threads` OS threads. The crate is deliberately std-only, so this uses
/// `std::thread::scope` rather than an executor; results come back in shard
/// order regardless of scheduling, keeping recovery deterministic.
fn scan_segments(layout: &Layout, shards: usize, threads: usize) -> Result<Vec<u64>> {
    let scan_one = |i: usize| -> Result<u64> {
        Ok(frame::valid_len(&read_or_empty(&layout.segment_file(i))?, 0).0)
    };
    let workers = threads.min(shards).max(1);
    if workers <= 1 {
        return (0..shards).map(scan_one).collect();
    }
    let parts: Vec<Vec<(usize, Result<u64>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let scan_one = &scan_one;
                s.spawn(move || {
                    (w..shards)
                        .step_by(workers)
                        .map(|i| (i, scan_one(i)))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = vec![0u64; shards];
    for part in parts {
        for (i, r) in part {
            out[i] = r?;
        }
    }
    Ok(out)
}

impl LogReader {
    /// Open a state dir for reading. FORMAT is read first, and a dir in any
    /// version but [`FORMAT_VERSION`] is refused before anything else is
    /// read; opening never writes.
    pub fn open(dir: &Path) -> Result<LogReader> {
        Self::open_with_threads(dir, 1)
    }

    /// [`LogReader::open`] with the recovery checksum scan parallelized
    /// across up to `threads` threads (one unit of work per shard). The
    /// result is identical for any thread count; only open latency changes.
    pub fn open_with_threads(dir: &Path, threads: usize) -> Result<LogReader> {
        let layout = Layout::new(dir);
        let shards = layout.read_format()?;
        let config = std::fs::read(layout.config_file())?;

        let seg_valid = scan_segments(&layout, shards, threads)?;
        let commit_bytes = read_or_empty(&layout.commits_file())?;
        let commit_scan = frame::scan(&commit_bytes, 0);
        let mut torn_bytes = commit_scan.torn_bytes;

        // Newest commit whose offsets the surviving segment bytes support.
        let mut commits: Vec<(u64, CommitRecord)> = Vec::new();
        for f in &commit_scan.frames {
            let Some(rec) = CommitRecord::decode(&f.payload) else {
                break; // structurally bad commit: nothing after it is trusted
            };
            if rec.offsets.len() != shards {
                break;
            }
            commits.push((f.end, rec));
        }
        let chosen = commits
            .iter()
            .rposition(|(_, rec)| rec.offsets.iter().zip(&seg_valid).all(|(o, v)| o <= v));

        let (durable_commits_len, keep) = match chosen {
            Some(i) => (commits[i].0, i + 1),
            None => (0, 0),
        };
        torn_bytes += commit_bytes.len() as u64 - durable_commits_len;
        // Segment bytes past the durable offsets are torn too.
        if let Some((_, last)) = chosen.map(|i| &commits[i]) {
            for (i, &off) in last.offsets.iter().enumerate() {
                let disk = std::fs::metadata(layout.segment_file(i))
                    .map(|m| m.len())
                    .unwrap_or(0);
                torn_bytes += disk.saturating_sub(off);
            }
        }
        commits.truncate(keep);

        obs::counter("storelog.recoveries").inc();
        if torn_bytes > 0 {
            obs::counter("storelog.torn_recoveries").inc();
            obs::counter("storelog.torn_bytes").add(torn_bytes);
            obs::warn!(
                "storelog: recovery discarded {torn_bytes} torn byte(s) in {}; \
                 resuming from the newest consistent commit",
                dir.display()
            );
        }

        Ok(LogReader {
            layout,
            shards,
            config,
            commits: commits.into_iter().map(|(_, r)| r).collect(),
            durable_commits_len,
            torn_bytes,
        })
    }

    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The opaque application config written at creation.
    pub fn config(&self) -> &[u8] {
        &self.config
    }

    /// All usable commits, oldest first.
    pub fn commits(&self) -> &[CommitRecord] {
        &self.commits
    }

    /// The newest consistent commit — the resume point. `None` means the log
    /// never completed a round.
    pub fn last_commit(&self) -> Option<&CommitRecord> {
        self.commits.last()
    }

    /// Bytes recovery had to discard (0 on a cleanly shut-down log).
    pub fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }

    /// All committed record payloads of one shard, in append order.
    pub fn read_shard(&self, shard: usize) -> Result<Vec<Vec<u8>>> {
        let limit = match self.last_commit() {
            Some(c) => c.offsets[shard],
            None => return Ok(Vec::new()),
        };
        let bytes = std::fs::read(self.layout.segment_file(shard))?;
        let scan = frame::scan(&bytes[..limit.min(bytes.len() as u64) as usize], 0);
        debug_assert_eq!(scan.valid_len, limit, "committed region must be valid");
        Ok(scan.into_payloads())
    }

    /// One shard's committed region as a stream: the segment's committed
    /// bytes are read once, and [`ShardStream::iter`] walks borrowed payload
    /// slices out of them — no per-record allocation, for consumers (replay
    /// decoding) that visit each payload exactly once.
    pub fn stream_shard(&self, shard: usize) -> Result<ShardStream> {
        let limit = match self.last_commit() {
            Some(c) => c.offsets[shard],
            None => 0,
        };
        let mut bytes = if limit == 0 {
            Vec::new()
        } else {
            std::fs::read(self.layout.segment_file(shard))?
        };
        bytes.truncate(limit as usize);
        Ok(ShardStream { bytes })
    }
}

/// Owned committed bytes of one shard segment; iterate payloads with
/// [`ShardStream::iter`], or keep an offset across calls with
/// [`ShardStream::next_at`]. See [`LogReader::stream_shard`].
pub struct ShardStream {
    bytes: Vec<u8>,
}

impl ShardStream {
    pub fn iter(&self) -> frame::PayloadIter<'_> {
        frame::payloads(&self.bytes, 0)
    }

    /// The payload of the frame starting at `*offset`, advancing `offset`
    /// past it; `None` at the end of the committed bytes. The owned-cursor
    /// form of [`ShardStream::iter`], for a consumer that keeps its
    /// position alongside the stream (resume replay pulls one round at a
    /// time).
    pub fn next_at(&self, offset: &mut u64) -> Option<&[u8]> {
        let mut it = frame::payloads(&self.bytes, *offset);
        let payload = it.next()?;
        *offset = it.offset();
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn record(shard: usize, round: usize, i: usize) -> Vec<u8> {
        format!("s{shard}/r{round}/i{i}").into_bytes()
    }

    /// Write `rounds` rounds of `per_shard` records over `shards` shards.
    fn write_rounds(dir: &Path, shards: usize, rounds: usize, per_shard: usize) {
        let mut w = LogWriter::create(dir, shards, b"{\"cfg\":1}").unwrap();
        for r in 0..rounds {
            for s in 0..shards {
                for i in 0..per_shard {
                    w.append(s, &record(s, r, i));
                }
            }
            w.commit(format!("round-{r}").as_bytes()).unwrap();
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let t = TempDir::new("roundtrip");
        write_rounds(&t.0, 3, 4, 2);
        let r = LogReader::open(&t.0).unwrap();
        assert_eq!(r.shard_count(), 3);
        assert_eq!(r.config(), b"{\"cfg\":1}");
        assert_eq!(r.commits().len(), 4);
        assert_eq!(r.last_commit().unwrap().app, b"round-3");
        assert_eq!(r.torn_bytes(), 0);
        for s in 0..3 {
            let recs = r.read_shard(s).unwrap();
            assert_eq!(recs.len(), 8);
            assert_eq!(recs[0], record(s, 0, 0));
            assert_eq!(recs[7], record(s, 3, 1));
        }
    }

    #[test]
    fn create_refuses_to_clobber() {
        let t = TempDir::new("clobber");
        write_rounds(&t.0, 2, 1, 1);
        assert!(matches!(
            LogWriter::create(&t.0, 2, b"x"),
            Err(Error::Format(_))
        ));
    }

    #[test]
    fn uncommitted_round_is_invisible() {
        let t = TempDir::new("uncommitted");
        let mut w = LogWriter::create(&t.0, 2, b"c").unwrap();
        w.append(0, b"committed");
        w.commit(b"r0").unwrap();
        w.append(0, b"buffered-only"); // never committed
        assert_eq!(w.pending_records(), 1);
        drop(w);
        let r = LogReader::open(&t.0).unwrap();
        assert_eq!(r.read_shard(0).unwrap(), vec![b"committed".to_vec()]);
    }

    #[test]
    fn torn_segment_tail_falls_back_one_round() {
        let t = TempDir::new("torn_seg");
        write_rounds(&t.0, 2, 3, 2);
        // Tear the last round: chop shard 1 mid-record.
        let seg = Layout::new(&t.0).segment_file(1);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let r = LogReader::open(&t.0).unwrap();
        // The newest commit outruns shard 1's surviving bytes → round 2 lost.
        assert_eq!(r.commits().len(), 2);
        assert_eq!(r.last_commit().unwrap().app, b"round-1");
        assert!(r.torn_bytes() > 0);
        assert_eq!(r.read_shard(0).unwrap().len(), 4);
        assert_eq!(r.read_shard(1).unwrap().len(), 4);
    }

    #[test]
    fn torn_commit_log_falls_back_one_round() {
        let t = TempDir::new("torn_commit");
        write_rounds(&t.0, 2, 3, 1);
        let commits = Layout::new(&t.0).commits_file();
        let len = std::fs::metadata(&commits).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&commits)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let r = LogReader::open(&t.0).unwrap();
        assert_eq!(r.last_commit().unwrap().app, b"round-1");
        // Data of round 2 is on disk but uncommitted, hence invisible.
        assert_eq!(r.read_shard(0).unwrap().len(), 2);
    }

    #[test]
    fn open_append_truncates_and_continues() {
        let t = TempDir::new("append_recover");
        write_rounds(&t.0, 2, 3, 2);
        // Tear both the last commit and a segment tail.
        let seg = Layout::new(&t.0).segment_file(0);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 1)
            .unwrap();

        let mut w = LogWriter::open_append(&t.0).unwrap();
        w.append(0, b"resumed");
        w.commit(b"round-2b").unwrap();
        drop(w);

        let r = LogReader::open(&t.0).unwrap();
        assert_eq!(r.torn_bytes(), 0, "recovery healed the files");
        assert_eq!(r.last_commit().unwrap().app, b"round-2b");
        let recs = r.read_shard(0).unwrap();
        // Rounds 0,1 survive (4 records), round 2 was torn, then the resumed
        // round appended one more.
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[4], b"resumed".to_vec());
    }

    #[test]
    fn create_writes_the_current_format() {
        let t = TempDir::new("current");
        LogWriter::create(&t.0, 2, b"cfg").unwrap();
        assert_eq!(
            std::fs::read_to_string(Layout::new(&t.0).format_file()).unwrap(),
            format!("storelog {}\nshards 2\n", crate::FORMAT_VERSION)
        );
        assert_eq!(LogReader::open(&t.0).unwrap().shard_count(), 2);
    }

    #[test]
    fn open_append_refuses_a_v1_dir_untouched() {
        let t = TempDir::new("v1_append");
        write_rounds(&t.0, 2, 2, 1);
        let layout = Layout::new(&t.0);
        std::fs::write(layout.format_file(), "storelog 1\nshards 2\n").unwrap();
        let seg = std::fs::read(layout.segment_file(0)).unwrap();
        let commits = std::fs::read(layout.commits_file()).unwrap();
        // Neither read nor appended to, and not truncated by the attempts.
        match LogReader::open(&t.0) {
            Err(Error::Format(m)) => assert!(m.contains("MIGRATIONS.md"), "{m}"),
            Err(e) => panic!("expected a format error, got {e}"),
            Ok(_) => panic!("LogReader::open on a v1 dir must be refused"),
        }
        match LogWriter::open_append(&t.0) {
            Err(Error::Format(m)) => assert!(m.contains("MIGRATIONS.md"), "{m}"),
            Err(e) => panic!("expected a format error, got {e}"),
            Ok(_) => panic!("open_append on a v1 dir must be refused"),
        }
        assert_eq!(std::fs::read(layout.segment_file(0)).unwrap(), seg);
        assert_eq!(std::fs::read(layout.commits_file()).unwrap(), commits);
    }

    #[test]
    fn parallel_open_matches_serial_open() {
        let t = TempDir::new("par_open");
        write_rounds(&t.0, 5, 4, 3);
        // Tear one segment so recovery analysis has real work to agree on.
        let seg = Layout::new(&t.0).segment_file(3);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 2)
            .unwrap();
        let serial = LogReader::open(&t.0).unwrap();
        for threads in [2, 4, 8] {
            let par = LogReader::open_with_threads(&t.0, threads).unwrap();
            assert_eq!(par.commits(), serial.commits());
            assert_eq!(par.torn_bytes(), serial.torn_bytes());
            for s in 0..5 {
                assert_eq!(par.read_shard(s).unwrap(), serial.read_shard(s).unwrap());
            }
        }
    }

    #[test]
    fn next_at_walks_the_same_payloads_as_iter() {
        let t = TempDir::new("next_at");
        write_rounds(&t.0, 2, 3, 2);
        let r = LogReader::open(&t.0).unwrap();
        let stream = r.stream_shard(1).unwrap();
        let mut offset = 0;
        let mut walked = Vec::new();
        while let Some(p) = stream.next_at(&mut offset) {
            walked.push(p.to_vec());
        }
        assert_eq!(walked, r.read_shard(1).unwrap());
        assert_eq!(offset, r.last_commit().unwrap().offsets[1]);
        assert!(stream.next_at(&mut offset).is_none(), "stays exhausted");
    }

    #[test]
    fn empty_log_resumes_from_nothing() {
        let t = TempDir::new("empty");
        LogWriter::create(&t.0, 4, b"cfg").unwrap();
        let r = LogReader::open(&t.0).unwrap();
        assert!(r.last_commit().is_none());
        assert_eq!(r.read_shard(2).unwrap().len(), 0);
        let mut w = LogWriter::open_append(&t.0).unwrap();
        w.append(2, b"first");
        w.commit(b"r0").unwrap();
        assert_eq!(
            LogReader::open(&t.0).unwrap().read_shard(2).unwrap(),
            vec![b"first".to_vec()]
        );
    }
}
