//! Persistence stage: append-only observation logging and checkpoint/resume.
//!
//! Sits after the crawl in the weekly pipeline. During a live round it
//! serializes the round the crawl committed — for each monitored FQDN in
//! canonical order, its new snapshot from the store and, when it changed,
//! the `before` half of its record from the round's suffix of the change
//! log — into the state directory's [`storelog`] (one segment per
//! [`SnapshotStore`] shard, same partition as the parallel crawl), then
//! seals the round with a fsynced commit carrying a [`Checkpoint`]. A crash
//! at any point loses at most the round in flight.
//!
//! ## Resume = deterministic replay
//!
//! The simulation is fully deterministic from its seed: world events,
//! attacker campaigns and certificate history replay for free. The only
//! expensive stage is the weekly crawl — so a resumed run re-executes the
//! world from t=0 but **substitutes the logged crawl outcomes** for every
//! round up to the recovered frontier, skipping the crawl entirely. Past the
//! frontier it crawls and records again as if never interrupted. The final
//! [`crate::report::StudyResults`] is therefore byte-identical to an
//! uninterrupted run, at any thread count (`resume_equivalence` enforces
//! this).
//!
//! Replay streams the log: one cursor per shard decodes records only as
//! their round comes up, so a resume holds one round plus one look-ahead
//! record per shard, never the whole history. The dir is opened for
//! appending only at the frontier, once replay has reproduced it.
//!
//! Replay is validated, not trusted: every checkpoint records aggregate
//! counters and a digest of the world stage's RNG stream positions
//! ([`RunState::rng_witness`]); at the frontier the resumed run must
//! reproduce all of them exactly or resume aborts with
//! [`PersistError::Diverged`].
//!
//! Replayed rounds are committed by the diff stage (as [`CrawlOutcome`]s in
//! [`RunState::crawl_batch`]) where live ones are committed by the crawl,
//! and both then feed the retro fold every round when `--incremental` is on:
//! recorded segments stream straight into signature derivation without
//! re-running the crawl (the `intern_equivalence` suite asserts a
//! full-history replay records no crawl telemetry).
//!
//! ## Compaction
//!
//! Unchanged-snapshot records only matter until a newer observation of the
//! same FQDN is durable; [`compact_state_dir`] drops the superseded ones
//! (change records are always kept). Replay tolerates the thinned history
//! because nothing downstream reads intermediate store states during
//! replayed rounds: the change log replays from the kept change records and
//! the final store state from the kept last-per-FQDN records.
//!
//! ## One payload format
//!
//! Records are written, replayed, appended to and compacted only in the
//! binary format ([`OBS_FORMAT`], [`super::obs_codec`]). A state dir in any
//! other format, the retired v1 JSON payloads included, is refused untouched
//! by storelog's one version gate in [`LogReader::open`], which both
//! [`PersistStage::open`] and [`compact_state_dir`] go through first; the
//! refusal points at `crates/storelog/MIGRATIONS.md`.

use super::obs_codec::ShardCodec;
use super::{CrawlOutcome, RunState};
use crate::diff::{ChangeKind, ChangeRecord};
use crate::scenario::ScenarioConfig;
use crate::snapshot::{fqdn_shard, Snapshot};
use dns::Name;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use storelog::{CompactStats, LogReader, LogWriter, ShardStream};

/// Version of the record/checkpoint payloads inside the storelog frames,
/// tracking [`storelog::FORMAT_VERSION`]: v2 = binary interned/delta
/// records ([`super::obs_codec`]) with JSON checkpoints. Bump only with a
/// migration note in `crates/storelog/MIGRATIONS.md`. This is the only
/// format this build reads or writes.
pub const OBS_FORMAT: u32 = storelog::FORMAT_VERSION;

/// One logged observation: what one crawl task produced in one round. The
/// serde derives are not an on-disk format (v2 payloads are
/// [`super::obs_codec`]); they give tests a field-by-field equality for
/// decoded records and size the retired v1 JSON encoding for comparison.
///
/// `seq` is the FQDN's index in the canonical monitored order of its round,
/// so replay can reassemble the batch in exactly the order the diff stage
/// consumed it, even after compaction thins the round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsRecord {
    pub round: SimTime,
    pub seq: u32,
    pub snap: Snapshot,
    pub change: Option<ChangeMeta>,
}

/// The `before` half of a [`ChangeRecord`]. The `after` half is the record's
/// own snapshot (the crawl always diffs against the previous snapshot and
/// stores the new one), so it is not duplicated on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChangeMeta {
    pub kinds: Vec<ChangeKind>,
    pub before_language: Option<String>,
    pub before_sitemap_bytes: Option<u64>,
    pub before_serving: bool,
    pub before_keywords: Vec<String>,
}

impl ChangeMeta {
    fn from_record(rec: &ChangeRecord) -> Self {
        ChangeMeta {
            kinds: rec.kinds.clone(),
            before_language: rec.before_language.clone(),
            before_sitemap_bytes: rec.before_sitemap_bytes,
            before_serving: rec.before_serving,
            before_keywords: rec.before_keywords.clone(),
        }
    }

    fn into_record(self, snap: &Snapshot) -> ChangeRecord {
        ChangeRecord {
            fqdn: snap.fqdn.clone(),
            day: snap.day,
            kinds: self.kinds,
            before_language: self.before_language,
            before_sitemap_bytes: self.before_sitemap_bytes,
            before_serving: self.before_serving,
            before_keywords: self.before_keywords,
            after: snap.clone(),
        }
    }
}

/// The application payload of every storelog commit: enough aggregate state
/// to prove a replayed run reproduced the original, and the frontier a
/// resume continues from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    pub format: u32,
    /// The round this commit sealed.
    pub round: SimTime,
    pub rounds_done: u64,
    pub monitored_total: u64,
    pub store_len: u64,
    pub changes_total: u64,
    pub ip_lottery_declines: u64,
    pub caa_blocked_certs: u64,
    pub liveness_len: u64,
    /// [`super::WorldStage::rng_cursor_digest`] at the round boundary.
    pub rng_witness: u64,
}

impl Checkpoint {
    fn capture(rs: &RunState, now: SimTime, rounds_done: u64) -> Self {
        Checkpoint {
            format: OBS_FORMAT,
            round: now,
            rounds_done,
            monitored_total: rs.monitored.len() as u64,
            store_len: rs.store.len() as u64,
            changes_total: rs.changes.len() as u64,
            ip_lottery_declines: rs.ip_lottery_declines,
            caa_blocked_certs: rs.caa_blocked_certs,
            liveness_len: rs.liveness.len() as u64,
            rng_witness: rs.rng_witness,
        }
    }
}

/// How to open a state directory.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    pub state_dir: PathBuf,
    /// Continue a recorded run (refused if the recorded config differs).
    /// Without this flag an already-populated state dir is refused instead
    /// of clobbered.
    pub resume: bool,
    /// Stop the simulation after this many monitoring rounds — the
    /// kill-at-a-round-boundary knob the resume tests (and incremental
    /// long-run operation) are built on.
    pub max_rounds: Option<u64>,
}

impl PersistOptions {
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        PersistOptions {
            state_dir: state_dir.into(),
            resume: false,
            max_rounds: None,
        }
    }
}

/// Everything that can go wrong persisting or resuming a run.
#[derive(Debug)]
pub enum PersistError {
    Store(storelog::Error),
    Json(String),
    /// The state dir records a different [`ScenarioConfig`] than the one the
    /// caller is running with (crawl thread count excluded — it cannot
    /// affect results).
    ConfigMismatch {
        state_dir: PathBuf,
    },
    /// The state dir exists and `resume` was not requested.
    AlreadyExists(PathBuf),
    /// A committed record payload failed to decode — the segment was
    /// corrupted past what frame checksums can heal (e.g. a spliced but
    /// checksum-valid frame), or written by an incompatible build. Never
    /// silently tolerated: replay refuses the whole dir.
    Decode(String),
    /// Replay failed to reproduce the recorded checkpoint — the log is
    /// corrupt or was produced by an incompatible build.
    Diverged(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "{e}"),
            PersistError::Json(m) => write!(f, "persist serialization error: {m}"),
            PersistError::ConfigMismatch { state_dir } => write!(
                f,
                "state dir {} was recorded with a different scenario config; \
                 resume refused (results would silently diverge)",
                state_dir.display()
            ),
            PersistError::AlreadyExists(p) => write!(
                f,
                "state dir {} already contains a recorded run; pass --resume \
                 to continue it or remove the directory",
                p.display()
            ),
            PersistError::Decode(m) => {
                write!(f, "state dir payload decode error: {m}")
            }
            PersistError::Diverged(m) => {
                write!(f, "resume replay diverged from recorded checkpoint: {m}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<storelog::Error> for PersistError {
    fn from(e: storelog::Error) -> Self {
        PersistError::Store(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e.0)
    }
}

/// One shard's committed history, decoded one record ahead of replay.
struct ShardCursor {
    shard: usize,
    /// The dir's shard count, for the partition-membership check.
    shards: usize,
    stream: ShardStream,
    /// Byte offset of the next undecoded frame in `stream`.
    offset: u64,
    /// Decoder context. At the frontier it is the exact encoder context
    /// live appends continue from.
    codec: ShardCodec,
    /// The next record replay has not handed out yet.
    ahead: Option<ObsRecord>,
}

impl ShardCursor {
    fn open(shard: usize, shards: usize, stream: ShardStream) -> Result<Self, PersistError> {
        let mut cursor = ShardCursor {
            shard,
            shards,
            stream,
            offset: 0,
            codec: ShardCodec::new(),
            ahead: None,
        };
        cursor.advance()?;
        Ok(cursor)
    }

    /// Hand out the look-ahead record and decode its successor, checking
    /// that the successor belongs to this shard and that the shard's rounds
    /// never go backwards.
    fn advance(&mut self) -> Result<Option<ObsRecord>, PersistError> {
        let shard = self.shard;
        let Some(payload) = self.stream.next_at(&mut self.offset) else {
            return Ok(self.ahead.take());
        };
        let rec = self
            .codec
            .decode(payload)
            .map_err(|e| PersistError::Decode(format!("shard {shard}: {e}")))?;
        // A checksum-valid frame spliced in from another shard's segment
        // would decode fine; membership in the shard's FQDN partition is the
        // structural check against it.
        let home = fqdn_shard(&rec.snap.fqdn, self.shards);
        if home != shard {
            return Err(PersistError::Decode(format!(
                "shard {shard}: record for {} belongs to shard {home}",
                rec.snap.fqdn
            )));
        }
        if let Some(prev) = &self.ahead {
            if rec.round < prev.round {
                return Err(PersistError::Decode(format!(
                    "shard {shard}: a round-{} record follows round {} \
                     (moved or spliced frame)",
                    rec.round.0, prev.round.0
                )));
            }
        }
        Ok(self.ahead.replace(rec))
    }
}

/// The recorded history a resuming run replays instead of crawling,
/// decoded lazily: one cursor per shard, so replay holds one round plus one
/// look-ahead record per shard rather than the whole log.
struct ReplayData {
    /// Last committed round; rounds ≤ this replay from the log.
    frontier: SimTime,
    cursors: Vec<ShardCursor>,
    /// The checkpoint replay must reproduce at the frontier.
    checkpoint: Checkpoint,
    /// Opened for appending only once the frontier is proven.
    state_dir: PathBuf,
}

impl ReplayData {
    /// Position one replay cursor at the start of every shard's committed
    /// stream (None for a dir that never committed a round). Only the
    /// segment bytes are read here; records decode as replay reaches them.
    fn open(reader: &LogReader, dir: &Path) -> Result<Option<Self>, PersistError> {
        let shards = reader.shard_count();
        let Some(commit) = reader.last_commit() else {
            return Ok(None);
        };
        let checkpoint: Checkpoint = serde_json::from_slice(&commit.app)?;
        if checkpoint.format != OBS_FORMAT {
            return Err(PersistError::Diverged(format!(
                "checkpoint says payload format v{}, this build reads v{OBS_FORMAT}",
                checkpoint.format
            )));
        }
        let cursors = (0..shards)
            .map(|shard| ShardCursor::open(shard, shards, reader.stream_shard(shard)?))
            .collect::<Result<_, PersistError>>()?;
        Ok(Some(ReplayData {
            frontier: checkpoint.round,
            cursors,
            checkpoint,
            state_dir: dir.to_path_buf(),
        }))
    }

    /// Pull round `now`'s records off every shard cursor, in `seq` order,
    /// each with the shard it was read from. Compaction may have thinned
    /// the round (superseded no-change records); whatever remains replays
    /// in original order and rebuilds the change log exactly and the store
    /// eventually.
    fn take_round(&mut self, now: SimTime) -> Result<Vec<(usize, ObsRecord)>, PersistError> {
        let mut records: Vec<(usize, ObsRecord)> = Vec::new();
        for cursor in &mut self.cursors {
            let shard = cursor.shard;
            while let Some(round) = cursor.ahead.as_ref().map(|r| r.round) {
                if round > now {
                    break;
                }
                if round < now {
                    return Err(PersistError::Decode(format!(
                        "shard {}: record for round {}, which replay never reached \
                         (next replayed round is {})",
                        cursor.shard, round.0, now.0
                    )));
                }
                records.extend(cursor.advance()?.map(|rec| (shard, rec)));
            }
            if now == self.frontier {
                if let Some(rec) = &cursor.ahead {
                    return Err(PersistError::Decode(format!(
                        "shard {}: record for round {} past the committed frontier {}",
                        cursor.shard, rec.round.0, now.0
                    )));
                }
            }
        }
        records.sort_unstable_by_key(|(_, r)| r.seq);
        if records.windows(2).any(|w| w[0].1.seq == w[1].1.seq) {
            return Err(PersistError::Decode(format!(
                "round {}: duplicate seq (spliced or duplicated frame)",
                now.0
            )));
        }
        Ok(records)
    }
}

/// The persistence stage (see module docs). Only instantiated when a state
/// dir is configured; the plain in-memory pipeline never pays for it.
pub struct PersistStage {
    /// `None` while replaying: a resumed dir is neither truncated nor
    /// appended to until replay reproduces its checkpoint.
    writer: Option<LogWriter>,
    replay: Option<ReplayData>,
    rounds_done: u64,
    max_rounds: Option<u64>,
    /// One streaming codec context per shard. On resume these are the
    /// replay cursors' decoder states at the frontier, so live appends
    /// continue the intern tables and delta chains exactly where the
    /// recording stopped.
    codecs: Vec<ShardCodec>,
    /// Scratch encode buffer, reused across records.
    scratch: Vec<u8>,
}

fn fresh_codecs(shards: usize) -> Vec<ShardCodec> {
    (0..shards).map(|_| ShardCodec::new()).collect()
}

/// The serialized config a state dir is stamped with. The crawl thread
/// count is zeroed first: by the pipeline's determinism contract it cannot
/// change results, so recording at 8 threads and resuming at 1 is legal —
/// while a differing `crawl_failure_rate` or seed genuinely forks history
/// and must be refused.
fn config_fingerprint(cfg: &ScenarioConfig) -> Result<Vec<u8>, PersistError> {
    let mut canon = cfg.clone();
    canon.crawl_threads = 0;
    Ok(serde_json::to_vec(&canon)?)
}

impl PersistStage {
    /// Open or create the state directory. With `opts.resume` and existing
    /// state, loads the recorded history for replay; a fresh or empty dir
    /// starts a new recording either way. A dir in another format is refused
    /// untouched by [`LogReader::open`].
    pub fn open(
        opts: &PersistOptions,
        cfg: &ScenarioConfig,
        shards: usize,
    ) -> Result<Self, PersistError> {
        let fingerprint = config_fingerprint(cfg)?;
        let dir = &opts.state_dir;
        let threads = cfg.crawl_threads.max(1);

        let reader = match LogReader::open_with_threads(dir, threads) {
            Ok(reader) => reader,
            Err(storelog::Error::NoState(_)) => {
                std::fs::create_dir_all(dir).map_err(storelog::Error::Io)?;
                let writer = LogWriter::create(dir, shards, &fingerprint)?;
                return Ok(PersistStage {
                    writer: Some(writer),
                    replay: None,
                    rounds_done: 0,
                    max_rounds: opts.max_rounds,
                    codecs: fresh_codecs(shards),
                    scratch: Vec::new(),
                });
            }
            Err(e) => return Err(e.into()),
        };
        if !opts.resume {
            return Err(PersistError::AlreadyExists(dir.clone()));
        }
        if reader.config() != fingerprint.as_slice() {
            return Err(PersistError::ConfigMismatch {
                state_dir: dir.clone(),
            });
        }
        if reader.shard_count() != shards {
            return Err(PersistError::Diverged(format!(
                "state dir has {} shards, store has {shards}",
                reader.shard_count()
            )));
        }
        let replay = ReplayData::open(&reader, dir)?;
        let writer = match &replay {
            Some(rep) => {
                obs::info!(
                    "resuming {}: replaying {} recorded round(s) up to day {}",
                    dir.display(),
                    rep.checkpoint.rounds_done,
                    rep.frontier.0
                );
                None
            }
            // Created but never committed a round: nothing to replay.
            None => Some(LogWriter::open_append(dir)?),
        };
        Ok(PersistStage {
            writer,
            replay,
            rounds_done: 0,
            max_rounds: opts.max_rounds,
            codecs: fresh_codecs(shards),
            scratch: Vec::new(),
        })
    }

    /// If `now` is inside the recorded history, install the logged outcomes
    /// as this round's crawl batch for the diff stage to commit and return
    /// `true` — the caller skips the crawl. Replayed rounds carry no timing
    /// telemetry (it is out-of-band and not persisted). Returns `false`
    /// past the frontier (or when not resuming).
    pub fn replay_round(&mut self, rs: &mut RunState, now: SimTime) -> Result<bool, PersistError> {
        let Some(rep) = &mut self.replay else {
            return Ok(false);
        };
        if now > rep.frontier {
            return Ok(false);
        }
        let records = rep.take_round(now)?;
        obs::counter("persist.rounds_replayed").inc();
        obs::counter("persist.records_replayed").add(records.len() as u64);
        if records.len() > rs.monitored.len() {
            return Err(PersistError::Diverged(format!(
                "round {} has {} records for {} monitored names",
                now.0,
                records.len(),
                rs.monitored.len()
            )));
        }
        rs.crawl_batch = records
            .into_iter()
            .map(|(shard, rec)| CrawlOutcome {
                shard,
                change: rec.change.map(|m| m.into_record(&rec.snap)),
                snap: rec.snap,
            })
            .collect();
        Ok(true)
    }

    /// Buffer the round the crawl just committed into the log (in memory
    /// until [`Self::finish_round`] makes them durable): one record per
    /// monitored FQDN in canonical order, its snapshot read from the store
    /// and its change metadata from this round's suffix of the change log.
    /// Runs on live rounds only.
    pub fn record_round(&mut self, rs: &RunState, now: SimTime) -> Result<(), PersistError> {
        let Some(writer) = self.writer.as_mut() else {
            // Only a resumed stage still short of its frontier has no writer.
            let frontier = self.replay.as_ref().map_or(now, |r| r.frontier);
            return Err(passed_frontier(now, frontier));
        };
        // The change log is in day order, and the round's changes are in
        // canonical order: walk both in step.
        let round_start = rs.changes.partition_point(|c| c.day < now);
        let mut round_changes = rs.changes[round_start..].iter().peekable();
        for (i, (fqdn, &shard)) in rs.monitored.iter().zip(&rs.monitored_shards).enumerate() {
            let shard = usize::from(shard);
            let snap = rs.store.shards()[shard]
                .get(fqdn)
                .filter(|s| s.day == now)
                .ok_or_else(|| {
                    PersistError::Diverged(format!(
                        "{fqdn} has no snapshot committed in round {}",
                        now.0
                    ))
                })?;
            let change = round_changes.next_if(|c| c.fqdn == *fqdn);
            let rec = ObsRecord {
                round: now,
                seq: i as u32,
                snap: snap.clone(),
                change: change.map(ChangeMeta::from_record),
            };
            self.codecs[shard].encode_into(&rec, &mut self.scratch);
            writer.append(shard, &self.scratch);
        }
        if let Some(c) = round_changes.next() {
            return Err(PersistError::Diverged(format!(
                "change of {} on day {} matches no monitored name in order",
                c.fqdn, c.day.0
            )));
        }
        obs::counter("persist.records").add(rs.monitored.len() as u64);
        Ok(())
    }

    /// Seal the round. On a live round: fsync the buffered records and
    /// commit a [`Checkpoint`]. On a replayed round: count it, and at the
    /// frontier validate the rebuilt state against the recorded checkpoint
    /// before going live.
    pub fn finish_round(&mut self, rs: &RunState, now: SimTime) -> Result<(), PersistError> {
        self.rounds_done += 1;
        if let Some(rep) = &self.replay {
            match now.cmp(&rep.frontier) {
                std::cmp::Ordering::Less => return Ok(()),
                std::cmp::Ordering::Equal => {
                    // At the frontier: prove the replay landed exactly where
                    // the original run stood before accepting live appends.
                    let rebuilt = Checkpoint::capture(rs, now, self.rounds_done);
                    if rebuilt != rep.checkpoint {
                        return Err(PersistError::Diverged(format!(
                            "at round {}: rebuilt {rebuilt:?} != recorded {:?}",
                            now.0, rep.checkpoint
                        )));
                    }
                    let writer = LogWriter::open_append(&rep.state_dir)?;
                    let rep = self.replay.take().expect("replay checked above");
                    self.codecs = rep.cursors.into_iter().map(|c| c.codec).collect();
                    self.writer = Some(writer);
                    return Ok(());
                }
                std::cmp::Ordering::Greater => return Err(passed_frontier(now, rep.frontier)),
            }
        }
        let cp = Checkpoint::capture(rs, now, self.rounds_done);
        let writer = self
            .writer
            .as_mut()
            .expect("a live stage always has a writer");
        writer.commit(&serde_json::to_vec(&cp)?)?;
        Ok(())
    }

    /// Has the configured round budget been exhausted?
    pub fn should_stop(&self) -> bool {
        self.max_rounds.is_some_and(|m| self.rounds_done >= m)
    }

    /// Rounds completed (replayed + live) so far.
    pub fn rounds_done(&self) -> u64 {
        self.rounds_done
    }
}

/// A live round arrived while the replay was still short of its frontier.
fn passed_frontier(now: SimTime, frontier: SimTime) -> PersistError {
    PersistError::Diverged(format!(
        "round {} passed the recorded frontier {} without \
         reaching it (monitoring cadence mismatch?)",
        now.0, frontier.0
    ))
}

/// Compact a state directory: drop every unchanged-snapshot record that a
/// newer observation of the same FQDN supersedes. Change records are always
/// kept. Safe at any point between runs; resume works identically on the
/// compacted log.
///
/// Intern ids and delta bases are positional in the stream, so the
/// surviving records are *transcoded* with a fresh [`ShardCodec`] per shard
/// ([`storelog::compact_with`]), which refuses a dir in another format
/// untouched.
pub fn compact_state_dir(dir: &Path) -> Result<CompactStats, PersistError> {
    let stats = storelog::compact_with(dir, |shard, payloads| {
        let mut dec = ShardCodec::new();
        let recs: Vec<ObsRecord> = payloads
            .iter()
            .map(|p| dec.decode(p))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("shard {shard}: {e}"))?;
        // Keep every change record, plus the last record per FQDN among the
        // unchanged-snapshot ones.
        let mut last_of: HashMap<&Name, usize> = HashMap::new();
        for (i, rec) in recs.iter().enumerate() {
            if rec.change.is_none() {
                last_of.insert(&rec.snap.fqdn, i);
            }
        }
        let mut enc = ShardCodec::new();
        let mut out = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            let keep = rec.change.is_some() || last_of.get(&rec.snap.fqdn) == Some(&i);
            if keep {
                let mut buf = Vec::new();
                enc.encode_into(rec, &mut buf);
                out.push(buf);
            }
        }
        Ok(out)
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::Rcode;

    fn snap(fqdn: &str, day: i32) -> Snapshot {
        let mut s =
            Snapshot::unreachable(fqdn.parse().unwrap(), SimTime(day), Rcode::NoError, None);
        s.http_status = Some(200);
        s.index_hash = 7;
        s.page_mut().title = Some("Titre — déjà vu".into());
        s
    }

    #[test]
    fn obs_record_roundtrips_through_json() {
        let rec = ObsRecord {
            round: SimTime(35),
            seq: 3,
            snap: snap("a.b.com", 35),
            change: Some(ChangeMeta {
                kinds: vec![ChangeKind::Content, ChangeKind::Language],
                before_language: Some("en".into()),
                before_sitemap_bytes: None,
                before_serving: true,
                before_keywords: vec!["slot".into()],
            }),
        };
        let bytes = serde_json::to_vec(&rec).unwrap();
        let back: ObsRecord = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.round, rec.round);
        assert_eq!(back.seq, rec.seq);
        assert_eq!(back.snap, rec.snap);
        let m = back.change.unwrap();
        assert_eq!(m.kinds, vec![ChangeKind::Content, ChangeKind::Language]);
        assert_eq!(m.before_keywords, vec!["slot".to_string()]);
    }

    #[test]
    fn change_meta_rebuilds_the_original_record() {
        let after = snap("x.y.com", 42);
        let original = ChangeRecord {
            fqdn: after.fqdn.clone(),
            day: after.day,
            kinds: vec![ChangeKind::BecameReachable],
            before_language: None,
            before_sitemap_bytes: Some(10),
            before_serving: false,
            before_keywords: vec![],
            after: after.clone(),
        };
        let rebuilt = ChangeMeta::from_record(&original).into_record(&after);
        assert_eq!(rebuilt.fqdn, original.fqdn);
        assert_eq!(rebuilt.day, original.day);
        assert_eq!(rebuilt.kinds, original.kinds);
        assert_eq!(rebuilt.before_sitemap_bytes, original.before_sitemap_bytes);
        assert_eq!(rebuilt.after, original.after);
    }

    #[test]
    fn fingerprint_ignores_thread_count_only() {
        let mut a = ScenarioConfig::at_scale(800);
        let mut b = a.clone();
        a.crawl_threads = 1;
        b.crawl_threads = 8;
        assert_eq!(
            config_fingerprint(&a).unwrap(),
            config_fingerprint(&b).unwrap()
        );
        b.crawl_failure_rate = 0.5;
        assert_ne!(
            config_fingerprint(&a).unwrap(),
            config_fingerprint(&b).unwrap()
        );
        let mut c = a.clone();
        c.seed = a.seed + 1;
        assert_ne!(
            config_fingerprint(&a).unwrap(),
            config_fingerprint(&c).unwrap()
        );
    }

    #[test]
    fn checkpoint_roundtrips() {
        let cp = Checkpoint {
            format: OBS_FORMAT,
            round: SimTime(1834),
            rounds_done: 52,
            monitored_total: 993,
            store_len: 991,
            changes_total: 120,
            ip_lottery_declines: 4,
            caa_blocked_certs: 1,
            liveness_len: 9,
            rng_witness: 0xdead_beef_cafe_f00d,
        };
        let bytes = serde_json::to_vec(&cp).unwrap();
        let back: Checkpoint = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back, cp);
    }

    /// A v2 state dir holding `records` — `(round, seq, fqdn)` observations
    /// appended in this order — committed once with a checkpoint at
    /// `frontier`.
    fn write_dir(tag: &str, records: &[(i32, u32, &str)], frontier: i32) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = 4;
        let mut writer = LogWriter::create(&dir, shards, b"cfg").unwrap();
        let mut codecs = fresh_codecs(shards);
        let mut buf = Vec::new();
        for &(round, seq, fqdn) in records {
            let rec = ObsRecord {
                round: SimTime(round),
                seq,
                snap: snap(fqdn, round),
                change: None,
            };
            let shard = fqdn_shard(&rec.snap.fqdn, shards);
            codecs[shard].encode_into(&rec, &mut buf);
            writer.append(shard, &buf);
        }
        let cp = Checkpoint {
            format: 2,
            round: SimTime(frontier),
            rounds_done: 0,
            monitored_total: 0,
            store_len: 0,
            changes_total: 0,
            ip_lottery_declines: 0,
            caa_blocked_certs: 0,
            liveness_len: 0,
            rng_witness: 0,
        };
        writer.commit(&serde_json::to_vec(&cp).unwrap()).unwrap();
        dir
    }

    fn replay_of(dir: &Path) -> ReplayData {
        let reader = LogReader::open(dir).unwrap();
        ReplayData::open(&reader, dir)
            .unwrap()
            .expect("a committed round")
    }

    const NAMES: [&str; 4] = ["a.x.com", "b.x.com", "c.y.com", "d.z.com"];

    #[test]
    fn take_round_merges_shards_in_seq_order() {
        let mut records = Vec::new();
        for round in [0, 7] {
            // Appended in reverse seq order: the merge must sort.
            for (seq, name) in NAMES.iter().enumerate().rev() {
                records.push((round, seq as u32, *name));
            }
        }
        let dir = write_dir("merge", &records, 7);
        let mut rep = replay_of(&dir);
        for round in [0, 7] {
            let got = rep.take_round(SimTime(round)).unwrap();
            let seqs: Vec<u32> = got.iter().map(|(_, r)| r.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3]);
            assert!(got.iter().all(|(_, r)| r.round == SimTime(round)));
            assert_eq!(got[2].1.snap.fqdn.to_string(), NAMES[2]);
            // Each record comes with the shard it was read from.
            let shards = rep.cursors.len();
            assert!(got
                .iter()
                .all(|(shard, r)| *shard == fqdn_shard(&r.snap.fqdn, shards)));
        }
        assert!(rep.cursors.iter().all(|c| c.ahead.is_none()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_round_replay_never_reaches_is_a_decode_error() {
        let dir = write_dir("skipped", &[(0, 0, NAMES[0]), (3, 0, NAMES[0])], 7);
        let mut rep = replay_of(&dir);
        rep.take_round(SimTime(0)).unwrap();
        match rep.take_round(SimTime(7)) {
            Err(PersistError::Decode(m)) => assert!(m.contains("never reached"), "{m}"),
            other => panic!("expected a decode error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_frame_moved_ahead_of_an_earlier_round_is_a_decode_error() {
        // A shard's rounds never go backwards in append order: the round-7
        // frame written first means the round-0 one behind it was moved.
        let dir = write_dir("moved", &[(7, 0, NAMES[0]), (0, 0, NAMES[0])], 7);
        let mut rep = replay_of(&dir);
        rep.take_round(SimTime(0)).unwrap();
        match rep.take_round(SimTime(7)) {
            Err(PersistError::Decode(m)) => assert!(m.contains("follows round"), "{m}"),
            other => panic!("expected a decode error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_past_the_frontier_are_a_decode_error() {
        let dir = write_dir("leftover", &[(0, 0, NAMES[1]), (14, 0, NAMES[1])], 7);
        let mut rep = replay_of(&dir);
        rep.take_round(SimTime(0)).unwrap();
        match rep.take_round(SimTime(7)) {
            Err(PersistError::Decode(m)) => assert!(m.contains("past the committed frontier")),
            other => panic!("expected a decode error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
