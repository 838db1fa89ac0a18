//! Corruption-injection matrix for the v2 binary storelog.
//!
//! Every injected corruption must end in one of two outcomes:
//!
//! - **healed** — torn-tail recovery rolls the dir back to the newest fully
//!   consistent commit, and what remains decodes to an exact per-shard
//!   prefix of the pristine history, or
//! - **rejected** — opening or decoding fails with a hard checksum/format
//!   error.
//!
//! Never a third outcome: silently decoding different history. Bit flips
//! and truncations are caught by the frame checksums (healed); splices of
//! *individually checksum-valid* frames — duplicate, remove, reorder,
//! cross-shard import — are the interesting half, caught structurally by
//! the codec's intern/chain/membership validations (rejected).

use dangling_core::pipeline::obs_codec::ShardCodec;
use dangling_core::pipeline::persist::ObsRecord;
use dangling_core::scenario::{Scenario, ScenarioConfig};
use dangling_core::snapshot::fqdn_shard;
use dangling_core::PersistOptions;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use storelog::frame;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("slcorr_{tag}_{}_{n}", std::process::id()));
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
    let mut cfg = ScenarioConfig::at_scale(3000);
    cfg.world.n_fortune1000 = 20;
    cfg.world.n_global500 = 10;
    cfg.seed = 5;
    cfg.crawl_threads = threads;
    cfg.crawl_failure_rate = 0.02;
    cfg
}

/// One v2 recording of eight rounds, shared (read-only) by every test.
fn recorded() -> &'static TempDir {
    static DIR: OnceLock<TempDir> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = TempDir::new("rec");
        let mut opts = PersistOptions::new(&dir.0);
        opts.max_rounds = Some(8);
        Scenario::new(study_cfg(2))
            .run_persisted(&opts)
            .expect("recording run");
        dir
    })
}

fn copy_dir(src: &Path, tag: &str) -> TempDir {
    let dst = TempDir::new(tag);
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.0.join(entry.file_name())).unwrap();
    }
    dst
}

/// Decode a dir's whole committed history exactly like resume replay does:
/// per-shard streaming `ShardCodec` decode plus the FQDN shard-membership
/// check. Returns the per-shard record history (JSON-serialized for
/// comparison) or the first hard error.
fn decode_all(dir: &Path) -> Result<Vec<Vec<String>>, String> {
    let reader = storelog::LogReader::open(dir).map_err(|e| e.to_string())?;
    let shards = reader.shard_count();
    let mut out = Vec::with_capacity(shards);
    for shard in 0..shards {
        let stream = reader.stream_shard(shard).map_err(|e| e.to_string())?;
        let mut codec = ShardCodec::new();
        let mut recs = Vec::new();
        for payload in stream.iter() {
            let rec = codec
                .decode(payload)
                .map_err(|e| format!("shard {shard}: {e}"))?;
            if fqdn_shard(&rec.snap.fqdn, shards) != shard {
                return Err(format!(
                    "shard {shard}: record for {} belongs elsewhere",
                    rec.snap.fqdn
                ));
            }
            recs.push(serde_json::to_string(&rec).unwrap());
        }
        out.push(recs);
    }
    Ok(out)
}

fn pristine() -> &'static Vec<Vec<String>> {
    static P: OnceLock<Vec<Vec<String>>> = OnceLock::new();
    P.get_or_init(|| decode_all(&recorded().0).expect("pristine dir decodes"))
}

/// The two legal outcomes; anything else (silently different history)
/// panics with a description of the divergence.
fn assert_healed_or_rejected(dir: &Path, what: &str) {
    match decode_all(dir) {
        Err(_) => {} // rejected — a hard error, never wrong data
        Ok(shards) => {
            let good = pristine();
            assert_eq!(shards.len(), good.len(), "{what}: shard count changed");
            for (s, (got, want)) in shards.iter().zip(good).enumerate() {
                assert!(
                    got.len() <= want.len() && got[..] == want[..got.len()],
                    "{what}: shard {s} decoded {} records that are not a \
                     prefix of the pristine history — silent corruption",
                    got.len()
                );
            }
        }
    }
}

/// The busiest shard (most committed bytes) and its path.
fn busiest_shard(dir: &Path) -> (usize, PathBuf) {
    (0..16)
        .map(|i| (i, dir.join(format!("shard-{i:03}.seg"))))
        .max_by_key(|(_, p)| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .unwrap()
}

fn flip_byte(path: &Path, offset: u64, mask: u8) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&[b[0] ^ mask]).unwrap();
}

#[test]
fn bit_flips_without_checksum_fixup_heal_or_reject() {
    let (_, seg) = busiest_shard(&recorded().0);
    let seg_name = seg.file_name().unwrap().to_owned();
    let len = std::fs::metadata(&seg).unwrap().len();
    assert!(
        len > frame::HEADER_LEN as u64 * 3,
        "busiest shard too small"
    );
    // Length header, checksum, record tag, varint region, mid-file, tail.
    let offsets = [
        0,
        5,
        frame::HEADER_LEN as u64,
        frame::HEADER_LEN as u64 + 3,
        len / 2,
        len - 1,
    ];
    for off in offsets {
        let dir = copy_dir(&recorded().0, "flip");
        flip_byte(&dir.0.join(&seg_name), off, 0x10);
        assert_healed_or_rejected(&dir.0, &format!("segment flip at {off}"));
    }
    // Same treatment for the commit log.
    let clen = std::fs::metadata(recorded().0.join("commits.log"))
        .unwrap()
        .len();
    for off in [2, clen / 2, clen - 1] {
        let dir = copy_dir(&recorded().0, "cflip");
        flip_byte(&dir.0.join("commits.log"), off, 0x10);
        assert_healed_or_rejected(&dir.0, &format!("commit flip at {off}"));
    }
}

#[test]
fn truncations_heal_at_any_cut_point() {
    let (_, seg) = busiest_shard(&recorded().0);
    let seg_name = seg.file_name().unwrap().to_owned();
    let bytes = std::fs::read(&seg).unwrap();
    // An exact frame boundary, a cut mid-frame, and a near-total loss.
    let scan = frame::scan(&bytes, 0);
    assert!(scan.frames.len() >= 3);
    let cuts = [scan.frames[1].end, scan.frames[2].end - 3, 1];
    for cut in cuts {
        let dir = copy_dir(&recorded().0, "trunc");
        OpenOptions::new()
            .write(true)
            .open(dir.0.join(&seg_name))
            .unwrap()
            .set_len(cut)
            .unwrap();
        assert_healed_or_rejected(&dir.0, &format!("segment truncated to {cut}"));
    }
    let clen = std::fs::metadata(recorded().0.join("commits.log"))
        .unwrap()
        .len();
    for cut in [clen - 3, clen / 2] {
        let dir = copy_dir(&recorded().0, "ctrunc");
        OpenOptions::new()
            .write(true)
            .open(dir.0.join("commits.log"))
            .unwrap()
            .set_len(cut)
            .unwrap();
        assert_healed_or_rejected(&dir.0, &format!("commit log truncated to {cut}"));
    }
}

// ---------------------------------------------------------------------------
// Frame-granularity splices: every frame individually checksum-valid, and
// the commit log rewritten so the offsets are consistent too — the frame
// layer sees nothing wrong. Only the codec's structural validations stand
// between such a dir and silently wrong history.
// ---------------------------------------------------------------------------

/// Rewrite one shard's committed frame list through `mangle`, then replace
/// `commits.log` with a single commit whose offsets match the rewritten
/// segments exactly (carrying over the original final checkpoint payload).
fn splice(dir: &Path, shard: usize, mangle: impl FnOnce(&mut Vec<Vec<u8>>)) {
    let reader = storelog::LogReader::open(dir).unwrap();
    let shards = reader.shard_count();
    let app = reader.last_commit().unwrap().app.clone();
    let mut segments: Vec<Vec<Vec<u8>>> = (0..shards)
        .map(|s| {
            let stream = reader.stream_shard(s).unwrap();
            stream.iter().map(<[u8]>::to_vec).collect()
        })
        .collect();
    drop(reader);
    mangle(&mut segments[shard]);

    let mut offsets = Vec::with_capacity(shards);
    for (s, payloads) in segments.iter().enumerate() {
        let mut bytes = Vec::new();
        for p in payloads {
            frame::encode_into(p, &mut bytes);
        }
        offsets.push(bytes.len() as u64);
        std::fs::write(dir.join(format!("shard-{s:03}.seg")), bytes).unwrap();
    }
    let mut commit = Vec::new();
    commit.extend_from_slice(&(shards as u32).to_le_bytes());
    for o in &offsets {
        commit.extend_from_slice(&o.to_le_bytes());
    }
    commit.extend_from_slice(&app);
    let mut log = Vec::new();
    frame::encode_into(&commit, &mut log);
    std::fs::write(dir.join("commits.log"), log).unwrap();
}

/// Index of the first delta record (tag 0x02) in a shard's frame list.
fn first_delta(payloads: &[Vec<u8>]) -> usize {
    payloads
        .iter()
        .position(|p| p.first() == Some(&0x02))
        .expect("an 8-round shard holds delta records")
}

#[test]
fn duplicated_delta_frame_is_rejected() {
    let (shard, _) = busiest_shard(&recorded().0);
    let dir = copy_dir(&recorded().0, "dup_delta");
    splice(&dir.0, shard, |frames| {
        let i = first_delta(frames);
        let copy = frames[i].clone();
        frames.insert(i + 1, copy);
    });
    let err = decode_all(&dir.0).expect_err("duplicated delta must not decode");
    assert!(err.contains("chain check"), "unexpected rejection: {err}");
}

#[test]
fn duplicated_full_frame_is_rejected() {
    let (shard, _) = busiest_shard(&recorded().0);
    let dir = copy_dir(&recorded().0, "dup_full");
    splice(&dir.0, shard, |frames| {
        let copy = frames[0].clone();
        assert_eq!(copy[0], 0x01, "first frame of a shard is a full record");
        frames.insert(1, copy);
    });
    decode_all(&dir.0).expect_err("duplicated full record must not decode");
}

#[test]
fn removed_leading_frame_is_rejected() {
    let (shard, _) = busiest_shard(&recorded().0);
    let dir = copy_dir(&recorded().0, "rm");
    splice(&dir.0, shard, |frames| {
        frames.remove(0);
    });
    decode_all(&dir.0).expect_err("removing a committed frame must not decode");
}

#[test]
fn reordered_frames_are_rejected() {
    // Move an FQDN's delta in front of its full record: the delta now
    // references a name the stream has not defined yet (or chains to the
    // wrong predecessor) — a hard structural error either way.
    let (shard, _) = busiest_shard(&recorded().0);
    let dir = copy_dir(&recorded().0, "reorder");
    splice(&dir.0, shard, |frames| {
        let i = first_delta(frames);
        let delta = frames.remove(i);
        frames.insert(0, delta);
    });
    decode_all(&dir.0).expect_err("reordered frames must not decode");
}

#[test]
fn cross_shard_frame_import_is_rejected() {
    // A frame lifted verbatim from another shard's segment is individually
    // well-formed but belongs to a different partition. Two independent
    // defenses stand in its way: the foreign record's inline intern
    // definitions collide with strings the receiving shard already
    // interned, and even when they don't, the decoded FQDN fails the
    // replay path's shard-membership check.
    let (shard, _) = busiest_shard(&recorded().0);
    let donor = (0..16)
        .find(|&s| {
            s != shard
                && std::fs::metadata(recorded().0.join(format!("shard-{s:03}.seg")))
                    .map(|m| m.len() > frame::HEADER_LEN as u64)
                    .unwrap_or(false)
        })
        .expect("another populated shard exists");
    let donor_bytes = std::fs::read(recorded().0.join(format!("shard-{donor:03}.seg"))).unwrap();
    let foreign = frame::payloads(&donor_bytes, 0)
        .next()
        .expect("donor shard has frames")
        .to_vec();
    let dir = copy_dir(&recorded().0, "xshard");
    splice(&dir.0, shard, |frames| frames.push(foreign));
    let err = decode_all(&dir.0).expect_err("cross-shard frame must not decode");
    assert!(
        err.contains("belongs") || err.contains("duplicate"),
        "unexpected rejection: {err}"
    );

    // Second leg: a synthetic foreign record whose gibberish labels cannot
    // collide with anything interned — it decodes cleanly, so only the
    // membership check stands, and it must fire.
    use dangling_core::snapshot::Snapshot;
    let foreign_name: dns::Name = (0..)
        .map(|i| format!("zzqx{i}.vvkw{i}.qqjj{i}"))
        .map(|s| dns::Name::parse(&s).unwrap())
        .find(|n| fqdn_shard(n, 16) != shard)
        .unwrap();
    let rec = ObsRecord {
        round: simcore::SimTime(0),
        seq: 0,
        snap: Snapshot::unreachable(
            foreign_name,
            simcore::SimTime(0),
            dns::Rcode::NxDomain,
            None,
        ),
        change: None,
    };
    let mut codec = ShardCodec::new();
    let mut payload = Vec::new();
    codec.encode_into(&rec, &mut payload);
    let dir = copy_dir(&recorded().0, "xshard2");
    splice(&dir.0, shard, |frames| frames.push(payload));
    let err = decode_all(&dir.0).expect_err("foreign-partition record must not decode");
    assert!(err.contains("belongs"), "unexpected rejection: {err}");
}

#[test]
fn spliced_dir_refuses_resume_with_a_decode_error() {
    // End to end: the full resume path (not just the decode helper) must
    // surface a spliced dir as a hard PersistError instead of replaying it.
    let (shard, _) = busiest_shard(&recorded().0);
    let dir = copy_dir(&recorded().0, "resume");
    splice(&dir.0, shard, |frames| {
        let i = first_delta(frames);
        let copy = frames[i].clone();
        frames.insert(i + 1, copy);
    });
    let before = dir_bytes(&dir.0);
    let mut opts = PersistOptions::new(&dir.0);
    opts.resume = true;
    let err = match Scenario::new(study_cfg(2)).run_persisted(&opts) {
        Ok(_) => panic!("resume on a spliced dir must fail"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("decode"),
        "expected a decode error, got: {err}"
    );
    // Replay streams the log round by round, so the error surfaces mid-run;
    // the dir is only opened for appending at the frontier, and a refused
    // resume must leave it exactly as it found it.
    assert!(
        dir_bytes(&dir.0) == before,
        "a failed resume appended to or truncated the state dir"
    );
}

/// Every file of a dir, by name, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn forged_checksum_mutations_never_panic() {
    // Out of the corruption threat model (an adversary rewriting checksums
    // is modification, not corruption) but the decoder must still be total:
    // flip payload bytes, recompute the frame checksum so the frame layer
    // accepts it, and require decode to return Ok-or-Err — never panic,
    // never allocate unboundedly.
    let (_, seg) = busiest_shard(&recorded().0);
    let seg_name = seg.file_name().unwrap().to_owned();
    let bytes = std::fs::read(&seg).unwrap();
    let scan = frame::scan(&bytes, 0);
    let target = &scan.frames[first_delta(
        &scan
            .frames
            .iter()
            .map(|f| f.payload.clone())
            .collect::<Vec<_>>(),
    )];
    let start = target.end as usize - target.payload.len();
    for i in (0..target.payload.len()).step_by(3) {
        let dir = copy_dir(&recorded().0, "forge");
        let mut mutated = bytes.clone();
        mutated[start + i] ^= 0x2d;
        let payload = &mutated[start..start + target.payload.len()];
        let sum = frame::fnv64(payload).to_le_bytes();
        mutated[start - 8..start].copy_from_slice(&sum);
        std::fs::write(dir.0.join(&seg_name), &mutated).unwrap();
        // Must return (healed, rejected, or — since the checksum was forged
        // — decoded-with-forged-bytes); panicking fails the test.
        let _ = decode_all(&dir.0);
    }
}
