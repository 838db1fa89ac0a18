//! Criterion benches: the storelog persistence substrate under the
//! monitoring pipeline's write pattern, in the v2 (interned/delta binary)
//! payload format the pipeline records, resumes and compacts.
//!
//! The record stream is a realistic monitoring mix: a ~10k-FQDN pool
//! (subdomains clustered under shared parent domains, shared keyword and
//! title vocabulary) re-observed round after round with ~2% of records
//! changing per round. That shape is exactly what the v2 codec exploits
//! (intern tables amortize the shared strings, deltas collapse the 98%
//! unchanged re-observations), and exactly what `repro --state-dir` writes.
//!
//! Row ids use `n10k`/`n100k`/`n1m` labels — not raw numbers — so CI smoke
//! filters like `-- n10k n100k` select exact sizes without the substring
//! collisions raw `10000`/`100000` would cause.
//!
//! Besides the timed rows, an untimed contract line reports the on-disk
//! size against what the retired v1 (JSON) format would have written for
//! the same record stream — every record's framed `serde_json` encoding —
//! for drift-checking by `scripts/bench_drift.py`:
//!
//! ```text
//! snapshot_log contract: v1_bytes_n100k=... v2_bytes_n100k=... v2_size_pct_of_v1=NN
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dangling_core::diff::ChangeKind;
use dangling_core::pipeline::obs_codec::ShardCodec;
use dangling_core::pipeline::persist::{ChangeMeta, ObsRecord};
use dangling_core::snapshot::{fqdn_shard, Snapshot};
use dns::Rcode;
use simcore::SimTime;
use std::path::{Path, PathBuf};
use storelog::{frame, LogReader, LogWriter};

const SHARDS: usize = 16;
/// FQDN pool size — one monitoring round at production scale.
const POOL: usize = 10_000;
/// Fraction of re-observations that carry a content change: 1 in 50 (~2%).
const CHANGE_EVERY: u64 = 50;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "snapshot_log_bench_{tag}_{}_{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn mix(i: u64, r: u64) -> u64 {
    // Cheap deterministic hash so changed content differs per (record, round).
    (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ r.wrapping_mul(0xff51_afd7_ed55_8ccd)).rotate_left(31)
}

/// The round-0 observation of pool entry `i`: a serving snapshot with
/// typical content features (no retained HTML — the overwhelmingly common
/// case). Strings are deliberately shared across the pool: 500 parent
/// domains, one title template, one keyword vocabulary.
fn base_record(i: usize) -> ObsRecord {
    let parent = i % 500;
    let host = i / 500;
    let fqdn = format!("svc-{host:04}.corp-{parent:03}.example.com");
    let mut snap = Snapshot::unreachable(
        fqdn.parse().unwrap(),
        SimTime(0),
        Rcode::NoError,
        Some(
            format!("corp-{parent:03}-web.azurewebsites.net")
                .parse()
                .unwrap(),
        ),
    );
    snap.ip = Some(std::net::Ipv4Addr::from(
        (0x1428_3c50u32).wrapping_add(i as u32),
    ));
    snap.http_status = Some(200);
    snap.index_hash = mix(i as u64, 0);
    snap.index_size = 18_432;
    snap.page_mut().title = Some(format!("Corp {parent} Developer Portal"));
    snap.page_mut().language = Some("en".into());
    snap.page_mut().keywords = ["developer", "portal", "docs", "api"]
        .map(String::from)
        .to_vec();
    snap.sitemap_bytes = Some(48_000);
    ObsRecord {
        round: SimTime(0),
        seq: i as u32,
        snap,
        change: None,
    }
}

/// Advance the pool to round `r`: every record gets the new day; ~2% get a
/// content change (new hash, grown sitemap) plus change metadata. All
/// values are absolute functions of `(i, r)` so rounds can be regenerated
/// in any order and the stream is identical across bench iterations.
fn advance_round(pool: &mut [ObsRecord], r: u64) {
    for (i, rec) in pool.iter_mut().enumerate() {
        rec.round = SimTime(r as i32);
        rec.snap.day = SimTime(r as i32);
        rec.seq = (r as u32).wrapping_mul(POOL as u32) + i as u32;
        let changed = r > 0 && (i as u64 + r * 53).is_multiple_of(CHANGE_EVERY);
        if changed {
            let before_sitemap = rec.snap.sitemap_bytes;
            rec.snap.index_hash = mix(i as u64, r);
            rec.snap.sitemap_bytes = Some(48_000 + r * 17);
            rec.change = Some(ChangeMeta {
                kinds: vec![ChangeKind::Content, ChangeKind::SitemapGrew],
                before_language: rec.snap.page.language.clone(),
                before_sitemap_bytes: before_sitemap,
                before_serving: true,
                before_keywords: rec.snap.page.keywords.clone(),
            });
        } else {
            rec.change = None;
        }
    }
}

/// Write `rounds` pool passes, one fsynced commit per round — the
/// pipeline's exact cadence. Returns total appended payload bytes.
fn write_log(dir: &Path, rounds: u64) -> u64 {
    let mut w = LogWriter::create(dir, SHARDS, b"bench-config").unwrap();
    let mut pool: Vec<ObsRecord> = (0..POOL).map(base_record).collect();
    let mut codecs: Vec<ShardCodec> = (0..SHARDS).map(|_| ShardCodec::new()).collect();
    let mut buf = Vec::new();
    let mut bytes = 0u64;
    for r in 0..rounds {
        advance_round(&mut pool, r);
        for rec in &pool {
            let shard = fqdn_shard(&rec.snap.fqdn, SHARDS);
            codecs[shard].encode_into(rec, &mut buf);
            bytes += buf.len() as u64;
            w.append(shard, &buf);
        }
        w.commit(format!("{{\"round\":{r}}}").as_bytes()).unwrap();
    }
    bytes
}

/// Segment bytes the retired v1 format wrote for the same `rounds` pool
/// passes: every record's JSON in a frame.
fn json_segment_bytes(rounds: u64) -> u64 {
    let mut pool: Vec<ObsRecord> = (0..POOL).map(base_record).collect();
    let mut bytes = 0u64;
    for r in 0..rounds {
        advance_round(&mut pool, r);
        for rec in &pool {
            bytes += frame::frame_len(serde_json::to_vec(rec).unwrap().len());
        }
    }
    bytes
}

/// Recovery-scan + decode of every record, exactly like resume replay:
/// checksum-validate all frames, then decode each payload back to an
/// [`ObsRecord`] with the shard's streaming codec.
fn replay_log(dir: &Path) -> usize {
    let reader = LogReader::open(dir).unwrap();
    let mut records = 0usize;
    for shard in 0..reader.shard_count() {
        let stream = reader.stream_shard(shard).unwrap();
        let mut codec = ShardCodec::new();
        for payload in stream.iter() {
            black_box(codec.decode(payload).unwrap().seq);
            records += 1;
        }
    }
    records
}

fn segment_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

/// `(label, rounds)` — n10k is one pool pass (all-full records, interning
/// only), n100k a ten-round study, n1m a hundred-round multi-year study.
const SIZES: [(&str, u64); 3] = [("n10k", 1), ("n100k", 10), ("n1m", 100)];

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot_log_append");
    for (label, rounds) in SIZES {
        g.throughput(Throughput::Elements(rounds * POOL as u64));
        g.bench_with_input(
            BenchmarkId::new("v2_binary", label),
            &rounds,
            |b, &rounds| {
                b.iter(|| {
                    let t = TempDir::new("append");
                    black_box(write_log(&t.0, rounds));
                    t
                })
            },
        );
    }
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot_log_replay");
    for (label, rounds) in SIZES {
        let n = rounds as usize * POOL;
        g.throughput(Throughput::Elements(n as u64));
        let t = TempDir::new("replay");
        write_log(&t.0, rounds);
        g.bench_with_input(BenchmarkId::new("v2_binary", label), &n, |b, &n| {
            b.iter(|| {
                let records = replay_log(&t.0);
                assert_eq!(records, n);
                black_box(records)
            })
        });
    }
    g.finish();
}

/// Untimed size contract: on-disk segment bytes of a ten-round (n100k)
/// recording against the framed v1 JSON size of the same record stream.
/// Always printed (even under CI smoke filters) so `bench_drift.py` can
/// hold the ratio to its budget.
fn size_contract(_c: &mut Criterion) {
    let t = TempDir::new("size");
    write_log(&t.0, 10);
    let (b1, b2) = (json_segment_bytes(10), segment_bytes(&t.0));
    println!(
        "snapshot_log contract: v1_bytes_n100k={b1} v2_bytes_n100k={b2} \
         v2_size_pct_of_v1={}",
        (b2 * 100).div_ceil(b1)
    );
}

criterion_group!(benches, bench_append, bench_replay, size_contract);
criterion_main!(benches);
