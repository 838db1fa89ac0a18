//! Generic shard-parallel execution under the pipeline's determinism
//! contract.
//!
//! [`ShardedExecutor`] runs every parallel pass of the weekly loop —
//! crawling, Algorithm-1 classification, signature matching and validation —
//! under one discipline: workers take the next unit of work from one shared
//! atomic cursor, and nothing downstream depends on which worker took what.
//!
//! - [`ShardedExecutor::map`] hands out contiguous chunks of input indices
//!   (about eight per worker, at most 4,096 items each) and concatenates
//!   the chunks' outputs in chunk order, so the output is in **input
//!   order** by reassembly alone.
//! - [`ShardedExecutor::fold_buckets`] partitions items by a **fixed,
//!   content-keyed hash** (never by arrival or iteration order) — the
//!   crawl's per-shard event-loop grouping — hands out one bucket per cursor
//!   step together with exclusive `&mut` access to that bucket's own shard
//!   of state, and returns the per-bucket results in **bucket-id order**.
//!
//! so the result is byte-identical for any thread count. Worker closures must
//! be pure with respect to shared state: they may read the pre-pass world and
//! write only the shard they were handed, never anything another task could
//! observe. Any randomness must come from an [`simcore::RngTree`] stream keyed
//! by item content, not a shared sequential RNG.
//!
//! Telemetry is out-of-band and prefix-named per executor (e.g. `crawl.*`,
//! `retro.incr.*`) so per-phase shard/worker imbalance is observable without
//! perturbing results. A panicking worker propagates its panic out of
//! [`ShardedExecutor::map`] after the scope joins — it never deadlocks the
//! remaining workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Most input items per `map` chunk: 1M items take ~250 cursor steps, not
/// 1M.
const MAX_CHUNK: usize = 4096;

/// Telemetry names for one executor, fixed at compile time. Build with
/// [`crate::exec_metric_names!`].
#[derive(Debug, Clone, Copy)]
pub struct ExecMetricNames {
    pub tasks: &'static str,
    pub shard_tasks: &'static str,
    pub worker_tasks: &'static str,
    pub shard_imbalance: &'static str,
    pub worker_imbalance: &'static str,
}

/// Expand a literal prefix into the five per-executor telemetry names
/// (`<prefix>.tasks`, `<prefix>.shard_tasks`, `<prefix>.worker_tasks`,
/// `<prefix>.shard_imbalance`, `<prefix>.worker_imbalance`).
#[macro_export]
macro_rules! exec_metric_names {
    ($prefix:literal) => {
        $crate::pipeline::ExecMetricNames {
            tasks: concat!($prefix, ".tasks"),
            shard_tasks: concat!($prefix, ".shard_tasks"),
            worker_tasks: concat!($prefix, ".worker_tasks"),
            shard_imbalance: concat!($prefix, ".shard_imbalance"),
            worker_imbalance: concat!($prefix, ".worker_imbalance"),
        }
    };
}

/// Shard-parallel executor (see module docs for the determinism contract).
pub struct ShardedExecutor {
    threads: usize,
    // Telemetry handles, resolved once at construction so the hot path never
    // touches the registry lock. All out-of-band: nothing here feeds back
    // into results.
    m_tasks: &'static obs::Counter,
    m_shard_tasks: &'static obs::Histogram,
    m_worker_tasks: &'static obs::Histogram,
    m_shard_imbalance: &'static obs::Gauge,
    m_worker_imbalance: &'static obs::Gauge,
}

impl ShardedExecutor {
    pub fn new(threads: usize, names: ExecMetricNames) -> Self {
        ShardedExecutor {
            threads: threads.max(1),
            m_tasks: obs::counter(names.tasks),
            m_shard_tasks: obs::histogram(names.shard_tasks),
            m_worker_tasks: obs::histogram(names.worker_tasks),
            m_shard_imbalance: obs::gauge(names.shard_imbalance),
            m_worker_imbalance: obs::gauge(names.worker_imbalance),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map every item to an output, returning outputs in **input order**.
    ///
    /// `make_ctx` is a per-worker factory (e.g. a resolver) so no context is
    /// shared between workers; `work` receives the
    /// worker context, the item's input index, and the item. Output is
    /// byte-identical for any thread count as long as `work` is deterministic
    /// per item.
    pub fn map<T, R, C, FC, FW>(&self, items: &[T], make_ctx: FC, work: FW) -> Vec<R>
    where
        T: Sync,
        R: Send,
        FC: Fn() -> C + Sync,
        FW: Fn(&mut C, usize, &T) -> R + Sync,
    {
        // About eight chunks per worker, so one slow chunk is levelled by
        // the rest. No floor: a few expensive tasks (signature validation)
        // still spread one per step.
        let chunk = (items.len() / (self.threads * 8)).clamp(1, MAX_CHUNK);
        self.run(items.len(), chunk, make_ctx, |ctx, i| {
            work(ctx, i, &items[i])
        })
    }

    /// Fold whole buckets: `work` receives a bucket id, exclusive `&mut`
    /// access to that bucket's shard `shards[id]`, and the bucket's
    /// `(input_index, item)` slice (indices ascending); the per-bucket
    /// results come back **in bucket-id order** — the canonical merge order.
    ///
    /// There is one bucket per shard. Item `i` lands in bucket
    /// `shard_of(i, item)`, which must be a function of the item's content
    /// below `shards.len()` (or read a column precomputed from it), so the
    /// same item always lands in the same bucket (and shard) no matter how
    /// many workers run. Use this when a pass works per group
    /// and commits into per-group state (the crawl's per-shard slot
    /// schedules and snapshot-store shards): each bucket runs in parallel,
    /// writes only its own shard, and the caller merges the results in a
    /// fixed order.
    pub fn fold_buckets<T, S, B, FS, FW>(
        &self,
        items: &[T],
        shards: &mut [S],
        shard_of: FS,
        work: FW,
    ) -> Vec<B>
    where
        T: Sync,
        S: Send,
        B: Send,
        FS: Fn(usize, &T) -> usize,
        FW: Fn(usize, &mut S, &[(usize, &T)]) -> B + Sync,
    {
        let buckets = shards.len();
        assert!(buckets > 0, "fold_buckets needs at least one shard");
        let mut parts: Vec<Vec<(usize, &T)>> = vec![Vec::new(); buckets];
        for (i, item) in items.iter().enumerate() {
            let b = shard_of(i, item);
            debug_assert!(b < buckets, "shard_of returned {b} for {buckets} buckets");
            parts[b.min(buckets - 1)].push((i, item));
        }
        // Per-shard load picture for this pass: task count per shard and the
        // max/mean imbalance ratio (1.0 = perfectly even hash split).
        for part in &parts {
            self.m_shard_tasks.record(part.len() as u64);
        }
        if !items.is_empty() {
            let shard_max = parts.iter().map(Vec::len).max().unwrap_or(0);
            self.m_shard_imbalance
                .set(shard_max as f64 * buckets as f64 / items.len() as f64);
        }
        // One lock per shard, taken once by the one task that runs its
        // bucket: never contended, it only hands the `&mut` across threads.
        let shards: Vec<Mutex<&mut S>> = shards.iter_mut().map(Mutex::new).collect();
        self.run(
            buckets,
            1,
            || (),
            |_, b| {
                let mut shard = shards[b]
                    .lock()
                    .expect("one task locks each shard, so no earlier holder can poison it");
                work(b, &mut shard, &parts[b])
            },
        )
    }

    /// Run `work(ctx, i)` for every `i` in `0..n`, one worker context per
    /// thread. Each cursor step claims the next `chunk` consecutive indices;
    /// the chunks' outputs are concatenated in chunk order, so the result is
    /// in index order whichever worker ran which chunk.
    fn run<R, C, FC, FW>(&self, n: usize, chunk: usize, make_ctx: FC, work: FW) -> Vec<R>
    where
        R: Send,
        FC: Fn() -> C + Sync,
        FW: Fn(&mut C, usize) -> R + Sync,
    {
        let n_chunks = n.div_ceil(chunk);
        let n_workers = self.threads.min(n_chunks);
        if n_workers <= 1 {
            let mut ctx = make_ctx();
            self.m_tasks.add(n as u64);
            self.m_worker_tasks.record(n as u64);
            return (0..n).map(|i| work(&mut ctx, i)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let (cursor, make_ctx, work) = (&cursor, &make_ctx, &work);
        // Per worker: the (chunk id, outputs) pairs it ran, in claim order.
        let per_worker: Vec<Vec<(usize, Vec<R>)>> = crossbeam::scope(|s| {
            let handles: Vec<_> = (0..n_workers)
                .map(|_| {
                    s.spawn(move |_| {
                        let mut ctx = make_ctx();
                        let mut done = Vec::new();
                        loop {
                            // Relaxed: the cursor only hands out chunk ids;
                            // outputs reach the caller through `join`.
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break done;
                            }
                            let range = c * chunk..((c + 1) * chunk).min(n);
                            done.push((c, range.map(|i| work(&mut ctx, i)).collect()));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
        .expect("sharded worker panicked");

        let mut by_chunk: Vec<Vec<R>> = (0..n_chunks).map(|_| Vec::new()).collect();
        let mut worker_max = 0;
        for done in per_worker {
            let tasks: usize = done.iter().map(|(_, out)| out.len()).sum();
            self.m_tasks.add(tasks as u64);
            self.m_worker_tasks.record(tasks as u64);
            worker_max = worker_max.max(tasks);
            for (c, out) in done {
                by_chunk[c] = out;
            }
        }
        self.m_worker_imbalance
            .set(worker_max as f64 * n_workers as f64 / n as f64);

        let mut out = Vec::with_capacity(n);
        for outputs in by_chunk {
            out.extend(outputs);
        }
        debug_assert_eq!(out.len(), n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(threads: usize) -> ShardedExecutor {
        ShardedExecutor::new(threads, crate::exec_metric_names!("test.exec"))
    }

    #[test]
    fn empty_input() {
        for threads in [1, 4] {
            let got: Vec<u64> = exec(threads).map(&[] as &[u64], || (), |_, _, x| x * x);
            assert!(got.is_empty());
            let sums: Vec<u64> = exec(threads).fold_buckets(
                &[] as &[u64],
                &mut [(), (), ()],
                |_, x| (*x % 3) as usize,
                |_, _, b| b.len() as u64,
            );
            assert_eq!(sums, vec![0, 0, 0]);
        }
    }

    #[test]
    fn map_equals_serial_enumerate_map() {
        // Sizes straddle the chunk edges (one, two and eight chunks per
        // worker, one over) and, at 70,000, the MAX_CHUNK cap even at one
        // thread. The output carries the index, so a chunk landing in the
        // wrong place or handed the wrong indices cannot go unseen.
        for n in [0usize, 1, 2, 15, 16, 17, 64, 65, 1000, 70_000] {
            let items: Vec<u64> = (0..n as u64).rev().collect();
            let want: Vec<(usize, u64)> = items
                .iter()
                .enumerate()
                .map(|(i, x)| (i, x.wrapping_mul(*x)))
                .collect();
            for threads in [1, 2, 3, 4, 8] {
                let got = exec(threads).map(
                    &items,
                    || 0u64, // per-worker context: a counter nobody reads
                    |ctx, i, x| {
                        *ctx += 1;
                        (i, x.wrapping_mul(*x))
                    },
                );
                assert!(got == want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn fold_buckets_groups_by_shard_in_bucket_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 3, 4, 8] {
            // Each bucket writes its items into its own shard and returns
            // their sum.
            let mut shards: Vec<Vec<u64>> = vec![Vec::new(); 4];
            let sums: Vec<u64> = exec(threads).fold_buckets(
                &items,
                &mut shards,
                |_, x| (*x % 4) as usize,
                |b, shard, bucket| {
                    shard.extend(bucket.iter().map(|(_, x)| **x));
                    assert!(shard.iter().all(|x| *x % 4 == b as u64));
                    shard.iter().sum()
                },
            );
            // Bucket b holds 0..100 congruent to b mod 4; sums are fixed and
            // come back in bucket order, and every shard got its own items
            // in input order.
            assert_eq!(sums, vec![1200, 1225, 1250, 1275], "threads={threads}");
            for (b, shard) in shards.iter().enumerate() {
                let want: Vec<u64> = (b as u64..100).step_by(4).collect();
                assert_eq!(shard, &want, "threads={threads}");
            }
        }
    }

    #[test]
    fn panicking_worker_surfaces_panic() {
        // A worker panic must propagate out of `map` (after the scope joins
        // every thread) rather than deadlock or vanish.
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                exec(threads).map(
                    &items,
                    || (),
                    |_, _, x| {
                        if *x == 13 {
                            panic!("worker died on purpose");
                        }
                        *x
                    },
                )
            });
            assert!(result.is_err(), "threads={threads}: panic must surface");
        }
    }
}
