//! Generic shard-parallel execution under the pipeline's determinism
//! contract.
//!
//! [`ShardedExecutor`] generalizes the work-partitioning machinery the weekly
//! crawl introduced so every shard-friendly pass — crawling, Algorithm-1
//! classification, signature matching, benign clustering — runs under one
//! discipline:
//!
//! 1. work is partitioned into buckets by a **fixed, content-keyed hash**
//!    (never by arrival or iteration order),
//! 2. each bucket is split into bounded **task batches** enqueued onto
//!    per-worker queues at admission; a worker drains its own queue and only
//!    then steals batches from other workers' queues — so at 1M+ tasks
//!    admission costs one enqueue per batch instead of every worker
//!    hammering one shared cursor lock, and
//! 3. outputs are re-assembled in the **canonical input order** (or, for
//!    bucket folds, in bucket-id order) before anything downstream sees them,
//!
//! so the result is byte-identical for any thread count. Worker closures must
//! be pure with respect to shared state: they may read the pre-pass world but
//! never write anything another task could observe. Any randomness must come
//! from an [`simcore::RngTree`] stream keyed by item content, not a shared
//! sequential RNG.
//!
//! Telemetry is out-of-band and prefix-named per executor (e.g. `crawl.*`,
//! `retro.incr.*`) so per-phase shard/worker imbalance is observable without
//! perturbing results. A panicking worker propagates its panic out of
//! [`ShardedExecutor::map`] after the scope joins — it never deadlocks the
//! remaining workers.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;

/// A contiguous run of one bucket's task indices: the unit of queueing and
/// stealing. Bounded so one giant bucket still spreads across workers.
#[derive(Debug, Clone)]
struct Batch {
    bucket: usize,
    range: Range<usize>,
}

/// Telemetry names for one executor, fixed at compile time. Build with
/// [`crate::exec_metric_names!`].
#[derive(Debug, Clone, Copy)]
pub struct ExecMetricNames {
    pub tasks: &'static str,
    pub steals: &'static str,
    pub shard_tasks: &'static str,
    pub worker_tasks: &'static str,
    pub shard_imbalance: &'static str,
    pub worker_imbalance: &'static str,
}

/// Expand a literal prefix into the six per-executor telemetry names
/// (`<prefix>.tasks`, `<prefix>.steals`, `<prefix>.shard_tasks`,
/// `<prefix>.worker_tasks`, `<prefix>.shard_imbalance`,
/// `<prefix>.worker_imbalance`).
#[macro_export]
macro_rules! exec_metric_names {
    ($prefix:literal) => {
        $crate::pipeline::ExecMetricNames {
            tasks: concat!($prefix, ".tasks"),
            steals: concat!($prefix, ".steals"),
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
    /// Max tasks per queued batch; `None` picks a size from the workload
    /// (see [`ShardedExecutor::batch_size_for`]).
    batch_size: Option<usize>,
    // Telemetry handles, resolved once at construction so the hot path never
    // touches the registry lock. All out-of-band: nothing here feeds back
    // into results.
    m_tasks: &'static obs::Counter,
    m_steals: &'static obs::Counter,
    m_shard_tasks: &'static obs::Histogram,
    m_worker_tasks: &'static obs::Histogram,
    m_shard_imbalance: &'static obs::Gauge,
    m_worker_imbalance: &'static obs::Gauge,
}

impl ShardedExecutor {
    pub fn new(threads: usize, names: ExecMetricNames) -> Self {
        ShardedExecutor {
            threads: threads.max(1),
            batch_size: None,
            m_tasks: obs::counter(names.tasks),
            m_steals: obs::counter(names.steals),
            m_shard_tasks: obs::histogram(names.shard_tasks),
            m_worker_tasks: obs::histogram(names.worker_tasks),
            m_shard_imbalance: obs::gauge(names.shard_imbalance),
            m_worker_imbalance: obs::gauge(names.worker_imbalance),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Override the task-batch size (mainly for tests pinning batch-boundary
    /// behavior and for bench tuning). Values are clamped to ≥ 1.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// Batch size for a workload: aim for several batches per worker so
    /// stealing can level imbalance, but cap admission overhead at large
    /// scale (1M tasks on 8 threads → 4096-task batches, ~256 enqueues,
    /// not 1M cursor bumps).
    fn batch_size_for(&self, n_items: usize) -> usize {
        match self.batch_size {
            Some(b) => b,
            None => (n_items / (self.threads * 8)).clamp(64, 4096),
        }
    }

    /// Partition `items` into `buckets` index buckets by `shard_of`. The
    /// same item always lands in the same bucket no matter how many workers
    /// run — `shard_of` must be a pure function of item content.
    fn partition<T, FS>(items: &[T], buckets: usize, shard_of: &FS) -> Vec<Vec<usize>>
    where
        FS: Fn(&T) -> usize,
    {
        let buckets = buckets.max(1);
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); buckets];
        for (i, item) in items.iter().enumerate() {
            let b = shard_of(item);
            debug_assert!(b < buckets, "shard_of returned {b} for {buckets} buckets");
            out[b.min(buckets - 1)].push(i);
        }
        out
    }

    /// Map every item to an output, returning outputs in **input order**.
    ///
    /// `make_ctx` is a per-worker factory (e.g. a resolver with its own TTL
    /// cache) so no lock is shared on the hot path; `work` receives the
    /// worker context, the item's input index, and the item. Output is
    /// byte-identical for any thread count as long as `work` is deterministic
    /// per item.
    pub fn map<T, R, C, FS, FC, FW>(
        &self,
        items: &[T],
        buckets: usize,
        shard_of: FS,
        make_ctx: FC,
        work: FW,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        FS: Fn(&T) -> usize + Sync,
        FC: Fn() -> C + Sync,
        FW: Fn(&mut C, usize, &T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() < 2 {
            let mut ctx = make_ctx();
            self.m_tasks.add(items.len() as u64);
            self.m_worker_tasks.record(items.len() as u64);
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| work(&mut ctx, i, item))
                .collect();
        }

        let buckets = Self::partition(items, buckets, &shard_of);
        // Per-shard load picture for this pass: task count per shard and the
        // max/mean imbalance ratio (1.0 = perfectly even hash split).
        let shard_max = buckets.iter().map(Vec::len).max().unwrap_or(0);
        for bucket in &buckets {
            self.m_shard_tasks.record(bucket.len() as u64);
        }
        self.m_shard_imbalance
            .set(shard_max as f64 * buckets.len() as f64 / items.len() as f64);

        // Admission: split each bucket into bounded batches and deal them
        // onto per-worker queues (bucket-major, round-robin across workers).
        // Each enqueue covers up to `batch` tasks, so admission cost is
        // O(items / batch) — not one shared-cursor bump per bucket per
        // worker — and a single oversized bucket still spreads out.
        let batch = self.batch_size_for(items.len());
        let n_workers = self.threads.min(items.len()).max(1);
        let queues: Vec<Mutex<VecDeque<Batch>>> = (0..n_workers)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        {
            let mut next_worker = 0usize;
            for (b, bucket) in buckets.iter().enumerate() {
                let mut start = 0;
                while start < bucket.len() {
                    let end = (start + batch).min(bucket.len());
                    queues[next_worker].lock().push_back(Batch {
                        bucket: b,
                        range: start..end,
                    });
                    next_worker = (next_worker + 1) % n_workers;
                    start = end;
                }
            }
        }

        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        // (tasks done, batches stolen) per worker, pushed as each worker
        // exits; merged into the registry after the scope joins.
        let worker_stats: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

        crossbeam::scope(|s| {
            for w in 0..n_workers {
                let queues = &queues;
                let buckets = &buckets;
                let collected = &collected;
                let worker_stats = &worker_stats;
                let make_ctx = &make_ctx;
                let work = &work;
                s.spawn(move |_| {
                    let mut ctx = make_ctx();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut stolen: u64 = 0;
                    loop {
                        // Own queue first (front: admission order), then
                        // steal from victims' backs — opposite ends keep the
                        // owner and thieves off the same cache lines of work.
                        let mut next = queues[w].lock().pop_front();
                        if next.is_none() {
                            for v in 1..n_workers {
                                let victim = (w + v) % n_workers;
                                if let Some(b) = queues[victim].lock().pop_back() {
                                    stolen += 1;
                                    next = Some(b);
                                    break;
                                }
                            }
                        }
                        // Every queue drained: no new batches are ever
                        // admitted after spawn, so empty means done.
                        let Some(Batch { bucket, range }) = next else {
                            break;
                        };
                        for &i in &buckets[bucket][range] {
                            local.push((i, work(&mut ctx, i, &items[i])));
                        }
                    }
                    worker_stats.lock().push((local.len() as u64, stolen));
                    collected.lock().extend(local);
                });
            }
        })
        .expect("sharded worker panicked");

        let worker_stats = worker_stats.into_inner();
        let mut worker_max: u64 = 0;
        for &(tasks, steals) in &worker_stats {
            self.m_tasks.add(tasks);
            self.m_steals.add(steals);
            self.m_worker_tasks.record(tasks);
            worker_max = worker_max.max(tasks);
        }
        if !worker_stats.is_empty() {
            self.m_worker_imbalance
                .set(worker_max as f64 * worker_stats.len() as f64 / items.len().max(1) as f64);
        }

        // Canonical re-assembly: downstream always sees input order,
        // independent of the thread schedule.
        let mut indexed = collected.into_inner();
        indexed.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(indexed.len(), items.len());
        indexed.into_iter().map(|(_, out)| out).collect()
    }

    /// Fold whole buckets: `work` receives a bucket id and that bucket's
    /// `(input_index, item)` slice (indices ascending), and the per-bucket
    /// results come back **in bucket-id order** — the canonical merge order.
    ///
    /// Use this when a pass aggregates per group (e.g. fingerprint
    /// clustering): each bucket's partial aggregate is computed in parallel
    /// and the caller merges partials in a fixed order (or with a
    /// commutative merge), keeping the result thread-count-invariant.
    pub fn fold_buckets<T, B, FS, FW>(
        &self,
        items: &[T],
        buckets: usize,
        shard_of: FS,
        work: FW,
    ) -> Vec<B>
    where
        T: Sync,
        B: Send,
        FS: Fn(&T) -> usize + Sync,
        FW: Fn(usize, &[(usize, &T)]) -> B + Sync,
    {
        let parts = Self::partition(items, buckets, &shard_of);
        let with_items: Vec<(usize, Vec<(usize, &T)>)> = parts
            .into_iter()
            .enumerate()
            .map(|(b, idx)| (b, idx.into_iter().map(|i| (i, &items[i])).collect()))
            .collect();
        // Reuse `map` over the buckets themselves: one work unit per bucket
        // (sharded by its own id), merged back in bucket-id order.
        let n = with_items.len().max(1);
        self.map(
            &with_items,
            n,
            |(b, _)| *b,
            || (),
            |_, _, (b, bucket)| work(*b, bucket),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(threads: usize) -> ShardedExecutor {
        ShardedExecutor::new(threads, crate::exec_metric_names!("test.exec"))
    }

    fn square_all(threads: usize, items: &[u64], buckets: usize) -> Vec<u64> {
        exec(threads).map(
            items,
            buckets,
            |x| (*x % buckets.max(1) as u64) as usize,
            || 0u64, // per-worker context: a counter nobody reads
            |ctx, _i, x| {
                *ctx += 1;
                x * x
            },
        )
    }

    #[test]
    fn empty_input() {
        for threads in [1, 4] {
            assert!(square_all(threads, &[], 8).is_empty());
        }
    }

    #[test]
    fn one_item() {
        for threads in [1, 4] {
            assert_eq!(square_all(threads, &[7], 8), vec![49]);
        }
    }

    #[test]
    fn items_much_fewer_than_shards() {
        let items = [3u64, 1, 2];
        let want = vec![9, 1, 4];
        for threads in [1, 2, 8] {
            assert_eq!(square_all(threads, &items, 64), want, "threads={threads}");
        }
    }

    #[test]
    fn shards_much_fewer_than_items() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(square_all(threads, &items, 2), want, "threads={threads}");
        }
    }

    #[test]
    fn order_is_canonical_for_any_thread_count() {
        let items: Vec<u64> = (0..500).rev().collect();
        let serial = square_all(1, &items, 16);
        for threads in [2, 3, 4, 8] {
            assert_eq!(square_all(threads, &items, 16), serial);
        }
    }

    #[test]
    fn fold_buckets_groups_by_shard_in_bucket_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let sums: Vec<u64> = exec(threads).fold_buckets(
                &items,
                4,
                |x| (*x % 4) as usize,
                |_b, bucket| bucket.iter().map(|(_, x)| **x).sum(),
            );
            // Bucket b holds 0..100 congruent to b mod 4; sums are fixed and
            // come back in bucket order.
            assert_eq!(sums, vec![1200, 1225, 1250, 1275], "threads={threads}");
        }
    }

    /// The PR-4 executor (whole-bucket shared cursor) merged outputs in
    /// input order after canonical reassembly. Emulate it exactly: process
    /// buckets in bucket-id order, then sort by input index — the reference
    /// the batched per-worker queues must keep matching.
    fn pr4_cursor_reference<FS: Fn(&u64) -> usize>(
        items: &[u64],
        buckets: usize,
        shard_of: FS,
    ) -> Vec<u64> {
        let buckets = buckets.max(1);
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); buckets];
        for (i, x) in items.iter().enumerate() {
            parts[shard_of(x).min(buckets - 1)].push(i);
        }
        let mut indexed: Vec<(usize, u64)> = Vec::new();
        for bucket in &parts {
            for &i in bucket {
                indexed.push((i, items[i] * items[i]));
            }
        }
        indexed.sort_unstable_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, x)| x).collect()
    }

    #[test]
    fn batched_admission_never_reorders_vs_pr4_cursor() {
        // Batch boundaries are the dangerous part: exercise bucket sizes
        // that are below, at, exactly at, one over, and far over the batch
        // size, at every thread count the equivalence suites pin.
        let shard = |x: &u64| (*x % 7) as usize;
        for n_items in [1usize, 7, 63, 64, 65, 128, 129, 1000] {
            let items: Vec<u64> = (0..n_items as u64).rev().collect();
            let want = pr4_cursor_reference(&items, 7, shard);
            for threads in [1, 2, 4, 8] {
                for batch_size in [1, 2, 64, 4096] {
                    let got = exec(threads).with_batch_size(batch_size).map(
                        &items,
                        7,
                        shard,
                        || (),
                        |_, _, x| x * x,
                    );
                    assert_eq!(
                        got, want,
                        "n={n_items} threads={threads} batch={batch_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn stealing_drains_imbalanced_queues() {
        // Everything hashes to one bucket: admission splits it into many
        // batches dealt round-robin, and stealing must still complete the
        // whole workload in canonical order.
        let items: Vec<u64> = (0..3000).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [2, 8] {
            let got = exec(threads).with_batch_size(16).map(
                &items,
                64,
                |_| 0usize,
                || (),
                |_, _, x| x * x,
            );
            assert_eq!(got, want, "threads={threads}");
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
                    8,
                    |x| (*x % 8) as usize,
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
