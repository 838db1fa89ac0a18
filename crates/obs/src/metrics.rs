//! Metric primitives and the process-global registry.
//!
//! Every primitive is a handful of relaxed atomics, so counts are exact
//! under any interleaving (addition commutes). They are not striped per
//! thread: inside a parallel crawl only `crawl.transient_failures` (once
//! per failed fetch) and `crawl.query_timeouts` (once per bucket) are
//! written; every other metric is written after the workers join or by one
//! thread (the pipeline thread, or serve's query thread), so there is no
//! contention for per-thread stripes to spread.
//!
//! Metrics are registered by name on first use ([`counter`], [`gauge`],
//! [`histogram`]) and live for the process lifetime; [`metrics_json`] dumps
//! the whole registry as deterministic (name-sorted) JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Log-bucket count: bucket `i` holds values whose bit length is `i`
/// (i.e. `2^(i-1) <= v < 2^i`), bucket 0 holds zero.
pub const BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Monotone event counter: one relaxed `fetch_add` per `add`.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// Last-writer-wins instantaneous value, stored as `f64` bits. Gauges are
/// set from serial code (round boundaries), so a single atomic cell is
/// enough.
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0), // 0.0f64 has all-zero bits
        }
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Index of the log bucket holding `v`: 0 for zero, else `v`'s bit length
/// (so bucket `i` covers `[2^(i-1), 2^i)` and the last bucket tops out at
/// `u64::MAX`).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the value reported for quantiles
/// that land in it).
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Log-bucketed histogram of `u64` samples (durations in ns, sizes in
/// bytes). `record` is five relaxed atomic ops; totals, min/max and bucket
/// counts are exact.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<u64>,
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0.0..=1.0).
    /// Log-bucket resolution: within a factor of 2 of the true value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

fn poison_ok<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    match r {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Look up (or register) the counter named `name`. The handle is
/// `'static` (registration leaks one allocation for the process lifetime) —
/// hot paths cache it once instead of paying the map lookup per event.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = poison_ok(registry().counters.lock());
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Look up (or register) the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut map = poison_ok(registry().gauges.lock());
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// Look up (or register) the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = poison_ok(registry().histograms.lock());
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Dump every registered metric as JSON, names sorted, suitable for
/// `repro --metrics`. Histograms report count/sum/min/max/mean, coarse
/// quantiles, and the non-empty `[upper_bound, count]` buckets.
pub fn metrics_json() -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"counters\": {");
    {
        let map = poison_ok(registry().counters.lock());
        let mut first = true;
        for (name, c) in map.iter() {
            sep(&mut out, &mut first);
            push_key(&mut out, name, 4);
            out.push_str(&c.get().to_string());
        }
        close_obj(&mut out, first, 2);
    }
    out.push_str(",\n  \"gauges\": {");
    {
        let map = poison_ok(registry().gauges.lock());
        let mut first = true;
        for (name, g) in map.iter() {
            sep(&mut out, &mut first);
            push_key(&mut out, name, 4);
            push_f64(&mut out, g.get());
        }
        close_obj(&mut out, first, 2);
    }
    out.push_str(",\n  \"histograms\": {");
    {
        let map = poison_ok(registry().histograms.lock());
        let mut first = true;
        for (name, h) in map.iter() {
            sep(&mut out, &mut first);
            push_key(&mut out, name, 4);
            let s = h.snapshot();
            out.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": ",
                s.count, s.sum, s.min, s.max
            ));
            push_f64(&mut out, s.mean());
            out.push_str(&format!(
                ", \"p50\": {}, \"p90\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}, \
                 \"buckets\": [",
                s.quantile(0.5),
                s.quantile(0.9),
                s.quantile(0.95),
                s.quantile(0.99),
                s.quantile(0.999)
            ));
            let mut bfirst = true;
            for (i, &c) in s.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !bfirst {
                    out.push_str(", ");
                }
                bfirst = false;
                out.push_str(&format!("[{}, {c}]", bucket_bound(i)));
            }
            out.push_str("]}");
        }
        close_obj(&mut out, first, 2);
    }
    out.push_str("\n}\n");
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
}

fn push_key(out: &mut String, name: &str, indent: usize) {
    for _ in 0..indent {
        out.push(' ');
    }
    out.push('"');
    // Metric names are static identifiers (no quotes/backslashes), but
    // escape defensively so the dump is always valid JSON.
    out.push_str(&crate::span::json_escape(name));
    out.push_str("\": ");
}

fn close_obj(out: &mut String, empty: bool, indent: usize) {
    if !empty {
        out.push('\n');
        for _ in 0..indent {
            out.push(' ');
        }
    }
    out.push('}');
}

/// JSON has no Infinity/NaN literals; clamp them to null-safe numbers.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        // `{}` prints integral f64s without a dot; keep them typed as
        // floats so strict consumers see a consistent schema.
        if !s.contains('.') && !s.contains('e') {
            out.push_str(".0");
        }
    } else {
        out.push('0');
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        // Zero gets its own bucket.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_bound(0), 0);
        // Each power of two opens a new bucket; the value just below it
        // closes the previous one.
        for i in 1..64u32 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_of(lo), i as usize, "lower edge of bucket {i}");
            assert_eq!(bucket_of(hi), i as usize, "upper edge of bucket {i}");
            assert_eq!(bucket_of(hi) + 1, bucket_of(hi + 1), "boundary {i}");
            assert_eq!(bucket_bound(i as usize), hi);
        }
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(64), u64::MAX);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
    }

    #[test]
    fn histogram_totals_and_extremes() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 3 + 4 + 1000).wrapping_add(u64::MAX)
        );
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 1); // 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[10], 1); // 1000
        assert_eq!(s.buckets[64], 1); // MAX
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantiles_land_on_bucket_bounds() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, bound 127
        }
        for _ in 0..10 {
            h.record(1 << 20); // bucket 21
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 127);
        assert_eq!(s.quantile(0.9), 127);
        // p99 falls in the tail bucket; reported bound is clamped to max.
        assert_eq!(s.quantile(0.99), 1 << 20);
        assert_eq!(s.quantile(1.0), 1 << 20);
    }

    #[test]
    fn counter_adds_and_increments() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1.25);
        assert_eq!(g.get(), 1.25);
        g.set(-3.0);
        assert_eq!(g.get(), -3.0);
    }

    #[test]
    fn registry_returns_same_handle() {
        let a = counter("test.registry.same_handle") as *const Counter;
        let b = counter("test.registry.same_handle") as *const Counter;
        assert_eq!(a, b);
    }
}
