//! Offline stand-in for `criterion`.
//!
//! A minimal timing harness over the surface this workspace's benches use:
//! `criterion_group!`/`criterion_main!`, `Criterion::{benchmark_group,
//! bench_function}`, group `throughput`/`bench_function`/`bench_with_input`/
//! `finish`, `Bencher::iter`, `BenchmarkId`, `Throughput`, and `black_box`.
//!
//! Unlike real criterion there is no statistical analysis: each benchmark
//! runs a short calibration to pick an iteration count targeting a fixed
//! measurement budget, then prints one line per benchmark:
//!
//! ```text
//! group/name              mean 12_345 ns/iter (x iters)    843.21 Melem/s
//! ```
//!
//! Command-line filter args (`cargo bench -- <substr>`) are honored: a
//! benchmark runs if any filter is a substring of its full id (or no
//! filters are given). `--bench`, `--test`, and flag-like args that cargo
//! forwards are ignored.

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, like `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Units the measured routine processes per iteration; turns mean time into
/// a rate column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
    BytesDecimal(u64),
}

/// A parameterized benchmark id: `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new<S: Into<String>, P: std::fmt::Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// Anything accepted where a benchmark name is expected.
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

/// Passed to the measured closure; `iter` times `iters` calls of the
/// routine around a monotonic clock.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Time budget per benchmark. Kept short: these are smoke/ballpark numbers,
/// not publication-grade statistics.
const TARGET_BUDGET: Duration = Duration::from_millis(300);
const MAX_CALIBRATION: Duration = Duration::from_millis(100);

fn run_one(full_id: &str, throughput: Option<Throughput>, f: &mut dyn FnMut(&mut Bencher)) {
    // Calibrate: run single iterations until the budget suggests a count.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let once = b.elapsed.max(Duration::from_nanos(1));
    let iters = if once >= MAX_CALIBRATION {
        1
    } else {
        (TARGET_BUDGET.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64
    };
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let mean_ns = b.elapsed.as_nanos() as f64 / iters as f64;
    let rate = throughput.map(|t| {
        let (units, suffix) = match t {
            Throughput::Elements(n) => (n, "elem/s"),
            Throughput::Bytes(n) | Throughput::BytesDecimal(n) => (n, "B/s"),
        };
        let per_sec = units as f64 * 1e9 / mean_ns.max(1.0);
        if per_sec >= 1e6 {
            format!("{:10.2} M{suffix}", per_sec / 1e6)
        } else if per_sec >= 1e3 {
            format!("{:10.2} K{suffix}", per_sec / 1e3)
        } else {
            format!("{per_sec:10.2} {suffix}")
        }
    });
    match rate {
        Some(r) => println!("{full_id:<48} mean {mean_ns:>14.0} ns/iter ({iters} iters) {r}"),
        None => println!("{full_id:<48} mean {mean_ns:>14.0} ns/iter ({iters} iters)"),
    }
}

/// Substring filters from the forwarded CLI args (flag-like args skipped).
fn cli_filters() -> Vec<String> {
    std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-') && a != "bench" && a != "test")
        .collect()
}

fn selected(filters: &[String], full_id: &str) -> bool {
    filters.is_empty() || filters.iter().any(|f| full_id.contains(f.as_str()))
}

/// The harness entry point; one per bench binary.
pub struct Criterion {
    filters: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            filters: cli_filters(),
        }
    }
}

impl Criterion {
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            criterion: self,
        }
    }

    pub fn bench_function<S: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        let full_id = id.into_benchmark_id();
        if selected(&self.filters, &full_id) {
            run_one(&full_id, None, &mut f);
        }
        self
    }
}

/// A named group of related benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<S: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        let full_id = format!("{}/{}", self.name, id.into_benchmark_id());
        if selected(&self.criterion.filters, &full_id) {
            run_one(&full_id, self.throughput, &mut f);
        }
        self
    }

    pub fn bench_with_input<S: IntoBenchmarkId, I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: S,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full_id = format!("{}/{}", self.name, id.into_benchmark_id());
        if selected(&self.criterion.filters, &full_id) {
            run_one(&full_id, self.throughput, &mut |b| f(b, input));
        }
        self
    }

    pub fn finish(self) {}
}

/// Collect benchmark functions into a runnable group, like criterion's.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Entry point for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
