//! Concurrency and export-format tests: metrics must count exactly under
//! contention, and both JSON exports must parse with a real JSON
//! parser (the serde_json shim — dev-dependency only; obs itself stays
//! std-only).

use obs::metrics::{Counter, Histogram};

const THREADS: usize = 8;
const PER_THREAD: u64 = 100_000;

#[test]
fn concurrent_counter_merge_is_exact() {
    let c = Counter::new();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn concurrent_histogram_merge_is_exact() {
    let h = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = &h;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Spread values across buckets and per-thread extremes.
                    h.record((t as u64 + 1) * 1000 + (i % 7));
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS as u64 * PER_THREAD);
    assert_eq!(snap.min, 1000);
    assert_eq!(snap.max, THREADS as u64 * 1000 + 6);
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| {
            (0..PER_THREAD)
                .map(|i| (t + 1) * 1000 + (i % 7))
                .sum::<u64>()
        })
        .sum();
    assert_eq!(snap.sum, expected_sum);
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
}

#[test]
fn metrics_json_parses_and_contains_registered_metrics() {
    obs::counter("test.json.counter").add(7);
    obs::gauge("test.json.gauge").set(1.5);
    let h = obs::histogram("test.json.hist_ns");
    for v in [10u64, 20, 30, 4096] {
        h.record(v);
    }
    let dump = obs::metrics_json();
    let v: serde_json::Value = serde_json::from_str(&dump).expect("metrics dump is valid JSON");
    assert_eq!(v["counters"]["test.json.counter"], 7);
    assert_eq!(v["gauges"]["test.json.gauge"], 1.5);
    let hist = &v["histograms"]["test.json.hist_ns"];
    assert_eq!(hist["count"], 4);
    assert_eq!(hist["min"], 10);
    assert_eq!(hist["max"], 4096);
    assert!(hist["buckets"].as_array().is_some_and(|b| !b.is_empty()));
}

#[test]
fn chrome_trace_parses_with_expected_shape() {
    obs::set_tracing(true);
    {
        let _g = obs::span("trace_test", "test")
            .arg_i64("day", 35)
            .arg_str("stage", "crawl \"quoted\"");
    }
    obs::set_tracing(false);
    let spans: Vec<_> = obs::take_spans()
        .into_iter()
        .filter(|s| s.name == "trace_test")
        .collect();
    assert!(!spans.is_empty());
    let mut out = Vec::new();
    obs::write_chrome_trace(&spans, &mut out).unwrap();
    let v: serde_json::Value = serde_json::from_slice(&out).expect("chrome trace is valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    // Metadata event + the span.
    assert!(events.len() >= 2);
    let span = events
        .iter()
        .find(|e| e["name"] == "trace_test")
        .expect("span event present");
    assert_eq!(span["ph"], "X");
    assert_eq!(span["cat"], "test");
    assert_eq!(span["args"]["day"], 35);
    assert!(span["dur"].as_f64().is_some());
}
