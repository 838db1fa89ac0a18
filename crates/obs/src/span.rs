//! Wall-clock spans and Chrome `trace_event` export.
//!
//! A [`SpanGuard`] measures from construction to drop and, when tracing is
//! on, pushes its record straight into one global sink under a mutex. Spans
//! wrap whole pipeline stages (about ten per round), so the lock is taken a
//! handful of times per round. A span recorded on any thread is in the sink
//! as soon as its guard drops. [`take_spans`] + [`write_chrome_trace`] turn
//! the sink into a JSON file Perfetto (ui.perfetto.dev) loads directly.
//!
//! Span *collection* is globally gated by [`set_tracing`] — off by default,
//! flipped on by `repro --trace`. A guard created while tracing is off still
//! times itself (for [`SpanGuard::record_into`] histograms) but never
//! touches the sink. None of this can perturb simulation results: spans
//! read the wall clock and write telemetry buffers, nothing else.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Enable or disable span collection process-wide. Metrics are unaffected
/// (always on); only trace-event recording is gated.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The process trace epoch: all timestamps are relative to the first span
/// ever started, so traces start near t=0.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// One span argument value (rendered into the trace event's `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    I64(i64),
    F64(f64),
    Str(String),
}

/// A completed span, as collected and exported.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub cat: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Small per-thread id (assigned in order of each thread's first span).
    pub tid: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

thread_local! {
    static TID: u64 = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        NEXT_TID.fetch_add(1, Ordering::Relaxed)
    };
}

/// Measures from construction to drop; see [`crate::span`].
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    start: Instant,
    /// Captured at construction so one span is recorded consistently even if
    /// tracing is toggled mid-flight.
    tracing: bool,
    args: Vec<(&'static str, ArgValue)>,
    hist: Option<&'static str>,
}

impl SpanGuard {
    pub fn new(name: &'static str, cat: &'static str) -> Self {
        SpanGuard {
            name,
            cat,
            start: Instant::now(),
            tracing: tracing_enabled(),
            args: Vec::new(),
            hist: None,
        }
    }

    /// Attach an integer argument (e.g. the sim day or round number — this
    /// is the sim-time correlation visible in Perfetto).
    pub fn arg_i64(mut self, key: &'static str, v: i64) -> Self {
        if self.tracing {
            self.args.push((key, ArgValue::I64(v)));
        }
        self
    }

    pub fn arg_str(mut self, key: &'static str, v: &str) -> Self {
        if self.tracing {
            self.args.push((key, ArgValue::Str(v.to_string())));
        }
        self
    }

    /// Also record the span's duration (ns) into the named histogram on
    /// drop — works whether or not tracing is enabled, so `--metrics` gets
    /// stage timings without `--trace`.
    pub fn record_into(mut self, histogram: &'static str) -> Self {
        self.hist = Some(histogram);
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if let Some(h) = self.hist {
            crate::metrics::histogram(h).record(dur_ns);
        }
        if !self.tracing {
            return;
        }
        let start_ns = self.start.duration_since(epoch()).as_nanos() as u64;
        let record = SpanRecord {
            name: self.name,
            cat: self.cat,
            start_ns,
            dur_ns,
            tid: TID.with(|t| *t),
            args: std::mem::take(&mut self.args),
        };
        SINK.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }
}

/// Drain every collected span.
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *SINK.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write spans as Chrome `trace_event` JSON (the `traceEvents` array form),
/// loadable in Perfetto and `chrome://tracing`. Timestamps and durations are
/// microseconds with ns precision kept as fractions.
pub fn write_chrome_trace<W: Write>(spans: &[SpanRecord], w: &mut W) -> io::Result<()> {
    write_chrome_trace_with_causal(spans, &[], w)
}

/// [`write_chrome_trace`], plus causal virtual-time spans appended as a
/// second Perfetto process (pid 2) with flow arrows — see [`crate::causal`].
/// The two tracks share one file: pid 1 is the wall clock, pid 2 the
/// simulated clock.
pub fn write_chrome_trace_with_causal<W: Write>(
    spans: &[SpanRecord],
    causal: &[crate::causal::CausalSpan],
    w: &mut W,
) -> io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"displayTimeUnit\": \"ms\",")?;
    writeln!(w, "  \"traceEvents\": [")?;
    write!(
        w,
        "    {{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \
         \"args\": {{\"name\": \"repro monitoring pipeline\"}}}}"
    )?;
    for s in spans {
        write!(
            w,
            ",\n    {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
             \"pid\": 1, \"tid\": {}, \"ts\": {}.{:03}, \"dur\": {}.{:03}",
            json_escape(s.name),
            json_escape(s.cat),
            s.tid,
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.dur_ns / 1_000,
            s.dur_ns % 1_000,
        )?;
        if !s.args.is_empty() {
            write!(w, ", \"args\": {{")?;
            for (i, (k, v)) in s.args.iter().enumerate() {
                if i > 0 {
                    write!(w, ", ")?;
                }
                write!(w, "\"{}\": ", json_escape(k))?;
                match v {
                    ArgValue::I64(n) => write!(w, "{n}")?,
                    ArgValue::F64(f) if f.is_finite() => write!(w, "{f}")?,
                    ArgValue::F64(_) => write!(w, "0")?,
                    ArgValue::Str(s) => write!(w, "\"{}\"", json_escape(s))?,
                }
            }
            write!(w, "}}")?;
        }
        write!(w, "}}")?;
    }
    crate::causal::write_causal_trace_events(causal, w)?;
    writeln!(w, "\n  ]")?;
    writeln!(w, "}}")?;
    Ok(())
}

/// Drain all wall spans, collect any causal virtual-time spans, and write
/// both tracks to `path` as Chrome trace JSON. Returns the number of
/// exported events (wall + causal).
pub fn export_trace(path: &std::path::Path) -> io::Result<usize> {
    let spans = take_spans();
    let causal = crate::causal::collect_causal();
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_chrome_trace_with_causal(&spans, &causal, &mut f)?;
    f.flush()?;
    Ok(spans.len() + causal.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracing flag and span sink are process-global; tests that toggle
    /// them must not interleave.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _l = test_lock();
        set_tracing(false);
        drop(SpanGuard::new("quiet", "test").arg_i64("k", 1));
        // Only spans from this test's thread matter; other tests may race
        // the global sink, so assert on name absence rather than emptiness.
        assert!(take_spans().iter().all(|s| s.name != "quiet"));
    }

    #[test]
    fn span_guard_times_and_buffers() {
        let _l = test_lock();
        set_tracing(true);
        {
            let _g = SpanGuard::new("unit_test_span", "test")
                .arg_i64("day", 42)
                .arg_str("stage", "crawl");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_tracing(false);
        let spans = take_spans();
        let s = spans
            .iter()
            .find(|s| s.name == "unit_test_span")
            .expect("span recorded");
        assert!(s.dur_ns >= 1_000_000, "slept 2ms, got {}ns", s.dur_ns);
        assert!(s.args.contains(&("day", ArgValue::I64(42))));
    }

    #[test]
    fn worker_thread_buffers_flush_on_exit() {
        let _l = test_lock();
        set_tracing(true);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    drop(SpanGuard::new("worker_span", "test"));
                });
            }
        });
        set_tracing(false);
        let spans = take_spans();
        let workers = spans.iter().filter(|s| s.name == "worker_span").count();
        assert_eq!(workers, 4, "every worker's span reached the sink");
    }

    #[test]
    fn escape_covers_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
