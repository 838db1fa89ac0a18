//! # obs — deterministic-safe tracing and metrics
//!
//! Telemetry for the monitoring pipeline, built around one hard contract:
//! **observability is strictly out-of-band**. Nothing in this crate touches
//! an RNG stream, stage-visible state, or anything else a simulation result
//! could depend on — recording uses wall-clock time and process-global
//! atomics only, so `StudyResults` is byte-identical with telemetry on or
//! off, at any thread count (`telemetry_equivalence` in `dangling-core`
//! proves it end to end).
//!
//! Three subsystems:
//!
//! - [`metrics`] — [`Counter`]/[`Gauge`]/[`Histogram`] primitives. Writes
//!   are relaxed atomic operations on one shared cell per value; the
//!   parallel crawl writes only two counters, so there is nothing to stripe.
//!   A process-global registry dumps everything as JSON
//!   (`repro --metrics out.json`).
//! - [`span`] — wall-clock spans with sim-time/round correlation, one per
//!   pipeline stage, pushed straight into a global sink when they end and
//!   exported as Chrome
//!   `trace_event` JSON, directly loadable in Perfetto
//!   (`repro --trace out.json`).
//! - [`output`] — verbosity-gated human output ([`info!`], [`warn!`],
//!   [`progress!`]) replacing ad-hoc `eprintln!` calls; libraries default to
//!   silent, binaries opt in.
//! - [`causal`] — deterministic, *virtual-time* causal traces of individual
//!   crawls (`trace/{fqdn}/{day}`-keyed ids, keyed sampling, Perfetto flow
//!   arrows, per-round critical-path analysis). Opt-in via
//!   [`set_causal_tracing`]; like everything else here, provably unable to
//!   perturb results.
//!
//! ## Always-on vs. opt-in
//!
//! Metric recording is always compiled in and always on: a write is one
//! relaxed `fetch_add`, cheap enough to leave enabled (`obs_overhead`
//! bench asserts <2% on a full crawl round). Span
//! *collection* is opt-in via [`set_tracing`] because spans allocate sink
//! entries; a [`SpanGuard`] created while tracing is off still measures time
//! for its optional histogram but records no trace event.
//!
//! ## Metric naming scheme
//!
//! `subsystem.metric[_unit]`, lowercase, dot-separated subsystem, underscore
//! words: `pipeline.crawl_ns`, `crawl.tasks`, `storelog.commit_ns`,
//! `world.hijacks`. Durations are always `_ns` histograms; ratios are
//! gauges.

pub mod causal;
pub mod metrics;
pub mod output;
pub mod span;

pub use causal::{
    causal_enabled, collect_causal, critical_paths, sampled, set_causal_tracing, set_trace_sample,
    take_causal, trace_id, trace_sample, CausalSpan, RoundCriticalPath, TraceCtx, TraceDigest,
    TraceId,
};
pub use metrics::{counter, gauge, histogram, metrics_json, Counter, Gauge, Histogram};
pub use output::{set_progress, set_verbosity, Verbosity};
pub use span::{
    export_trace, set_tracing, take_spans, tracing_enabled, write_chrome_trace,
    write_chrome_trace_with_causal, SpanGuard, SpanRecord,
};

/// Start a span named `name` under category `cat`. The guard records a trace
/// event when dropped (if tracing is enabled — see [`span::set_tracing`])
/// and optionally feeds its duration into a histogram via
/// [`SpanGuard::record_into`].
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    SpanGuard::new(name, cat)
}
