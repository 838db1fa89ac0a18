//! Causal, **virtual-time** tracing of each crawl's network waits.
//!
//! Wall-clock spans ([`crate::span`]) answer "where does the *process* spend
//! time"; causal spans answer "where does a *crawl* spend simulated time".
//! Each crawl a shard admits gets a deterministic [`TraceId`] keyed exactly
//! like the RNG streams (`trace/{fqdn}/{day}`), and the crawl's pricing
//! hook (`core::pipeline::crawl`) emits one child span per priced wait —
//! each DNS attempt, each connect, each HTTP request — stamped in
//! simulated nanoseconds from the crawl's admission time. The root span
//! decomposes the crawl into **queue-wait** (virtual time between round
//! start and admission to an in-flight slot) and **service** (the sum of
//! priced network waits); because a crawl's waits are contiguous in
//! virtual time, the decomposition is exact: `queue_wait + service ==
//! total`, span for span.
//!
//! Determinism contract: nothing here can perturb results. The trace id is
//! a pure hash of `(fqdn, day)` — no RNG stream is touched, derived, or
//! reordered — and the sampling decision ([`sampled`]) is a modulus on that
//! hash, so it is identical at any thread count and any sample rate.
//! [`emit`] pushes each span straight into one global sink under a mutex,
//! from whichever worker thread completed it, so a span is collectable as
//! soon as it is emitted. That is one lock per sampled query and crawl,
//! taken only while causal tracing is on. `StudyResults` stays byte-identical
//! with causal tracing on or off (the `telemetry_equivalence` causal leg
//! pins it).
//!
//! Export: [`write_causal_trace_events`] renders the spans as Chrome
//! `trace_event` slices on a second Perfetto "process" (pid 2 — the virtual
//! clock), one synthetic thread per trace, linked by flow arrows so one
//! FQDN's crawl reads as one causal chain. [`critical_paths`] computes the
//! per-round critical path (longest causal chain), its queue-wait/service
//! decomposition, and the top-K slowest FQDNs.

use crate::span::ArgValue;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static CAUSAL: AtomicBool = AtomicBool::new(false);
static SAMPLE: AtomicU64 = AtomicU64::new(1);

/// Enable or disable causal span collection process-wide. Off by default;
/// `repro --critical-path` / `--trace` flip it on.
pub fn set_causal_tracing(on: bool) {
    CAUSAL.store(on, Ordering::Relaxed);
}

pub fn causal_enabled() -> bool {
    CAUSAL.load(Ordering::Relaxed)
}

/// Keyed sampling: keep one trace in `n` (`repro --trace-sample N`). The
/// decision is a modulus over the trace-id hash, so which FQDNs are kept is
/// a pure function of `(fqdn, day, n)` — never of thread count or timing.
pub fn set_trace_sample(n: u64) {
    SAMPLE.store(n.max(1), Ordering::Relaxed);
}

pub fn trace_sample() -> u64 {
    SAMPLE.load(Ordering::Relaxed).max(1)
}

/// Deterministic identity of one crawl's causal trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The trace id for crawling `fqdn` on simulated day `day` — FNV-1a over
/// the stream path `trace/{fqdn}/{day}`, mirroring how RNG streams are
/// keyed by content rather than call order.
pub fn trace_id(fqdn: &str, day: i64) -> TraceId {
    TraceId(fnv1a(FNV_OFFSET, format!("trace/{fqdn}/{day}").as_bytes()))
}

/// Is this trace kept under the current sampling rate (and is causal
/// tracing on at all)?
pub fn sampled(id: TraceId) -> bool {
    causal_enabled() && id.0.is_multiple_of(trace_sample())
}

/// Span-id salts: one namespace per phase of a crawl — the DNS chain, the
/// index fetch and the sitemap fetch — so the two fetches' connect and
/// request spans (indices 0 and 1 in each) can never collide.
pub const SALT_ROOT: u64 = 0;
pub const SALT_DNS: u64 = 1;
pub const SALT_INDEX: u64 = 2;
pub const SALT_SITEMAP: u64 = 3;

/// Deterministic span id: FNV-1a over `(trace, salt, index)`.
pub fn span_id(trace: TraceId, salt: u64, index: u64) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &trace.0.to_le_bytes());
    h = fnv1a(h, &salt.to_le_bytes());
    fnv1a(h, &index.to_le_bytes())
}

/// The causal context of one traced crawl: everything a child span needs
/// to link itself into the trace. `base_ns` is the virtual instant the
/// crawl was admitted at; its waits stamp `base_ns + elapsed-so-far`.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    pub trace: TraceId,
    /// Span id of the enclosing (root) span.
    pub parent: u64,
    /// Virtual admission time of the crawl.
    pub base_ns: u64,
    /// Simulated day of the round (groups traces per round).
    pub day: i64,
}

impl TraceCtx {
    /// The root context for one crawl admitted at virtual time `base_ns`.
    pub fn root(trace: TraceId, base_ns: u64, day: i64) -> TraceCtx {
        TraceCtx {
            trace,
            parent: span_id(trace, SALT_ROOT, 0),
            base_ns,
            day,
        }
    }

    /// Emit the `index`-th child span in the span-id namespace `salt`: one
    /// completed network wait of `dur_ns` starting at `start_ns` (both
    /// virtual).
    pub fn emit_child(
        &self,
        salt: u64,
        index: u64,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        emit(CausalSpan {
            trace: self.trace,
            span_id: span_id(self.trace, salt, index),
            parent: Some(self.parent),
            name,
            fqdn: String::new(),
            day: self.day,
            start_ns,
            dur_ns,
            queue_wait_ns: 0,
            service_ns: dur_ns,
            args,
        });
    }
}

/// One completed causal span, stamped in simulated nanoseconds.
#[derive(Debug, Clone)]
pub struct CausalSpan {
    pub trace: TraceId,
    pub span_id: u64,
    /// `None` marks the trace's root span.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The crawled FQDN (root spans only; empty on children).
    pub fqdn: String,
    pub day: i64,
    /// Virtual nanoseconds since round start.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Virtual time spent waiting for an in-flight slot (root spans).
    pub queue_wait_ns: u64,
    /// Virtual time spent in priced network waits.
    pub service_ns: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

impl CausalSpan {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

static SINK: Mutex<Vec<CausalSpan>> = Mutex::new(Vec::new());

fn sink() -> MutexGuard<'static, Vec<CausalSpan>> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Record one completed span in the global sink. Callers gate on
/// [`sampled`] (a crawl only carries a [`TraceCtx`] when its trace was
/// kept), so this is unconditional.
pub fn emit(span: CausalSpan) {
    sink().push(span);
}

/// *Clone* every collected span, leaving the sink intact — so the
/// critical-path renderer and the trace exporter can both read the same
/// run.
pub fn collect_causal() -> Vec<CausalSpan> {
    sink().clone()
}

/// *Drain* every collected span (tests use this to isolate legs).
pub fn take_causal() -> Vec<CausalSpan> {
    std::mem::take(&mut *sink())
}

// ---------------------------------------------------------------------------
// Perfetto export: pid 2, one synthetic thread per trace, flow arrows.
// ---------------------------------------------------------------------------

/// Order spans for export and analysis: by trace, then roots first, then
/// virtual start, then span id — fully deterministic regardless of which
/// worker emitted when.
fn sort_spans(spans: &mut [CausalSpan]) {
    spans.sort_by(|a, b| {
        (a.trace, a.parent.is_some(), a.start_ns, a.span_id).cmp(&(
            b.trace,
            b.parent.is_some(),
            b.start_ns,
            b.span_id,
        ))
    });
}

fn write_args<W: Write>(w: &mut W, pairs: &[(&str, ArgValue)]) -> io::Result<()> {
    write!(w, ", \"args\": {{")?;
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            write!(w, ", ")?;
        }
        write!(w, "\"{}\": ", crate::span::json_escape(k))?;
        match v {
            ArgValue::I64(n) => write!(w, "{n}")?,
            ArgValue::F64(f) if f.is_finite() => write!(w, "{f}")?,
            ArgValue::F64(_) => write!(w, "0")?,
            ArgValue::Str(s) => write!(w, "\"{}\"", crate::span::json_escape(s))?,
        }
    }
    write!(w, "}}")
}

fn write_ts<W: Write>(w: &mut W, key: &str, ns: u64) -> io::Result<()> {
    write!(w, ", \"{key}\": {}.{:03}", ns / 1_000, ns % 1_000)
}

/// Append causal spans to an open `traceEvents` array (every event is
/// prefixed with `,\n`): slices on pid 2 ("virtual network time"), one
/// synthetic tid per trace, plus `s`/`f` flow arrows chaining each trace's
/// spans in virtual-time order. Flow ids are the destination span ids —
/// globally unique by construction.
pub fn write_causal_trace_events<W: Write>(spans: &[CausalSpan], w: &mut W) -> io::Result<()> {
    if spans.is_empty() {
        return Ok(());
    }
    let mut spans = spans.to_vec();
    sort_spans(&mut spans);

    write!(
        w,
        ",\n    {{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", \
         \"args\": {{\"name\": \"virtual network time (causal crawl traces)\"}}}}"
    )?;

    // Intern a small tid per trace in sorted order.
    let mut tids: BTreeMap<TraceId, u64> = BTreeMap::new();
    for s in &spans {
        let next = tids.len() as u64 + 1;
        let tid = *tids.entry(s.trace).or_insert(next);
        if tid == next && s.parent.is_none() {
            write!(
                w,
                ",\n    {{\"ph\": \"M\", \"pid\": 2, \"tid\": {tid}, \
                 \"name\": \"thread_name\", \"args\": {{\"name\": \"{} (day {})\"}}}}",
                crate::span::json_escape(&s.fqdn),
                s.day
            )?;
        }
    }

    for s in &spans {
        let tid = tids[&s.trace];
        write!(
            w,
            ",\n    {{\"name\": \"{}\", \"cat\": \"causal\", \"ph\": \"X\", \
             \"pid\": 2, \"tid\": {tid}",
            crate::span::json_escape(s.name),
        )?;
        write_ts(w, "ts", s.start_ns)?;
        write_ts(w, "dur", s.dur_ns)?;
        let mut args: Vec<(&str, ArgValue)> = vec![
            ("trace", ArgValue::Str(format!("{:#018x}", s.trace.0))),
            ("span", ArgValue::Str(format!("{:#018x}", s.span_id))),
            ("day", ArgValue::I64(s.day)),
        ];
        if let Some(p) = s.parent {
            args.push(("parent", ArgValue::Str(format!("{p:#018x}"))));
        }
        if !s.fqdn.is_empty() {
            args.push(("fqdn", ArgValue::Str(s.fqdn.clone())));
        }
        if s.parent.is_none() {
            args.push(("queue_wait_ns", ArgValue::I64(s.queue_wait_ns as i64)));
            args.push(("service_ns", ArgValue::I64(s.service_ns as i64)));
        }
        args.extend(s.args.iter().cloned());
        write_args(w, &args)?;
        write!(w, "}}")?;
    }

    // Flow arrows: chain each trace's spans in virtual-time order (root
    // first — sort order guarantees it), binding step N to step N+1.
    let mut i = 0;
    while i < spans.len() {
        let trace = spans[i].trace;
        let mut j = i;
        while j + 1 < spans.len() && spans[j + 1].trace == trace {
            let (src, dst) = (&spans[j], &spans[j + 1]);
            let tid = tids[&trace];
            // The `s` event must land inside the source slice; the `f`
            // event (`bp: e`) binds to the destination slice's start.
            let ts_s = dst.start_ns.clamp(src.start_ns, src.end_ns());
            write!(
                w,
                ",\n    {{\"ph\": \"s\", \"pid\": 2, \"tid\": {tid}, \
                 \"name\": \"crawl-chain\", \"cat\": \"causal\", \
                 \"id\": \"{:#018x}\"",
                dst.span_id
            )?;
            write_ts(w, "ts", ts_s)?;
            write!(w, "}}")?;
            write!(
                w,
                ",\n    {{\"ph\": \"f\", \"bp\": \"e\", \"pid\": 2, \"tid\": {tid}, \
                 \"name\": \"crawl-chain\", \"cat\": \"causal\", \
                 \"id\": \"{:#018x}\"",
                dst.span_id
            )?;
            write_ts(w, "ts", dst.start_ns)?;
            write!(w, "}}")?;
            j += 1;
        }
        i = j + 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Critical-path analysis.
// ---------------------------------------------------------------------------

/// One trace's totals, as ranked by the analyzer.
#[derive(Debug, Clone)]
pub struct TraceDigest {
    pub trace: TraceId,
    pub fqdn: String,
    pub day: i64,
    /// Root-span duration: virtual time from round start to crawl
    /// completion.
    pub total_ns: u64,
    pub queue_wait_ns: u64,
    pub service_ns: u64,
    /// Child spans observed (network waits).
    pub spans: usize,
}

/// One round's critical path: the trace whose completion *is* the round's
/// virtual makespan, decomposed into queue-wait + service.
#[derive(Debug, Clone)]
pub struct RoundCriticalPath {
    pub day: i64,
    /// Sampled traces this round.
    pub traces: usize,
    /// Max virtual completion over the round's traces.
    pub makespan_ns: u64,
    /// Fraction of the makespan the critical trace's queue-wait + service
    /// segments account for (exactly 1.0 by construction — asserted ≥0.95
    /// by the acceptance tests, so a regression in the decomposition is
    /// loud).
    pub decomposed_fraction: f64,
    /// Sum over all traces.
    pub queue_wait_total_ns: u64,
    pub service_total_ns: u64,
    pub critical: TraceDigest,
    /// The critical trace's child spans in virtual-time order:
    /// `(name, start_ns, dur_ns)`.
    pub chain: Vec<(&'static str, u64, u64)>,
    /// Top-K slowest traces (by total), slowest first.
    pub top: Vec<TraceDigest>,
}

/// Group spans by simulated day and compute each round's critical path and
/// top-`top_k` slowest FQDNs. Deterministic: ties break on trace id.
pub fn critical_paths(spans: &[CausalSpan], top_k: usize) -> Vec<RoundCriticalPath> {
    let mut children: BTreeMap<TraceId, Vec<&CausalSpan>> = BTreeMap::new();
    let mut roots: BTreeMap<i64, Vec<&CausalSpan>> = BTreeMap::new();
    for s in spans {
        match s.parent {
            None => roots.entry(s.day).or_default().push(s),
            Some(_) => children.entry(s.trace).or_default().push(s),
        }
    }
    let mut out = Vec::new();
    for (day, mut day_roots) in roots {
        day_roots.sort_by_key(|s| (s.dur_ns, s.trace));
        let digest = |s: &CausalSpan| TraceDigest {
            trace: s.trace,
            fqdn: s.fqdn.clone(),
            day: s.day,
            total_ns: s.dur_ns,
            queue_wait_ns: s.queue_wait_ns,
            service_ns: s.service_ns,
            spans: children.get(&s.trace).map_or(0, |c| c.len()),
        };
        let critical_span = *day_roots.last().expect("non-empty day group");
        let makespan_ns = critical_span.end_ns();
        let critical = digest(critical_span);
        let mut chain: Vec<(&'static str, u64, u64)> = children
            .get(&critical_span.trace)
            .map(|c| c.iter().map(|s| (s.name, s.start_ns, s.dur_ns)).collect())
            .unwrap_or_default();
        chain.sort_by_key(|&(_, start, dur)| (start, dur));
        let decomposed = critical.queue_wait_ns + critical.service_ns;
        out.push(RoundCriticalPath {
            day,
            traces: day_roots.len(),
            makespan_ns,
            decomposed_fraction: if makespan_ns == 0 {
                1.0
            } else {
                decomposed as f64 / makespan_ns as f64
            },
            queue_wait_total_ns: day_roots.iter().map(|s| s.queue_wait_ns).sum(),
            service_total_ns: day_roots.iter().map(|s| s.service_ns).sum(),
            critical,
            chain,
            top: day_roots
                .iter()
                .rev()
                .take(top_k)
                .map(|s| digest(s))
                .collect(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(fqdn: &str, day: i64, wait: u64, service: u64) -> CausalSpan {
        let trace = trace_id(fqdn, day);
        CausalSpan {
            trace,
            span_id: span_id(trace, SALT_ROOT, 0),
            parent: None,
            name: "crawl",
            fqdn: fqdn.into(),
            day,
            start_ns: 0,
            dur_ns: wait + service,
            queue_wait_ns: wait,
            service_ns: service,
            args: Vec::new(),
        }
    }

    #[test]
    fn trace_ids_are_content_keyed() {
        assert_eq!(trace_id("a.example", 7), trace_id("a.example", 7));
        assert_ne!(trace_id("a.example", 7), trace_id("a.example", 14));
        assert_ne!(trace_id("a.example", 7), trace_id("b.example", 7));
    }

    #[test]
    fn sampling_is_a_pure_hash_decision() {
        set_causal_tracing(true);
        set_trace_sample(4);
        let kept: Vec<bool> = (0..64)
            .map(|i| sampled(trace_id(&format!("h{i}.example"), 3)))
            .collect();
        // Same inputs, same decisions.
        for (i, k) in kept.iter().enumerate() {
            assert_eq!(*k, sampled(trace_id(&format!("h{i}.example"), 3)));
        }
        assert!(kept.iter().any(|k| *k), "1-in-4 kept none of 64");
        assert!(kept.iter().any(|k| !*k), "1-in-4 kept all of 64");
        set_trace_sample(1);
        assert!(sampled(trace_id("h0.example", 3)), "sample 1 keeps all");
        set_causal_tracing(false);
        assert!(!sampled(trace_id("h0.example", 3)), "disabled keeps none");
    }

    #[test]
    fn span_ids_differ_across_salts_and_indices() {
        let t = trace_id("x.example", 1);
        let ids = [
            span_id(t, SALT_ROOT, 0),
            span_id(t, SALT_DNS, 0),
            span_id(t, SALT_DNS, 1),
            span_id(t, SALT_INDEX, 0),
            span_id(t, SALT_SITEMAP, 0),
        ];
        let mut dedup = ids.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn critical_path_finds_the_makespan_trace() {
        let spans = vec![
            root("fast.example", 7, 10, 100),
            root("slow.example", 7, 500, 2_000),
            root("mid.example", 7, 50, 300),
            root("other-day.example", 14, 1, 2),
        ];
        let rounds = critical_paths(&spans, 2);
        assert_eq!(rounds.len(), 2);
        let day7 = &rounds[0];
        assert_eq!(day7.day, 7);
        assert_eq!(day7.traces, 3);
        assert_eq!(day7.makespan_ns, 2_500);
        assert_eq!(day7.critical.fqdn, "slow.example");
        assert!((day7.decomposed_fraction - 1.0).abs() < 1e-12);
        assert_eq!(day7.top.len(), 2);
        assert_eq!(day7.top[0].fqdn, "slow.example");
        assert_eq!(day7.top[1].fqdn, "mid.example");
        assert_eq!(day7.queue_wait_total_ns, 560);
        assert_eq!(day7.service_total_ns, 2_400);
    }

    #[test]
    fn export_produces_slices_and_flows() {
        let trace = trace_id("flow.example", 3);
        let mut spans = vec![root("flow.example", 3, 5, 45)];
        let ctx = TraceCtx::root(trace, 5, 3);
        spans.push(CausalSpan {
            trace,
            span_id: span_id(trace, SALT_DNS, 0),
            parent: Some(ctx.parent),
            name: "dns.query",
            fqdn: String::new(),
            day: 3,
            start_ns: 5,
            dur_ns: 20,
            queue_wait_ns: 0,
            service_ns: 20,
            args: Vec::new(),
        });
        spans.push(CausalSpan {
            trace,
            span_id: span_id(trace, SALT_INDEX, 0),
            parent: Some(ctx.parent),
            name: "probe.connect",
            fqdn: String::new(),
            day: 3,
            start_ns: 25,
            dur_ns: 25,
            queue_wait_ns: 0,
            service_ns: 25,
            args: Vec::new(),
        });
        let mut buf = Vec::new();
        write_causal_trace_events(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"pid\": 2"));
        assert!(text.contains("virtual network time"));
        assert!(text.contains("\"ph\": \"s\""));
        assert!(text.contains("\"bp\": \"e\""));
        // Two edges (root->dns, dns->probe), ids = destination span ids.
        assert_eq!(text.matches("\"ph\": \"s\"").count(), 2);
        assert_eq!(text.matches("\"ph\": \"f\"").count(), 2);
        let dns_id = format!("{:#018x}", span_id(trace, SALT_DNS, 0));
        assert!(text.contains(&dns_id));
    }
}
