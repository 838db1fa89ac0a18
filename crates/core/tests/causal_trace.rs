//! The causal-trace contract (DESIGN.md §12), in two layers:
//!
//! - **End to end** — a wan-profile run with causal tracing on yields
//!   traces whose children are enclosed by their root span in virtual
//!   time, whose roots decompose exactly into queue-wait + service, and
//!   whose per-round critical path accounts for ≥95% of the round's
//!   virtual makespan (it is 1.0 by construction; the slack keeps the
//!   assertion honest if the decomposition ever gains a rounding step).
//!   The run's span export is also pinned byte for byte to the committed
//!   `causal_wan/trace.digest`, so virtual time itself cannot drift. That
//!   study never fills a shard's in-flight slots, so a second pinned run
//!   (`causal_wan/queued.digest`) crawls 1,200 sites through one shard,
//!   where 176 crawls must queue for a slot.
//! - **Property layer** — arbitrary trace forests emitted through the real
//!   [`obs::TraceCtx`] machinery export Perfetto flow arrows with globally
//!   unique ids, every `s`/`f` pair matched, and enclosure preserved
//!   through the emit → sink → export path.
//!
//! The causal sink is process-global, so every test that touches it holds
//! [`GLOBAL`] for its full duration.

mod golden;

use cloudsim::{sitemap_bytes, AccountId, CloudPlatform, PlatformConfig, ServiceId, SiteContent};
use dangling_core::pipeline::CrawlExecutor;
use dangling_core::scenario::Scenario;
use dangling_core::snapshot::SnapshotStore;
use dns::{Name, RecordData, Resolver, ResourceRecord, Zone, ZoneSet};
use obs::causal::{SALT_DNS, SALT_ROOT};
use obs::{CausalSpan, TraceCtx};
use proptest::prelude::*;
use rand::SeedableRng;
use simcore::{LatencyProfile, RngTree, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Serializes access to the process-global causal sink across the tests in
/// this binary.
static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    match GLOBAL.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Parse the full Chrome-trace document and return the flow-event ids:
/// `(starts, finishes)` in document order.
fn flow_ids(doc: &str) -> (Vec<String>, Vec<String>) {
    let v: serde_json::Value = serde_json::from_str(doc).expect("trace JSON parses");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    let mut starts = Vec::new();
    let mut finishes = Vec::new();
    for e in events {
        match e["ph"].as_str() {
            Some("s") => starts.push(e["id"].as_str().expect("flow id").to_string()),
            Some("f") => finishes.push(e["id"].as_str().expect("flow id").to_string()),
            _ => {}
        }
    }
    (starts, finishes)
}

fn assert_unique_matched_flows(doc: &str) {
    let (starts, finishes) = flow_ids(doc);
    let start_set: BTreeSet<&String> = starts.iter().collect();
    let finish_set: BTreeSet<&String> = finishes.iter().collect();
    assert_eq!(start_set.len(), starts.len(), "duplicate flow-start ids");
    assert_eq!(
        finish_set.len(),
        finishes.len(),
        "duplicate flow-finish ids"
    );
    assert_eq!(start_set, finish_set, "unmatched flow arrow endpoints");
}

/// Every child span must name an emitted root as parent and sit inside its
/// virtual-time window; every root must decompose exactly.
fn assert_causally_consistent(spans: &[CausalSpan]) {
    let roots: BTreeMap<u64, &CausalSpan> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.span_id, s))
        .collect();
    for s in spans {
        match s.parent {
            None => {
                assert_eq!(
                    s.queue_wait_ns + s.service_ns,
                    s.dur_ns,
                    "root {} ({}) does not decompose: {} + {} != {}",
                    s.fqdn,
                    s.trace.0,
                    s.queue_wait_ns,
                    s.service_ns,
                    s.dur_ns
                );
            }
            Some(p) => {
                let root = roots
                    .get(&p)
                    .unwrap_or_else(|| panic!("child {} has no emitted root", s.name));
                assert_eq!(root.trace, s.trace, "parent link crossed traces");
                assert!(
                    s.start_ns >= root.start_ns && s.end_ns() <= root.end_ns(),
                    "child {} [{}, {}] escapes root {} [{}, {}]",
                    s.name,
                    s.start_ns,
                    s.end_ns(),
                    root.fqdn,
                    root.start_ns,
                    root.end_ns()
                );
            }
        }
    }
}

/// End to end: a wan-profile run produces enclosed, exactly-decomposed
/// traces whose critical path explains each round's virtual makespan.
#[test]
fn wan_run_traces_decompose_the_round_makespan() {
    let _g = lock();
    obs::take_causal();
    obs::set_trace_sample(1);
    obs::set_causal_tracing(true);
    let mut cfg = golden::fixture_config(2);
    cfg.latency_profile = "wan".into();
    let results = Scenario::new(cfg).max_rounds(20).run();
    obs::set_causal_tracing(false);
    let spans = obs::take_causal();
    assert!(results.monitored_total > 0, "run monitored nothing");
    assert!(!spans.is_empty(), "wan run emitted no causal spans");
    assert!(
        spans.iter().any(|s| s.name == "dns.query"),
        "no DNS child spans"
    );
    assert!(
        spans.iter().any(|s| s.name == "probe.connect"),
        "no connect child spans"
    );
    assert!(
        spans.iter().any(|s| s.name == "probe.request"),
        "no request child spans"
    );

    assert_causally_consistent(&spans);

    let rounds = obs::critical_paths(&spans, 5);
    assert!(!rounds.is_empty(), "no per-round critical paths");
    for rcp in &rounds {
        assert!(
            rcp.decomposed_fraction >= 0.95,
            "day {}: critical trace explains only {:.1}% of the {}ns makespan",
            rcp.day,
            rcp.decomposed_fraction * 100.0,
            rcp.makespan_ns
        );
        assert!(
            !rcp.top.is_empty() && rcp.top[0].fqdn == rcp.critical.fqdn,
            "day {}: top-K is not headed by the critical trace",
            rcp.day
        );
        assert_eq!(
            rcp.queue_wait_total_ns + rcp.service_total_ns,
            spans_total_for_day(&spans, rcp.day),
            "day {}: totals drifted from the root spans",
            rcp.day
        );
    }

    let mut buf = Vec::new();
    obs::write_chrome_trace_with_causal(&[], &spans, &mut buf).expect("export");
    golden::assert_matches_golden(&buf, "causal_wan/trace.digest", "wan causal-span export");
    assert_unique_matched_flows(&String::from_utf8(buf).expect("utf8 trace"));
}

/// `n` bound sites, one in three with a sitemap: a CNAME per site from
/// `victim.com` into the platform's zone.
fn bound_sites(n: usize) -> (CloudPlatform, ZoneSet, Vec<Name>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut platform = CloudPlatform::new(PlatformConfig::default());
    let mut zone = Zone::new("victim.com".parse().unwrap());
    let mut monitored = Vec::new();
    for i in 0..n {
        let id = platform
            .register(
                ServiceId::AzureWebApp,
                Some(&format!("site-{i}")),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut rng,
            )
            .unwrap();
        let mut content = SiteContent::placeholder(&format!("Site {i}"));
        if i % 3 == 0 {
            content.sitemap_bytes = Some(sitemap_bytes(1_000));
        }
        platform.set_content(id, content);
        let fqdn: Name = format!("s{i}.victim.com").parse().unwrap();
        platform.bind_custom_domain(id, fqdn.clone());
        zone.add(ResourceRecord::new(
            fqdn.clone(),
            300,
            RecordData::Cname(format!("site-{i}.azurewebsites.net").parse().unwrap()),
        ));
        monitored.push(fqdn);
    }
    let mut zs = ZoneSet::new();
    zs.insert(zone);
    for pz in platform.zones().iter() {
        zs.insert(pz.clone());
    }
    (platform, zs, monitored)
}

/// More crawls than in-flight slots in one shard: the late crawls wait
/// for the earliest running crawl to finish, and the span export (every
/// queue-wait, every wait's virtual start) is pinned.
#[test]
fn queued_crawls_wait_for_the_earliest_slot() {
    let _g = lock();
    let (platform, zs, monitored) = bound_sites(1_200);
    let mut store = SnapshotStore::with_shards(1);
    let tree = RngTree::new(1);
    let exec = CrawlExecutor::new(2, 0.0).with_latency(LatencyProfile::by_name("wan").unwrap());
    obs::take_causal();
    obs::set_trace_sample(1);
    obs::set_causal_tracing(true);
    let round = exec.run(
        &monitored,
        &mut store,
        &tree,
        SimTime(7),
        &|| Resolver::new(zs.clone()),
        &|| &platform,
    );
    obs::set_causal_tracing(false);
    let spans = obs::take_causal();
    assert_eq!(store.len(), monitored.len());
    assert_eq!(round.dns_elapsed_ns.len(), monitored.len());
    let queued = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.queue_wait_ns > 0)
        .count();
    assert_eq!(
        queued,
        1_200 - 1_024,
        "crawls past the slot count must queue"
    );
    assert_causally_consistent(&spans);

    let mut buf = Vec::new();
    obs::write_chrome_trace_with_causal(&[], &spans, &mut buf).expect("export");
    golden::assert_matches_golden(
        &buf,
        "causal_wan/queued.digest",
        "queued causal-span export",
    );
}

fn spans_total_for_day(spans: &[CausalSpan], day: i64) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.day == day)
        .map(|s| s.dur_ns)
        .sum()
}

/// One synthetic trace: a root window plus a chain of sequential child
/// waits, each `(gap_before_ns, dur_ns)`.
type TraceSpec = (u64, i64, Vec<(u64, u64)>);

fn arb_forest() -> impl Strategy<Value = Vec<TraceSpec>> {
    proptest::collection::vec(
        (
            0u64..100_000,
            0i64..6,
            proptest::collection::vec((0u64..1_000, 1u64..10_000), 0..6),
        ),
        1..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary trace forests pushed through the real emit → sink →
    /// export path keep children enclosed and export flow arrows with
    /// globally unique, fully matched ids.
    #[test]
    fn emitted_forests_export_unique_flows_and_enclosed_children(forest in arb_forest()) {
        let _g = lock();
        obs::take_causal();
        for (i, (base_ns, day, waits)) in forest.iter().enumerate() {
            let fqdn = format!("prop{i}.example");
            let tid = obs::trace_id(&fqdn, *day);
            let ctx = TraceCtx::root(tid, *base_ns, *day);
            let mut elapsed = 0u64;
            for (j, (gap, dur)) in waits.iter().enumerate() {
                ctx.emit_child(SALT_DNS, j as u64, "dns.query", base_ns + elapsed + gap, *dur, Vec::new());
                elapsed += gap + dur;
            }
            obs::causal::emit(CausalSpan {
                trace: tid,
                span_id: obs::causal::span_id(tid, SALT_ROOT, 0),
                parent: None,
                name: "crawl",
                fqdn,
                day: *day,
                start_ns: 0,
                dur_ns: base_ns + elapsed,
                queue_wait_ns: *base_ns,
                service_ns: elapsed,
                args: Vec::new(),
            });
        }
        let spans = obs::take_causal();
        prop_assert_eq!(
            spans.len(),
            forest.iter().map(|(_, _, w)| w.len() + 1).sum::<usize>()
        );
        assert_causally_consistent(&spans);

        let mut buf = Vec::new();
        obs::write_chrome_trace_with_causal(&[], &spans, &mut buf).expect("export");
        let doc = String::from_utf8(buf).expect("utf8 trace");
        assert_unique_matched_flows(&doc);

        // Exactly one flow arrow lands on every child span: the arrow id
        // *is* the destination span id, so the start-id set equals the
        // child span-id set.
        let (starts, _) = flow_ids(&doc);
        let children: BTreeSet<String> = spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| format!("{:#018x}", s.span_id))
            .collect();
        prop_assert_eq!(starts.into_iter().collect::<BTreeSet<_>>(), children);
    }

    /// Span ids never collide across the forest — the uniqueness the flow
    /// arrows rely on.
    #[test]
    fn span_ids_are_unique_across_traces(forest in arb_forest()) {
        let mut seen = BTreeSet::new();
        for (i, (_, day, waits)) in forest.iter().enumerate() {
            let tid = obs::trace_id(&format!("prop{i}.example"), *day);
            prop_assert!(seen.insert(obs::causal::span_id(tid, SALT_ROOT, 0)));
            for j in 0..waits.len() {
                prop_assert!(seen.insert(obs::causal::span_id(tid, SALT_DNS, j as u64)));
            }
        }
    }
}
