//! Metric names and the one-line JSON result.

use crate::trace::WORLD_KINDS;

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("study_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`) other than the per-world-event-kind
/// pairs, which [`per_layer_names`] adds.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("setup.generate_ms", "ms"),
    ("setup.runstate_ms", "ms"),
    ("world.events", "count"),
    ("world.busy_ms", "ms"),
    ("collect.busy_ms", "ms"),
    ("collect.admitted", "count"),
    ("crawl.busy_ms", "ms"),
    ("crawl.fqdns", "count"),
    ("crawl.us_per_fqdn", "us"),
    ("crawl.us_per_fqdn_q1", "us"),
    ("crawl.us_per_fqdn_q4", "us"),
    ("crawl.dns_us", "us"),
    ("crawl.http_us", "us"),
    ("crawl.extract_us", "us"),
    ("crawl.compare_us", "us"),
    ("crawl.changed_pct", "%"),
    ("crawl.sampled", "count"),
    ("diff.busy_ms", "ms"),
    ("diff.changes", "count"),
    ("incr.busy_ms", "ms"),
    ("incr.finalize_ms", "ms"),
    ("retro.assemble_ms", "ms"),
    ("persist.record_ms", "ms"),
    ("persist.finish_ms", "ms"),
    ("persist.state_mb", "MB"),
    ("persist.bytes_per_record", "B"),
    ("persist.open_ms", "ms"),
    ("persist.open_rss_mb", "MB"),
    ("persist.replay_ms", "ms"),
    ("persist.records_replayed", "count"),
    ("serve.publish_us", "us"),
    ("serve.verdict_p50_us", "us"),
    ("serve.verdict_p99_us", "us"),
    ("serve.status_us", "us"),
    ("serve.health_us", "us"),
    ("serve.signatures_us", "us"),
    ("serve.clusters_us", "us"),
    ("serve.queries", "count"),
    ("serve.failed", "count"),
    ("mem.setup_rss_mb", "MB"),
    ("mem.rss_per_fqdn_kb", "KB"),
    ("mem.gauge_bytes_per_fqdn", "B"),
    ("mem.gauge_ms", "ms"),
    ("trace.sample_ms", "ms"),
    ("trace.study_s", "s"),
    ("trace.untraced_study_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
    ("trace.spans", "count"),
    ("query.samples", "count"),
    ("round.samples", "count"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in WORLD_KINDS {
        names.push((format!("world.{kind}_count"), "count"));
        names.push((format!("world.{kind}_us"), "us"));
    }
    names
}

/// The result line: correctness, operation counts and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .or_else(|| {
                per_layer_names()
                    .into_iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, u)| u)
            })
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Default::default()
        };
        r.set("study_s", 9.25);
        r.set("world.provision_us", 1.5);
        let v: serde_json::Value = serde_json::from_str(&r.json()).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(10));
        let m = v.get("metrics").unwrap();
        let study = m.get("study_s").unwrap();
        assert_eq!(study.get("value").and_then(|x| x.as_f64()), Some(9.25));
        assert_eq!(study.get("unit").and_then(|x| x.as_str()), Some("s"));
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        all.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
