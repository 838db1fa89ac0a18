use dangling_core::{Scenario, ScenarioConfig};
use std::collections::HashSet;

fn main() {
    let mut cfg = ScenarioConfig::at_scale(800);
    cfg.world.n_fortune1000 = 60;
    cfg.world.n_global500 = 30;
    cfg.seed = 7;
    let r = Scenario::new(cfg).run();
    let detected: HashSet<_> = r.abuse.iter().map(|a| a.fqdn.clone()).collect();
    println!(
        "truth={} detected={} sigs={} discarded={}",
        r.world.truth.len(),
        r.abuse.len(),
        r.signatures.len(),
        r.signatures_discarded
    );
    for s in &r.signatures {
        println!(
            "SIG kw={:?} sitemap={:?} markers={:?} ids={} members={}",
            s.keywords,
            s.min_sitemap_bytes,
            s.script_markers,
            s.requires_identifiers,
            s.source_members
        );
    }
    for t in &r.world.truth {
        let hit = detected.contains(&t.victim_fqdn);
        if !hit {
            // find change records for this fqdn
            let recs: Vec<_> = r
                .changes
                .iter()
                .filter(|c| c.fqdn == t.victim_fqdn)
                .collect();
            println!(
                "MISSED {} topic={:?} tech={:?} start={} end={:?} changes={}",
                t.victim_fqdn,
                t.topic,
                t.technique,
                t.start,
                t.end,
                recs.len()
            );
            for c in recs {
                println!(
                    "   day={} kinds={:?} kw={:?} meta={:?} sm={:?} serving={}",
                    c.day,
                    c.kinds,
                    c.after.page.keywords,
                    c.after.page.meta_keywords,
                    c.after.sitemap_bytes,
                    c.after.is_serving()
                );
            }
        }
    }
}
