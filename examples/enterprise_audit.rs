//! Enterprise audit: use the library the way a security team would — run
//! Algorithm 1 + the dangling-record scanner against one organization's
//! zone to find takeover-exposed subdomains *before* an attacker does.
//!
//! ```sh
//! cargo run --release --example enterprise_audit
//! ```

use attacker::Scanner;
use cloudsim::{AccountId, CloudPlatform, PlatformConfig, ServiceId};
use dangling_core::collect::Collector;
use dns::{Name, RecordData, Resolver, ResourceRecord, Zone, ZoneSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::SimTime;

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut platform = CloudPlatform::new(PlatformConfig::default());
    let now = SimTime(0);

    // --- The org's cloud estate: some live, some already abandoned. ---
    let mut zone = Zone::new("contoso.com".parse().unwrap());
    let estate: &[(&str, ServiceId, Option<&str>, bool)] = &[
        ("www", ServiceId::AzureWebApp, None, true),
        ("shop", ServiceId::AzureWebApp, None, false), // decommissioned!
        ("assets", ServiceId::AwsS3Website, Some("eu-west-1"), false), // decommissioned!
        (
            "api",
            ServiceId::AwsElasticBeanstalk,
            Some("us-east-1"),
            true,
        ),
        ("blog", ServiceId::HerokuApp, None, true),
    ];
    for (label, service, region, keep) in estate {
        let resource_name = format!("contoso-{label}");
        let rid = platform
            .register(
                *service,
                Some(&resource_name),
                *region,
                AccountId::Org(1),
                now,
                &mut rng,
            )
            .expect("register");
        let fqdn: Name = format!("{label}.contoso.com").parse().unwrap();
        platform.bind_custom_domain(rid, fqdn.clone());
        let target = platform
            .resource(rid)
            .unwrap()
            .generated_fqdn
            .clone()
            .unwrap();
        zone.add(ResourceRecord::new(fqdn, 300, RecordData::Cname(target)));
        if !keep {
            // The sin of §1: release the resource, forget the record.
            platform.release(rid, now);
        }
    }

    // --- Compose DNS and audit. ---
    let mut zones = ZoneSet::new();
    zones.insert(zone);
    for z in platform.zones().iter() {
        zones.insert(z.clone());
    }
    let resolver = Resolver::new(zones);
    let candidates: Vec<Name> = estate
        .iter()
        .map(|(l, _, _, _)| format!("{l}.contoso.com").parse().unwrap())
        .collect();

    println!("== Step 1: Algorithm 1 — which subdomains point at clouds? ==");
    let collector = Collector::new();
    for (fqdn, ptr) in collector.collect_fqdns(&candidates, &resolver, now) {
        println!("  {fqdn}  ->  {:?}", ptr.service().unwrap());
    }

    println!();
    println!("== Step 2: dangling scan — which of them are takeover-exposed? ==");
    let scanner = Scanner::new();
    let findings = scanner.scan(&candidates, &resolver, &platform, now);
    if findings.is_empty() {
        println!("  none — estate is clean");
    }
    for f in &findings {
        println!(
            "  VULNERABLE: {} -> {} ({}; re-registrable name {:?})",
            f.victim_fqdn, f.cloud_fqdn, f.service, f.resource_name
        );
    }

    println!();
    println!("== Step 3: prove exploitability (attacker's view) ==");
    for f in &findings {
        let rid = platform
            .register(
                f.service,
                Some(&f.resource_name),
                f.region.as_deref(),
                AccountId::Attacker(0),
                now,
                &mut rng,
            )
            .expect("the whole point: re-registration succeeds");
        println!(
            "  re-registered {} — traffic for {} is now attacker-controlled",
            platform
                .resource(rid)
                .unwrap()
                .generated_fqdn
                .as_ref()
                .unwrap(),
            f.victim_fqdn
        );
        platform.release(rid, now); // hand it back
    }
    println!();
    println!(
        "Remediation: purge the {} dangling record(s) or re-register the names yourself.",
        findings.len()
    );
}
