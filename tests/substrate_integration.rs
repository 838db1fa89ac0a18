//! Cross-crate integration tests for the substrates working together,
//! without the full scenario driver: DNS ↔ cloud platform ↔ HTTP ↔ CA.

use cloudsim::{AccountId, CloudPlatform, PlatformConfig, ServiceId};
use dangling_core::collect::{CloudPointer, Collector};
use dangling_core::monitor::Crawler;
use dns::{Name, RecordData, Resolver, ResourceRecord, Zone, ZoneSet};
use httpsim::{Endpoint, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::SimTime;

/// Build a two-org world by hand and walk the full hijack kill-chain.
#[test]
fn hijack_kill_chain() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut platform = CloudPlatform::new(PlatformConfig::default());
    let t0 = SimTime(0);

    // 1. Victim provisions a web app + CNAME.
    let rid = platform
        .register(
            ServiceId::AzureWebApp,
            Some("megacorp-promo"),
            None,
            AccountId::Org(1),
            t0,
            &mut rng,
        )
        .unwrap();
    platform.set_content(rid, cloudsim::SiteContent::placeholder("MegaCorp promo"));
    let victim: Name = "promo.megacorp.com".parse().unwrap();
    platform.bind_custom_domain(rid, victim.clone());
    let mut org_zone = Zone::new("megacorp.com".parse().unwrap());
    org_zone.add(ResourceRecord::new(
        victim.clone(),
        300,
        RecordData::Cname("megacorp-promo.azurewebsites.net".parse().unwrap()),
    ));

    let build_resolver = |platform: &CloudPlatform, org_zone: &Zone| {
        let mut zs = ZoneSet::new();
        zs.insert(org_zone.clone());
        for z in platform.zones().iter() {
            zs.insert(z.clone());
        }
        Resolver::new(zs)
    };

    // 2. The crawler sees the benign site.
    let resolver = build_resolver(&platform, &org_zone);
    let snap = Crawler::sample(&victim, &resolver, &platform, None, t0);
    assert_eq!(snap.http_status, Some(200));
    assert!(snap.page.title.as_deref().unwrap().contains("MegaCorp"));

    // 3. Victim decommissions but forgets the record.
    platform.release(rid, SimTime(30));
    let resolver = build_resolver(&platform, &org_zone);
    let dangling = resolver.resolve_a(&victim, SimTime(31));
    assert!(dangling.is_dangling_cname());

    // 4. Attacker finds and re-registers the exact name.
    let scanner = attacker::Scanner::new();
    let findings = scanner.scan(
        std::slice::from_ref(&victim),
        &resolver,
        &platform,
        SimTime(40),
    );
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    let hid = platform
        .register(
            f.service,
            Some(&f.resource_name),
            None,
            AccountId::Attacker(0),
            SimTime(40),
            &mut rng,
        )
        .unwrap();
    platform.bind_custom_domain(hid, victim.clone());
    let mut arng = StdRng::seed_from_u64(9);
    let spec = contentgen::abuse::AbuseSpec {
        topic: contentgen::abuse::AbuseTopic::Gambling,
        technique: contentgen::abuse::SeoTechnique::DoorwayPages,
        page_count: 20_000,
        use_meta_keywords: true,
        maintenance_shell_lang: None,
        links: contentgen::abuse::CampaignLinks {
            phones: vec!["6281234509876".into()],
            target_site: "maxwin.example".into(),
            referral_code: "R1".into(),
            ..Default::default()
        },
        network_peers: vec![],
        template_keywords: vec![],
    };
    platform.set_content(hid, contentgen::abuse::build_abuse_site(&spec, &mut arng));

    // 5. The crawler now sees gambling content on the victim domain.
    let resolver = build_resolver(&platform, &org_zone);
    let snap2 = Crawler::sample(&victim, &resolver, &platform, Some(&snap), SimTime(47));
    assert_eq!(snap2.http_status, Some(200));
    assert!(snap2
        .page
        .keywords
        .iter()
        .any(|k| k == "slot" || k == "gacor" || k == "judi"));
    let kinds = dangling_core::diff::diff(&snap, &snap2);
    assert!(!kinds.is_empty());

    // 6. Remediation: purge the record; the hijack goes dark.
    org_zone.remove_name(&victim);
    let resolver = build_resolver(&platform, &org_zone);
    let snap3 = Crawler::sample(&victim, &resolver, &platform, Some(&snap2), SimTime(54));
    assert!(!snap3.is_serving());
}

/// Algorithm 1 correctly distinguishes CNAME-cloud, A-record-cloud, and
/// non-cloud names against the live platform.
#[test]
fn algorithm1_against_platform() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut platform = CloudPlatform::new(PlatformConfig::default());
    let rid = platform
        .register(
            ServiceId::HerokuApp,
            Some("acme-app"),
            None,
            AccountId::Org(1),
            SimTime(0),
            &mut rng,
        )
        .unwrap();
    let vm = platform
        .register(
            ServiceId::AwsEc2PublicIp,
            None,
            None,
            AccountId::Org(1),
            SimTime(0),
            &mut rng,
        )
        .unwrap();
    let vm_ip = platform.resource(vm).unwrap().ip;
    let _ = rid;

    let mut zone = Zone::new("acme.com".parse().unwrap());
    zone.add(ResourceRecord::new(
        "app.acme.com".parse().unwrap(),
        300,
        RecordData::Cname("acme-app.herokuapp.com".parse().unwrap()),
    ));
    zone.add(ResourceRecord::new(
        "vm.acme.com".parse().unwrap(),
        300,
        RecordData::A(vm_ip),
    ));
    zone.add(ResourceRecord::new(
        "www.acme.com".parse().unwrap(),
        300,
        RecordData::A("93.184.216.34".parse().unwrap()),
    ));
    let mut zs = ZoneSet::new();
    zs.insert(zone);
    for z in platform.zones().iter() {
        zs.insert(z.clone());
    }
    let resolver = Resolver::new(zs);
    let collector = Collector::new();

    let c1 = collector.classify(&"app.acme.com".parse().unwrap(), &resolver, SimTime(0));
    assert!(matches!(
        c1,
        CloudPointer::CnameSuffix {
            service: ServiceId::HerokuApp,
            ..
        }
    ));
    let c2 = collector.classify(&"vm.acme.com".parse().unwrap(), &resolver, SimTime(0));
    assert!(matches!(
        c2,
        CloudPointer::CloudIp {
            service: ServiceId::AwsEc2PublicIp,
            ..
        }
    ));
    let c3 = collector.classify(&"www.acme.com".parse().unwrap(), &resolver, SimTime(0));
    assert_eq!(c3, CloudPointer::NotCloud);
}

/// Issuance through the world's DNS honors CAA set in org zones, and HTTPS
/// serving requires the binding (§5.6 mechanics without the scenario).
#[test]
fn https_requires_issuance() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut platform = CloudPlatform::new(PlatformConfig::default());
    let rid = platform
        .register(
            ServiceId::NetlifyApp,
            Some("corp-site"),
            None,
            AccountId::Org(5),
            SimTime(0),
            &mut rng,
        )
        .unwrap();
    let host: Name = "secure.corp.com".parse().unwrap();
    platform.bind_custom_domain(rid, host.clone());
    let ip = platform.resource(rid).unwrap().ip;

    // No cert: HTTPS fails, HTTP works.
    assert!(platform
        .http_serve(ip, &Request::get_https(host.to_string(), "/"), SimTime(0))
        .is_none());
    assert!(platform
        .http_serve(ip, &Request::get(host.to_string(), "/"), SimTime(0))
        .is_some());

    // Issue via certsim with control answered by the platform.
    let control = |account: AccountId, h: &Name, _t: SimTime| {
        platform
            .resource_by_host(h)
            .map(|r| r.owner == account)
            .unwrap_or(false)
    };
    let cert = certsim::issue(
        certsim::CaId::LetsEncrypt,
        AccountId::Org(5),
        std::slice::from_ref(&host),
        &control,
        &|_| Vec::new(),
        certsim::CertId(1),
        SimTime(0),
    )
    .unwrap();
    assert!(cert.is_single_san());
    platform.add_tls_host(rid, host.clone());
    assert!(platform
        .http_serve(ip, &Request::get_https(host.to_string(), "/"), SimTime(0))
        .is_some());
}
