//! Per-figure/table renderers. Each prints the simulated measurement next
//! to the paper's reported value (marked `paper:`), so shape comparisons are
//! immediate.

use analysis::table::{pct, thousands};
use analysis::Table;
use dangling_core::certs::{caa_census, cert_timeline};
use dangling_core::infra::InfraReport;
use dangling_core::lifespan::{lifespan_stats, timeframes};
use dangling_core::StudyResults;
use simcore::SimTime;
use std::fmt::Write as _;

fn month_label(idx: i32) -> String {
    format!("{:04}-{:02}", idx.div_euclid(12), idx.rem_euclid(12) + 1)
}

/// A text sparkline for a monthly series.
fn spark(series: &[(i32, f64)]) -> String {
    const BARS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = series.iter().map(|(_, v)| *v).fold(0.0, f64::max);
    if max <= 0.0 {
        return String::new();
    }
    series
        .iter()
        .map(|(_, v)| BARS[((v / max) * 8.0).round() as usize])
        .collect()
}

pub fn summary(r: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Study summary (scale 1/{}) ==", r.scale.denominator);
    let _ = writeln!(
        out,
        "feed {} | monitored {} (paper 1.5M→3.1M) | changes {} | signatures {} (+{} discarded)",
        thousands(r.feed_size as u64),
        thousands(r.monitored_total as u64),
        thousands(r.changes_total as u64),
        r.signatures.len(),
        r.signatures_discarded
    );
    let _ = writeln!(
        out,
        "abused FQDNs {} (paper 20,904; scaled ≈ {}) | truth {} | precision {:.3} recall {:.3}",
        r.abuse.len(),
        r.scale.apply(20_904),
        r.world.truth.len(),
        r.detection.precision(),
        r.detection.recall()
    );
    out
}

pub fn fig1(r: &StudyResults) -> String {
    let (monitored, cumulative) = r.fig1_series();
    let mut t = Table::new("Figure 1 — monitored vs hijacked (cumulative) by month").headers([
        "month",
        "monitored",
        "hijacked-cum",
    ]);
    let cum_at = |m: i32| -> f64 {
        cumulative
            .iter()
            .take_while(|(mm, _)| *mm <= m)
            .last()
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    for (m, v) in &monitored {
        t.row([
            month_label(*m),
            format!("{v:.0}"),
            format!("{:.0}", cum_at(*m)),
        ]);
    }
    format!(
        "{}\nmonitored: {}\nhijacked:  {}\npaper shape: monitored grows ~2x over 42 months; hijacks accumulate in waves\n",
        t.render(),
        spark(&monitored),
        spark(&cumulative)
    )
}

pub fn fig2(r: &StudyResults) -> String {
    let mut t = Table::new("Figure 2 — % of detected hijacks by signature type").headers([
        "signature type",
        "share",
        "paper",
    ]);
    let paper = |k: &str| match k {
        "KeywordsOnly" => "30.2%",
        "KeywordsSitemap" => "36.1% (additional)",
        "KeywordsInfra" => "10.1%",
        _ => "-",
    };
    for (kind, share) in r.fig2_signature_kinds() {
        let k = format!("{kind:?}");
        t.row([
            k.clone(),
            format!("{:.1}%", share * 100.0),
            paper(&k).to_string(),
        ]);
    }
    t.render()
}

pub fn fig3(r: &StudyResults) -> String {
    let mut t = Table::new("Figure 3 — content classification of hijacked domains")
        .headers(["topic", "share", "paper"]);
    for (topic, share) in r.fig3_topics() {
        let paper = match topic.as_str() {
            "Gambling" => "dominant (gambling/adult lead Table 1)",
            "Adult" => "second",
            "Unknown" => "shell-hidden (the paper's 'HTML Snippet' keywords)",
            _ => "minor",
        };
        t.row([topic, format!("{:.1}%", share * 100.0), paper.to_string()]);
    }
    t.render()
}

pub fn fig4(r: &StudyResults) -> String {
    let pairs = r.fig4_rank_vs_count();
    let mut t = Table::new("Figure 4 — Tranco rank vs hijacked subdomains per SLD (first 25)")
        .headers(["rank", "hijacked subdomains"]);
    for (rank, count) in pairs.iter().take(25) {
        t.row([thousands(*rank as u64), count.to_string()]);
    }
    let tranco_fqdns: u32 = pairs.iter().map(|(_, c)| *c).sum();
    let avg = tranco_fqdns as f64 / pairs.len().max(1) as f64;
    format!(
        "{}\nTranco-ranked SLDs with hijacks: {} | avg hijacked subdomains per ranked SLD: {:.2} (paper: 1.89)\n",
        t.render(),
        pairs.len(),
        avg
    )
}

pub fn fig5(r: &StudyResults) -> String {
    let (fqdns, slds, apex) = r.fig5_sld_stats();
    format!(
        "== Figure 5 — abused names ==\nunique FQDNs: {fqdns} (paper 17,698; scaled ≈ {})\nunique SLDs:  {slds} (paper 11,924)\napex-level:   {apex} (paper 1,565 SLD hijacks)\n",
        r.scale.apply(17_698)
    )
}

pub fn fig6(r: &StudyResults) -> String {
    let (hist, total, mean) = r.fig6_upload_histogram();
    let mut t = Table::new("Figure 6 — HTML files uploaded per abused site (bins of 5,000)")
        .headers(["bin", "sites"]);
    for (lo, c) in hist.bins() {
        if c > 0 {
            t.row([format!("{}+", thousands(lo)), c.to_string()]);
        }
    }
    format!(
        "{}\ntotal files ≈ {} (paper ≈ 492.5M; scaled ≈ {}) | mean per site {:.0} (paper 31,810)\n",
        t.render(),
        thousands(total),
        thousands(r.scale.apply(492_489_492)),
        mean
    )
}

fn victims_table(title: &str, rows: Vec<(String, u32)>, paper_note: &str) -> String {
    let mut t = Table::new(title).headers(["victim apex", "hijacked subdomains"]);
    for (apex, c) in rows {
        t.row([apex, c.to_string()]);
    }
    format!("{}{paper_note}\n", t.render())
}

pub fn fig7(r: &StudyResults) -> String {
    victims_table(
        "Figure 7 — top Tranco-listed victims",
        r.fig7_top_tranco(25),
        "paper: 8,432 Tranco-listed abused domains; top 25 shown",
    )
}

pub fn fig8(r: &StudyResults) -> String {
    let (f500, g500) = r.enterprise_victim_rates();
    let mut s = victims_table(
        "Figure 8 — top Fortune 500 victims",
        r.fig8_top_fortune500(25),
        "",
    );
    let _ = writeln!(
        s,
        "Fortune 500 victim rate: {:.1}% (paper 31%) | Global 500: {:.1}% (paper 25.4%)",
        f500 * 100.0,
        g500 * 100.0
    );
    s
}

pub fn fig9(r: &StudyResults) -> String {
    victims_table(
        "Figure 9 — top university victims",
        r.fig9_top_universities(25),
        "paper: 264 abused university subdomains between 2020 and 2023",
    )
}

pub fn fig10(r: &StudyResults) -> String {
    let series = r.fig10_registrar_diversity();
    let mut t = Table::new("Figure 10 — % change-clusters spanning ≥ X registrars")
        .headers(["X", "share", "paper"]);
    for (x, frac) in &series {
        let paper = match x {
            2 => "89%",
            4 => "33%",
            _ => "-",
        };
        t.row([
            x.to_string(),
            format!("{:.1}%", frac * 100.0),
            paper.to_string(),
        ]);
    }
    format!(
        "{}(clusters confined to one registrar are the parking rotations the rule-out discards)\n",
        t.render()
    )
}

pub fn fig11(r: &StudyResults) -> String {
    let mut t = Table::new("Figure 11 — abuse share by cloud provider")
        .headers(["provider", "share", "paper"]);
    for (p, share) in r.fig11_provider_shares() {
        let paper = match p.as_str() {
            "Azure" => "> 1/2",
            "AWS" => "~1/3",
            _ => "small",
        };
        t.row([p, format!("{:.1}%", share * 100.0), paper.to_string()]);
    }
    t.render()
}

pub fn fig12(r: &StudyResults) -> String {
    let mut t =
        Table::new("Figure 12 — abused content by victim sector").headers(["sector", "hijacks"]);
    for (s, c) in r.fig12_sectors() {
        t.row([s, c.to_string()]);
    }
    format!(
        "{}paper: Industrial/Energy/Motor-Vehicle lead, but abuse is widespread across sectors\n",
        t.render()
    )
}

pub fn fig15(r: &StudyResults) -> String {
    let intervals = r.abuse_intervals();
    let (ecdf, stats) = lifespan_stats(&intervals, r.horizon);
    let mut t = Table::new("Figure 15 — hijack duration ECDF").headers(["days ≤", "fraction"]);
    for d in [5, 15, 30, 65, 100, 200, 365, 700] {
        t.row([d.to_string(), format!("{:.2}", ecdf.fraction_le(d as f64))]);
    }
    format!(
        "{}\nwithin 15d: {:.1}% (paper: 'a large number') | >65d: {:.1}% (paper: >33%) | >1y: {:.1}% (paper: 'some') | median {:.0}d\n",
        t.render(),
        stats.frac_within_15d * 100.0,
        stats.frac_over_65d * 100.0,
        stats.frac_over_1y * 100.0,
        stats.median_days
    )
}

pub fn fig16(r: &StudyResults) -> String {
    let intervals = r.abuse_intervals();
    let (bars, monthly) = timeframes(&intervals, r.horizon);
    let series: Vec<(i32, f64)> = monthly.iter().map(|(m, c)| (*m, *c as f64)).collect();
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 16 — hijack time frames ==");
    let _ = writeln!(out, "domains (sorted by start): {}", bars.len());
    let _ = writeln!(out, "concurrent hijacks by month: {}", spark(&series));
    for (m, c) in &monthly {
        let _ = writeln!(out, "  {}  {:>4} active", month_label(*m), c);
    }
    let _ = writeln!(
        out,
        "paper shape: 2020 burst, early-2021 lull, sustained ramp through 2023"
    );
    out
}

pub fn fig18(r: &StudyResults) -> String {
    let (ages, frac_older_1y) = r.fig18_domain_ages();
    let ecdf = analysis::Ecdf::new(ages.iter().map(|a| *a as f64 / 365.25).collect());
    let mut t =
        Table::new("Figure 18 — WHOIS age of abused SLDs (years)").headers(["age ≤", "fraction"]);
    for y in [1, 3, 5, 10, 15, 20, 25] {
        t.row([y.to_string(), format!("{:.2}", ecdf.fraction_le(y as f64))]);
    }
    format!(
        "{}\nolder than 1 year: {:.2}% (paper: 98.51%); bulk older than a decade\n",
        t.render(),
        frac_older_1y * 100.0
    )
}

pub fn fig19(r: &StudyResults) -> String {
    let (one, multi, by_month) = r.fig19_virustotal();
    let mut t = Table::new("Figure 19 — VirusTotal flags by first-certificate month")
        .headers(["month", "flagged"]);
    for (m, c) in by_month {
        t.row([month_label(m), c.to_string()]);
    }
    format!(
        "{}\nflagged ≥1 vendor: {one} of {} (paper: 135 of 17,698) | ≥2 vendors: {multi} (paper: 18)\n",
        t.render(),
        r.abuse.len()
    )
}

pub fn fig20(r: &StudyResults) -> String {
    let hijacked: Vec<dns::Name> = r.abuse.iter().map(|a| a.fqdn.clone()).collect();
    let tl = cert_timeline(&r.world.ct, &hijacked, 3.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 20 — single-SAN vs multi-SAN certs for hijacked subdomains =="
    );
    let _ = writeln!(
        out,
        "single-SAN total {} (paper 24,239) | multi-SAN/wildcard {} (paper 41,877)",
        tl.single_san_total, tl.multi_san_total
    );
    let _ = writeln!(out, "single-SAN by month: {}", spark(&tl.single_by_month));
    let _ = writeln!(out, "multi-SAN  by month: {}", spark(&tl.multi_by_month));
    let months: Vec<String> = tl.anomaly_months.iter().map(|m| month_label(*m)).collect();
    let _ = writeln!(
        out,
        "anomaly months: {:?} (paper windows: 2017-07/08 and 2022-09..12)",
        months
    );
    let _ = writeln!(
        out,
        "Let's Encrypt share inside anomalies: {:.0}% (paper: 95% / 53%), elsewhere {:.0}%",
        tl.le_share_in_anomalies * 100.0,
        tl.le_share_elsewhere * 100.0
    );
    out
}

pub fn fig21(infra: &InfraReport) -> String {
    let mut t = Table::new("Figure 21 — phone-number geography (WhatsApp links)")
        .headers(["country", "numbers", "paper"]);
    for (c, n) in &infra.phone_countries {
        let paper = match c.as_str() {
            "Indonesia" => "dominant",
            "Cambodia" => "second",
            _ => "minor",
        };
        t.row([c.clone(), n.to_string(), paper.to_string()]);
    }
    format!(
        "{}paper: 792 unique phone numbers, all Asian country codes\n",
        t.render()
    )
}

pub fn fig22(r: &StudyResults, infra: &InfraReport) -> String {
    let mut t = Table::new("Figure 22 — top clusters by hijacked domains").headers([
        "#",
        "identifiers",
        "domains",
    ]);
    for (i, c) in infra.clusters.iter().take(50).enumerate() {
        t.row([
            (i + 1).to_string(),
            c.identifiers.len().to_string(),
            c.domains.len().to_string(),
        ]);
    }
    format!(
        "{}\nclusters: {} (paper: 1,798) | identifiers: {} | covered domains: {} of {} (paper: 8,489 of 20,904 ≈ 1/3)\npaper head sizes: 743/414/222/179/112 domains; giant cluster 1,609 identifiers\n",
        t.render(),
        infra.clusters.len(),
        infra.identifier_count,
        infra.covered_domains,
        r.abuse.len()
    )
}

pub fn fig26(infra: &InfraReport) -> String {
    let mut t = Table::new("Figure 26a — backend-IP hosting organizations").headers(["org", "IPs"]);
    for (o, n) in &infra.ip_orgs {
        t.row([o.clone(), n.to_string()]);
    }
    let mut t2 = Table::new("Figure 26b — backend-IP geography").headers(["geo", "IPs"]);
    for (g, n) in &infra.ip_geos {
        t2.row([g.clone(), n.to_string()]);
    }
    format!(
        "{}\n{}paper: hosting providers concentrated in US, France, Singapore\n",
        t.render(),
        t2.render()
    )
}

pub fn fig27(r: &StudyResults, infra: &InfraReport) -> String {
    format!(
        "== Figures 27/28 — identifier graph & dendrogram ==\nnodes {} | edges {} | connected components {}\nHAC cutoff 0.95 → {} clusters (paper: 1,798)\nWordPress share of abused pages: {:.0}% (paper: ~22%)\n",
        infra.graph_nodes,
        infra.graph_edges,
        infra.graph_components,
        infra.clusters.len(),
        r.wordpress_share() * 100.0
    )
}

pub fn table1(r: &StudyResults) -> String {
    let mut t = Table::new("Table 1 — top index.html keywords").headers(["#", "keyword", "count"]);
    for (i, (kw, c)) in r.table1_index_keywords(12).into_iter().enumerate() {
        t.row([(i + 1).to_string(), kw, c.to_string()]);
    }
    format!(
        "{}paper top terms: sex, daftar, situs judi, gacor, judi slot online, situs slot, slot gacor…\n",
        t.render()
    )
}

pub fn table2(r: &StudyResults) -> String {
    let mut t = Table::new("Table 2 — abused cloud services among monitored").headers([
        "service",
        "monitored",
        "abused",
        "% abused",
    ]);
    for (s, mon, ab, p) in r.table2_rows() {
        t.row([
            s.to_string(),
            thousands(mon),
            if ab == 0 { "-".into() } else { thousands(ab) },
            if ab == 0 {
                "-".into()
            } else {
                format!("{p:.2}")
            },
        ]);
    }
    format!(
        "{}paper: randomized-allocation services (Google, IP pools) show '-' abuse — reproduced above\n",
        t.render()
    )
}

pub fn table3(r: &StudyResults) -> String {
    let abused = r.abused_by_service();
    let mut t = Table::new("Table 3 — abused freetext resources").headers([
        "provider", "suffix", "function", "record", "abuses", "paper",
    ]);
    let paper = |s: cloudsim::ServiceId| -> &'static str {
        use cloudsim::ServiceId::*;
        match s {
            AzureWebApp => "6,288",
            AzureTrafficManager => "1,468",
            AzureCloudappLegacy => "1,037",
            AzureEdge => "830",
            AzureCloudappRegional => "928",
            AzureWebAppSip => "223",
            AwsS3Website => "2,227",
            AwsElasticBeanstalk => "555",
            HerokuApp => "139",
            PantheonSite => "50",
            NetlifyApp => "14",
            _ => "-",
        }
    };
    let mut rows: Vec<_> = abused.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    for (&s, &c) in rows {
        let spec = cloudsim::provider::spec(s);
        t.row([
            spec.provider.as_str().to_string(),
            format!("[freetext].{}", spec.suffix.unwrap_or("-")),
            spec.function.as_str().to_string(),
            "CNAME".to_string(),
            c.to_string(),
            paper(s).to_string(),
        ]);
    }
    t.render()
}

pub fn table4() -> String {
    use cloudsim::CapabilityClass;
    use dangling_core::capability::{capabilities, cookie_access};
    let mut t = Table::new("Table 4 — attacker capabilities by resource class").headers([
        "class",
        "file",
        "content",
        "html",
        "js",
        "headers",
        "https",
        "cookie access",
    ]);
    for (label, class) in [
        (
            "Static content (S3, Pantheon)",
            CapabilityClass::StaticContent,
        ),
        ("Full webserver (the rest)", CapabilityClass::FullWebserver),
    ] {
        let c = capabilities(class);
        let b = |v: bool| if v { "yes" } else { "-" };
        t.row([
            label.to_string(),
            b(c.file).into(),
            b(c.content).into(),
            b(c.html).into(),
            b(c.javascript).into(),
            b(c.headers).into(),
            b(c.https).into(),
            format!("{:?}", cookie_access(class)),
        ]);
    }
    t.render()
}

pub fn table5(r: &StudyResults) -> String {
    let mut t = Table::new("Table 5 — top meta-tag keywords").headers(["#", "keyword", "count"]);
    for (i, (kw, c)) in r.table5_meta_keywords(12).into_iter().enumerate() {
        t.row([(i + 1).to_string(), kw, c.to_string()]);
    }
    format!(
        "{}paper: slot 144,108 | online 77,669 | judi 60,521 | situs 35,265 | joker123 | terpercaya | gacor…\nmeta-keyword tag present on {:.0}% of abused pages (paper: 41%)\n",
        t.render(),
        r.meta_keyword_fraction() * 100.0
    )
}

pub fn table6(r: &StudyResults) -> String {
    let (top, total) = r.table6_tlds(12);
    let mut t =
        Table::new("Table 6 — top TLDs of abused SLDs").headers(["#", "TLD", "count", "paper"]);
    let paper = |tld: &str| match tld {
        "com" => "12,942",
        "org" => "1,069",
        "net" => "996",
        "uk" | "de" => "758",
        "au" | "edu" => "414",
        "ca" => "398",
        "br" => "308",
        "nl" => "207",
        "jp" => "183",
        "co" => "156",
        _ => "-",
    };
    for (i, (tld, c)) in top.into_iter().enumerate() {
        let p = paper(&tld).to_string();
        t.row([(i + 1).to_string(), tld, c.to_string(), p]);
    }
    format!("{}distinct TLDs: {total} (paper: 218)\n", t.render())
}

pub fn liveness(r: &StudyResults) -> String {
    match r.liveness_rates() {
        Some((icmp, tcp, http)) => format!(
            "== §2 — liveness probe comparison over live hijacks ==\nsamples: {}\nICMP responsive: {:.0}% (paper: 72%)\nTCP 80/443:      {:.0}% (paper: 93%)\nHTTP (Host hdr): {:.0}% (paper: 89%)\nshape: ICMP underestimates liveness; port probes miss virtual-hosting semantics —\nonly the application-layer request reveals whether the *FQDN's* service exists.\n",
            r.liveness.len(),
            icmp * 100.0,
            tcp * 100.0,
            http * 100.0
        ),
        None => "no liveness samples (no hijacks occurred)\n".into(),
    }
}

pub fn economics(r: &StudyResults) -> String {
    let model = attacker::CostModel::default();
    let mut out = String::new();
    let _ = writeln!(out, "== §4.3 — hijack economics ==");
    let freetext = r
        .world
        .truth
        .iter()
        .filter(|t| cloudsim::provider::spec(t.service).naming == cloudsim::NamingModel::Freetext)
        .count();
    let _ = writeln!(
        out,
        "hijacks via freetext re-registration: {} of {} (paper: all of 20,904)",
        freetext,
        r.world.truth.len()
    );
    let _ = writeln!(
        out,
        "IP-pool takeovers: {} (paper: 0) | lottery opportunities evaluated & declined: {}",
        r.world.truth.len() - freetext,
        r.ip_lottery_declines
    );
    let _ = writeln!(
        out,
        "Google-hosted (random-name) abuses: 0 by construction of the attack surface (paper: 0)"
    );
    for rank in [1u32, 100, 10_000] {
        let _ = writeln!(
            out,
            "break-even pool for rank {:>6}: {:>7} addresses (real pools: millions)",
            rank,
            model.breakeven_pool_size(Some(rank))
        );
    }
    out
}

pub fn seo(r: &StudyResults) -> String {
    let (frac, shares) = r.seo_shares();
    let mut t = Table::new("§5.2.1 — SEO technique prevalence among abused pages").headers([
        "technique",
        "share",
        "paper",
    ]);
    for (tech, share) in shares {
        let paper = match tech {
            contentgen::abuse::SeoTechnique::DoorwayPages => "62.13% of SEO",
            contentgen::abuse::SeoTechnique::JapaneseKeywordHack => "7.17% (with link networks)",
            contentgen::abuse::SeoTechnique::KeywordStuffing => "41% carry meta keywords",
            contentgen::abuse::SeoTechnique::LinkNetwork => "(in the 7.17%)",
            contentgen::abuse::SeoTechnique::ClickJacking => "adult pages",
        };
        t.row([
            tech.as_str().to_string(),
            format!("{:.1}%", share * 100.0),
            paper.to_string(),
        ]);
    }
    format!(
        "{}\nSEO share of all abuse: {:.0}% (paper: 75%)\n",
        t.render(),
        frac * 100.0
    )
}

pub fn cookies(r: &StudyResults) -> String {
    let (cookies, subdomains, ips) = r.world.vault.summary();
    format!(
        "== §5.5 — stolen authentication cookies ==\nleaked cookies: {cookies} (paper: 83)\nhijacked subdomains involved: {subdomains} (paper: 3)\nclient source IPs: {ips} (paper: 53)\nnote: leakage requires full-webserver capability for HttpOnly and HTTPS for Secure cookies (Table 4)\n"
    )
}

pub fn malware(r: &StudyResults) -> String {
    let s = attacker::malware::summarize(&r.world.binaries);
    format!(
        "== §5.4 — malware hosting (a negative result) ==\nbinaries offered: {} (paper: 2,628 of 58,353 samples)\nunique APKs: {} (paper: 181, gambling apps)\nunique EXEs: {} (paper: 1)\ntrojan-flagged: {} (paper: 2)\nconclusion: hijacked domains are not a malware channel — reproduced\n",
        s.total_binaries, s.unique_apks, s.unique_exes, s.trojan_flagged
    )
}

pub fn caa(r: &StudyResults) -> String {
    let parents = r.abused_parents();
    let caa_of = |apex: &dns::Name| -> (bool, bool) {
        r.world
            .population
            .orgs
            .iter()
            .find(|o| &o.apex == apex)
            .map(|o| match o.caa {
                worldgen::CaaPolicy::None => (false, false),
                worldgen::CaaPolicy::FreeCa => (true, false),
                worldgen::CaaPolicy::PaidOnly => (true, true),
            })
            .unwrap_or((false, false))
    };
    let hijack_has_cert = |apex: &dns::Name| -> bool {
        r.world
            .truth
            .iter()
            .any(|t| t.cert.is_some() && t.victim_fqdn.sld().as_ref() == Some(apex))
    };
    let census = caa_census(&parents, caa_of, hijack_has_cert);
    format!(
        "== §5.6.2 — CAA census over abused parents ==\nparents: {}\nwith CAA: {} ({}) (paper: 2%)\npaid-only CAA: {} ({}) (paper: 0.4%)\nCAA parents that STILL had hijacks with valid certs: {} (paper: ~half)\nattacker issuances actually blocked by CAA: {}\nconclusion: CAA is not an effective countermeasure — reproduced\n",
        census.parents,
        census.with_caa,
        pct(census.with_caa as u64, census.parents as u64),
        census.paid_only,
        pct(census.paid_only as u64, census.parents as u64),
        census.caa_but_hijack_cert,
        r.caa_blocked_certs
    )
}

pub fn hsts(r: &StudyResults) -> String {
    // Probe the parents over HTTP through the world's web view.
    let web = r.world.web();
    let mut with_hsts = 0usize;
    let mut responding = 0usize;
    let parents = r.abused_parents();
    for apex in &parents {
        let Some(ip) = r.world.origins.ip_of(apex) else {
            continue;
        };
        if let Some(resp) = httpsim::Endpoint::http_serve(
            &web,
            ip,
            &httpsim::Request::get(apex.to_string(), "/"),
            SimTime::monitor_end(),
        ) {
            responding += 1;
            if resp.headers.contains("Strict-Transport-Security") {
                with_hsts += 1;
            }
        }
    }
    format!(
        "== App. A.2 — HSTS on parents of hijacked subdomains ==\nparents responding: {responding}\nwith HSTS header: {with_hsts} ({})  (paper: >16% of non-error responses)\nimplication: HSTS-pinned clients force hijackers to obtain valid certificates\n",
        pct(with_hsts as u64, responding.max(1) as u64)
    )
}

pub fn detection(r: &StudyResults) -> String {
    format!(
        "== Detection evaluation vs ground truth (simulation-only capability) ==\ntrue positives:  {}\nfalse positives: {}\nfalse negatives: {} (mostly hijacks shorter than the weekly crawl cadence)\nprecision: {:.3} | recall: {:.3}\n",
        r.detection.true_positives,
        r.detection.false_positives,
        r.detection.false_negatives,
        r.detection.precision(),
        r.detection.recall()
    )
}

pub fn latency(r: &StudyResults) -> String {
    let mut out = String::from("== Crawl timing telemetry (modeled network clock) ==\n");
    match r.resolution_latency_summary() {
        None => out.push_str("no rounds recorded latency telemetry (every round replayed?)\n"),
        Some(s) => {
            out.push_str(&format!(
                "rounds: {}   crawls sampled: {}\nworst per-round DNS resolution latency: p50 {}  p95 {}  p99 {}  p99.9 {}\n",
                r.resolution_latency.len(),
                s.samples,
                fmt_ns(s.p50_ns),
                fmt_ns(s.p95_ns),
                fmt_ns(s.p99_ns),
                fmt_ns(s.p999_ns),
            ));
            out.push_str("last rounds (day: p50 / p95 / p99 / p99.9):\n");
            for round in r.resolution_latency.iter().rev().take(5).rev() {
                out.push_str(&format!(
                    "  day {:>5}: {} / {} / {} / {}\n",
                    round.day.0,
                    fmt_ns(round.p50_ns),
                    fmt_ns(round.p95_ns),
                    fmt_ns(round.p99_ns),
                    fmt_ns(round.p999_ns),
                ));
            }
        }
    }
    out.push_str(
        "timing is out-of-band: study results are byte-identical across the\n\
         zero/datacenter/wan profiles (see the latency_equivalence suite)\n",
    );
    out
}

/// Per-round critical-path analysis over the causal spans collected during
/// the run (DESIGN.md §12). Renders, for each crawl round: the makespan
/// trace (longest root span in virtual time), its queue-wait vs service
/// decomposition, the causal chain along the critical trace, and the top-K
/// slowest FQDNs.
pub fn critical_path(_r: &StudyResults) -> String {
    let spans = obs::collect_causal();
    if spans.is_empty() {
        return String::from(
            "== Per-round critical path (causal virtual-time traces) ==\n\
             no causal spans collected; run `repro --critical-path` (or --trace)\n\
             to enable causal tracing for this target\n",
        );
    }
    let rounds = obs::critical_paths(&spans, 5);
    let mut out = String::from("== Per-round critical path (causal virtual-time traces) ==\n");
    out.push_str(&format!(
        "causal spans: {}   rounds traced: {}\n",
        spans.len(),
        rounds.len()
    ));
    for rcp in rounds.iter().rev().take(5).rev() {
        out.push_str(&format!(
            "day {:>5}: {} traces, makespan {} ({}), decomposed {:.1}% (queue-wait {} + service {})\n",
            rcp.day,
            rcp.traces,
            fmt_ns(rcp.makespan_ns),
            rcp.critical.fqdn,
            rcp.decomposed_fraction * 100.0,
            fmt_ns(rcp.queue_wait_total_ns),
            fmt_ns(rcp.service_total_ns),
        ));
        out.push_str("  critical chain:");
        for (name, start, dur) in &rcp.chain {
            out.push_str(&format!("  {name}@{}+{}", fmt_ns(*start), fmt_ns(*dur)));
        }
        out.push('\n');
        out.push_str("  slowest traces (fqdn: total = queue-wait + service):\n");
        for d in &rcp.top {
            out.push_str(&format!(
                "    {}: {} = {} + {}\n",
                d.fqdn,
                fmt_ns(d.total_ns),
                fmt_ns(d.queue_wait_ns),
                fmt_ns(d.service_ns),
            ));
        }
    }
    out.push_str(
        "tracing is out-of-band: study results are byte-identical with causal\n\
         tracing on or off, at any sample rate (telemetry_equivalence suite)\n",
    );
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
