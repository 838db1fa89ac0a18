//! Abuse content generation — §5.2's technique catalogue.
//!
//! Builders for the content families the paper observed on hijacked
//! domains: doorway pages (62.13% of SEO), the Japanese Keyword Hack /
//! private link networks (7.17%), keyword stuffing (the keywords meta tag on
//! 41% of pages), and click-jacking redirect pages. Campaign identifiers
//! (WhatsApp phones, Telegram handles, shortlinks, backend IPs) are embedded
//! as hyperlinks exactly where §6's extractor will find them.

use crate::corpus::{
    ADULT_KEYWORDS, GAMBLING_KEYWORDS, JAPANESE_FRAGMENTS, PHARMA_KEYWORDS, POPUNDER_SCRIPTS,
    SHOPPING_KEYWORDS, THAI_FRAGMENTS,
};
use crate::html::{sitemap_xml, HtmlDoc};
use cloudsim::{PageStats, SiteContent, Sitemap};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Content topics (Figure 3 / Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AbuseTopic {
    Gambling,
    Adult,
    Pharma,
    Shopping,
}

impl AbuseTopic {
    pub fn keywords(self) -> &'static [&'static str] {
        match self {
            AbuseTopic::Gambling => GAMBLING_KEYWORDS,
            AbuseTopic::Adult => ADULT_KEYWORDS,
            AbuseTopic::Pharma => PHARMA_KEYWORDS,
            AbuseTopic::Shopping => SHOPPING_KEYWORDS,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            AbuseTopic::Gambling => "Gambling",
            AbuseTopic::Adult => "Adult",
            AbuseTopic::Pharma => "Pharma",
            AbuseTopic::Shopping => "Shopping",
        }
    }

    /// The primary language of the generated content (the dataset's bias
    /// toward Indonesian gambling, §6).
    pub fn language(self) -> &'static str {
        match self {
            AbuseTopic::Gambling => "id",
            _ => "en",
        }
    }
}

/// SEO/abuse techniques (§5.2.1–5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SeoTechnique {
    /// Low-quality pages that rank and redirect to the monetized target.
    DoorwayPages,
    /// Cloaking with mass auto-generated Japanese pages + robots.txt games.
    JapaneseKeywordHack,
    /// Pages that exist only to link to other hijacked domains.
    LinkNetwork,
    /// Keyword-stuffed pages without a distinct doorway structure.
    KeywordStuffing,
    /// onClick interception redirecting to ad servers (adult pages).
    ClickJacking,
}

impl SeoTechnique {
    pub fn as_str(self) -> &'static str {
        match self {
            SeoTechnique::DoorwayPages => "Doorway pages",
            SeoTechnique::JapaneseKeywordHack => "Japanese Keyword Hack",
            SeoTechnique::LinkNetwork => "Private link network",
            SeoTechnique::KeywordStuffing => "Keyword stuffing",
            SeoTechnique::ClickJacking => "Click-jacking",
        }
    }
}

/// Campaign-level identifiers embedded into every page of the campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignLinks {
    pub phones: Vec<String>,
    pub social: Vec<String>,
    pub shortlinks: Vec<String>,
    pub backend_ips: Vec<Ipv4Addr>,
    /// The monetized target site (gambling brand) and referral code.
    pub target_site: String,
    pub referral_code: String,
}

/// Specification of the abuse content for one hijacked host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AbuseSpec {
    pub topic: AbuseTopic,
    pub technique: SeoTechnique,
    /// Number of HTML files to (statistically) upload — Figure 6's heavy
    /// tail, 2 .. 144,349.
    pub page_count: u64,
    /// Whether pages carry the keywords meta tag (41% do, §5.2.1).
    pub use_meta_keywords: bool,
    /// Hide behind a localized maintenance shell instead of a doorway index.
    pub maintenance_shell_lang: Option<String>,
    pub links: CampaignLinks,
    /// Other hijacked hosts to cross-link (the 2-way link network).
    pub network_peers: Vec<String>,
    /// Campaign-fixed doorway vocabulary. Real campaigns stamp the same
    /// template onto every hijacked domain — the premise behind §3.2's
    /// "identical keyword lists indicate the same page content" clustering.
    /// Empty means untemplated: sample the whole topic corpus per page.
    pub template_keywords: Vec<String>,
}

impl AbuseSpec {
    /// The keyword vocabulary pages of this spec draw from.
    fn keyword_pool(&self) -> Vec<&str> {
        if self.template_keywords.is_empty() {
            self.topic.keywords().to_vec()
        } else {
            self.template_keywords.iter().map(String::as_str).collect()
        }
    }
}

/// Build the hosted content for `host` according to `spec`.
pub fn build_abuse_site<R: Rng + ?Sized>(spec: &AbuseSpec, host: &str, rng: &mut R) -> SiteContent {
    let kws = spec.keyword_pool();
    let lang = spec.topic.language();

    // ----- index page -----
    let index_html = if let Some(shell_lang) = &spec.maintenance_shell_lang {
        // Innocuous shell; the real content hides in the page store.
        crate::benign::maintenance_shell(shell_lang)
    } else {
        let mut doc = HtmlDoc::new(title_for(spec, rng)).with_lang(lang);
        if spec.use_meta_keywords {
            for k in kws.iter().take(8) {
                doc = doc.keyword(k);
            }
            doc = doc.description(format!(
                "{} {} {} terbaik",
                kws[0],
                kws[1 % kws.len()],
                kws[2 % kws.len()]
            ));
        }
        doc = doc.heading(title_for(spec, rng));
        for _ in 0..4 {
            doc = doc.paragraph(keyword_sentence(&kws, rng));
        }
        doc = embed_campaign(doc, spec);
        if matches!(spec.technique, SeoTechnique::ClickJacking) {
            doc = doc.inline_script(format!(
                "document.addEventListener('click',function(e){{e.preventDefault();\
                 window.open('http://{}/pops?ref={}');}},true);",
                spec.links
                    .backend_ips
                    .first()
                    .map(|ip| ip.to_string())
                    .unwrap_or_else(|| spec.links.target_site.clone()),
                spec.links.referral_code
            ));
        }
        for peer in spec.network_peers.iter().take(5) {
            doc = doc.link(format!("https://{peer}/"), keyword_sentence(&kws, rng));
        }
        doc.render()
    };

    // ----- page store & sitemap -----
    let page_names: Vec<String> = (0..spec.page_count.min(25))
        .map(|i| random_page_name(rng, i))
        .collect();
    let sample_page = Some(build_inner_page(spec, rng));
    let robots_txt = if matches!(spec.technique, SeoTechnique::JapaneseKeywordHack) {
        // Point crawlers at the generated spam and away from the original
        // content (§5.2.1 cloaking).
        Some(format!(
            "User-agent: *\nAllow: /{}\nDisallow: /original/\nSitemap: https://{host}/sitemap.xml\n",
            page_names.first().cloned().unwrap_or_default()
        ))
    } else {
        Some("User-agent: *\nAllow: /\n".to_string())
    };

    SiteContent {
        index_html: index_html.into(),
        sitemap: Some(Sitemap {
            entries: spec.page_count,
            bytes: 120 + spec.page_count * 80,
            sample_xml: sitemap_xml(host, &page_names),
        }),
        pages: PageStats {
            count: spec.page_count,
            // The paper's mean abused file is 52.4 kB.
            total_bytes: spec.page_count * 52_400,
        },
        sample_page,
        robots_txt,
        extra_headers: Vec::new(),
        language: lang.to_string(),
    }
}

fn title_for<R: Rng + ?Sized>(spec: &AbuseSpec, rng: &mut R) -> String {
    let kws = spec.topic.keywords();
    match spec.topic {
        AbuseTopic::Gambling => format!(
            "{} {} {} gacor terpercaya",
            kws.choose(rng).unwrap(),
            kws.choose(rng).unwrap(),
            kws.choose(rng).unwrap()
        ),
        AbuseTopic::Adult => "Top adult videos and photos".to_string(),
        AbuseTopic::Pharma => "Cheap online pharmacy — no prescription".to_string(),
        AbuseTopic::Shopping => "Luxury outlet — replica handbags sale".to_string(),
    }
}

fn keyword_sentence<R: Rng + ?Sized>(kws: &[&str], rng: &mut R) -> String {
    let n = rng.gen_range(4..9);
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(*kws.choose(rng).unwrap());
    }
    words.join(" ")
}

fn embed_campaign(mut doc: HtmlDoc, spec: &AbuseSpec) -> HtmlDoc {
    for p in &spec.links.phones {
        doc = doc.link(format!("https://wa.me/{p}"), "WhatsApp");
    }
    for s in &spec.links.social {
        doc = doc.link(format!("https://{s}"), "Channel");
    }
    for s in &spec.links.shortlinks {
        doc = doc.link(format!("https://{s}"), "Promo");
    }
    for ip in &spec.links.backend_ips {
        doc = doc.link(
            format!("http://{ip}/land?ref={}", spec.links.referral_code),
            "Masuk / Login",
        );
    }
    if !spec.links.target_site.is_empty() {
        doc = doc.link(
            format!(
                "https://{}/register?ref={}",
                spec.links.target_site, spec.links.referral_code
            ),
            "Daftar sekarang",
        );
    }
    if let Some(ip) = spec.links.backend_ips.first() {
        doc = doc.script(format!(
            "http://{ip}/js/{}",
            POPUNDER_SCRIPTS[(spec.links.referral_code.len()) % POPUNDER_SCRIPTS.len()]
        ));
    }
    doc
}

fn build_inner_page<R: Rng + ?Sized>(spec: &AbuseSpec, rng: &mut R) -> String {
    let kws = spec.topic.keywords();
    match spec.technique {
        SeoTechnique::JapaneseKeywordHack => {
            let mut doc =
                HtmlDoc::new(JAPANESE_FRAGMENTS.choose(rng).unwrap().to_string()).with_lang("ja");
            for _ in 0..5 {
                doc = doc.paragraph(format!(
                    "{} {}",
                    JAPANESE_FRAGMENTS.choose(rng).unwrap(),
                    JAPANESE_FRAGMENTS.choose(rng).unwrap()
                ));
            }
            doc = doc.link("/sitemap.xml", "ページディレクトリ");
            embed_campaign(doc, spec).render()
        }
        SeoTechnique::LinkNetwork => {
            let mut doc = HtmlDoc::new(keyword_sentence(kws, rng)).with_lang(spec.topic.language());
            for peer in &spec.network_peers {
                doc = doc.link(
                    format!("https://{peer}/{}", random_page_name(rng, 0)),
                    keyword_sentence(kws, rng),
                );
            }
            embed_campaign(doc, spec).render()
        }
        _ => {
            let mut doc = HtmlDoc::new(title_for(spec, rng)).with_lang(spec.topic.language());
            if spec.use_meta_keywords {
                for k in kws.iter().take(12) {
                    doc = doc.keyword(k);
                }
            }
            for _ in 0..6 {
                doc = doc.paragraph(keyword_sentence(kws, rng));
            }
            if spec.topic == AbuseTopic::Gambling && rng.gen_bool(0.3) {
                doc = doc.paragraph(THAI_FRAGMENTS.choose(rng).unwrap().to_string());
            }
            embed_campaign(doc, spec).render()
        }
    }
}

/// The "consistent random name generation" of signature example 4.
fn random_page_name<R: Rng + ?Sized>(rng: &mut R, salt: u64) -> String {
    let mut s = String::with_capacity(12);
    for _ in 0..10 {
        let c = b"abcdefghijklmnopqrstuvwxyz0123456789"[rng.gen_range(0..36usize)];
        s.push(c as char);
    }
    format!("{s}{salt}.html")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn links() -> CampaignLinks {
        CampaignLinks {
            phones: vec!["6281234567890".into()],
            social: vec!["t.me/slotgacor88".into()],
            shortlinks: vec!["bit.ly/abc123".into()],
            backend_ips: vec!["203.0.113.7".parse().unwrap()],
            target_site: "maxwin-heaven.example".into(),
            referral_code: "REF777".into(),
        }
    }

    fn spec(technique: SeoTechnique) -> AbuseSpec {
        AbuseSpec {
            topic: AbuseTopic::Gambling,
            technique,
            page_count: 31_810,
            use_meta_keywords: true,
            maintenance_shell_lang: None,
            links: links(),
            network_peers: vec!["x.victim-a.com".into(), "y.victim-b.org".into()],
            template_keywords: vec![],
        }
    }

    #[test]
    fn doorway_site_carries_keywords_and_identifiers() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = build_abuse_site(&spec(SeoTechnique::DoorwayPages), "h.victim.com", &mut rng);
        let kws = extract::meta_keywords(s.index_html.as_str());
        assert!(kws.contains(&"slot".to_string()));
        let ids = extract::identifiers(s.index_html.as_str());
        assert_eq!(ids.phones, vec!["6281234567890"]);
        assert_eq!(ids.social, vec!["t.me/slotgacor88"]);
        assert!(!ids.ips.is_empty());
        assert!(s.index_html.as_str().contains("ref=REF777"));
        assert_eq!(s.language, "id");
        assert_eq!(s.pages.count, 31_810);
        assert_eq!(s.sitemap.as_ref().unwrap().entries, 31_810);
    }

    #[test]
    fn maintenance_shell_hides_content() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sp = spec(SeoTechnique::DoorwayPages);
        sp.maintenance_shell_lang = Some("en".into());
        let s = build_abuse_site(&sp, "h.victim.com", &mut rng);
        // Index is innocuous...
        assert!(s.index_html.as_str().contains("maintenance"));
        assert!(extract::identifiers(s.index_html.as_str()).is_empty());
        // ...but thousands of pages hide behind it.
        assert!(s.pages.count > 10_000);
        assert!(!extract::identifiers(s.sample_page.as_ref().unwrap()).is_empty());
    }

    #[test]
    fn jkh_has_japanese_pages_and_robots_cloaking() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = build_abuse_site(
            &spec(SeoTechnique::JapaneseKeywordHack),
            "h.victim.com",
            &mut rng,
        );
        let page = s.sample_page.unwrap();
        assert_eq!(
            crate::lang::detect(&extract::visible_text_chars(&page)),
            Some(crate::lang::Language::Japanese)
        );
        let robots = s.robots_txt.unwrap();
        assert!(robots.contains("Disallow: /original/"));
        assert!(robots.contains("Sitemap:"));
    }

    #[test]
    fn link_network_links_peers() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = build_abuse_site(&spec(SeoTechnique::LinkNetwork), "h.victim.com", &mut rng);
        let page = s.sample_page.unwrap();
        let hrefs = extract::hrefs(&page);
        assert!(hrefs.iter().any(|h| h.contains("x.victim-a.com")));
        assert!(hrefs.iter().any(|h| h.contains("y.victim-b.org")));
    }

    #[test]
    fn clickjacking_intercepts_clicks() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sp = spec(SeoTechnique::ClickJacking);
        sp.topic = AbuseTopic::Adult;
        let s = build_abuse_site(&sp, "h.victim.com", &mut rng);
        assert!(s.index_html.as_str().contains("addEventListener('click'"));
        assert!(s.index_html.as_str().contains("preventDefault"));
        assert_eq!(s.language, "en");
    }

    #[test]
    fn no_meta_keywords_when_disabled() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut sp = spec(SeoTechnique::KeywordStuffing);
        sp.use_meta_keywords = false;
        let s = build_abuse_site(&sp, "h.victim.com", &mut rng);
        assert!(extract::meta_keywords(s.index_html.as_str()).is_empty());
        // Content keywords are still present in the body.
        let toks = extract::tokens(s.index_html.as_str());
        assert!(toks
            .iter()
            .any(|t| t == "slot" || t == "judi" || t == "gacor"));
    }

    #[test]
    fn average_page_weight_matches_paper() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = build_abuse_site(&spec(SeoTechnique::DoorwayPages), "h", &mut rng);
        assert_eq!(s.pages.total_bytes / s.pages.count, 52_400);
    }
}
