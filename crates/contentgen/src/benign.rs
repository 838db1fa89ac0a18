//! Benign site generation.
//!
//! Legitimate organization sites (per sector), university/government pages,
//! and parked-domain pages. Parked pages matter for the §3.2 false-positive
//! analysis: parking providers rotate commercial content *identically across
//! many domains of the same registrar*, which naive change-detection would
//! flag; the registrar-diversity rule-out must discard them.

use crate::corpus::{sector_words, MAINTENANCE_SHELLS};
use crate::html::HtmlDoc;
use cloudsim::{sitemap_bytes, SiteContent};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What kind of benign site to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenignKind {
    /// Corporate site with sector vocabulary.
    Corporate,
    /// University department site.
    University,
    /// Government agency site.
    Government,
    /// A small personal/blog site.
    Blog,
}

/// Build a benign site for an organization.
pub fn benign_site<R: Rng + ?Sized>(
    kind: BenignKind,
    org_name: &str,
    sector: &str,
    rng: &mut R,
) -> SiteContent {
    let words = sector_words(match kind {
        BenignKind::Corporate | BenignKind::Blog => sector,
        BenignKind::University => "Education",
        BenignKind::Government => "Government",
    });
    let mut doc = HtmlDoc::new(format!("{org_name} — official site")).with_lang("en");
    doc = doc.heading(org_name.to_string());
    for _ in 0..3 {
        let a = words.choose(rng).unwrap();
        let b = words.choose(rng).unwrap();
        doc = doc.paragraph(format!(
            "Welcome to {org_name}. Learn more about our {a} and {b} services for customers worldwide."
        ));
    }
    doc = doc
        .link("/about.html", "About us")
        .link("/contact.html", "Contact")
        .link("/careers.html", "Careers");
    if matches!(kind, BenignKind::Blog) {
        doc = doc.generator("WordPress 5.4");
    }
    let page_count = match kind {
        BenignKind::Corporate => rng.gen_range(20..200),
        BenignKind::University => rng.gen_range(50..500),
        BenignKind::Government => rng.gen_range(30..300),
        BenignKind::Blog => rng.gen_range(5..50),
    };
    SiteContent {
        index_html: doc.render().into(),
        sitemap_bytes: Some(sitemap_bytes(page_count)),
        extra_headers: Vec::new(),
    }
}

/// A legitimate site whose vocabulary brushes against the abuse lexicon —
/// gaming-news / regulation / app-review pages that use words like "online",
/// "game", "casino" in benign prose. These are what the paper's signature
/// validation exists for: any derived signature generic enough to fire on
/// them gets discarded (§3.2).
pub fn benign_topical_site<R: Rng + ?Sized>(org_name: &str, rng: &mut R) -> SiteContent {
    let angles = [
        "Regulators debate new rules for online game platforms and player protection",
        "Our review team compares the best online game releases of the season",
        "Consumer watchdog warns about unlicensed casino apps and how to spot them",
        "Industry report: the online game market grows while oversight tightens",
    ];
    let mut doc = HtmlDoc::new(format!("{org_name} — gaming news"))
        .with_lang("en")
        .heading(org_name.to_string());
    for _ in 0..3 {
        doc = doc.paragraph((*angles.choose(rng).unwrap()).to_string());
    }
    doc = doc
        .link("/archive.html", "News archive")
        .link("/about.html", "About us");
    SiteContent {
        index_html: doc.render().into(),
        sitemap_bytes: Some(sitemap_bytes(rng.gen_range(30..300))),
        extra_headers: Vec::new(),
    }
}

/// A parked-domain page from a parking provider. `rotation` selects the
/// provider-wide creative; all domains parked with the same provider serve
/// the same rotation at the same time (the benign-change confounder).
pub fn parked_site(provider: &str, rotation: u32) -> SiteContent {
    let creatives = [
        "Premium domains for sale — enquire today about pricing and transfer",
        "This domain may be for sale. Browse related searches and sponsored listings",
        "Buy this domain. The owner has chosen to park it with sponsored results",
        "Domain parked free, courtesy of the registrar. Search related topics",
    ];
    let creative = creatives[(rotation as usize) % creatives.len()];
    let doc = HtmlDoc::new("Domain parked")
        .with_lang("en")
        .paragraph(creative.to_string())
        .paragraph(format!("Parking services provided by {provider}."))
        .link("/listings.html", "Sponsored listings");
    SiteContent {
        index_html: doc.render().into(),
        sitemap_bytes: None,
        extra_headers: Vec::new(),
    }
}

/// The multi-language "under maintenance" shell the hijackers hide behind
/// (§3, Figure 23). Used by the attacker module but defined here with the
/// benign shells because the *text* is indistinguishable from a legitimate
/// maintenance page — that is exactly the detection problem.
pub fn maintenance_shell(lang_tag: &str) -> String {
    let text = MAINTENANCE_SHELLS
        .iter()
        .find(|(l, _)| *l == lang_tag)
        .map(|(_, t)| *t)
        .unwrap_or(MAINTENANCE_SHELLS[0].1);
    HtmlDoc::new("Website maintenance")
        .with_lang(lang_tag)
        .heading("SORRY!")
        .paragraph(text.to_string())
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn corporate_site_has_sector_words() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = benign_site(BenignKind::Corporate, "Contoso", "Financials", &mut rng);
        assert!(s.index_html.as_str().contains("Contoso"));
        let has_sector_word = sector_words("Financials")
            .iter()
            .any(|w| s.index_html.as_str().contains(w));
        assert!(has_sector_word);
        assert!(s.sitemap_bytes.is_some());
    }

    #[test]
    fn blog_has_wordpress_generator() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = benign_site(BenignKind::Blog, "My Blog", "Technology", &mut rng);
        assert!(s.index_html.as_str().contains("WordPress"));
    }

    #[test]
    fn parked_rotations_differ_but_cycle() {
        let a = parked_site("ParkCo", 0);
        let b = parked_site("ParkCo", 1);
        let c = parked_site("ParkCo", 4);
        assert_ne!(a.index_html, b.index_html);
        assert_eq!(a.index_html, c.index_html); // cycles mod 4
    }

    #[test]
    fn parked_identical_across_domains() {
        // Same provider + rotation => byte-identical content (the registrar
        // confounder the pipeline must handle).
        assert_eq!(
            parked_site("ParkCo", 2).index_html,
            parked_site("ParkCo", 2).index_html
        );
    }

    #[test]
    fn maintenance_shells_localized() {
        let en = maintenance_shell("en");
        let de = maintenance_shell("de");
        let ja = maintenance_shell("ja");
        assert!(en.contains("maintenance"));
        assert!(de.contains("gewartet"));
        assert!(ja.contains("メンテナンス"));
        // Unknown tag falls back to English.
        assert_eq!(
            maintenance_shell("xx"),
            en.replace("lang=\"en\"", "lang=\"xx\"")
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(7);
            benign_site(BenignKind::University, "State U", "Education", &mut rng)
        };
        assert_eq!(mk().index_html, mk().index_html);
    }
}
