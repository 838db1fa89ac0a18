//! Abuse content classification (Figure 3, §5.2.1).
//!
//! Topic classification mirrors the paper's keyword approach; SEO-technique
//! detection applies the §5.2.1 heuristics to the retained index HTML and
//! sitemap metadata of an abused snapshot.

use crate::snapshot::Snapshot;
use contentgen::abuse::{AbuseTopic, SeoTechnique};
use contentgen::corpus;
use serde::{Deserialize, Serialize};

/// Classified topic or fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Topic {
    Abuse(AbuseTopic),
    /// No abuse vocabulary hit.
    Unknown,
}

impl Topic {
    pub fn as_str(&self) -> &'static str {
        match self {
            Topic::Abuse(t) => t.as_str(),
            Topic::Unknown => "Unknown",
        }
    }
}

/// Count topic-vocabulary hits in a keyword list.
fn score(keywords: &[String], vocab: &[&str]) -> usize {
    keywords
        .iter()
        .filter(|k| vocab.contains(&k.as_str()))
        .count()
}

/// Classify the topic of an abused snapshot from its extracted keywords.
pub fn classify_topic(snap: &Snapshot) -> Topic {
    let mut kws = snap.page.keywords.clone();
    kws.extend(snap.page.meta_keywords.iter().cloned());
    let scores = [
        (AbuseTopic::Gambling, score(&kws, corpus::GAMBLING_KEYWORDS)),
        (AbuseTopic::Adult, score(&kws, corpus::ADULT_KEYWORDS)),
        (AbuseTopic::Pharma, score(&kws, corpus::PHARMA_KEYWORDS)),
        (AbuseTopic::Shopping, score(&kws, corpus::SHOPPING_KEYWORDS)),
    ];
    let best = scores.iter().max_by_key(|(_, s)| *s).unwrap();
    if best.1 == 0 {
        Topic::Unknown
    } else {
        Topic::Abuse(best.0)
    }
}

/// Detect the SEO/abuse techniques visible from the crawled artifacts.
pub fn detect_techniques(snap: &Snapshot) -> Vec<SeoTechnique> {
    let mut out = Vec::new();
    let html = snap.html.as_deref().unwrap_or("");
    // Click-jacking: early click interception (§5.2.2).
    if html.contains("addEventListener('click'") && html.contains("preventDefault") {
        out.push(SeoTechnique::ClickJacking);
    }
    // Japanese Keyword Hack: Japanese content on a non-Japanese victim
    // domain plus a mass upload (§5.2.1 "Cloaking").
    let mass_upload = snap.sitemap_bytes.unwrap_or(0) >= crate::signature::HUGE_SITEMAP_BYTES;
    if (snap.page.language.as_deref() == Some("ja")
        || corpus::JAPANESE_FRAGMENTS.iter().any(|f| html.contains(f)))
        && mass_upload
    {
        out.push(SeoTechnique::JapaneseKeywordHack);
    }
    // Private link network: page dominated by outbound keyword-anchored
    // links to other apex domains.
    let hrefs = contentgen::extract::hrefs(html);
    let outbound = hrefs
        .iter()
        .filter(|h| h.starts_with("http") && !h.contains("wa.me") && !h.contains("t.me"))
        .count();
    if outbound >= 5 {
        out.push(SeoTechnique::LinkNetwork);
    }
    // Doorway: referral-monetized landing (the ref-code link of §5.3).
    if hrefs.iter().any(|h| h.contains("ref=")) {
        out.push(SeoTechnique::DoorwayPages);
    }
    // Keyword stuffing: the keywords meta tag (41% of analyzed pages).
    if !snap.page.meta_keywords.is_empty() {
        out.push(SeoTechnique::KeywordStuffing);
    }
    out
}

/// Is the abuse some form of (blackhat) SEO? The paper finds 75% of samples
/// qualify.
pub fn is_seo(techniques: &[SeoTechnique]) -> bool {
    techniques.iter().any(|t| {
        matches!(
            t,
            SeoTechnique::DoorwayPages
                | SeoTechnique::JapaneseKeywordHack
                | SeoTechnique::LinkNetwork
                | SeoTechnique::KeywordStuffing
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::Rcode;
    use simcore::SimTime;

    fn snap_with(kws: &[&str], html: &str, sitemap: Option<u64>, lang: Option<&str>) -> Snapshot {
        let mut s =
            Snapshot::unreachable("x.v.com".parse().unwrap(), SimTime(0), Rcode::NoError, None);
        s.http_status = Some(200);
        s.page_mut().keywords = kws.iter().map(|k| k.to_string()).collect();
        s.html = Some(html.to_string());
        s.sitemap_bytes = sitemap;
        s.page_mut().language = lang.map(str::to_string);
        s
    }

    #[test]
    fn gambling_topic() {
        let s = snap_with(&["slot", "judi", "gacor"], "", None, Some("id"));
        assert_eq!(classify_topic(&s), Topic::Abuse(AbuseTopic::Gambling));
    }

    #[test]
    fn adult_topic_and_unknown() {
        let s = snap_with(&["sex", "porn"], "", None, None);
        assert_eq!(classify_topic(&s), Topic::Abuse(AbuseTopic::Adult));
        let u = snap_with(&["banking", "quarterly"], "", None, None);
        assert_eq!(classify_topic(&u), Topic::Unknown);
        assert_eq!(u_topic_str(&u), "Unknown");
    }

    fn u_topic_str(s: &Snapshot) -> &'static str {
        classify_topic(s).as_str()
    }

    #[test]
    fn meta_keywords_count_for_topic() {
        let mut s = snap_with(&[], "", None, None);
        s.page_mut().meta_keywords = vec!["viagra".into(), "pharmacy".into()];
        assert_eq!(classify_topic(&s), Topic::Abuse(AbuseTopic::Pharma));
    }

    #[test]
    fn clickjacking_detected() {
        let html =
            "<script>document.addEventListener('click',function(e){e.preventDefault();});</script>";
        let s = snap_with(&["sex"], html, None, None);
        let t = detect_techniques(&s);
        assert!(t.contains(&SeoTechnique::ClickJacking));
        assert!(!is_seo(&[SeoTechnique::ClickJacking]));
    }

    #[test]
    fn jkh_requires_mass_upload() {
        let html = "<p>ページディレクトリ</p>";
        let without = snap_with(&[], html, Some(10_000), Some("ja"));
        assert!(!detect_techniques(&without).contains(&SeoTechnique::JapaneseKeywordHack));
        let with = snap_with(&[], html, Some(900_000), Some("ja"));
        assert!(detect_techniques(&with).contains(&SeoTechnique::JapaneseKeywordHack));
    }

    #[test]
    fn doorway_and_stuffing() {
        let html = r#"<a href="https://maxwin.example/register?ref=REF7">daftar</a>"#;
        let mut s = snap_with(&["slot"], html, None, Some("id"));
        s.page_mut().meta_keywords = vec!["slot".into()];
        let t = detect_techniques(&s);
        assert!(t.contains(&SeoTechnique::DoorwayPages));
        assert!(t.contains(&SeoTechnique::KeywordStuffing));
        assert!(is_seo(&t));
    }

    #[test]
    fn link_network_detected() {
        let mut html = String::new();
        for i in 0..6 {
            html.push_str(&format!(
                "<a href=\"https://sub{i}.other{i}.com/p.html\">slot gacor</a>"
            ));
        }
        let s = snap_with(&["slot"], &html, None, None);
        assert!(detect_techniques(&s).contains(&SeoTechnique::LinkNetwork));
    }
}
