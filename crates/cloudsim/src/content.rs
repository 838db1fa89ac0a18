//! Hosted site content.
//!
//! What a cloud resource serves: an index page, an optional sitemap, a page
//! store (modelled statistically — the paper's attackers upload up to
//! 144,349 HTML files per site, which we track as counts + a sampled page
//! rather than materializing terabytes), response headers, and robots.txt /
//! .htaccess (the cloaking machinery of §5.2.1).

use httpsim::{Body, Request, Response};
use serde::{Deserialize, Serialize};

/// Sitemap metadata plus a small representative sample. The monitoring
/// pipeline compares *size* (the paper flags new sitemaps and >100KB jumps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sitemap {
    /// Number of URL entries.
    pub entries: u64,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// A sample of the XML (first N entries) actually served.
    pub sample_xml: String,
}

impl Sitemap {
    /// Build a sitemap whose serialized size approximates `entries` URLs of
    /// ~80 bytes each.
    pub fn synthetic(entries: u64, sample_xml: String) -> Self {
        Sitemap {
            entries,
            bytes: 120 + entries * 80,
            sample_xml,
        }
    }
}

/// Statistics of the non-index pages on a site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PageStats {
    /// Number of HTML files uploaded (Figure 6's x-axis).
    pub count: u64,
    /// Their total size in bytes (the 24 TB aggregate of §3.2).
    pub total_bytes: u64,
}

/// Everything a resource serves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SiteContent {
    /// The index HTML (may be an "under maintenance" shell page; the abuse
    /// often hides thousands of pages behind an innocuous index — §3),
    /// shared by every response that serves it and hashed at most once.
    pub index_html: Body,
    pub sitemap: Option<Sitemap>,
    pub pages: PageStats,
    /// A representative non-index page (what a crawler following the sitemap
    /// would fetch).
    pub sample_page: Option<String>,
    /// robots.txt body, if present (Japanese-keyword-hack cloaking touches
    /// this).
    pub robots_txt: Option<String>,
    /// Extra response headers the site sets (HSTS, Set-Cookie, …).
    pub extra_headers: Vec<(String, String)>,
    /// BCP47-ish primary language tag of the index content.
    pub language: String,
}

impl SiteContent {
    /// A minimal benign placeholder.
    pub fn placeholder(text: &str) -> Self {
        SiteContent {
            index_html: format!(
                "<html><head><title>{text}</title></head><body><h1>{text}</h1></body></html>"
            )
            .into(),
            language: "en".into(),
            ..Default::default()
        }
    }

    /// Serve a request path against this content.
    pub fn serve(&self, req: &Request) -> Response {
        let mut resp = match req.path {
            "/" | "/index.html" => Response::ok(self.index_html.clone()),
            "/sitemap.xml" => match &self.sitemap {
                Some(sm) => {
                    let mut r = Response::ok(sm.sample_xml.as_str());
                    // Advertise the true size so the monitor's size-diff
                    // logic sees what a full download would have seen.
                    r.content_length = sm.bytes;
                    r
                }
                None => Response::not_found("<html><body>no sitemap</body></html>"),
            },
            "/robots.txt" => match &self.robots_txt {
                Some(txt) => Response::ok(txt.as_str()),
                None => Response::not_found("not found"),
            },
            _ => match &self.sample_page {
                Some(page) if self.pages.count > 0 => Response::ok(page.as_str()),
                _ => Response::not_found("<html><body>404</body></html>"),
            },
        };
        for (n, v) in &self.extra_headers {
            resp.headers.append(n.clone(), v.clone());
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpsim::StatusCode;

    #[test]
    fn serves_index_and_404() {
        let c = SiteContent::placeholder("hello");
        let r = c.serve(&Request::get("x", "/"));
        assert_eq!(r.status, StatusCode::OK);
        assert!(r.body.as_str().contains("hello"));
        let r = c.serve(&Request::get("x", "/nope.html"));
        assert_eq!(r.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn index_body_is_shared_not_copied() {
        let c = SiteContent::placeholder("hello");
        let a = c.serve(&Request::get("x", "/"));
        let b = c.serve(&Request::get("y", "/index.html"));
        assert_eq!(a.body.as_ptr(), c.index_html.as_ptr());
        assert_eq!(b.body.as_ptr(), c.index_html.as_ptr());
        assert_eq!(a.body.fnv(), simcore::fnv1a(&b.body));
        assert_eq!(a.content_length, c.index_html.len() as u64);
    }

    #[test]
    fn serves_sitemap_with_true_size() {
        let mut c = SiteContent::placeholder("s");
        c.sitemap = Some(Sitemap::synthetic(10_000, "<urlset/>".into()));
        let r = c.serve(&Request::get("x", "/sitemap.xml"));
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.content_length, 120 + 10_000 * 80);
        assert_eq!(r.body.as_str(), "<urlset/>");
    }

    #[test]
    fn serves_sample_page_when_pages_exist() {
        let mut c = SiteContent::placeholder("s");
        c.pages = PageStats {
            count: 5000,
            total_bytes: 5000 * 50_000,
        };
        c.sample_page = Some("<html><body>doorway</body></html>".into());
        let r = c.serve(&Request::get("x", "/page-xyz.html"));
        assert_eq!(r.status, StatusCode::OK);
        assert!(r.body.as_str().contains("doorway"));
    }

    #[test]
    fn extra_headers_attached() {
        let mut c = SiteContent::placeholder("s");
        c.extra_headers
            .push(("Strict-Transport-Security".into(), "max-age=300".into()));
        let r = c.serve(&Request::get("x", "/"));
        assert_eq!(
            r.headers.get("strict-transport-security"),
            Some("max-age=300")
        );
    }

    #[test]
    fn robots_txt() {
        let mut c = SiteContent::placeholder("s");
        c.robots_txt = Some("User-agent: *\nDisallow: /admin".into());
        let r = c.serve(&Request::get("x", "/robots.txt"));
        assert_eq!(r.status, StatusCode::OK);
        assert!(r.body.as_str().contains("Disallow"));
    }
}
