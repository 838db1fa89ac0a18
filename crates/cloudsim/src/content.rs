//! Hosted site content.
//!
//! What a cloud resource serves is what §3's weekly crawl reads: the index
//! page, the size of the sitemap (the crawl keeps nothing else of it; the
//! paper flags new sitemaps and >100KB jumps), and the site's extra response
//! headers. The page store behind a sitemap — up to 144,349 uploaded HTML
//! files per abused site — is modelled by that size alone.

use httpsim::{Body, Response};

/// Serialized size in bytes of a sitemap listing `entries` URLs of ~80
/// bytes each.
pub fn sitemap_bytes(entries: u64) -> u64 {
    120 + entries * 80
}

/// Everything a resource serves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SiteContent {
    /// The index HTML (may be an "under maintenance" shell page; the abuse
    /// often hides thousands of pages behind an innocuous index — §3),
    /// shared by every response that serves it and hashed at most once.
    pub index_html: Body,
    /// Size of `/sitemap.xml` in bytes; `None` when the site has none.
    pub sitemap_bytes: Option<u64>,
    /// Extra response headers the site sets (HSTS, Set-Cookie, …).
    pub extra_headers: Vec<(String, String)>,
}

impl SiteContent {
    /// A minimal benign placeholder.
    pub fn placeholder(text: &str) -> Self {
        SiteContent {
            index_html: format!(
                "<html><head><title>{text}</title></head><body><h1>{text}</h1></body></html>"
            )
            .into(),
            ..Default::default()
        }
    }

    /// Serve a request path against this content: the index, the sitemap
    /// (an empty body advertising the sitemap's size), or a 404.
    pub fn serve(&self, path: &str) -> Response {
        let mut resp = match (path, self.sitemap_bytes) {
            ("/" | "/index.html", _) => Response::ok(self.index_html.clone()),
            ("/sitemap.xml", Some(bytes)) => {
                let mut r = Response::ok(Body::default());
                r.content_length = bytes;
                r
            }
            _ => Response::not_found("<html><body>404</body></html>"),
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
        let r = c.serve("/");
        assert_eq!(r.status, StatusCode::OK);
        assert!(r.body.as_str().contains("hello"));
        let r = c.serve("/nope.html");
        assert_eq!(r.status, StatusCode::NOT_FOUND);
        let r = c.serve("/sitemap.xml");
        assert_eq!(r.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn index_body_is_shared_not_copied() {
        let c = SiteContent::placeholder("hello");
        let a = c.serve("/");
        let b = c.serve("/index.html");
        assert_eq!(a.body.as_ptr(), c.index_html.as_ptr());
        assert_eq!(b.body.as_ptr(), c.index_html.as_ptr());
        assert_eq!(a.body.fnv(), simcore::fnv1a(&b.body));
        assert_eq!(a.content_length, c.index_html.len() as u64);
    }

    #[test]
    fn serves_sitemap_with_true_size() {
        let mut c = SiteContent::placeholder("s");
        c.sitemap_bytes = Some(sitemap_bytes(10_000));
        let r = c.serve("/sitemap.xml");
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.content_length, 120 + 10_000 * 80);
        assert!(r.body.is_empty());
    }

    #[test]
    fn extra_headers_attached() {
        let mut c = SiteContent::placeholder("s");
        c.extra_headers
            .push(("Strict-Transport-Security".into(), "max-age=300".into()));
        let r = c.serve("/");
        assert_eq!(
            r.headers.get("strict-transport-security"),
            Some("max-age=300")
        );
    }
}
