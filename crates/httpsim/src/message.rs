//! HTTP/1.1 message model, cut down to the fields the crawl and the probes
//! read.

use crate::body::Body;
use crate::headers::HeaderMap;
use serde::{Deserialize, Serialize};

/// HTTP status code wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StatusCode(pub u16);

impl StatusCode {
    pub const OK: StatusCode = StatusCode(200);
    pub const NOT_FOUND: StatusCode = StatusCode(404);

    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An HTTP GET request — the only method the crawl and the probes send.
#[derive(Debug, Clone)]
pub struct Request {
    /// The `Host` the request names (virtual-hosting key).
    pub host: String,
    /// Origin-form target, e.g. `/sitemap.xml`.
    pub path: &'static str,
    /// Whether the request travelled over TLS. The platform completes the
    /// handshake only for its generated FQDN and custom domains bound to a
    /// certificate.
    pub https: bool,
}

impl Request {
    /// A GET for `path` at virtual host `host`.
    pub fn get(host: impl Into<String>, path: &'static str) -> Self {
        Request {
            host: host.into(),
            path,
            https: false,
        }
    }

    /// Same as [`Request::get`] but over TLS.
    pub fn get_https(host: impl Into<String>, path: &'static str) -> Self {
        Request {
            https: true,
            ..Self::get(host, path)
        }
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: StatusCode,
    /// The site's own extra headers (HSTS, …); the transport headers are
    /// typed fields.
    pub headers: HeaderMap,
    pub body: Body,
    /// Advertised size in bytes: the body's length, except for a sitemap,
    /// which is served as an empty body advertising the sitemap's size.
    pub content_length: u64,
}

impl Response {
    pub fn new(status: StatusCode, body: impl Into<Body>) -> Self {
        let body = body.into();
        Response {
            status,
            headers: HeaderMap::new(),
            content_length: body.len() as u64,
            body,
        }
    }

    pub fn ok(body: impl Into<Body>) -> Self {
        Self::new(StatusCode::OK, body)
    }

    pub fn not_found(body: impl Into<Body>) -> Self {
        Self::new(StatusCode::NOT_FOUND, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classes() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
    }

    #[test]
    fn request_builders() {
        let r = Request::get("shop.example.com", "/");
        assert_eq!(r.host, "shop.example.com");
        assert!(!r.https);
        let rs = Request::get_https("shop.example.com", "/");
        assert!(rs.https);
    }

    #[test]
    fn response_builders() {
        let r = Response::ok("<html></html>");
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.content_length, 13);
        assert_eq!(r.body.as_str(), "<html></html>");
    }
}
