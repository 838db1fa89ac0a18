//! HTTP/1.1 message model.

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Origin-form target, e.g. `/sitemap.xml`.
    pub path: String,
    pub headers: HeaderMap,
    /// Whether the request travelled over TLS. The platform completes the
    /// handshake only for its generated FQDN and custom domains bound to a
    /// certificate.
    pub https: bool,
}

impl Request {
    /// A GET for `path` at virtual host `host`.
    pub fn get(host: &str, path: &str) -> Self {
        let mut headers = HeaderMap::new();
        headers.set("Host", host);
        headers.set("User-Agent", "dangling-study/1.0");
        Request {
            path: path.to_string(),
            headers,
            https: false,
        }
    }

    /// Same as [`Request::get`] but over TLS.
    pub fn get_https(host: &str, path: &str) -> Self {
        let mut r = Self::get(host, path);
        r.https = true;
        r
    }

    /// The `Host` header (virtual-hosting key).
    pub fn host(&self) -> Option<&str> {
        self.headers.get("Host")
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    pub status: StatusCode,
    pub headers: HeaderMap,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: StatusCode) -> Self {
        Response {
            status,
            headers: HeaderMap::new(),
            body: Vec::new(),
        }
    }

    pub fn ok_html(body: impl Into<Vec<u8>>) -> Self {
        let mut r = Response::new(StatusCode::OK);
        r.headers.set("Content-Type", "text/html; charset=utf-8");
        r.body = body.into();
        r.headers.set("Content-Length", r.body.len().to_string());
        r
    }

    pub fn ok_xml(body: impl Into<Vec<u8>>) -> Self {
        let mut r = Response::new(StatusCode::OK);
        r.headers.set("Content-Type", "application/xml");
        r.body = body.into();
        r.headers.set("Content-Length", r.body.len().to_string());
        r
    }

    pub fn not_found(body: impl Into<Vec<u8>>) -> Self {
        let mut r = Response::new(StatusCode::NOT_FOUND);
        r.headers.set("Content-Type", "text/html; charset=utf-8");
        r.body = body.into();
        r.headers.set("Content-Length", r.body.len().to_string());
        r
    }

    /// UTF-8 view of the body (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
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
        assert_eq!(r.host(), Some("shop.example.com"));
        assert!(!r.https);
        let rs = Request::get_https("shop.example.com", "/");
        assert!(rs.https);
    }

    #[test]
    fn response_builders() {
        let r = Response::ok_html("<html></html>");
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.headers.get("content-length"), Some("13"));
        assert_eq!(r.body_text(), "<html></html>");
    }
}
