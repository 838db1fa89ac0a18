//! Immutable, shared response bodies.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A UTF-8 body written once and shared by every response that serves it,
/// together with its FNV-1a value ([`simcore::fnv1a`]), computed at most
/// once per body. Cloning is a reference-count increment, so serving a page
/// copies no bytes and the crawl compares bodies without rehashing them.
///
/// Derefs to `[u8]`, like the `Vec<u8>` it replaces; [`Body::as_str`] is the
/// text view.
#[derive(Clone)]
pub struct Body(Arc<Shared>);

struct Shared {
    /// The text as it was rendered: its allocation is kept, not copied.
    text: String,
    /// Filled by the first [`Body::fnv`] call, so a page nothing fetches
    /// is never hashed.
    fnv: OnceLock<u64>,
}

impl Body {
    pub fn as_str(&self) -> &str {
        &self.0.text
    }

    /// FNV-1a of the body's bytes.
    pub fn fnv(&self) -> u64 {
        *self
            .0
            .fnv
            .get_or_init(|| simcore::fnv1a(self.0.text.as_bytes()))
    }
}

impl From<String> for Body {
    fn from(text: String) -> Self {
        Body(Arc::new(Shared {
            text,
            fnv: OnceLock::new(),
        }))
    }
}

impl From<&str> for Body {
    fn from(text: &str) -> Self {
        Body::from(text.to_string())
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::from(String::new())
    }
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.text.as_bytes()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_the_hash_of_the_bytes() {
        for text in ["", "a", "<html><body>héllo</body></html>"] {
            let b = Body::from(text);
            assert_eq!(b.fnv(), simcore::fnv1a(text.as_bytes()));
            assert_eq!(&*b, text.as_bytes());
            assert_eq!(b.as_str(), text);
        }
    }

    #[test]
    fn clones_share_the_text() {
        let rendered = String::from("<html>shared</html>");
        let at = rendered.as_ptr();
        let a = Body::from(rendered);
        let b = a.clone();
        assert_eq!(a.as_ptr(), at, "the rendered String is the allocation");
        assert_eq!(b.as_ptr(), at);
        assert_eq!(a, b);
        assert_ne!(a, Body::from("<html>other</html>"));
    }
}
