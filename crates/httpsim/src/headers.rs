//! Case-insensitive, order-preserving HTTP header map.

use serde::{Deserialize, Serialize};

/// A multimap of HTTP headers. Lookup is case-insensitive and returns the
/// first value in insertion order; [`HeaderMap::append`] keeps earlier
/// values of the same name, [`HeaderMap::set`] replaces them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeaderMap {
    entries: Vec<(String, String)>,
}

impl HeaderMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header, keeping any existing values for the same name.
    pub fn append(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replace all values of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.remove(name);
        self.entries.push((name.to_string(), value.into()));
    }

    /// First value of `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Remove all values of `name`.
    fn remove(&mut self, name: &str) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_get() {
        let mut h = HeaderMap::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
        assert!(!h.contains("X-Other"));
    }

    #[test]
    fn append_keeps_first_value() {
        let mut h = HeaderMap::new();
        h.append("Set-Cookie", "a=1");
        h.append("Set-Cookie", "b=2");
        assert_eq!(h.get("Set-Cookie"), Some("a=1"));
    }

    #[test]
    fn set_replaces() {
        let mut h = HeaderMap::new();
        h.append("X", "1");
        h.append("x", "2");
        h.set("X", "3");
        assert_eq!(h.get("x"), Some("3"));
        assert_eq!(h, {
            let mut one = HeaderMap::new();
            one.append("X", "3");
            one
        });
    }
}
