//! Offline stand-in for `serde`.
//!
//! The real serde is a zero-overhead visitor framework; this shim trades that
//! generality for a concrete JSON-like value tree ([`Value`]), which is all
//! the workspace needs: derived `Serialize`/`Deserialize` on plain data
//! types, rendered to text by the sibling `serde_json` shim. The derive
//! macros (re-exported here under the `derive` feature, exactly like real
//! serde) generate `to_json_value` / `from_json_value` implementations that
//! follow serde's externally-tagged data model, so swapping the real crates
//! back in changes no on-disk format in spirit: structs become objects in
//! field order, unit enum variants become strings, data-carrying variants
//! become single-key objects.

mod impls;
mod value;

pub use value::{Number, Value};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A value that can render itself into the [`Value`] tree.
pub trait Serialize {
    fn to_json_value(&self) -> Value;
}

/// A value that can be reconstructed from the [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_json_value(v: &Value) -> Result<Self, Error>;
}

/// Deserialization error (serialization is infallible in this model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// Error for a `Value` variant mismatch.
    pub fn unexpected(expected: &str, got: &Value) -> Self {
        Error(format!("expected {expected}, got {}", got.kind()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_json_value()
}
