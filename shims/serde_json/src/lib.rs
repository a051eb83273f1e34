//! Minimal `serde_json` shim.
//!
//! Re-exports the shim serde's [`Value`] and provides the familiar
//! entry points: [`json!`], [`to_string`], [`to_string_pretty`] and
//! [`from_str_value`], which parses JSON text into a [`Value`] with a
//! small recursive-descent parser. Rendering lives on `Value` itself so
//! both crates agree byte-for-byte.

pub use serde::{Map, Number, Value};

mod parse;

pub use parse::from_str_value;

/// Serialisation or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Render any `Serialize` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.to_value().render_compact(&mut out);
    Ok(out)
}

/// Render any `Serialize` as pretty JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.to_value().render_pretty(&mut out, 0);
    Ok(out)
}

/// Build a [`Value`] from JSON-ish syntax.
///
/// Supports object literals with string-literal keys, array literals,
/// `null`, and arbitrary expressions convertible via `Into<Value>`
/// (numbers, strings, bools, `Option`, `Vec`, `Value`). Values inside
/// an object/array literal are Rust expressions — nest with an inner
/// `json!(..)` call rather than a bare `{..}` literal.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Object(Vec::new()) };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $(($key.to_string(), $crate::value_from(&$val)),)*
        ])
    };
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![$($crate::value_from(&$val)),*])
    };
    ($other:expr) => { $crate::value_from(&$other) };
}

/// Convert by reference through `Serialize` — the expansion target of
/// [`json!`], so value expressions are borrowed, not moved.
pub fn value_from<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        let v = json!({
            "name": "fig3",
            "count": 3u64,
            "ratio": 0.5,
            "tags": ["a", "b"],
            "vpn": Option::<String>::None,
        });
        assert_eq!(v["name"], "fig3");
        assert_eq!(v["count"].as_u64(), Some(3));
        assert!(v["vpn"].is_null());
        assert_eq!(v["tags"][1], "b");
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn round_trip_compact() {
        let v = json!({"a": 1u64, "b": json!([true, Value::Null]), "c": "x\"y"});
        let text = to_string(&v).unwrap();
        assert_eq!(from_str_value(&text).unwrap(), v);
    }

    #[test]
    fn index_mut_inserts() {
        let mut v = json!({"a": 1u64});
        v["b"] = json!(2u64);
        assert_eq!(v["b"].as_u64(), Some(2));
        v["a"] = json!("replaced");
        assert_eq!(v["a"], "replaced");
    }

    #[test]
    fn pretty_renders_nested() {
        let v = json!({"outer": json!({"inner": 1u64})});
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\"outer\": {\n"));
        assert_eq!(from_str_value(&text).unwrap(), v);
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(from_str_value("42").unwrap().as_u64(), Some(42));
        assert_eq!(from_str_value("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(from_str_value("2.5e2").unwrap().as_f64(), Some(250.0));
        assert!(from_str_value("trueX").is_err());
    }
}
