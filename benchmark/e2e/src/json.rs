//! Thin helpers over the vendored `serde::Value` tree, so result files and
//! result lines are built and read in one place.

use std::collections::BTreeMap;

pub use serde::Value;

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

/// A string value.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Field `key` of an object value.
pub fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value.as_object()?.get(key)
}

/// Any JSON number as `f64`.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

/// Compact rendering (one line).
pub fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("a Value tree always renders")
}

/// Indented rendering, for files people read.
pub fn render_pretty(value: &Value) -> String {
    serde_json::to_string_pretty(value).expect("a Value tree always renders")
}
