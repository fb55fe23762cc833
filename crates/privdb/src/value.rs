//! Typed cell values.

use std::fmt;

/// A single cell value. `Ord` is derived so values can key B-tree maps and
/// be sorted deterministically (the protocols sort ciphertext lists; the
/// clear-text oracle sorts values).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// SQL NULL. Compares equal to itself here (bag semantics are enough
    /// for the reproduction; the paper's protocols operate on value sets).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Text(_) => "text",
            Value::Bytes(_) => "bytes",
        }
    }

    /// Extracts a bool, if that is what this is.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts an int, if that is what this is.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts text, if that is what this is.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => {
                write!(f, "x'")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                write!(f, "'")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(vec![1u8]), Value::Bytes(vec![1]));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_bool(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_string(), "x'dead'");
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            Value::Int(2),
            Value::Null,
            Value::Text("b".into()),
            Value::Int(1),
            Value::Bool(false),
        ];
        vals.sort();
        // Derived order: Null < Bool < Int < Text < Bytes.
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(vals[2], Value::Int(1));
    }
}
