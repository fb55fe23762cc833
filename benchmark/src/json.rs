//! A small JSON value with a writer and a parser. The workspace has no
//! real serde (vendor/serde is a derive-only stand-in), and the benchmark
//! must both emit the driver's result line and read back its own result
//! files (`--compare`), the daemon's STATS snapshots and BENCHMARK.json.

use std::fmt::Write as _;

/// A JSON document. Objects keep insertion order so written files diff
/// cleanly between runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object to `push` members into.
    pub fn object() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends `key: value` (objects only; a no-op on other variants).
    pub fn push(&mut self, key: &str, value: impl Into<Value>) {
        if let Value::Obj(members) = self {
            members.push((key.to_string(), value.into()));
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object (empty for other variants).
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(members) => members,
            _ => &[],
        }
    }

    /// The elements of an array (empty for other variants).
    pub fn elements(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact single-line rendering (the driver's result line).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering (result files).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(step * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Numbers are written with every digit `f64` carries (Rust's shortest
/// round-trip form); integral values print without a fraction. JSON has
/// no NaN/inf, so those become `null` and fail the reader loudly.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.error("expected a member name"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.error("expected ':'"));
            }
            members.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Value::Obj(members));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in the files this
                            // benchmark reads; map them to U+FFFD.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_keeps_every_digit_and_integers_stay_integral() {
        let mut v = Value::object();
        v.push("latency", 1.2034567891234567);
        v.push("count", 4000u64);
        v.push("ok", true);
        v.push("unit", "s");
        assert_eq!(
            v.to_compact(),
            r#"{"latency":1.2034567891234567,"count":4000,"ok":true,"unit":"s"}"#
        );
    }

    #[test]
    fn strings_are_escaped_and_round_trip() {
        let v = Value::Str("tab\there \"quoted\" back\\slash\nnewline \u{1}".to_string());
        let text = v.to_compact();
        assert!(text.contains("\\t") && text.contains("\\\"") && text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_and_compact_parse_to_the_same_document() {
        let mut inner = Value::object();
        inner.push("value", 0.5);
        inner.push("unit", "ratio");
        let mut v = Value::object();
        v.push("metrics", inner);
        v.push(
            "runs",
            vec![Value::Num(1.0), Value::Null, Value::Arr(vec![])],
        );
        v.push("empty", Value::object());
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn parser_reads_a_stats_snapshot_shape() {
        let text = r#"{"stats_version":1,"epoch":0,"counters":{"shard/spill_done/runs_spilled":8,
            "pool/submit/events{session=1}":73},"gauges":{},"histograms":{"protocol/intersection/duration_ns":
            {"count":1,"sum":4237901566,"min":1,"max":2,"buckets":{"2147483648":1}}}}"#;
        let v = parse(text).unwrap();
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters
                .get("shard/spill_done/runs_spilled")
                .unwrap()
                .as_f64(),
            Some(8.0)
        );
        let h = v
            .get("histograms")
            .and_then(|h| h.get("protocol/intersection/duration_ns"))
            .unwrap();
        assert_eq!(h.get("sum").unwrap().as_f64(), Some(4237901566.0));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1}x", "\"open", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
    }
}
