//! Input-file parsing: one value per line, with an optional
//! tab-separated payload (`ext(v)` for a daemon serving equijoins).

use std::fmt;
use std::io::BufRead;

/// An input-parsing failure.
#[derive(Debug)]
pub struct InputError(pub String);

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input error: {}", self.0)
    }
}

impl std::error::Error for InputError {}

/// Parsed `(value, payload)` entries.
pub type ValuePayloads = Vec<(Vec<u8>, Vec<u8>)>;

/// Reads the one input format `serve` and `client` share, sender and receiver
/// alike: `value[<TAB>payload]` per line. The value is the text before
/// the first TAB, trimmed; the payload is the rest of the line as it is
/// (empty without a TAB). Lines with an empty value and `#` comments are
/// skipped. A receiver keeps only the values.
pub fn read_value_payloads<R: BufRead>(reader: R) -> Result<ValuePayloads, InputError> {
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| InputError(format!("line {}: {e}", lineno + 1)))?;
        let line = line.trim_end_matches('\r');
        let (value, payload) = line.split_once('\t').unwrap_or((line, ""));
        let value = value.trim();
        if value.is_empty() || value.starts_with('#') {
            continue;
        }
        out.push((value.as_bytes().to_vec(), payload.as_bytes().to_vec()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_skip_blanks_and_comments() {
        let text = "alice\n\n# comment\n  bob  \nmelon\r\n\tno value\n";
        let v = read_value_payloads(text.as_bytes()).unwrap();
        let values: Vec<&[u8]> = v.iter().map(|(v, _)| v.as_slice()).collect();
        assert_eq!(values, vec![&b"alice"[..], b"bob", b"melon"]);
    }

    #[test]
    fn payload_lines_split_on_first_tab() {
        let text = " k1 \t some payload\twith tab \nk2\nk3\t\n";
        let v = read_value_payloads(text.as_bytes()).unwrap();
        assert_eq!(v[0], (b"k1".to_vec(), b" some payload\twith tab ".to_vec()));
        assert_eq!(v[1], (b"k2".to_vec(), b"".to_vec()));
        assert_eq!(v[2], (b"k3".to_vec(), b"".to_vec()));
    }
}
