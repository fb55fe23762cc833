//! The findings baseline: a checked-in ratchet for pre-existing findings.
//!
//! Format is a strict subset of TOML (hand-parsed — the dependency policy
//! forbids pulling a TOML crate for this):
//!
//! ```toml
//! # comments allowed
//! [[allow]]
//! rule = "PANIC01"
//! file = "crates/core/src/wire.rs"
//! count = 4
//! note = "optional free text"
//! ```
//!
//! Semantics: up to `count` findings of `rule` in `file` are tolerated.
//! More than `count` fails the gate (new findings); fewer is reported as
//! slack so the baseline can be ratcheted down.

use std::collections::BTreeMap;

use crate::Finding;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule id, e.g. `"PANIC01"`.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Number of tolerated findings.
    pub count: usize,
    /// Optional reviewer note.
    pub note: Option<String>,
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// All allow entries, in file order.
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Parses the TOML-subset text. Returns a descriptive error on any
    /// line the subset grammar does not cover.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries: Vec<Entry> = Vec::new();
        let mut current: Option<Entry> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = current.take() {
                    entries.push(validate(e, lineno)?);
                }
                current = Some(Entry {
                    rule: String::new(),
                    file: String::new(),
                    count: 0,
                    note: None,
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", lineno + 1));
            };
            let entry = current
                .as_mut()
                .ok_or_else(|| format!("line {}: key outside [[allow]] table", lineno + 1))?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => entry.rule = parse_string(value, lineno)?,
                "file" => entry.file = parse_string(value, lineno)?,
                "note" => entry.note = Some(parse_string(value, lineno)?),
                "count" => {
                    entry.count = value
                        .parse()
                        .map_err(|_| format!("line {}: count must be an integer", lineno + 1))?
                }
                other => {
                    return Err(format!("line {}: unknown key `{other}`", lineno + 1));
                }
            }
        }
        if let Some(e) = current.take() {
            entries.push(validate(e, text.lines().count())?);
        }
        Ok(Baseline { entries })
    }

    /// Renders back to the canonical TOML-subset text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Findings baseline for minshare-analyzer.\n\
             # Each entry tolerates up to `count` findings of `rule` in `file`.\n\
             # Counts may only shrink: fix a finding, then lower (or drop) the entry.\n",
        );
        for e in &self.entries {
            out.push_str("\n[[allow]]\n");
            out.push_str(&format!("rule = \"{}\"\n", e.rule));
            out.push_str(&format!("file = \"{}\"\n", e.file));
            out.push_str(&format!("count = {}\n", e.count));
            if let Some(note) = &e.note {
                out.push_str(&format!("note = \"{note}\"\n"));
            }
        }
        out
    }

    /// Builds a baseline exactly covering `findings`.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.rule.to_string(), f.file.clone()))
                .or_insert(0) += 1;
        }
        Baseline {
            entries: counts
                .into_iter()
                .map(|((rule, file), count)| Entry {
                    rule,
                    file,
                    count,
                    note: None,
                })
                .collect(),
        }
    }

    /// Allowed count for `(rule, file)` (0 when absent).
    pub fn allowed(&self, rule: &str, file: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.rule == rule && e.file == file)
            .map(|e| e.count)
            .sum()
    }
}

fn validate(e: Entry, lineno: usize) -> Result<Entry, String> {
    if e.rule.is_empty() || e.file.is_empty() {
        return Err(format!(
            "entry ending near line {}: `rule` and `file` are required",
            lineno + 1
        ));
    }
    Ok(e)
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment. The subset has no escapes
    // inside strings, so toggling on `"` is exact.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("line {}: expected a quoted string", lineno + 1))
    }
}

/// Outcome of comparing findings against a baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateResult {
    /// Findings beyond their baselined count — these fail the gate.
    pub new_findings: Vec<Finding>,
    /// `(rule, file, slack)` where the baseline tolerates more findings
    /// than exist; candidates for ratcheting down.
    pub stale: Vec<(String, String, usize)>,
}

/// Applies the count ratchet: per `(rule, file)`, the first `allowed`
/// findings pass, the remainder are new.
pub fn gate(findings: &[Finding], baseline: &Baseline) -> GateResult {
    let mut grouped: BTreeMap<(String, String), Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        grouped
            .entry((f.rule.to_string(), f.file.clone()))
            .or_default()
            .push(f);
    }
    let mut result = GateResult::default();
    for ((rule, file), group) in &grouped {
        let allowed = baseline.allowed(rule, file);
        if group.len() > allowed {
            result
                .new_findings
                .extend(group[allowed..].iter().map(|f| (*f).clone()));
        }
    }
    for e in &baseline.entries {
        let have = grouped
            .get(&(e.rule.clone(), e.file.clone()))
            .map(|g| g.len())
            .unwrap_or(0);
        if e.count > have {
            result
                .stale
                .push((e.rule.clone(), e.file.clone(), e.count - have));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            col: 1,
            message: "m".to_string(),
        }
    }

    #[test]
    fn parse_render_round_trip() {
        let text = "\n# header\n[[allow]]\nrule = \"PANIC01\" # trailing\nfile = \"crates/core/src/wire.rs\"\ncount = 3\n\n[[allow]]\nrule = \"SEC02\"\nfile = \"crates/crypto/src/sra.rs\"\ncount = 1\nnote = \"legacy\"\n";
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.allowed("PANIC01", "crates/core/src/wire.rs"), 3);
        assert_eq!(b.entries[1].note.as_deref(), Some("legacy"));
        let b2 = Baseline::parse(&b.render()).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Baseline::parse("rule = \"X\"").is_err()); // key before table
        assert!(Baseline::parse("[[allow]]\nrule = X\nfile = \"f\"").is_err()); // unquoted
        assert!(Baseline::parse("[[allow]]\ncount = 1").is_err()); // missing rule/file
        assert!(Baseline::parse("[[allow]]\nrule = \"R\"\nfile = \"f\"\ncount = no").is_err());
        assert!(Baseline::parse("[[allow]]\nrule = \"R\"\nfile = \"f\"\nbogus = 1").is_err());
    }

    #[test]
    fn gate_ratchets_counts() {
        let findings = vec![
            f("PANIC01", "a.rs", 1),
            f("PANIC01", "a.rs", 2),
            f("SEC02", "b.rs", 3),
        ];
        let b =
            Baseline::parse("[[allow]]\nrule = \"PANIC01\"\nfile = \"a.rs\"\ncount = 1\n").unwrap();
        let r = gate(&findings, &b);
        // One PANIC01 over budget + the unbaselined SEC02.
        assert_eq!(r.new_findings.len(), 2);
        assert!(r.stale.is_empty());
    }

    #[test]
    fn gate_reports_slack() {
        let b =
            Baseline::parse("[[allow]]\nrule = \"PANIC01\"\nfile = \"a.rs\"\ncount = 5\n").unwrap();
        let r = gate(&[f("PANIC01", "a.rs", 1)], &b);
        assert!(r.new_findings.is_empty());
        assert_eq!(
            r.stale,
            vec![("PANIC01".to_string(), "a.rs".to_string(), 4)]
        );
    }

    #[test]
    fn from_findings_covers_exactly() {
        let findings = vec![f("FMT01", "x.rs", 1), f("FMT01", "x.rs", 2)];
        let b = Baseline::from_findings(&findings);
        let r = gate(&findings, &b);
        assert!(r.new_findings.is_empty());
        assert!(r.stale.is_empty());
    }
}
