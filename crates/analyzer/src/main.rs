//! CLI for the minshare workspace analyzer.
//!
//! ```text
//! minshare-analyzer [--root DIR] [--baseline FILE] [--write-baseline FILE]
//!                   [--list] [--json] [--explain RULE]
//! ```
//!
//! `--json` emits machine-readable findings (one object per finding:
//! file, line, col, rule, note) plus a summary object. `--explain RULE`
//! prints the rule's rationale and exits.
//!
//! Exit codes: 0 = clean (or fully baselined), 1 = un-baselined findings,
//! 2 = usage or I/O error (including an unknown `--explain` rule).

use std::path::PathBuf;
use std::process::ExitCode;

use minshare_analyzer::baseline::{gate, Baseline};
use minshare_analyzer::scan::scan;
use minshare_analyzer::{rules, Finding};

struct Args {
    root: PathBuf,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    list: bool,
    json: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        baseline: None,
        write_baseline: None,
        list: false,
        json: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a file")?));
            }
            "--write-baseline" => {
                args.write_baseline = Some(PathBuf::from(
                    it.next().ok_or("--write-baseline needs a file")?,
                ));
            }
            "--list" => args.list = true,
            "--json" => args.json = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule name")?);
            }
            "--help" | "-h" => {
                return Err("usage: minshare-analyzer [--root DIR] [--baseline FILE] \
                            [--write-baseline FILE] [--list] [--json] [--explain RULE]"
                    .to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"note\":\"{}\"}}",
        json_escape(&f.file),
        f.line,
        f.col,
        f.rule,
        json_escape(&f.message)
    )
}

/// Renders findings + a verdict as a single JSON document on stdout.
fn print_json(findings: &[Finding], new_findings: Option<&[Finding]>) {
    println!("{{");
    println!("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        println!("    {}{comma}", finding_json(f));
    }
    println!("  ],");
    match new_findings {
        Some(new) => {
            println!("  \"new_findings\": [");
            for (i, f) in new.iter().enumerate() {
                let comma = if i + 1 < new.len() { "," } else { "" };
                println!("    {}{comma}", finding_json(f));
            }
            println!("  ],");
            println!("  \"total\": {},", findings.len());
            println!("  \"ok\": {}", new.is_empty());
        }
        None => {
            println!("  \"total\": {},", findings.len());
            println!("  \"ok\": null");
        }
    }
    println!("}}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = &args.explain {
        let rule = rule.to_ascii_uppercase();
        return match rules::explain(&rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "analyzer: unknown rule `{rule}`; known rules: {}",
                    rules::ALL_RULES.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }

    let findings = match scan(&args.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("analyzer: scan failed under {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.write_baseline {
        let baseline = Baseline::from_findings(&findings);
        if let Err(e) = std::fs::write(path, baseline.render()) {
            eprintln!("analyzer: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "analyzer: wrote baseline covering {} finding(s) to {}",
            findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if args.list {
        if args.json {
            print_json(&findings, None);
        } else {
            for f in &findings {
                println!("{f}");
            }
            println!("analyzer: {} finding(s) total", findings.len());
        }
        return ExitCode::SUCCESS;
    }

    let baseline = match &args.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("analyzer: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("analyzer: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => Baseline::default(),
    };

    let result = gate(&findings, &baseline);
    for (rule, file, slack) in &result.stale {
        eprintln!(
            "analyzer: note: baseline for {rule} in {file} tolerates {slack} more \
             finding(s) than exist — ratchet it down"
        );
    }
    if args.json {
        print_json(&findings, Some(&result.new_findings));
        return if result.new_findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    if result.new_findings.is_empty() {
        println!(
            "analyzer: OK — {} finding(s), all within baseline",
            findings.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &result.new_findings {
            eprintln!("{f}");
        }
        eprintln!(
            "analyzer: FAIL — {} new finding(s) not covered by the baseline",
            result.new_findings.len()
        );
        ExitCode::from(1)
    }
}
