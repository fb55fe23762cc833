//! The lint rule families.
//!
//! SEC01, PANIC01 and UNSAFE01 remain token-stream pattern matchers
//! (their targets — derives, panic sites, a keyword — are purely
//! syntactic). SEC02, FMT01, OBS01, WIRE01 and LOCK01 run on the
//! token-tree + taint engine (`ast` → `dataflow` → `taint`), so a secret
//! flowing through a local binding is caught, while an unrelated
//! identifier eight tokens away no longer trips a window heuristic.

use crate::ast::{self, Delim, Tree};
use crate::dataflow::{self, FnDef};
use crate::lexer::{test_mask, TokKind, Token};
use crate::registry;
use crate::taint::{self, FnTaint, KEY};
use crate::Finding;

/// Runs every rule applicable to `rel_path` over `src` and returns the
/// findings, sorted by position.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let tokens = crate::lexer::lex(src);
    let mask = test_mask(&tokens);
    let trees = ast::parse(&tokens);
    let fns = dataflow::functions(&tokens, &trees);
    let mut findings = Vec::new();
    findings.extend(sec01_derives(rel_path, &tokens));
    if registry::in_panic_free_crate(rel_path) {
        findings.extend(panic01_panics(rel_path, &tokens, &mask));
    }
    if registry::in_unsafe01_scope(rel_path) {
        findings.extend(unsafe01_keywords(rel_path, &tokens));
    }
    let wire = registry::in_wire01_scope(rel_path);
    let lock = registry::in_lock01_scope(rel_path);
    for f in &fns {
        let ft = taint::analyze_fn(&tokens, f);
        sec02_fn(rel_path, &tokens, &mask, f, &ft, &mut findings);
        fmt01_fn(rel_path, &tokens, &mask, f, &ft, &mut findings);
        obs01_fn(rel_path, &tokens, &mask, f, &ft, &mut findings);
        if wire {
            taint::wire01_fn(rel_path, &tokens, &mask, f, &ft, &mut findings);
        }
        if lock {
            taint::lock01_fn(rel_path, &tokens, &mask, f, &mut findings);
        }
    }
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    // Nested named fns are members of their enclosing fn's body too;
    // drop the duplicate scan's findings.
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.col == b.col);
    findings
}

/// Per-rule rationale for `--explain RULE` (and SECURITY.md's tables).
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "SEC01" => {
            "SEC01 — no Debug/PartialEq derives on secret types.\n\
             A derived Debug prints key material into panic messages and logs; a\n\
             derived PartialEq compares secrets in variable time, leaking match\n\
             length through timing. Secret types (see analyzer registry\n\
             SECRET_TYPES) must implement a redacted Debug and constant-time\n\
             equality (minshare_hash::ct) by hand. Applies to test code too: a\n\
             secret type is a secret type wherever it is declared."
        }
        "SEC02" => {
            "SEC02 — no variable-time comparison of secret material.\n\
             `==`, `!=` and assert_eq!/assert_ne! short-circuit on the first\n\
             differing byte, so comparison time reveals how much of a secret an\n\
             attacker guessed. The taint engine flags comparisons whose operands\n\
             carry KEY taint (registered secret idents/types, key-source call\n\
             results, or bindings derived from them). Use\n\
             minshare_hash::ct::ct_eq. Test code is exempt."
        }
        "PANIC01" => {
            "PANIC01 — no panic paths in peer-facing crates (crypto, core, net).\n\
             These crates parse peer-supplied bytes; an unwrap/expect/panic!/\n\
             direct index reachable from a message is a remote denial of\n\
             service. Return typed errors; index with .get(). Test code is\n\
             exempt, as are the other workspace crates."
        }
        "FMT01" => {
            "FMT01 — no secret material in format strings.\n\
             format!/println!/write!-family macros move their arguments into\n\
             strings that outlive the call: logs, error messages, panic output.\n\
             The taint engine flags macro arguments (and inline `{name}`\n\
             captures) carrying KEY taint. Test code is exempt: redaction tests\n\
             legitimately format secrets to assert on the redacted text."
        }
        "OBS01" => {
            "OBS01 — no secret material at telemetry call sites.\n\
             The trace layer is secret-safe by construction: fields are typed\n\
             counts, sizes, durations and flags. Any KEY-tainted expression (or\n\
             inline string capture) inside a trace::/minshare_trace:: call —\n\
             including the lazy field closure — would leak key material into\n\
             observability output, which is exported, retained and searchable.\n\
             Enforced as a count-0 ratchet anchor."
        }
        "WIRE01" => {
            "WIRE01 — nothing but h-then-enc reaches the wire.\n\
             The paper's minimal-sharing argument (§3) rests on one discipline:\n\
             a party transmits only f_e(h(v)) — hashed then commutatively\n\
             encrypted — plus protocol framing. The taint engine tracks RAW set\n\
             values, HASHED-but-not-encrypted values and KEY material through\n\
             bindings; any of the three reaching a Transport::send/send_batch,\n\
             wire encode_*, FrameBatch writer or chunked-send helper is excess\n\
             leakage (a bare h(v) permits offline dictionary probing). Runs\n\
             over core, crypto and net; expected count 0, anchored in the\n\
             baseline. File-level exemptions live in the registry with their\n\
             justifications (tradeoff.rs's deliberate Bloom disclosure,\n\
             pool.rs's in-process channels). See SECURITY.md for the model's\n\
             limits."
        }
        "LOCK01" => {
            "LOCK01 — no blocking calls while holding a lock guard.\n\
             A recv/join/wait under a held Mutex/parking_lot guard in the pool\n\
             or transport stack can deadlock a protocol party: the peer that\n\
             would unblock the call may itself be waiting on the lock. The\n\
             engine tracks `let g = ….lock()/read()/write()` guard bindings to\n\
             the end of their scope (or an explicit `drop(g)`) and flags\n\
             blocking calls inside it. Condvar-style `cv.wait(&mut g)` is\n\
             exempt — it releases the lock while parked — as are closures\n\
             (other threads). Runs over crypto and net; expected count 0,\n\
             anchored in the baseline."
        }
        "UNSAFE01" => {
            "UNSAFE01 — `unsafe` lives in one file.\n\
             The AVX-512 IFMA kernel (crates/bignum/src/ifma.rs) is the only code\n\
             that needs it: its safe API is gated by runtime CPU detection at\n\
             construction and sees only public modulus constants and group\n\
             elements, never an exponent. The `unsafe` keyword anywhere else under\n\
             crates/*/src — blocks, fns, impls, test code included — is a finding.\n\
             Backs bignum's deny(unsafe_code), which any #[allow] in the crate\n\
             would lift. Expected count 0, anchored in the baseline."
        }
        _ => return None,
    })
}

/// Every rule the analyzer knows, for `--explain` discovery.
pub const ALL_RULES: &[&str] = &[
    "SEC01", "SEC02", "PANIC01", "FMT01", "OBS01", "WIRE01", "LOCK01", "UNSAFE01",
];

fn finding(rule: &'static str, rel_path: &str, tok: &Token, message: String) -> Finding {
    Finding {
        rule,
        file: rel_path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// Index of the token closing the group opened at `open` (matching
/// bracket of the same shape), or `tokens.len()` if unbalanced.
fn matching_close(tokens: &[Token], open: usize) -> usize {
    let (open_s, close_s) = match tokens[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].text == open_s {
            depth += 1;
        } else if tokens[i].text == close_s {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// SEC01: `#[derive(Debug)]` / `#[derive(PartialEq)]` on registry types.
///
/// Applies to test code too — a secret type is a secret type wherever it
/// is declared.
fn sec01_derives(rel_path: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].text != "derive"
            || i < 2
            || tokens[i - 1].text != "["
            || tokens[i - 2].text != "#"
        {
            continue;
        }
        let Some(open) = tokens.get(i + 1).filter(|t| t.text == "(") else {
            continue;
        };
        let _ = open;
        let close = matching_close(tokens, i + 1);
        let derived: Vec<&Token> = tokens[i + 2..close]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .collect();
        let bad: Vec<&str> = derived
            .iter()
            .map(|t| t.text.as_str())
            .filter(|t| *t == "Debug" || *t == "PartialEq")
            .collect();
        if bad.is_empty() {
            continue;
        }
        // Walk past `)]` and any further attributes to the item header.
        let mut k = close + 2;
        while k + 1 < tokens.len() && tokens[k].text == "#" && tokens[k + 1].text == "[" {
            k = matching_close(tokens, k + 1) + 1;
        }
        let mut name: Option<&str> = None;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "struct" | "enum" | "union" => {
                    name = tokens.get(k + 1).map(|t| t.text.as_str());
                    break;
                }
                "{" | ";" | "fn" | "impl" | "trait" => break,
                _ => k += 1,
            }
        }
        if let Some(name) = name {
            if registry::is_secret_type(name) {
                out.push(finding(
                    "SEC01",
                    rel_path,
                    &tokens[i],
                    format!(
                        "secret type `{name}` derives {}; use a redacted Debug impl and \
                         constant-time equality (minshare_hash::ct) instead",
                        bad.join(" and ")
                    ),
                ));
            }
        }
    }
    out
}

/// Sibling-list tokens that end a comparison operand: the taint check
/// never crosses these, so an unrelated neighbouring expression cannot
/// trip the rule (the old ±8-token window's false-positive mode).
fn is_operand_boundary(tokens: &[Token], tree: &Tree) -> bool {
    match tree {
        Tree::Leaf(i) => tokens.get(*i).is_some_and(|t| match t.kind {
            TokKind::Punct => matches!(t.text.as_str(), "," | ";" | "&&" | "||" | "=" | "=>"),
            TokKind::Ident => matches!(
                t.text.as_str(),
                "let" | "if" | "else" | "while" | "for" | "in" | "match" | "return"
            ),
            _ => false,
        }),
        // A `{` ends the expression being compared: `if a == b { … }`
        // must not read the if-body as part of the right operand.
        Tree::Group(g) => g.delim == Delim::Brace,
    }
}

/// SEC02: variable-time comparison of KEY-tainted material.
fn sec02_fn(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    f: &FnDef,
    ft: &FnTaint,
    out: &mut Vec<Finding>,
) {
    ast::walk_sibling_lists(
        std::slice::from_ref(&Tree::Group(f.body.clone())),
        &mut |list| {
            for (i, tree) in list.iter().enumerate() {
                let Tree::Leaf(tok_idx) = tree else { continue };
                let Some(tok) = tokens.get(*tok_idx) else {
                    continue;
                };
                if mask.get(*tok_idx).copied().unwrap_or(false) {
                    continue;
                }
                // Binary comparison: taint either operand span.
                if tok.kind == TokKind::Punct && (tok.text == "==" || tok.text == "!=") {
                    let lo = (0..i)
                        .rev()
                        .find(|&k| is_operand_boundary(tokens, &list[k]))
                        .map(|k| k + 1)
                        .unwrap_or(0);
                    let hi = (i + 1..list.len())
                        .find(|&k| is_operand_boundary(tokens, &list[k]))
                        .unwrap_or(list.len());
                    let bits = taint::eval_span(tokens, &list[lo..i], ft)
                        | taint::eval_span(tokens, &list[i + 1..hi], ft);
                    if bits & KEY != 0 {
                        let name = key_ident_in(tokens, &list[lo..hi], ft)
                            .unwrap_or_else(|| "key material".to_string());
                        out.push(finding(
                            "SEC02",
                            rel_path,
                            tok,
                            format!(
                                "`{}` compares secret material (`{name}`); use \
                             minshare_hash::ct::ct_eq for constant-time comparison",
                                tok.text
                            ),
                        ));
                    }
                }
                // assert_eq!/assert_ne! outside tests.
                if tok.kind == TokKind::Ident
                    && matches!(
                        tok.text.as_str(),
                        "assert_eq" | "assert_ne" | "debug_assert_eq" | "debug_assert_ne"
                    )
                    && list
                        .get(i + 1)
                        .is_some_and(|t| ast::is_punct(tokens, t, "!"))
                {
                    if let Some(Tree::Group(g)) = list.get(i + 2) {
                        if taint::eval_span(tokens, &g.children, ft) & KEY != 0 {
                            let name = key_ident_in(tokens, &g.children, ft)
                                .unwrap_or_else(|| "key material".to_string());
                            out.push(finding(
                                "SEC02",
                                rel_path,
                                tok,
                                format!(
                                    "`{}!` on secret material (`{name}`) outside tests; use \
                                 minshare_hash::ct::ct_eq",
                                    tok.text
                                ),
                            ));
                        }
                    }
                }
            }
        },
    );
}

/// First identifier in a span that carries KEY taint, for messages.
fn key_ident_in(tokens: &[Token], trees: &[Tree], ft: &FnTaint) -> Option<String> {
    for t in trees {
        match t {
            Tree::Leaf(i) => {
                let tok = tokens.get(*i)?;
                if tok.kind == TokKind::Ident
                    && (registry::is_secret_ident(&tok.text) || ft.of(&tok.text) & KEY != 0)
                {
                    return Some(tok.text.clone());
                }
            }
            Tree::Group(g) => {
                if let Some(n) = key_ident_in(tokens, &g.children, ft) {
                    return Some(n);
                }
            }
        }
    }
    None
}

/// PANIC01: panic paths in crates that parse peer-supplied data.
fn panic01_panics(rel_path: &str, tokens: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let t = &tokens[i];
        match t.kind {
            TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let after_dot = i > 0 && tokens[i - 1].text == ".";
                let called = tokens.get(i + 1).map(|n| n.text.as_str()) == Some("(");
                if after_dot && called {
                    out.push(finding(
                        "PANIC01",
                        rel_path,
                        t,
                        format!(
                            "`.{}()` in peer-facing crate; return a typed error instead",
                            t.text
                        ),
                    ));
                }
            }
            TokKind::Ident if matches!(t.text.as_str(), "panic" | "todo" | "unimplemented") => {
                if tokens.get(i + 1).map(|n| n.text.as_str()) == Some("!") {
                    out.push(finding(
                        "PANIC01",
                        rel_path,
                        t,
                        format!(
                            "`{}!` in peer-facing crate; return a typed error instead",
                            t.text
                        ),
                    ));
                }
            }
            TokKind::Punct if t.text == "[" && i > 0 => {
                // Direct indexing `expr[...]`: `[` directly after an
                // identifier, `)` or `]`. Attributes (`#[...]`) and
                // macro brackets (`vec![...]`) do not match this shape.
                let prev = &tokens[i - 1];
                let indexes = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
                    || prev.text == ")"
                    || prev.text == "]";
                if indexes {
                    out.push(finding(
                        "PANIC01",
                        rel_path,
                        t,
                        "direct slice indexing can panic on peer-controlled lengths; \
                         use .get()/.get_mut() or a checked split"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// UNSAFE01: the `unsafe` keyword outside the IFMA kernel's file.
fn unsafe01_keywords(rel_path: &str, tokens: &[Token]) -> Vec<Finding> {
    tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text == "unsafe")
        .map(|t| {
            let msg = format!("`unsafe` outside {}", registry::UNSAFE_ALLOWED_FILE);
            finding("UNSAFE01", rel_path, t, msg)
        })
        .collect()
}

fn is_keyword(ident: &str) -> bool {
    matches!(
        ident,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "type"
            | "union"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

/// Macros whose first string argument is a format string.
const FMT_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "format", "write", "writeln", "info", "warn",
    "error", "debug", "trace",
];

/// FMT01: KEY-tainted material formatted into strings/logs.
fn fmt01_fn(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    f: &FnDef,
    ft: &FnTaint,
    out: &mut Vec<Finding>,
) {
    ast::walk_sibling_lists(
        std::slice::from_ref(&Tree::Group(f.body.clone())),
        &mut |list| {
            for (i, tree) in list.iter().enumerate() {
                let Tree::Leaf(tok_idx) = tree else { continue };
                let Some(tok) = tokens.get(*tok_idx) else {
                    continue;
                };
                if mask.get(*tok_idx).copied().unwrap_or(false)
                    || tok.kind != TokKind::Ident
                    || !FMT_MACROS.contains(&tok.text.as_str())
                    || !list
                        .get(i + 1)
                        .is_some_and(|t| ast::is_punct(tokens, t, "!"))
                {
                    continue;
                }
                let Some(Tree::Group(g)) = list.get(i + 2) else {
                    continue;
                };
                if let Some(name) = tainted_fmt_arg(tokens, &g.children, ft) {
                    out.push(finding(
                        "FMT01",
                        rel_path,
                        tok,
                        format!(
                            "`{}!` formats secret material (`{name}`); secrets must never \
                         reach strings or logs",
                            tok.text
                        ),
                    ));
                }
            }
        },
    );
}

/// Name of the first KEY-tainted macro argument or inline string
/// capture, if any.
fn tainted_fmt_arg(tokens: &[Token], args: &[Tree], ft: &FnTaint) -> Option<String> {
    // Inline captures: `"{mac_key:?}"` names the secret directly;
    // `"{total}"` names a (possibly tainted) local.
    for t in args {
        if let Tree::Leaf(i) = t {
            if let Some(tok) = tokens.get(*i) {
                if tok.kind == TokKind::Str {
                    for p in parse_placeholders(&tok.text) {
                        if registry::is_secret_ident(&p)
                            || registry::is_secret_type(&p)
                            || ft.of(&p) & KEY != 0
                        {
                            return Some(p);
                        }
                    }
                }
            }
        }
    }
    // Positional arguments: each comma segment is an expression feeding
    // a placeholder.
    for seg in dataflow::split_top_level(tokens, args, ",") {
        if taint::eval_span(tokens, seg, ft) & KEY != 0 {
            return Some(
                key_ident_in(tokens, seg, ft).unwrap_or_else(|| "key material".to_string()),
            );
        }
    }
    None
}

/// Leading path segments that mark a telemetry call site: the
/// `minshare_trace` crate and its conventional `trace` alias (covers
/// `use minshare_trace as trace;` and re-export modules named `trace`).
const OBS01_TRACE_HEADS: &[&str] = &["trace", "minshare_trace"];

/// OBS01: KEY-tainted material inside telemetry call sites.
///
/// The trace layer is secret-safe by construction — fields are typed
/// counts, sizes, durations and flags — so key material appearing
/// *anywhere* inside a `trace::…(...)`/`minshare_trace::…(...)` call
/// (including the lazy field closure, nested `format!` arguments, and
/// inline `{secret:?}` captures) is a leak into observability output.
/// One finding per outermost call site; test code is exempt.
fn obs01_fn(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    f: &FnDef,
    ft: &FnTaint,
    out: &mut Vec<Finding>,
) {
    obs01_list(rel_path, tokens, mask, &f.body.children, ft, None, out);
}

fn obs01_list(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    list: &[Tree],
    ft: &FnTaint,
    prev_outer: Option<&Tree>,
    out: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < list.len() {
        let tree = &list[i];
        let head = ast::ident_text(tokens, tree).filter(|n| {
            OBS01_TRACE_HEADS.contains(n)
                && list.get(i + 1).is_some_and(|t| ast::is_punct(tokens, t, "::"))
                // `run.trace` / `self.trace` is a field access, not the path.
                && !match i {
                    0 => prev_outer.is_some_and(|p| ast::is_punct(tokens, p, ".")),
                    _ => ast::is_punct(tokens, &list[i - 1], "."),
                }
        });
        if head.is_none() {
            if let Tree::Group(g) = tree {
                let prev = if i > 0 {
                    Some(&list[i - 1])
                } else {
                    prev_outer
                };
                obs01_list(rel_path, tokens, mask, &g.children, ft, prev, out);
            }
            i += 1;
            continue;
        }
        // Walk the rest of the path (`trace::sink::…`) to its final
        // segment, then require a call.
        let mut j = i;
        while list
            .get(j + 1)
            .is_some_and(|t| ast::is_punct(tokens, t, "::"))
            && list
                .get(j + 2)
                .is_some_and(|t| ast::ident_text(tokens, t).is_some())
        {
            j += 2;
        }
        let Some(Tree::Group(args)) = list.get(j + 1) else {
            i = j + 1;
            continue;
        };
        if args.delim != Delim::Paren {
            i = j + 1;
            continue;
        }
        let tok_idx = tree.first_token();
        if !mask.get(tok_idx).copied().unwrap_or(false) {
            // Telemetry is stricter than FMT01: exported, retained and
            // searchable output must not even *mention* a registered
            // secret name — projections included. Locals that merely
            // carry propagated taint get the normal taint evaluation
            // (so `job.total_items()` stays clean).
            let via_registry = registry_name_in(tokens, &args.children);
            let direct = taint::eval_span(tokens, &args.children, ft) & KEY != 0;
            let via_placeholder = str_leaves(tokens, &args.children)
                .into_iter()
                .find_map(|s| {
                    parse_placeholders(&s).into_iter().find(|p| {
                        registry::is_secret_ident(p)
                            || registry::is_secret_type(p)
                            || ft.of(p) & KEY != 0
                    })
                });
            if direct || via_registry.is_some() || via_placeholder.is_some() {
                let name = via_placeholder
                    .or(via_registry)
                    .or_else(|| key_ident_in(tokens, &args.children, ft))
                    .unwrap_or_else(|| "key material".to_string());
                out.push(finding(
                    "OBS01",
                    rel_path,
                    &tokens[tok_idx],
                    format!(
                        "telemetry call site captures secret material (`{name}`); trace \
                         fields are counts, sizes, durations and flags — never secret values"
                    ),
                ));
            }
        }
        // Nested trace calls inside `args` were judged with the outer
        // call; one finding per outermost site.
        i = j + 2;
    }
}

/// First identifier in a span that *names* a registered secret (ident
/// or type), regardless of taint evaluation — OBS01's strict check.
fn registry_name_in(tokens: &[Token], trees: &[Tree]) -> Option<String> {
    for t in trees {
        match t {
            Tree::Leaf(i) => {
                let tok = tokens.get(*i)?;
                if tok.kind == TokKind::Ident
                    && (registry::is_secret_ident(&tok.text) || registry::is_secret_type(&tok.text))
                {
                    return Some(tok.text.clone());
                }
            }
            Tree::Group(g) => {
                if let Some(n) = registry_name_in(tokens, &g.children) {
                    return Some(n);
                }
            }
        }
    }
    None
}

/// String-literal contents anywhere in a span.
fn str_leaves(tokens: &[Token], trees: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    for t in trees {
        match t {
            Tree::Leaf(i) => {
                if let Some(tok) = tokens.get(*i) {
                    if tok.kind == TokKind::Str {
                        out.push(tok.text.clone());
                    }
                }
            }
            Tree::Group(g) => out.extend(str_leaves(tokens, &g.children)),
        }
    }
    out
}

/// Extracts placeholder names from a format string: `{name}` / `{name:?}`
/// yield `name`; positional `{}` / `{:?}` / `{0}` yield `""`. `{{` is an
/// escape, not a placeholder.
fn parse_placeholders(fmt: &str) -> Vec<String> {
    let bytes = fmt.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2;
                continue;
            }
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'}' {
                j += 1;
            }
            let inner = &fmt[i + 1..j.min(fmt.len())];
            let name: String = inner
                .split(':')
                .next()
                .unwrap_or("")
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let name = if name.chars().all(|c| c.is_ascii_digit()) {
                String::new()
            } else {
                name
            };
            out.push(name);
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholder_parsing() {
        assert_eq!(parse_placeholders("no holes"), Vec::<String>::new());
        assert_eq!(parse_placeholders("{} and {:?}"), vec!["", ""]);
        assert_eq!(parse_placeholders("{key:?} {0}"), vec!["key", ""]);
        assert_eq!(parse_placeholders("{{escaped}} {x}"), vec!["x"]);
    }

    #[test]
    fn matching_close_handles_nesting() {
        // Tokens: f ( a , ( b , c ) , d ) g — outer `(` at 1 closes at 11.
        let toks = crate::lexer::lex("f(a, (b, c), d) g");
        assert_eq!(matching_close(&toks, 1), 11);
    }

    #[test]
    fn explain_covers_every_rule() {
        for rule in ALL_RULES {
            assert!(explain(rule).is_some(), "missing explanation for {rule}");
        }
        assert!(explain("NOPE99").is_none());
    }
}
