//! Intraprocedural taint pass over the token tree.
//!
//! ## Taint lattice
//!
//! Three independent bits, joined with `|`:
//!
//! * [`RAW`] — a raw set value, pre-`prepare`. Forbidden on the wire.
//! * [`HASHED`] — passed `h()` but not yet encrypted. Still forbidden
//!   on the wire: a bare `h(v)` permits offline dictionary probing, and
//!   the paper's invariant is hash **then** encrypt.
//! * [`KEY`] — key material (exponents, derived session keys). Never
//!   leaves the process.
//!
//! ## Evaluation rules
//!
//! A span's taint is the join over its identifier leaves (registered
//! secret/raw idents, key-source calls, and variables tainted by the
//! binding fixpoint), with three structural exceptions:
//!
//! 1. **Encrypt-class absorption.** If a span contains a call to an
//!    encrypt-class sanitizer anywhere, the span evaluates clean: the
//!    value was built by/around an encryption (`ys.iter().map(|y|
//!    group.encrypt(&key, y))`). This is the pass's one deliberate
//!    coarse approximation — see SECURITY.md for what it gives up.
//! 2. **Hash-class calls** absorb their receiver chain and arguments
//!    and contribute `RAW → HASHED`, `KEY → clean` (a digest/MAC tag
//!    does not reveal the key).
//! 3. **Projections** (`.len()`, `.total_items()`, ...) absorb their
//!    receiver chain and contribute nothing: a size is not the value.
//!
//! Binding facts come from [`crate::dataflow`] and are iterated to a
//! fixpoint, so the result is flow-insensitive: tainted anywhere in a
//! function means tainted everywhere in it. Shadowing a secret with a
//! sanitized value of the same name therefore stays tainted —
//! conservative, and rare enough in practice to live with.

use std::collections::HashMap;

use crate::ast::{self, Delim, Tree};
use crate::dataflow::{self, FnDef};
use crate::lexer::{TokKind, Token};
use crate::registry;
use crate::Finding;

/// Raw set value, pre-hash.
pub const RAW: u8 = 1;
/// Hashed but not yet encrypted.
pub const HASHED: u8 = 2;
/// Key material.
pub const KEY: u8 = 4;

/// Per-function taint result: variable name → taint bits.
#[derive(Debug, Default)]
pub struct FnTaint {
    /// Joined taint of each binding seen in the function.
    pub map: HashMap<String, u8>,
}

impl FnTaint {
    /// Taint bits recorded for a variable name.
    pub fn of(&self, name: &str) -> u8 {
        self.map.get(name).copied().unwrap_or(0)
    }
}

fn is_sanitizer(name: &str) -> bool {
    registry::is_hash_sanitizer(name) || registry::is_enc_sanitizer(name)
}

/// Runs the binding fixpoint for one function.
pub fn analyze_fn(tokens: &[Token], f: &FnDef) -> FnTaint {
    let mut taint = FnTaint::default();
    for p in &f.params {
        let mut t = 0;
        if registry::is_secret_ident(&p.name) {
            t |= KEY;
        }
        if registry::is_raw_value_ident(&p.name) {
            t |= RAW;
        }
        if p.ty.iter().any(|ty| registry::is_secret_type(ty)) {
            t |= KEY;
        }
        if t != 0 {
            taint.map.insert(p.name.clone(), t);
        }
    }
    let mut binds = Vec::new();
    dataflow::collect_binds(
        tokens,
        &f.body.children,
        &|callee| !is_sanitizer(callee),
        &mut binds,
    );
    // Monotone fixpoint; the bound only guards against pathological
    // inputs (each iteration can only add bits).
    for _ in 0..32 {
        let mut changed = false;
        for b in &binds {
            let mut t = eval_span(tokens, &b.rhs, &taint);
            if b.ty.iter().any(|ty| registry::is_secret_type(ty)) {
                t |= KEY;
            }
            if t == 0 {
                continue;
            }
            for name in &b.names {
                let entry = taint.map.entry(name.clone()).or_insert(0);
                if *entry | t != *entry {
                    *entry |= t;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    taint
}

/// Taint of an expression span under the function's taint map.
pub fn eval_span(tokens: &[Token], trees: &[Tree], taint: &FnTaint) -> u8 {
    if contains_enc_call(tokens, trees) {
        return 0;
    }
    eval_no_enc(tokens, trees, taint)
}

/// True iff an encrypt-class sanitizer is *called* anywhere in the span.
fn contains_enc_call(tokens: &[Token], trees: &[Tree]) -> bool {
    for (i, t) in trees.iter().enumerate() {
        if let Some(name) = ast::ident_text(tokens, t) {
            if registry::is_enc_sanitizer(name) && is_paren(trees.get(i + 1)) {
                return true;
            }
        }
        if let Tree::Group(g) = t {
            if contains_enc_call(tokens, &g.children) {
                return true;
            }
        }
    }
    false
}

fn is_paren(tree: Option<&Tree>) -> bool {
    matches!(tree, Some(Tree::Group(g)) if g.delim == Delim::Paren)
}

fn hash_out(arg_taint: u8) -> u8 {
    if arg_taint & (RAW | HASHED) != 0 {
        HASHED
    } else {
        0
    }
}

fn eval_no_enc(tokens: &[Token], trees: &[Tree], taint: &FnTaint) -> u8 {
    let mut skip = vec![false; trees.len()];
    let mut t = 0u8;
    // First pass: absorb hash-class and projection calls (callee, args,
    // receiver chain), taking the hash contribution from the arguments.
    for i in 0..trees.len() {
        let Some(name) = ast::ident_text(tokens, &trees[i]) else {
            continue;
        };
        let hash = registry::is_hash_sanitizer(name);
        // Stats exporters render the typed metrics registry to JSON —
        // projection-class: output clean, receiver chain absorbed.
        let proj = registry::is_projection_fn(name) || registry::is_stats_exporter_fn(name);
        if !(hash || proj) || !is_paren(trees.get(i + 1)) {
            continue;
        }
        if hash {
            if let Some(Tree::Group(g)) = trees.get(i + 1) {
                t |= hash_out(eval_span(tokens, &g.children, taint));
            }
        }
        skip[i] = true;
        skip[i + 1] = true;
        absorb_receiver_chain(tokens, trees, i, &mut skip);
    }
    // Attributes are not expressions: `#[derive(Debug)]` on a nested
    // item must not read as a call to the key-derivation source
    // `derive`. Skip every `#`-prefixed bracket group.
    for i in 0..trees.len() {
        if ast::is_punct(tokens, &trees[i], "#")
            && trees
                .get(i + 1)
                .and_then(|t| t.as_group())
                .is_some_and(|g| g.delim == ast::Delim::Bracket)
        {
            skip[i] = true;
            skip[i + 1] = true;
        }
    }
    // Second pass: join the remaining leaves and groups.
    for (i, tree) in trees.iter().enumerate() {
        if skip[i] {
            continue;
        }
        match tree {
            Tree::Leaf(tok_idx) => {
                let Some(tok) = tokens.get(*tok_idx) else {
                    continue;
                };
                if tok.kind != TokKind::Ident {
                    continue;
                }
                let name = tok.text.as_str();
                if registry::is_secret_ident(name) {
                    t |= KEY;
                }
                if registry::is_raw_value_ident(name) {
                    t |= RAW;
                }
                if registry::is_key_source_fn(name) && is_paren(trees.get(i + 1)) {
                    t |= KEY;
                }
                t |= taint.of(name);
            }
            Tree::Group(g) => t |= eval_no_enc(tokens, &g.children, taint),
        }
    }
    t
}

/// Marks the method-call receiver chain before `trees[call_idx]` as
/// absorbed: `group.hash_to_group(...)` must not leak taint from
/// `group`, nor `job.total_items()` from `job`.
fn absorb_receiver_chain(tokens: &[Token], trees: &[Tree], call_idx: usize, skip: &mut [bool]) {
    let mut j = call_idx;
    while j > 0 {
        j -= 1;
        let chain = match &trees[j] {
            Tree::Leaf(i) => tokens.get(*i).is_some_and(|tok| match tok.kind {
                TokKind::Ident => true,
                TokKind::Punct => matches!(tok.text.as_str(), "." | "::" | "?"),
                _ => false,
            }),
            Tree::Group(_) => true,
        };
        if chain {
            skip[j] = true;
        } else {
            break;
        }
    }
}

/// Highest-priority taint kind for messages.
pub fn describe(taint_bits: u8) -> &'static str {
    if taint_bits & KEY != 0 {
        "key material"
    } else if taint_bits & RAW != 0 {
        "a raw (pre-hash) set value"
    } else {
        "a hashed-but-not-encrypted value"
    }
}

/// WIRE01: tainted data reaching a wire/encode sink inside one
/// function body. Caller filters by crate scope and exemptions.
pub fn wire01_fn(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    f: &FnDef,
    taint: &FnTaint,
    out: &mut Vec<Finding>,
) {
    let mut lines_seen = Vec::new();
    scan_sinks(
        rel_path,
        tokens,
        mask,
        &f.body.children,
        taint,
        &mut lines_seen,
        out,
    );
}

fn scan_sinks(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    trees: &[Tree],
    taint: &FnTaint,
    lines_seen: &mut Vec<u32>,
    out: &mut Vec<Finding>,
) {
    for i in 0..trees.len() {
        if let Tree::Group(g) = &trees[i] {
            scan_sinks(rel_path, tokens, mask, &g.children, taint, lines_seen, out);
        }
        let Some(name) = ast::ident_text(tokens, &trees[i]) else {
            continue;
        };
        if !registry::is_wire_sink_fn(name) || !is_paren(trees.get(i + 1)) {
            continue;
        }
        let tok_idx = trees[i].first_token();
        if mask.get(tok_idx).copied().unwrap_or(false) {
            continue;
        }
        let mut bits = 0u8;
        if let Some(Tree::Group(g)) = trees.get(i + 1) {
            bits |= eval_span(tokens, &g.children, taint);
        }
        bits |= receiver_taint(tokens, trees, i, taint);
        if bits == 0 {
            continue;
        }
        let tok = &tokens[tok_idx];
        if lines_seen.contains(&tok.line) {
            continue; // nested sink (`send(..encode(..))`) — one report
        }
        lines_seen.push(tok.line);
        out.push(Finding {
            rule: "WIRE01",
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message: format!(
                "{} reaches wire sink `{name}` without hash-then-encrypt \
                 (run `minshare-analyzer --explain WIRE01`)",
                describe(bits)
            ),
        });
    }
}

/// Taint of the receiver chain before a sink call
/// (`Message::Codewords(ys).encode(..)` must see `ys`).
fn receiver_taint(tokens: &[Token], trees: &[Tree], call_idx: usize, taint: &FnTaint) -> u8 {
    let mut start = call_idx;
    while start > 0 {
        let prev = &trees[start - 1];
        let chain = match prev {
            Tree::Leaf(i) => tokens.get(*i).is_some_and(|tok| match tok.kind {
                TokKind::Ident => !dataflow_boundary(tok.text.as_str()),
                TokKind::Punct => matches!(tok.text.as_str(), "." | "::" | "?"),
                _ => false,
            }),
            Tree::Group(_) => true,
        };
        if chain {
            start -= 1;
        } else {
            break;
        }
    }
    if start == call_idx {
        return 0;
    }
    eval_span(tokens, &trees[start..call_idx], taint)
}

fn dataflow_boundary(ident: &str) -> bool {
    matches!(
        ident,
        "let" | "return" | "if" | "else" | "while" | "match" | "in" | "for" | "move"
    )
}

/// LOCK01: blocking `recv`/`join`/`wait` while a lock guard is live.
pub fn lock01_fn(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    f: &FnDef,
    out: &mut Vec<Finding>,
) {
    scan_guards(rel_path, tokens, mask, &f.body.children, out);
}

fn scan_guards(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    list: &[Tree],
    out: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < list.len() {
        if let Tree::Group(g) = &list[i] {
            scan_guards(rel_path, tokens, mask, &g.children, out);
        }
        if !ast::is_ident(tokens, &list[i], "let") {
            i += 1;
            continue;
        }
        // `let <pat> = <rhs>;` with a guard-producing call in the rhs.
        let Some(eq) = (i + 1..list.len()).find(|&k| ast::is_punct(tokens, &list[k], "=")) else {
            i += 1;
            continue;
        };
        let semi = (eq + 1..list.len())
            .find(|&k| ast::is_punct(tokens, &list[k], ";"))
            .unwrap_or(list.len());
        if !has_guard_call(tokens, &list[eq + 1..semi]) {
            i = semi;
            continue;
        }
        let names = dataflow::pattern_names(tokens, &list[i + 1..eq]);
        let Some(guard) = names.first() else {
            i = semi; // `let _ = m.lock();` drops the guard immediately
            continue;
        };
        let let_line = tokens
            .get(list[i].first_token())
            .map(|t| t.line)
            .unwrap_or(0);
        // The guard lives until the end of this statement list or an
        // explicit `drop(guard)`.
        let scope_end = find_drop(tokens, &list[semi..], guard)
            .map(|off| semi + off)
            .unwrap_or(list.len());
        scan_blocking(
            rel_path,
            tokens,
            mask,
            &list[semi..scope_end],
            guard,
            let_line,
            out,
        );
        i = semi.max(i + 1);
    }
}

/// True iff the span calls `lock()`/`read()`/`write()` with no
/// arguments (the no-arg shape distinguishes guard acquisition from
/// `io::Read::read(&mut buf)` and friends).
fn has_guard_call(tokens: &[Token], trees: &[Tree]) -> bool {
    for (i, t) in trees.iter().enumerate() {
        if let Some(name) = ast::ident_text(tokens, t) {
            if registry::GUARD_FNS.contains(&name) {
                if let Some(Tree::Group(g)) = trees.get(i + 1) {
                    if g.delim == Delim::Paren && g.children.is_empty() {
                        return true;
                    }
                }
            }
        }
        if let Tree::Group(g) = t {
            if has_guard_call(tokens, &g.children) {
                return true;
            }
        }
    }
    false
}

/// Offset of a top-level `drop(guard)` statement within the scope.
fn find_drop(tokens: &[Token], trees: &[Tree], guard: &str) -> Option<usize> {
    for (i, t) in trees.iter().enumerate() {
        if ast::is_ident(tokens, t, "drop") {
            if let Some(Tree::Group(g)) = trees.get(i + 1) {
                if g.delim == Delim::Paren
                    && g.children.len() == 1
                    && ast::is_ident(tokens, &g.children[0], guard)
                {
                    return Some(i);
                }
            }
        }
    }
    None
}

fn scan_blocking(
    rel_path: &str,
    tokens: &[Token],
    mask: &[bool],
    trees: &[Tree],
    guard: &str,
    let_line: u32,
    out: &mut Vec<Finding>,
) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            // Skip closure bodies: `spawn(move || { .. })` runs on
            // another thread, which does not hold this guard.
            if !is_closure_arg(tokens, &g.children) {
                scan_blocking(rel_path, tokens, mask, &g.children, guard, let_line, out);
            }
            continue;
        }
        let Some(name) = ast::ident_text(tokens, t) else {
            continue;
        };
        if !registry::BLOCKING_FNS.contains(&name) {
            continue;
        }
        let Some(Tree::Group(args)) = trees.get(i + 1) else {
            continue;
        };
        if args.delim != Delim::Paren {
            continue;
        }
        // Condvar-style `cv.wait(&mut guard)` consumes the guard and
        // releases the lock while parked — that is the correct idiom.
        if name.starts_with("wait")
            && args
                .children
                .iter()
                .any(|a| ast::is_ident(tokens, a, guard))
        {
            continue;
        }
        let tok_idx = t.first_token();
        if mask.get(tok_idx).copied().unwrap_or(false) {
            continue;
        }
        let tok = &tokens[tok_idx];
        out.push(Finding {
            rule: "LOCK01",
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message: format!(
                "blocking `{name}()` while guard `{guard}` (taken at line \
                 {let_line}) is held; drop the guard before blocking"
            ),
        });
    }
}

/// True iff a paren-group's children start a closure literal
/// (`move |..| ..` or `|..| ..`).
fn is_closure_arg(tokens: &[Token], children: &[Tree]) -> bool {
    match children.first() {
        Some(t) if ast::is_ident(tokens, t, "move") => true,
        Some(t) if ast::is_punct(tokens, t, "|") || ast::is_punct(tokens, t, "||") => true,
        _ => false,
    }
}
