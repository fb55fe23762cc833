//! Function-body extraction and binding facts for the taint pass.
//!
//! This is deliberately *not* a Rust parser. It recovers just enough
//! structure from the token tree for intraprocedural reasoning:
//!
//! * every `fn name(params) { body }` at any nesting depth (modules,
//!   impl blocks, trait default methods);
//! * binding facts — `let` patterns, assignments, `for` patterns,
//!   statement-level method mutation (`buf.extend_from_slice(x)`), and
//!   `&mut` out-params of non-sanitizer calls — each recorded as
//!   "these names receive the taint of this right-hand-side span".
//!
//! The taint pass iterates the facts to a fixpoint, so facts are
//! order-free: a variable tainted anywhere in a function is treated as
//! tainted everywhere in it. That is conservative for straight-line
//! code and exactly right for loops.

use crate::ast::{self, Delim, Group, Tree};
use crate::lexer::{TokKind, Token};

/// One parameter of an extracted function.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (tuple patterns yield several params, one per name).
    pub name: String,
    /// Identifier texts appearing in the declared type.
    pub ty: Vec<String>,
}

/// A function with a body, found anywhere in the file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Token index of the name (for positions).
    pub name_tok: usize,
    /// Parameters.
    pub params: Vec<Param>,
    /// The `{ ... }` body group.
    pub body: Group,
}

/// A binding fact: `names` receive the taint of `rhs`.
#[derive(Debug, Clone)]
pub struct Bind {
    /// Names bound (pattern idents, assignment target, out-param).
    pub names: Vec<String>,
    /// Identifier texts of the declared type, when annotated.
    pub ty: Vec<String>,
    /// Right-hand-side trees whose taint flows into `names`.
    pub rhs: Vec<Tree>,
}

/// Extracts every function with a body from the token-tree forest.
pub fn functions(tokens: &[Token], trees: &[Tree]) -> Vec<FnDef> {
    let mut out = Vec::new();
    collect_fns(tokens, trees, &mut out);
    out
}

fn collect_fns(tokens: &[Token], list: &[Tree], out: &mut Vec<FnDef>) {
    let mut i = 0;
    while i < list.len() {
        if ast::is_ident(tokens, &list[i], "fn") {
            if let Some(def) = parse_fn(tokens, list, i) {
                out.push(def);
            }
        }
        if let Tree::Group(g) = &list[i] {
            collect_fns(tokens, &g.children, out);
        }
        i += 1;
    }
}

/// Parses a `fn` starting at `list[at]`; returns `None` for bodyless
/// declarations (trait signatures) and `fn`-pointer types.
fn parse_fn(tokens: &[Token], list: &[Tree], at: usize) -> Option<FnDef> {
    let name_tree = list.get(at + 1)?;
    let name = ast::ident_text(tokens, name_tree)?;
    if is_keyword_like(name) {
        return None;
    }
    let name_tok = name_tree.first_token();
    // Params: first paren group after the name (generic params are
    // `<`/`>` leaves and pass through).
    let mut j = at + 2;
    let params_group = loop {
        match list.get(j)? {
            Tree::Group(g) if g.delim == Delim::Paren => break g,
            t if ast::is_punct(tokens, t, ";") => return None,
            _ => j += 1,
        }
    };
    // Body: first brace group after the params, unless a `;` ends the
    // declaration first.
    let mut k = j + 1;
    let body = loop {
        match list.get(k)? {
            Tree::Group(g) if g.delim == Delim::Brace => break g.clone(),
            t if ast::is_punct(tokens, t, ";") => return None,
            _ => k += 1,
        }
    };
    Some(FnDef {
        name: name.to_string(),
        name_tok,
        params: parse_params(tokens, &params_group.children),
        body,
    })
}

fn is_keyword_like(name: &str) -> bool {
    // `fn` immediately followed by one of these is not a definition we
    // can use (or not a name at all).
    matches!(name, "fn" | "mut" | "impl" | "dyn")
}

fn parse_params(tokens: &[Token], children: &[Tree]) -> Vec<Param> {
    let mut params = Vec::new();
    for seg in split_top_level(tokens, children, ",") {
        let colon = seg.iter().position(|t| ast::is_punct(tokens, t, ":"));
        match colon {
            Some(c) => {
                let ty = ident_texts(tokens, &seg[c + 1..]);
                for name in pattern_names(tokens, &seg[..c]) {
                    params.push(Param {
                        name,
                        ty: ty.clone(),
                    });
                }
            }
            None => {
                // `self` / `&self` / `&mut self`.
                if seg.iter().any(|t| ast::is_ident(tokens, t, "self")) {
                    params.push(Param {
                        name: "self".to_string(),
                        ty: vec!["Self".to_string()],
                    });
                }
            }
        }
    }
    params
}

/// Splits a sibling list on a top-level punct, returning the segments.
pub fn split_top_level<'t>(tokens: &[Token], list: &'t [Tree], punct: &str) -> Vec<&'t [Tree]> {
    let mut segs = Vec::new();
    let mut start = 0;
    for (i, t) in list.iter().enumerate() {
        if ast::is_punct(tokens, t, punct) {
            segs.push(&list[start..i]);
            start = i + 1;
        }
    }
    segs.push(&list[start..]);
    segs
}

/// Lowercase/underscore-initial identifiers in a pattern, minus binding
/// noise words. `_guard` counts (guards matter); bare `_` does not.
pub fn pattern_names(tokens: &[Token], trees: &[Tree]) -> Vec<String> {
    let mut names = Vec::new();
    collect_pattern_names(tokens, trees, &mut names);
    names
}

fn collect_pattern_names(tokens: &[Token], trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(i) => {
                let tok = match tokens.get(*i) {
                    Some(tok) => tok,
                    None => continue,
                };
                if tok.kind != TokKind::Ident {
                    continue;
                }
                let text = tok.text.as_str();
                if text == "_" || matches!(text, "mut" | "ref" | "box" | "self") {
                    continue;
                }
                if text.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
                    out.push(text.to_string());
                }
            }
            Tree::Group(g) => collect_pattern_names(tokens, &g.children, out),
        }
    }
}

/// All identifier texts in a span (used for type annotations).
pub fn ident_texts(tokens: &[Token], trees: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    for t in trees {
        match t {
            Tree::Leaf(i) => {
                if let Some(tok) = tokens.get(*i) {
                    if tok.kind == TokKind::Ident {
                        out.push(tok.text.clone());
                    }
                }
            }
            Tree::Group(g) => out.extend(ident_texts(tokens, &g.children)),
        }
    }
    out
}

/// Collects binding facts from a function body (recursively through
/// nested blocks, closures, match arms' bodies, ...).
///
/// `propagates_mut_args(f)` reports whether a call to `f` writes taint
/// into its `&mut` arguments — false for sanitizers, whose out-params
/// come back encrypted/hashed, true for everything else.
pub fn collect_binds(
    tokens: &[Token],
    list: &[Tree],
    propagates_mut_args: &dyn Fn(&str) -> bool,
    out: &mut Vec<Bind>,
) {
    // The entry list is a function body — a brace group's children.
    collect_binds_in(tokens, list, Delim::Brace, propagates_mut_args, out);
}

fn collect_binds_in(
    tokens: &[Token],
    list: &[Tree],
    delim: Delim,
    propagates_mut_args: &dyn Fn(&str) -> bool,
    out: &mut Vec<Bind>,
) {
    collect_lets_and_loops(tokens, list, out);
    collect_assignments(tokens, list, out);
    // Statement-level method mutation only exists in statement lists.
    // Running it on paren groups misreads a multi-argument call list
    // `f(group, …, x.method(), &mut out)` as `group` absorbing the
    // arguments' taint.
    if delim == Delim::Brace {
        collect_stmt_mutations(tokens, list, out);
    }
    collect_mut_out_params(tokens, list, propagates_mut_args, out);
    for t in list {
        if let Tree::Group(g) = t {
            collect_binds_in(tokens, &g.children, g.delim, propagates_mut_args, out);
        }
    }
}

/// `let pat[: ty] = rhs;` (incl. let-else) and `for pat in expr {}`.
fn collect_lets_and_loops(tokens: &[Token], list: &[Tree], out: &mut Vec<Bind>) {
    let mut i = 0;
    while i < list.len() {
        if ast::is_ident(tokens, &list[i], "let") {
            if let Some(next) = parse_let(tokens, list, i, out) {
                i = next;
                continue;
            }
        }
        if ast::is_ident(tokens, &list[i], "for") {
            if let Some(next) = parse_for(tokens, list, i, out) {
                i = next;
                continue;
            }
        }
        i += 1;
    }
}

fn parse_let(tokens: &[Token], list: &[Tree], at: usize, out: &mut Vec<Bind>) -> Option<usize> {
    // Find the `=` introducing the initializer (bare `=`: the lexer has
    // already fused `==`, `<=`, `>=`, `=>`, `!=`).
    let eq = (at + 1..list.len()).find(|&i| ast::is_punct(tokens, &list[i], "="))?;
    let semi = (eq + 1..list.len())
        .find(|&i| ast::is_punct(tokens, &list[i], ";") || ast::is_ident(tokens, &list[i], "else"))
        .unwrap_or(list.len());
    let pat = &list[at + 1..eq];
    let colon = pat.iter().position(|t| ast::is_punct(tokens, t, ":"));
    let (pat, ty) = match colon {
        Some(c) => (&pat[..c], ident_texts(tokens, &pat[c + 1..])),
        None => (pat, Vec::new()),
    };
    out.push(Bind {
        names: pattern_names(tokens, pat),
        ty,
        rhs: list[eq + 1..semi].to_vec(),
    });
    Some(semi)
}

fn parse_for(tokens: &[Token], list: &[Tree], at: usize, out: &mut Vec<Bind>) -> Option<usize> {
    // `for pat in expr { .. }` — bail on `for<'a>` higher-ranked bounds
    // (no `in` before the body).
    let body = (at + 1..list.len())
        .find(|&i| matches!(&list[i], Tree::Group(g) if g.delim == Delim::Brace))?;
    let r#in = (at + 1..body).find(|&i| ast::is_ident(tokens, &list[i], "in"))?;
    out.push(Bind {
        names: pattern_names(tokens, &list[at + 1..r#in]),
        ty: Vec::new(),
        rhs: list[r#in + 1..body].to_vec(),
    });
    Some(r#in + 1)
}

/// `target = rhs;` and compound assignments (`+=` lexes as `+` `=`).
fn collect_assignments(tokens: &[Token], list: &[Tree], out: &mut Vec<Bind>) {
    let stmts = split_top_level(tokens, list, ";");
    for stmt in stmts {
        if stmt
            .first()
            .is_some_and(|t| ast::is_ident(tokens, t, "let") || ast::is_ident(tokens, t, "for"))
        {
            continue; // handled by collect_lets_and_loops
        }
        let Some(eq) = stmt.iter().position(|t| ast::is_punct(tokens, t, "=")) else {
            continue;
        };
        // Walk back over the target chain (`*self.buf[i] +` ... `=`),
        // keeping the last identifier as the tracked name.
        let mut name = None;
        for t in stmt[..eq].iter().rev() {
            match t {
                Tree::Leaf(i) => {
                    let Some(tok) = tokens.get(*i) else { break };
                    match tok.kind {
                        TokKind::Ident => {
                            name = Some(tok.text.clone());
                            break;
                        }
                        TokKind::Punct
                            if matches!(
                                tok.text.as_str(),
                                "." | "*" | "+" | "-" | "|" | "&" | "^" | "%" | "/"
                            ) => {}
                        _ => break,
                    }
                }
                Tree::Group(g) if g.delim == Delim::Bracket => {} // indexing
                Tree::Group(_) => break,
            }
        }
        if let Some(name) = name {
            out.push(Bind {
                names: vec![name],
                ty: Vec::new(),
                rhs: stmt[eq + 1..].to_vec(),
            });
        }
    }
}

/// `receiver.method(args);` at statement level: the receiver absorbs
/// the statement's taint (covers `buf.extend_from_slice(&secret)`,
/// `set.insert(v)` and friends without a method allowlist).
fn collect_stmt_mutations(tokens: &[Token], list: &[Tree], out: &mut Vec<Bind>) {
    for stmt in split_top_level(tokens, list, ";") {
        let Some(first) = stmt.first() else { continue };
        let Some(recv) = ast::ident_text(tokens, first) else {
            continue;
        };
        if is_stmt_keyword(recv) {
            continue;
        }
        let has_eq = stmt.iter().any(|t| ast::is_punct(tokens, t, "="));
        let has_dot = stmt.iter().any(|t| ast::is_punct(tokens, t, "."));
        let has_call = stmt
            .iter()
            .any(|t| matches!(t, Tree::Group(g) if g.delim == Delim::Paren));
        if !has_eq && has_dot && has_call {
            out.push(Bind {
                names: vec![recv.to_string()],
                ty: Vec::new(),
                rhs: stmt.to_vec(),
            });
        }
    }
}

fn is_stmt_keyword(name: &str) -> bool {
    matches!(
        name,
        "let"
            | "if"
            | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "impl"
            | "mod"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "trait"
            | "unsafe"
            | "static"
            | "const"
            | "move"
            | "where"
            | "type"
    )
}

/// `f(..., &mut x, ...)` for non-sanitizer `f`: `x` receives the taint
/// of the whole argument list (covers out-param style like
/// `read_into(&src, &mut dst)`).
fn collect_mut_out_params(
    tokens: &[Token],
    list: &[Tree],
    propagates_mut_args: &dyn Fn(&str) -> bool,
    out: &mut Vec<Bind>,
) {
    for (i, t) in list.iter().enumerate() {
        let Tree::Group(g) = t else { continue };
        if g.delim != Delim::Paren || i == 0 {
            continue;
        }
        let Some(callee) = ast::ident_text(tokens, &list[i - 1]) else {
            continue;
        };
        if !propagates_mut_args(callee) {
            continue;
        }
        let mut names = Vec::new();
        find_mut_refs(tokens, &g.children, &mut names);
        if !names.is_empty() {
            out.push(Bind {
                names,
                ty: Vec::new(),
                rhs: g.children.clone(),
            });
        }
    }
}

fn find_mut_refs(tokens: &[Token], list: &[Tree], out: &mut Vec<String>) {
    for w in 0..list.len() {
        if w + 2 < list.len()
            && ast::is_punct(tokens, &list[w], "&")
            && ast::is_ident(tokens, &list[w + 1], "mut")
        {
            if let Some(name) = ast::ident_text(tokens, &list[w + 2]) {
                if name != "self" {
                    out.push(name.to_string());
                }
            }
        }
    }
    for t in list {
        if let Tree::Group(g) = t {
            find_mut_refs(tokens, &g.children, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn fns_of(src: &str) -> (Vec<Token>, Vec<FnDef>) {
        let tokens = lex(src);
        let trees = parse(&tokens);
        let fns = functions(&tokens, &trees);
        (tokens, fns)
    }

    #[test]
    fn finds_nested_fns_and_params() {
        let src = "impl X { pub fn go<T: Y>(&mut self, key: &CommutativeKey, (a, b): (u8, u8)) -> bool { true } }\ntrait T { fn sig(&self); }";
        let (_, fns) = fns_of(src);
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.name, "go");
        let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["self", "key", "a", "b"]);
        assert!(f.params[1].ty.iter().any(|t| t == "CommutativeKey"));
    }

    #[test]
    fn collects_let_for_assign_and_mutation_facts() {
        let src = r#"
            fn f(values: &[u8]) {
                let mut acc: Vec<u8> = Vec::new();
                for v in values { acc.push(*v); }
                let (x, y) = (1, 2);
                total = x + y;
                fill(&src, &mut sink);
            }
        "#;
        let (tokens, fns) = fns_of(src);
        let mut binds = Vec::new();
        collect_binds(&tokens, &fns[0].body.children, &|_| true, &mut binds);
        let names: Vec<Vec<String>> = binds.iter().map(|b| b.names.clone()).collect();
        assert!(names.contains(&vec!["acc".to_string()]));
        assert!(names.contains(&vec!["v".to_string()]));
        assert!(names.contains(&vec!["x".to_string(), "y".to_string()]));
        assert!(names.contains(&vec!["total".to_string()]));
        assert!(names.contains(&vec!["sink".to_string()]));
        // The typed let keeps its annotation.
        let acc = binds.iter().find(|b| b.names == ["acc"]).unwrap();
        assert!(acc.ty.iter().any(|t| t == "Vec"));
    }

    #[test]
    fn call_argument_lists_are_not_statement_mutations() {
        // `group` heads the argument list and `cfg.window()` puts a
        // method call in it; that must not read as `group.method(...)`
        // absorbing the arguments' taint.
        let src = "fn f() { encrypt_to(group, pool, &key, cfg.window(), &mut sorter); }";
        let (tokens, fns) = fns_of(src);
        let mut binds = Vec::new();
        collect_binds(&tokens, &fns[0].body.children, &|_| true, &mut binds);
        assert!(binds
            .iter()
            .all(|b| !b.names.contains(&"group".to_string())));
        // The `&mut` out-param fact is still collected.
        assert!(binds
            .iter()
            .any(|b| b.names.contains(&"sorter".to_string())));
    }

    #[test]
    fn sanitizer_calls_do_not_bind_out_params() {
        let src = "fn f() { encryptish(&mut buf); }";
        let (tokens, fns) = fns_of(src);
        let mut binds = Vec::new();
        collect_binds(
            &tokens,
            &fns[0].body.children,
            &|f| f != "encryptish",
            &mut binds,
        );
        assert!(binds.iter().all(|b| !b.names.contains(&"buf".to_string())));
    }
}
