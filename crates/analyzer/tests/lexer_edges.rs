//! Lexer and parser edge cases that the dataflow engine must survive.
//!
//! Each case here is a shape that broke (or could plausibly break) the
//! token-window heuristics the analyzer used before the syntax-aware
//! engine: string contents that look like code, generics that look like
//! comparisons, char literals that look like open quotes, and
//! `#[cfg(test)]` boundaries that must not leak an exemption into
//! neighbouring code.

use minshare_analyzer::ast;
use minshare_analyzer::lexer::{lex, test_mask, TokKind};
use minshare_analyzer::rules::check_file;

/// Lex, then parse, and assert every delimiter matched up: an unbalanced
/// stream is how a lexer bug turns into a whole-file false-positive flood.
fn parse_balanced(src: &str) -> (Vec<minshare_analyzer::lexer::Token>, Vec<ast::Tree>) {
    let tokens = lex(src);
    let trees = ast::parse(&tokens);
    fn count_leaves(trees: &[ast::Tree], n: &mut usize) {
        for t in trees {
            match t {
                ast::Tree::Leaf(_) => *n += 1,
                ast::Tree::Group(g) => {
                    *n += 2; // open + close delimiter
                    count_leaves(&g.children, n);
                }
            }
        }
    }
    let mut covered = 0usize;
    count_leaves(&trees, &mut covered);
    assert_eq!(
        covered,
        tokens.len(),
        "parse dropped tokens (unbalanced delimiters?) in:\n{src}"
    );
    (tokens, trees)
}

#[test]
fn raw_string_containing_send_call_is_not_a_sink() {
    // The sink name lives inside a raw string literal; the engine must
    // see one Str token, not an ident + paren group.
    let src = r##"
fn doc_text() -> &'static str {
    r#"call transport.send(&values[0]) to ship a frame"#
}

fn shipping<T: Transport>(transport: &mut T, values: &[Vec<u8>]) {
    let label = r"send(";
    let _ = label;
}
"##;
    let (tokens, _) = parse_balanced(src);
    let strs = tokens.iter().filter(|t| t.kind == TokKind::Str).count();
    assert_eq!(strs, 2, "both raw strings must lex as single Str tokens");
    // And no rule fires: the only `send(` texts are inert string data.
    let findings = check_file("crates/net/src/fixture.rs", src);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn turbofish_and_nested_generics_stay_balanced() {
    // Angle brackets are not delimiters; a parser that pairs them breaks
    // on shifts, comparisons, and closed-over generics alike.
    let src = r#"
fn build() -> Vec<Option<Box<[u8; 32]>>> {
    let v = Vec::<Option<u8>>::new();
    let m: HashMap<String, Vec<(u32, u64)>> = HashMap::new();
    let shifted = 1u64 << 3 >> 1;
    let cmp = shifted < 2 && 3 > 1;
    let _ = (v, m, cmp);
    Vec::new()
}
"#;
    let (_, trees) = parse_balanced(src);
    assert!(!trees.is_empty());
    assert!(check_file("crates/net/src/fixture.rs", src).is_empty());
}

#[test]
fn lifetimes_and_char_literals_do_not_open_strings() {
    // `'a` (lifetime), `'\''` and `'('` (char literals) all start with a
    // single quote; only the literals consume a closing quote, and the
    // escaped-quote form must not swallow the delimiter after it.
    let src = r#"
fn pick<'a>(rows: &'a [Vec<u8>], sep: char) -> &'a [u8] {
    let quote = '\'';
    let open = '(';
    let tab = '\t';
    let _ = (quote, open, tab, sep);
    &rows[0]
}
"#;
    let (tokens, _) = parse_balanced(src);
    let lifetimes = tokens
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .count();
    assert!(
        lifetimes >= 2,
        "lifetime tokens must not lex as char literals"
    );
    let chars = tokens.iter().filter(|t| t.kind == TokKind::Char).count();
    assert_eq!(chars, 3, "three char literals expected");
}

#[test]
fn cfg_test_module_boundary_is_exact() {
    // The `#[cfg(test)]` mask must cover exactly the annotated module:
    // a wire violation inside it is exempt, an identical one after the
    // module's closing brace is not.
    let src = r#"
#[cfg(test)]
mod tests {
    fn helper<T: Transport>(transport: &mut T, values: &[Vec<u8>]) {
        transport.send(&values[0]);
    }
}

fn after_the_module<T: Transport>(transport: &mut T, values: &[Vec<u8>]) {
    transport.send(&values[0]);
}
"#;
    let tokens = lex(src);
    let mask = test_mask(&tokens);
    assert!(mask.iter().any(|&m| m), "mask must cover the test module");
    assert!(
        !mask.iter().all(|&m| m),
        "mask must stop at the module brace"
    );
    let findings = check_file("crates/net/src/fixture.rs", src);
    let wire: Vec<_> = findings.iter().filter(|f| f.rule == "WIRE01").collect();
    assert_eq!(wire.len(), 1, "findings: {findings:#?}");
    assert_eq!(wire[0].line, 10, "only the post-module send is flagged");
}

#[test]
fn byte_strings_and_comments_hide_code_shaped_text() {
    let src = r#"
fn noise() -> &'static [u8] {
    // transport.send(&key.to_bytes()) -- commented out, inert
    /* let key = group.gen_key(rng);
       transport.send(&key.to_bytes()); */
    b"send(&values[0])"
}
"#;
    parse_balanced(src);
    assert!(check_file("crates/net/src/fixture.rs", src).is_empty());
}
