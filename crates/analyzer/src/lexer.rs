//! A minimal Rust lexer: enough token structure for lint rules, with
//! exact line/column tracking and correct skipping of comments (line,
//! nested block, doc) and string/char literals (plain, raw, byte).
//!
//! Deliberately not a parser — rules pattern-match on the token stream.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Operator / delimiter. Multi-char operators that matter to the
    /// rules (`==`, `!=`, `=>`, `<=`, `>=`, `->`, `::`, `..`) are fused
    /// into single tokens so `==` is unambiguous.
    Punct,
    /// String literal (`"…"`, `r#"…"#`, `b"…"`); `text` holds the
    /// *contents* without quotes.
    Str,
    /// Character literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One lexed token with its source position (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Token text (contents only, for strings).
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column of the first character.
    pub col: u32,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens, discarding comments and whitespace.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();

    while let Some(b) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            b'"' => out.push(lex_string(&mut cur, line, col)),
            b'r' | b'b' if starts_raw_or_byte_string(&cur) => {
                out.push(lex_prefixed_string(&mut cur, line, col));
            }
            b'\'' => {
                if let Some(tok) = lex_char_or_lifetime(&mut cur, line, col) {
                    out.push(tok);
                }
            }
            _ if is_ident_start(b) => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c as char);
                    cur.bump();
                }
                out.push(Token {
                    kind: TokKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            _ if b.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if !(c.is_ascii_alphanumeric() || c == b'_') {
                        break;
                    }
                    text.push(c as char);
                    cur.bump();
                }
                out.push(Token {
                    kind: TokKind::Num,
                    text,
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                let two = cur.peek().map(|n| [b, n]);
                let fused = matches!(
                    two,
                    Some(
                        [b'=', b'=']
                            | [b'!', b'=']
                            | [b'=', b'>']
                            | [b'<', b'=']
                            | [b'>', b'=']
                            | [b'-', b'>']
                            | [b':', b':']
                            | [b'.', b'.']
                            | [b'&', b'&']
                            | [b'|', b'|']
                    )
                );
                let mut text = (b as char).to_string();
                if fused {
                    if let Some([_, n]) = two {
                        text.push(n as char);
                        cur.bump();
                    }
                }
                out.push(Token {
                    kind: TokKind::Punct,
                    text,
                    line,
                    col,
                });
            }
        }
    }
    out
}

fn starts_raw_or_byte_string(cur: &Cursor<'_>) -> bool {
    // r"  r#"  b"  br"  br#"  rb is not a thing.
    let at = |i| cur.peek_at(i);
    match cur.peek() {
        Some(b'r') => {
            let mut i = 1;
            while at(i) == Some(b'#') {
                i += 1;
            }
            at(i) == Some(b'"')
        }
        Some(b'b') => match at(1) {
            Some(b'"') => true,
            Some(b'r') => {
                let mut i = 2;
                while at(i) == Some(b'#') {
                    i += 1;
                }
                at(i) == Some(b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

fn lex_string(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        match c {
            b'\\' => {
                cur.bump();
                if let Some(esc) = cur.bump() {
                    text.push('\\');
                    text.push(esc as char);
                }
            }
            b'"' => {
                cur.bump();
                break;
            }
            _ => {
                text.push(c as char);
                cur.bump();
            }
        }
    }
    Token {
        kind: TokKind::Str,
        text,
        line,
        col,
    }
}

fn lex_prefixed_string(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    // Consume the b/r prefix characters.
    let mut raw = false;
    while let Some(c) = cur.peek() {
        match c {
            b'b' => {
                cur.bump();
            }
            b'r' => {
                raw = true;
                cur.bump();
            }
            _ => break,
        }
    }
    if !raw {
        return lex_string(cur, line, col);
    }
    let mut hashes = 0usize;
    while cur.peek() == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    let mut text = String::new();
    'outer: while let Some(c) = cur.peek() {
        if c == b'"' {
            // Check for closing `"` + hashes.
            let mut ok = true;
            for i in 0..hashes {
                if cur.peek_at(1 + i) != Some(b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                cur.bump();
                for _ in 0..hashes {
                    cur.bump();
                }
                break 'outer;
            }
        }
        text.push(c as char);
        cur.bump();
    }
    Token {
        kind: TokKind::Str,
        text,
        line,
        col,
    }
}

fn lex_char_or_lifetime(cur: &mut Cursor<'_>, line: u32, col: u32) -> Option<Token> {
    // `'a` (no closing quote) is a lifetime; `'a'`, `'\n'` are chars.
    cur.bump(); // the quote
    match cur.peek() {
        Some(b'\\') => {
            // Escaped char literal. The byte after the backslash is the
            // escaped character itself and must be consumed
            // unconditionally: in `'\''` it *is* a quote, and treating
            // it as the terminator would leave the real closing quote
            // to start a bogus literal that swallows the next token
            // (unbalancing every delimiter after it).
            cur.bump();
            let mut text = String::from("\\");
            if let Some(e) = cur.peek() {
                text.push(e as char);
                cur.bump();
            }
            while let Some(c) = cur.peek() {
                cur.bump();
                if c == b'\'' {
                    break;
                }
                text.push(c as char);
            }
            Some(Token {
                kind: TokKind::Char,
                text,
                line,
                col,
            })
        }
        Some(c) if is_ident_start(c) => {
            let mut text = String::new();
            while let Some(n) = cur.peek() {
                if !is_ident_continue(n) {
                    break;
                }
                text.push(n as char);
                cur.bump();
            }
            if cur.peek() == Some(b'\'') {
                cur.bump();
                Some(Token {
                    kind: TokKind::Char,
                    text,
                    line,
                    col,
                })
            } else {
                Some(Token {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                    col,
                })
            }
        }
        Some(c) => {
            // Single-char literal like '3' or ' '.
            cur.bump();
            let text = (c as char).to_string();
            if cur.peek() == Some(b'\'') {
                cur.bump();
            }
            Some(Token {
                kind: TokKind::Char,
                text,
                line,
                col,
            })
        }
        None => None,
    }
}

/// Returns a boolean mask, parallel to `tokens`, marking tokens that live
/// inside test-only code: a `#[test]`-attributed function, a
/// `#[cfg(test)]` module/item, or any item whose attribute mentions
/// `test` without a `not(...)` (conservative: `#[cfg(any(test, ...))]`
/// is treated as test code).
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            // Collect the attribute token range.
            let attr_start = i + 2;
            let mut depth = 1usize;
            let mut j = attr_start;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let attr_end = j; // one past the closing `]`
            let attr = &tokens[attr_start..attr_end.saturating_sub(1)];
            let mentions_test = attr
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "test");
            let negated = attr
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "not");
            if mentions_test && !negated {
                // Skip any further attributes, then the item header, then
                // mark the braced body (or up to `;` for extern items).
                let mut k = attr_end;
                loop {
                    if k + 1 < tokens.len() && tokens[k].text == "#" && tokens[k + 1].text == "[" {
                        let mut d = 1usize;
                        k += 2;
                        while k < tokens.len() && d > 0 {
                            match tokens[k].text.as_str() {
                                "[" => d += 1,
                                "]" => d -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                    } else {
                        break;
                    }
                }
                // Find the body opening brace (stop at `;`: no body).
                let mut open = None;
                while k < tokens.len() {
                    match tokens[k].text.as_str() {
                        "{" => {
                            open = Some(k);
                            break;
                        }
                        ";" => break,
                        _ => k += 1,
                    }
                }
                if let Some(open) = open {
                    let mut d = 0usize;
                    let mut end = open;
                    while end < tokens.len() {
                        match tokens[end].text.as_str() {
                            "{" => d += 1,
                            "}" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        end += 1;
                    }
                    for m in mask.iter_mut().take((end + 1).min(tokens.len())).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let toks = lex("let x = \"a.unwrap()\"; // b.unwrap()\n/* c.unwrap() */ y");
        assert!(toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .all(|t| t.text != "unwrap"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn equality_operators_are_fused() {
        assert_eq!(
            texts("a == b != c => d"),
            ["a", "==", "b", "!=", "c", "=>", "d"]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = lex(r####"let a = r#"x "inner" y"#; let b = b"bytes";"####);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].text, "x \"inner\" y");
        assert_eq!(strs[1].text, "bytes");
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'q'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(texts("a /* x /* y */ z */ b"), ["a", "b"]);
    }

    #[test]
    fn test_mask_covers_cfg_test_mod_and_test_fn() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n\
                   #[test]\nfn unit() { z.unwrap(); }\n\
                   fn live2() {}";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let masked: Vec<&str> = toks
            .iter()
            .zip(&mask)
            .filter(|(t, &m)| m && t.kind == TokKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"y"));
        assert!(masked.contains(&"z"));
        let live: Vec<&str> = toks
            .iter()
            .zip(&mask)
            .filter(|(t, &m)| !m && t.kind == TokKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(live.contains(&"x"));
        assert!(live.contains(&"live2"));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        assert!(mask.iter().all(|&m| !m));
    }
}
