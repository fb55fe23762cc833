//! Token-tree parser: pairs `()`/`[]`/`{}` delimiters over the raw
//! token stream so the dataflow pass can reason about statement and
//! expression structure without a full Rust grammar.
//!
//! Trees hold *indices* into the caller's token slice rather than
//! cloned tokens, which keeps the `#[cfg(test)]` mask (indexed by token
//! position) trivially applicable to any tree node. Angle brackets are
//! deliberately left as leaves: `<`/`>` are ambiguous between generics
//! and comparisons, and nothing downstream needs them matched.

use crate::lexer::{TokKind, Token};

/// Delimiter kind of a [`Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( ... )`
    Paren,
    /// `[ ... ]`
    Bracket,
    /// `{ ... }`
    Brace,
}

impl Delim {
    fn open(c: &str) -> Option<Delim> {
        match c {
            "(" => Some(Delim::Paren),
            "[" => Some(Delim::Bracket),
            "{" => Some(Delim::Brace),
            _ => None,
        }
    }

    fn matches_close(self, c: &str) -> bool {
        matches!(
            (self, c),
            (Delim::Paren, ")") | (Delim::Bracket, "]") | (Delim::Brace, "}")
        )
    }
}

/// A delimited group and everything inside it.
#[derive(Debug, Clone)]
pub struct Group {
    /// Which delimiter pair encloses the children.
    pub delim: Delim,
    /// Token index of the opening delimiter.
    pub open: usize,
    /// Token index of the closing delimiter; `None` if the file ended
    /// (or a mismatched close appeared) before the group was closed.
    pub close: Option<usize>,
    /// Nested trees between the delimiters.
    pub children: Vec<Tree>,
}

/// One node of the token tree: either a single non-delimiter token or
/// a matched group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// Index of a non-delimiter token in the source token slice.
    Leaf(usize),
    /// A matched delimiter group.
    Group(Group),
}

impl Tree {
    /// Token index where this tree starts (for findings positions).
    pub fn first_token(&self) -> usize {
        match self {
            Tree::Leaf(i) => *i,
            Tree::Group(g) => g.open,
        }
    }

    /// The group inside this tree, if it is one.
    pub fn as_group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            Tree::Leaf(_) => None,
        }
    }
}

/// Parses the token stream into a forest of token trees.
///
/// Unbalanced input never panics: a stray closing delimiter becomes a
/// leaf, and groups still open at end-of-file are closed with
/// `close: None`. The analyzer lints sources that may not even compile
/// (fixtures), so robustness beats strictness here.
pub fn parse(tokens: &[Token]) -> Vec<Tree> {
    // Each stack frame is a partially built group; `root` collects
    // completed top-level trees.
    let mut root: Vec<Tree> = Vec::new();
    let mut stack: Vec<Group> = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let text = tok.text.as_str();
        if tok.kind == TokKind::Punct {
            if let Some(delim) = Delim::open(text) {
                stack.push(Group {
                    delim,
                    open: i,
                    close: None,
                    children: Vec::new(),
                });
                continue;
            }
            if matches!(text, ")" | "]" | "}") {
                match stack.pop() {
                    Some(mut g) if g.delim.matches_close(text) => {
                        g.close = Some(i);
                        push_tree(&mut root, &mut stack, Tree::Group(g));
                    }
                    Some(g) => {
                        // Mismatched close: keep it as a leaf so later
                        // delimiters still have a chance to pair up.
                        stack.push(g);
                        push_tree(&mut root, &mut stack, Tree::Leaf(i));
                    }
                    None => push_tree(&mut root, &mut stack, Tree::Leaf(i)),
                }
                continue;
            }
        }
        push_tree(&mut root, &mut stack, Tree::Leaf(i));
    }
    // Unclosed groups: unwind the stack, preserving nesting.
    while let Some(g) = stack.pop() {
        push_tree(&mut root, &mut stack, Tree::Group(g));
    }
    root
}

fn push_tree(root: &mut Vec<Tree>, stack: &mut [Group], tree: Tree) {
    match stack.last_mut() {
        Some(open) => open.children.push(tree),
        None => root.push(tree),
    }
}

/// Text of the token behind a leaf, or `None` for groups.
pub fn leaf_text<'a>(tokens: &'a [Token], tree: &Tree) -> Option<&'a str> {
    match tree {
        Tree::Leaf(i) => tokens.get(*i).map(|t| t.text.as_str()),
        Tree::Group(_) => None,
    }
}

/// True if the leaf at `trees[idx]` is an identifier with this text.
pub fn is_ident(tokens: &[Token], tree: &Tree, text: &str) -> bool {
    match tree {
        Tree::Leaf(i) => tokens
            .get(*i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text),
        Tree::Group(_) => false,
    }
}

/// Identifier text of a leaf, or `None` if the tree is a group or a
/// non-identifier token.
pub fn ident_text<'a>(tokens: &'a [Token], tree: &Tree) -> Option<&'a str> {
    match tree {
        Tree::Leaf(i) => tokens
            .get(*i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str()),
        Tree::Group(_) => None,
    }
}

/// True if the leaf is punctuation with exactly this text.
pub fn is_punct(tokens: &[Token], tree: &Tree, text: &str) -> bool {
    match tree {
        Tree::Leaf(i) => tokens
            .get(*i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text),
        Tree::Group(_) => false,
    }
}

/// Calls `f` on every sibling list in the forest, depth-first: the
/// top-level list first, then each group's children, recursively.
pub fn walk_sibling_lists<'t>(trees: &'t [Tree], f: &mut dyn FnMut(&'t [Tree])) {
    f(trees);
    for t in trees {
        if let Tree::Group(g) = t {
            walk_sibling_lists(&g.children, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn texts(tokens: &[Token], trees: &[Tree]) -> Vec<String> {
        trees
            .iter()
            .map(|t| match t {
                Tree::Leaf(i) => tokens[*i].text.clone(),
                Tree::Group(g) => format!("g{:?}", g.delim),
            })
            .collect()
    }

    #[test]
    fn nests_matched_delimiters() {
        let src = "fn f(a: u8) { g(a)[0]; }";
        let tokens = lex(src);
        let trees = parse(&tokens);
        assert_eq!(texts(&tokens, &trees), vec!["fn", "f", "gParen", "gBrace"]);
        let body = trees[3].as_group().unwrap();
        assert_eq!(body.delim, Delim::Brace);
        assert_eq!(
            texts(&tokens, &body.children),
            vec!["g", "gParen", "gBracket", ";"]
        );
    }

    #[test]
    fn survives_unbalanced_input() {
        let tokens = lex(") } ( [ x");
        let trees = parse(&tokens);
        // Stray closers become leaves; unclosed groups close at EOF.
        assert_eq!(trees.len(), 3);
        let paren = trees[2].as_group().unwrap();
        assert_eq!(paren.close, None);
        let bracket = paren.children[0].as_group().unwrap();
        assert_eq!(bracket.close, None);
        assert!(is_ident(&tokens, &bracket.children[0], "x"));
    }

    #[test]
    fn angle_brackets_stay_leaves() {
        let tokens = lex("Vec<Option<u8>>");
        let trees = parse(&tokens);
        assert!(trees.iter().all(|t| t.as_group().is_none()));
    }
}
