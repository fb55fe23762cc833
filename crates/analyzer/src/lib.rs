//! # minshare-analyzer
//!
//! A repo-local static analyzer for the `minshare` workspace. It walks
//! every `crates/*/src/**/*.rs` file with a hand-rolled, comment- and
//! string-aware lexer (no external parser crates), builds a token tree
//! ([`ast`]), extracts per-function binding facts ([`dataflow`]), runs an
//! intraprocedural taint pass ([`taint`]) configured by the secret
//! registry, and enforces eight rule families:
//!
//! * **SEC01** — secret-registry types must not `#[derive(Debug)]` or
//!   `#[derive(PartialEq)]`; they need a redacted `Debug` and a
//!   constant-time equality instead.
//! * **SEC02** — KEY-tainted material must not be compared with `==`,
//!   `!=` or `assert_eq!`; comparisons must go through
//!   `minshare_hash::ct`.
//! * **PANIC01** — no `unwrap()` / `expect()` / `panic!` / direct slice
//!   indexing in non-test code of `crates/crypto`, `crates/core` and
//!   `crates/net` (code paths reachable from peer-supplied data).
//! * **FMT01** — no KEY-tainted expressions or inline `{secret}`
//!   captures in `println!` / `format!` / log-style macros.
//! * **OBS01** — no KEY-tainted material anywhere inside `trace::…(...)`
//!   / `minshare_trace::…(...)` telemetry call sites; trace fields are
//!   typed counts, sizes, durations and flags, never values.
//! * **WIRE01** — nothing but hash-then-encrypt output may reach a wire
//!   sink (`Transport::send`/`send_batch`, `encode_*`, `FrameBatch`
//!   writers) in `crates/core`, `crates/crypto` and `crates/net`: the
//!   paper's minimal-sharing invariant, proven mechanically with an
//!   expected count of zero.
//! * **LOCK01** — no blocking `recv`/`join`/`wait` while a lock guard is
//!   held in `crates/crypto` and `crates/net`; expected count zero.
//! * **UNSAFE01** — no `unsafe` keyword in any `crates/*/src` file but
//!   the IFMA kernel, `crates/bignum/src/ifma.rs`; expected count zero.
//!
//! Run `minshare-analyzer --explain RULE` for the full rationale of any
//! rule, or see SECURITY.md for the taint model's guarantees and limits.
//!
//! Pre-existing findings are ratcheted via a checked-in baseline
//! (`analyzer.baseline.toml`): per `(rule, file)` counts that may only
//! shrink. Any finding beyond its baselined count fails the build.

pub mod ast;
pub mod baseline;
pub mod dataflow;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod scan;
pub mod taint;

/// One lint finding, anchored to a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `"SEC01"`.
    pub rule: &'static str,
    /// Path of the offending file, relative to the scan root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}
