//! Fixture tests: at least one positive and one negative case per rule
//! family. Fixtures live under `tests/fixtures/` and are fed to the rule
//! engine as source text — they are never compiled and, because the
//! scanner only walks `crates/*/src/`, never linted as part of the repo.

use minshare_analyzer::rules::check_file;
use minshare_analyzer::Finding;

fn findings_for(rel_path: &str, src: &str, rule: &str) -> Vec<Finding> {
    check_file(rel_path, src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

fn lines(findings: &[Finding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
}

// ---------------------------------------------------------------- SEC01

#[test]
fn sec01_flags_debug_and_partial_eq_derives_on_registry_types() {
    let src = include_str!("fixtures/sec01.rs");
    let found = findings_for("crates/crypto/src/fixture.rs", src, "SEC01");
    // One finding per offending derive list: CommutativeKey (Debug and
    // PartialEq combined), PlanCachePair (Debug behind a second attribute).
    assert_eq!(found.len(), 2, "findings: {found:#?}");
    assert!(found.iter().all(|f| f.line == 4 || f.line == 11));
    assert!(found.iter().any(|f| f.message.contains("CommutativeKey")
        && f.message.contains("Debug")
        && f.message.contains("PartialEq")));
    assert!(found
        .iter()
        .any(|f| f.message.contains("PlanCachePair") && f.message.contains("Debug")));
}

#[test]
fn sec01_ignores_public_types_safe_derives_and_non_code() {
    let src = include_str!("fixtures/sec01.rs");
    let found = findings_for("crates/crypto/src/fixture.rs", src, "SEC01");
    // OtQuery (non-registry) and OtReceiverState's Clone-only derive are
    // clean; mentions in comments and string literals never fire.
    assert!(found.iter().all(|f| !f.message.contains("OtQuery")));
    assert!(found.iter().all(|f| !f.message.contains("OtReceiverState")));
    assert!(found.iter().all(|f| !f.message.contains("DirectionKeys")));
}

// ---------------------------------------------------------------- SEC02

#[test]
fn sec02_flags_variable_time_comparisons_of_secret_material() {
    let src = include_str!("fixtures/sec02.rs");
    let found = findings_for("crates/crypto/src/fixture.rs", src, "SEC02");
    assert_eq!(lines(&found), vec![5, 9, 13], "findings: {found:#?}");
}

#[test]
fn sec02_ignores_public_comparisons_and_test_code() {
    let src = include_str!("fixtures/sec02.rs");
    let found = findings_for("crates/crypto/src/fixture.rs", src, "SEC02");
    // The public `modulus()` comparison on line 15 and everything inside
    // the #[cfg(test)] module stay clean.
    assert!(found.iter().all(|f| f.line < 15), "findings: {found:#?}");
}

// --------------------------------------------------------------- PANIC01

#[test]
fn panic01_flags_panic_paths_in_panic_free_crates() {
    let src = include_str!("fixtures/panic01.rs");
    let found = findings_for("crates/net/src/fixture.rs", src, "PANIC01");
    // frame[0], .unwrap(), .expect(), panic! — one finding each.
    assert_eq!(lines(&found), vec![5, 7, 9, 12], "findings: {found:#?}");
}

#[test]
fn panic01_ignores_checked_access_tests_and_other_crates() {
    let src = include_str!("fixtures/panic01.rs");
    // Negative paths in `safe()` and the #[cfg(test)] module are clean.
    let found = findings_for("crates/net/src/fixture.rs", src, "PANIC01");
    assert!(found.iter().all(|f| f.line < 17), "findings: {found:#?}");
    // The rule only applies to the designated panic-free crates.
    assert!(findings_for("crates/cli/src/fixture.rs", src, "PANIC01").is_empty());
    // tests/ directories of panic-free crates are out of scope too.
    assert!(findings_for("crates/net/tests/fixture.rs", src, "PANIC01").is_empty());
}

// ---------------------------------------------------------------- FMT01

#[test]
fn fmt01_flags_formatting_of_secret_material() {
    let src = include_str!("fixtures/fmt01.rs");
    let found = findings_for("crates/crypto/src/fixture.rs", src, "FMT01");
    // {:?} of a registry-type accessor, inline {mac_key:?} capture, and a
    // display placeholder fed the secret-named `phi`.
    assert_eq!(lines(&found), vec![5, 8, 11], "findings: {found:#?}");
}

#[test]
fn fmt01_ignores_public_formatting_and_test_code() {
    let src = include_str!("fixtures/fmt01.rs");
    let found = findings_for("crates/crypto/src/fixture.rs", src, "FMT01");
    assert!(found.iter().all(|f| f.line < 12), "findings: {found:#?}");
}

// ---------------------------------------------------------------- OBS01

#[test]
fn obs01_flags_secret_material_in_trace_call_sites() {
    let src = include_str!("fixtures/obs01.rs");
    let found = findings_for("crates/crypto/src/fixture.rs", src, "OBS01");
    // Direct secret-ident capture, Debug of a registry type, and an
    // inline {mac_key:?} capture in a nested format string.
    assert_eq!(lines(&found), vec![5, 12, 17], "findings: {found:#?}");
    assert!(found[0].message.contains("exponent"));
    assert!(found[1].message.contains("CommutativeKey"));
    assert!(found[2].message.contains("mac_key"));
}

#[test]
fn obs01_ignores_typed_fields_field_access_comments_and_tests() {
    let src = include_str!("fixtures/obs01.rs");
    let found = findings_for("crates/crypto/src/fixture.rs", src, "OBS01");
    // Nothing past the last positive: typed count/size fields, secrets
    // outside telemetry, `run.trace` field access, commented-out calls
    // and test code are all clean.
    assert!(found.iter().all(|f| f.line <= 17), "findings: {found:#?}");
}

// ---------------------------------------------------------------- WIRE01

#[test]
fn wire01_flags_raw_hashed_and_key_material_reaching_wire_sinks() {
    let src = include_str!("fixtures/wire01.rs");
    let found = findings_for("crates/net/src/fixture.rs", src, "WIRE01");
    // Raw send, hash-only send, key send, a taint chain through
    // rebinding + buffer building, and a raw value handed to the socket
    // framer directly.
    assert_eq!(
        lines(&found),
        vec![5, 12, 18, 28, 34],
        "findings: {found:#?}"
    );
    assert!(found[0].message.contains("raw (pre-hash)"));
    assert!(found[1].message.contains("hashed-but-not-encrypted"));
    assert!(found[2].message.contains("key material"));
}

#[test]
fn wire01_passes_h_then_enc_framing_tests_and_respects_scope() {
    let src = include_str!("fixtures/wire01.rs");
    let found = findings_for("crates/net/src/fixture.rs", src, "WIRE01");
    // The blessed prepare→encrypt→send path, counter framing, and test
    // code are all clean.
    assert!(found.iter().all(|f| f.line < 36), "findings: {found:#?}");
    // Registry-exempt files and out-of-scope crates never fire.
    assert!(findings_for("crates/crypto/src/pool.rs", src, "WIRE01").is_empty());
    assert!(findings_for("crates/core/src/tradeoff.rs", src, "WIRE01").is_empty());
    assert!(findings_for("crates/bench/src/fixture.rs", src, "WIRE01").is_empty());
}

// ------------------------------------------------------- stats exporter

#[test]
fn stats_exporter_snapshots_pass_wire01_even_from_tainted_handles() {
    let src = include_str!("fixtures/stats_exporter.rs");
    let found = findings_for("crates/net/src/fixture.rs", src, "WIRE01");
    // Only the smuggled-raw-value reply fires; the three snapshot sends
    // (including one through a taint-carrying engine handle and the
    // epoch-advancing reset variant) are clean.
    assert_eq!(lines(&found), vec![35], "findings: {found:#?}");
    assert!(found[0].message.contains("raw"), "findings: {found:#?}");
}

#[test]
fn stats_serving_telemetry_is_held_to_obs01() {
    let src = include_str!("fixtures/stats_exporter.rs");
    let found = findings_for("crates/net/src/fixture.rs", src, "OBS01");
    // The typed `bytes` size field is clean; naming `exponent` inside
    // the serving event is a capture.
    assert_eq!(lines(&found), vec![48], "findings: {found:#?}");
    assert!(found[0].message.contains("exponent"));
}

// ---------------------------------------------------------------- LOCK01

#[test]
fn lock01_flags_blocking_calls_under_held_guards() {
    let src = include_str!("fixtures/lock01.rs");
    let found = findings_for("crates/net/src/fixture.rs", src, "LOCK01");
    // recv, join, a pool-batch wait, and an event-queue park, each under
    // a live guard.
    assert_eq!(lines(&found), vec![7, 14, 20, 26], "findings: {found:#?}");
    assert!(found[0].message.contains("`st`"));
    assert!(found[1].message.contains("`g`"));
    assert!(found[2].message.contains("`map`"));
    assert!(found[3].message.contains("`sessions`"));
}

#[test]
fn lock01_passes_condvar_scoping_drop_closures_and_tests() {
    let src = include_str!("fixtures/lock01.rs");
    let found = findings_for("crates/net/src/fixture.rs", src, "LOCK01");
    // Condvar wait(st), block-scoped guard, drop(g), closure bodies,
    // io::Read::read and `let _` are all clean, as is test code.
    assert!(found.iter().all(|f| f.line < 27), "findings: {found:#?}");
    // LOCK01 runs over crypto and net only.
    assert!(findings_for("crates/core/src/fixture.rs", src, "LOCK01").is_empty());
}

// -------------------------------------------------------------- UNSAFE01

#[test]
fn unsafe01_flags_unsafe_outside_the_kernel_file() {
    let src = include_str!("fixtures/unsafe01.rs");
    let found = findings_for("crates/core/src/fixture.rs", src, "UNSAFE01");
    // An unsafe block, fn and impl, and an unsafe block in test code.
    assert_eq!(lines(&found), vec![5, 9, 13, 20], "findings: {found:#?}");
    assert!(found[0].message.contains("crates/bignum/src/ifma.rs"));
}

#[test]
fn unsafe01_passes_lint_names_comments_strings_and_the_kernel_file() {
    let src = include_str!("fixtures/unsafe01.rs");
    let found = findings_for("crates/bignum/src/fixpow.rs", src, "UNSAFE01");
    // `unsafe_code` lint names, a comment and a string literal are clean.
    assert!(found.iter().all(|f| f.line < 24), "findings: {found:#?}");
    // The kernel file itself, and anything outside `crates/*/src`, never fire.
    assert!(findings_for("crates/bignum/src/ifma.rs", src, "UNSAFE01").is_empty());
    assert!(findings_for("crates/bignum/tests/fixture.rs", src, "UNSAFE01").is_empty());
}
