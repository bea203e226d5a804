//! Fixture-driven tests for the lint engine.
//!
//! Each fixture under `tests/fixtures/` seeds one class of violation at a
//! pinned line (plus decoys — strings, comments, and `#[cfg(test)]` code
//! that must NOT fire). The walker skips `fixtures` directories, so these
//! files never pollute the real gate; here they are linted explicitly.

use mqa_xtask::baseline::Baseline;
use mqa_xtask::lint::{self, LintFlags, Rule};
use mqa_xtask::workspace::{self, SourceFile};

fn findings(name: &str, source: &str, kernel: bool) -> Vec<(usize, Rule)> {
    findings_timed(name, source, kernel, false)
}

fn findings_timed(name: &str, source: &str, kernel: bool, timing: bool) -> Vec<(usize, Rule)> {
    let flags = LintFlags {
        kernel,
        timing,
        arith: false,
        fail_fast_bin: false,
    };
    lint::lint_file(&SourceFile::new(name, source), &flags)
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn unwrap_fixture_fires_once_at_pinned_line() {
    let src = include_str!("fixtures/fixture_unwrap.rs");
    assert_eq!(
        findings("fixture_unwrap.rs", src, false),
        vec![(10, Rule::NoUnwrap)]
    );
}

#[test]
fn expect_fixture_fires_once_at_pinned_line() {
    let src = include_str!("fixtures/fixture_expect.rs");
    assert_eq!(
        findings("fixture_expect.rs", src, false),
        vec![(6, Rule::NoExpect)]
    );
}

#[test]
fn panic_fixture_fires_on_panic_and_todo() {
    let src = include_str!("fixtures/fixture_panic.rs");
    assert_eq!(
        findings("fixture_panic.rs", src, false),
        vec![(7, Rule::NoPanic), (11, Rule::NoPanic)]
    );
}

#[test]
fn float_eq_fixture_fires_only_in_kernel_mode() {
    let src = include_str!("fixtures/fixture_float_eq.rs");
    assert_eq!(
        findings("fixture_float_eq.rs", src, true),
        vec![(7, Rule::FloatEq)]
    );
    assert_eq!(findings("fixture_float_eq.rs", src, false), vec![]);
}

#[test]
fn unsafe_fixture_fires_only_without_safety_comment() {
    let src = include_str!("fixtures/fixture_unsafe.rs");
    assert_eq!(
        findings("fixture_unsafe.rs", src, false),
        vec![(9, Rule::UnsafeNoSafety)]
    );
}

#[test]
fn wildcard_fixture_fires_only_on_error_matches() {
    let src = include_str!("fixtures/fixture_wildcard.rs");
    assert_eq!(
        findings("fixture_wildcard.rs", src, false),
        vec![(13, Rule::WildcardErrorMatch)]
    );
}

#[test]
fn instant_fixture_fires_only_with_timing_flag() {
    let src = include_str!("fixtures/fixture_instant.rs");
    assert_eq!(
        findings_timed("fixture_instant.rs", src, false, true),
        vec![(8, Rule::AdHocTiming)]
    );
    // Bench/obs files are linted with the timing flag off.
    assert_eq!(
        findings_timed("fixture_instant.rs", src, false, false),
        vec![]
    );
}

#[test]
fn flow_fixture_fires_each_arith_rule_at_pinned_lines() {
    let src = include_str!("fixtures/fixture_flow.rs");
    let flags = LintFlags {
        kernel: false,
        timing: false,
        arith: true,
        fail_fast_bin: false,
    };
    let hits: Vec<(usize, Rule)> =
        lint::lint_file(&SourceFile::new("fixture_flow.rs", src), &flags)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect();
    assert_eq!(
        hits,
        vec![
            (7, Rule::NoIndexPanic),
            (16, Rule::NoLossyCast),
            (28, Rule::NoRawDiv),
        ]
    );
    // With the arith flag off (non-serving crates) none of them fire.
    assert_eq!(findings("fixture_flow.rs", src, false), vec![]);
}

#[test]
fn findings_render_as_file_line_rule_excerpt() {
    let src = include_str!("fixtures/fixture_unwrap.rs");
    let all = lint::lint_file(
        &SourceFile::new("crates/x/src/a.rs", src),
        &LintFlags::default(),
    );
    assert_eq!(all.len(), 1);
    assert_eq!(
        all[0].to_string(),
        "crates/x/src/a.rs:10: [no-unwrap] v.unwrap()"
    );
}

/// End-to-end `lint::run` over a throwaway tree: an unwaived finding
/// fails the gate with the right path and line, a matching waiver
/// suppresses it, and a stale waiver fails the gate again.
#[test]
fn run_applies_baseline_and_flags_stale_waivers() {
    let root = std::env::temp_dir().join(format!("mqa-xtask-lint-fixture-{}", std::process::id()));
    let src_dir = root.join("src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("bad.rs"),
        include_str!("fixtures/fixture_unwrap.rs"),
    )
    .unwrap();

    let outcome = lint::run(&workspace::load(&root).unwrap(), &Baseline::empty());
    assert_eq!(outcome.files_scanned, 1);
    assert!(!outcome.is_clean());
    assert_eq!(outcome.findings.len(), 1);
    assert_eq!(outcome.findings[0].file, "src/bad.rs");
    assert_eq!(outcome.findings[0].line, 10);

    let waived = Baseline::parse(
        r#"
[[waiver]]
file = "src/bad.rs"
rule = "no-unwrap"
reason = "fixture exercise"
"#,
    )
    .unwrap();
    let outcome = lint::run(&workspace::load(&root).unwrap(), &waived);
    assert!(outcome.is_clean());
    assert_eq!(outcome.findings.len(), 0);
    assert_eq!(outcome.waived.len(), 1);

    let stale = Baseline::parse(
        r#"
[[waiver]]
file = "src/bad.rs"
rule = "no-unwrap"
reason = "fixture exercise"

[[waiver]]
file = "src/gone.rs"
rule = "no-panic"
reason = "matches nothing"
"#,
    )
    .unwrap();
    let outcome = lint::run(&workspace::load(&root).unwrap(), &stale);
    assert!(!outcome.is_clean());
    assert_eq!(outcome.unused_waivers.len(), 1);
    assert!(outcome.unused_waivers[0].contains("src/gone.rs"));

    std::fs::remove_dir_all(&root).ok();
}
