//! Fixture and mutation tests for the panic-freedom flow gate.
//!
//! The unit tests in `flow.rs` cover the scanner and resolver on toy
//! sources. The fixtures under `tests/fixtures/` seed the per-file rules
//! at pinned lines beside decoys that must not fire, and a throwaway tree
//! takes the gate through its baseline. The mutation tests prove the gate
//! works on the *real* workspace: reintroducing a reachable `unwrap`
//! flips the analysis red, while the same mutation in unreachable (dead)
//! code stays green. Together they pin both directions — the gate catches
//! regressions on the serving path and does not cry wolf off it.

use mqa_xtask::baseline::{Baseline, Finding, Rule};
use mqa_xtask::flow;
use mqa_xtask::workspace::{self, Workspace};

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels under the workspace root")
        .to_path_buf()
}

/// The real workspace as mutable `(path, text)` pairs, for the mutation
/// tests to edit before rebuilding the model with `from_sources`.
fn workspace_sources() -> Vec<(String, String)> {
    let ws = workspace::load(&repo_root()).expect("workspace sources load");
    ws.files.into_iter().map(|f| (f.rel, f.source)).collect()
}

/// `(line, rule)` of every finding `flow` reports for one file at `rel`.
fn file_findings(rel: &str, source: &str) -> Vec<(usize, Rule)> {
    flow::analyze(&Workspace::from_sources(&[(rel, source)]))
        .findings
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn flow_fixture_fires_each_arith_rule_at_pinned_lines() {
    let src = include_str!("fixtures/fixture_flow.rs");
    assert_eq!(
        file_findings("crates/graph/src/fixture_flow.rs", src),
        vec![
            (7, Rule::NoIndexPanic),
            (16, Rule::NoLossyCast),
            (28, Rule::NoRawDiv),
        ]
    );
    // Off the serving crates, in the cast helpers and in binaries none
    // of them fire.
    for rel in [
        "crates/kb/src/fixture_flow.rs",
        "crates/vector/src/cast.rs",
        "crates/graph/src/bin/fixture_flow.rs",
    ] {
        assert_eq!(file_findings(rel, src), vec![], "{rel}");
    }
}

#[test]
fn wildcard_fixture_fires_only_on_error_matches() {
    let src = include_str!("fixtures/fixture_wildcard.rs");
    assert_eq!(
        file_findings("crates/kb/src/fixture_wildcard.rs", src),
        vec![(13, Rule::WildcardErrorMatch)]
    );
}

/// End-to-end `flow::run` over a throwaway tree: an unwaived finding
/// fails the gate with the right path, line and rendering, a matching
/// waiver suppresses it, and a stale waiver fails the gate again.
#[test]
fn run_applies_baseline_and_flags_stale_waivers() {
    let root = std::env::temp_dir().join(format!("mqa-xtask-flow-fixture-{}", std::process::id()));
    let src_dir = root.join("src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("bad.rs"),
        include_str!("fixtures/fixture_wildcard.rs"),
    )
    .unwrap();
    let run = |baseline: &str| {
        let baseline = Baseline::parse(baseline).unwrap();
        flow::run(&workspace::load(&root).unwrap(), &baseline)
    };

    let outcome = run("");
    assert_eq!(outcome.files_scanned, 1);
    assert!(!outcome.is_clean());
    assert_eq!(outcome.findings.len(), 1);
    assert_eq!(
        outcome.findings[0].to_string(),
        "src/bad.rs:13: [wildcard-error-match] _ => 0,"
    );

    let waiver = r#"
[[waiver]]
file = "src/bad.rs"
rule = "wildcard-error-match"
reason = "fixture exercise"
"#;
    let outcome = run(waiver);
    assert!(outcome.is_clean());
    assert_eq!(outcome.findings.len(), 0);
    assert_eq!(outcome.waived.len(), 1);

    let stale = format!(
        "{waiver}{}",
        r#"
[[waiver]]
file = "src/gone.rs"
rule = "no-raw-div"
reason = "matches nothing"
"#
    );
    let outcome = run(&stale);
    assert!(!outcome.is_clean());
    assert_eq!(outcome.unused_waivers.len(), 1);
    assert!(outcome.unused_waivers[0].contains("src/gone.rs"));

    std::fs::remove_dir_all(&root).ok();
}

/// The checked-in tree must be clean under the checked-in baseline —
/// the same invariant CI enforces, runnable locally via `cargo test`.
#[test]
fn workspace_cone_is_clean_under_baseline() {
    let root = repo_root();
    let baseline_path = root.join("flow-baseline.toml");
    let baseline = Baseline::load(&baseline_path).expect("flow-baseline.toml parses");
    let ws = workspace::load(&root).expect("workspace sources load");
    let outcome = flow::run(&ws, &baseline);
    assert!(
        outcome.is_clean(),
        "flow gate dirty: findings={:?} unused={:?}",
        outcome.findings,
        outcome.unused_waivers
    );
    assert!(outcome.stats.entry_fns > 0, "no entry points recognized");
}

/// The findings in `rel` that replacing `marker` with `seeded` adds to
/// the cone.
fn seeded_findings(rel: &str, marker: &str, seeded: &str) -> Vec<Finding> {
    let mut files = workspace_sources();
    let before = flow::analyze(&Workspace::from_sources(&files));
    let target = files
        .iter_mut()
        .find(|(r, _)| r == rel)
        .expect("target file present");
    assert!(target.1.contains(marker), "mutation anchor moved");
    target.1 = target.1.replacen(marker, seeded, 1);
    let after = flow::analyze(&Workspace::from_sources(&files));
    after
        .findings
        .into_iter()
        .filter(|f| f.file == rel && !before.findings.iter().any(|b| b.excerpt == f.excerpt))
        .collect()
}

/// Injecting `.unwrap()` into a function on the serving path must
/// produce a new reachable-panic finding (the gate goes red). Every
/// `QueryEngine::submit` traversal passes through
/// `MustFramework::search`.
#[test]
fn reintroduced_reachable_unwrap_flips_the_gate_red() {
    let marker = "assert!(k > 0, \"k must be >= 1\");";
    let found = seeded_findings(
        "crates/retrieval/src/must.rs",
        marker,
        &format!("{marker}\n        let _: u32 = None.unwrap();"),
    );
    assert_eq!(found.len(), 1, "reachable unwrap not caught: {found:?}");
    assert!(
        found[0].excerpt.contains("[unwrap in "),
        "{}",
        found[0].excerpt
    );
    assert!(
        found[0].excerpt.contains("MustFramework::search"),
        "finding not attributed to the mutated fn: {}",
        found[0].excerpt
    );
}

/// The paged search is an entry point by name: an `.unwrap()` seeded in
/// `PagedIndex::search_paged_into` is a finding of its own.
#[test]
fn seeded_unwrap_in_the_paged_search_is_a_finding() {
    let found = seeded_findings(
        "crates/graph/src/starling.rs",
        "scratch.begin_pages(self.layout.pages());",
        "scratch.begin_pages(self.layout.pages());\n        let _: u32 = None.unwrap();",
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].excerpt.contains("[unwrap in "),
        "{}",
        found[0].excerpt
    );
    assert!(
        found[0].excerpt.contains("PagedIndex::search_paged_into"),
        "{}",
        found[0].excerpt
    );
}

/// Control: the same `.unwrap()` in a function no entry point reaches
/// must NOT appear in the cone (the gate stays green).
#[test]
fn unreachable_unwrap_control_stays_green() {
    let mut files = workspace_sources();

    let before = flow::analyze(&Workspace::from_sources(&files));

    // A free function nothing calls, appended at the end of a serving
    // crate file: inventoried, but outside every entry point's cone.
    let target = files
        .iter_mut()
        .find(|(rel, _)| rel == "crates/retrieval/src/must.rs")
        .expect("must.rs present");
    target.1.push_str(
        "\npub fn flow_fixture_dead_code_probe() -> u32 {\n    let x: Option<u32> = None;\n    x.unwrap()\n}\n",
    );

    let after = flow::analyze(&Workspace::from_sources(&files));
    assert_eq!(
        before.findings.len(),
        after.findings.len(),
        "dead-code unwrap leaked into the cone: {:?}",
        after
            .findings
            .iter()
            .filter(|f| f.excerpt.contains("dead_code_probe"))
            .collect::<Vec<_>>()
    );
}
