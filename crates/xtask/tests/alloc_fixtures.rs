//! Mutation tests for the allocation-freedom gate.
//!
//! The unit tests in `alloc.rs` cover the site scanner on toy sources;
//! these tests pin the scanner against a fixture file with decoys and
//! prove the gate works on the *real* workspace: reintroducing a
//! reachable `Vec::new` flips the analysis red, while the same mutation
//! in unreachable (dead) code stays green. Together they pin both
//! directions — the gate catches regressions on the serving path and
//! does not cry wolf off it.

use mqa_xtask::alloc::{self, AllocKind};
use mqa_xtask::baseline::Baseline;
use mqa_xtask::callgraph::discharge_mask;
use mqa_xtask::lint::Finding;
use mqa_xtask::workspace::{self, SourceFile, Workspace};

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

/// Every allocation kind fires exactly once at its pinned line; none of
/// the decoys (comments, string literals, `#[cfg(test)]` code, the
/// `// ALLOC:`-discharged site, Vec `.insert`, `Arc::clone`) leak in.
#[test]
fn alloc_fixture_fires_each_kind_at_pinned_line() {
    let src = include_str!("fixtures/fixture_alloc.rs");
    let file = SourceFile::new("fixture_alloc.rs", src);
    let discharge = discharge_mask(src, alloc::ALLOC);
    let got: Vec<(AllocKind, usize)> = alloc::scan_alloc_sites(&file.code(), &discharge)
        .into_iter()
        .map(|s| (s.kind, s.line))
        .collect();
    assert_eq!(
        got,
        vec![
            (AllocKind::VecMacro, 10),
            (AllocKind::Ctor, 16),
            (AllocKind::FormatMacro, 20),
            (AllocKind::ToOwned, 24),
            (AllocKind::Collect, 28),
            (AllocKind::CloneHeap, 32),
            (AllocKind::MapInsert, 36),
        ]
    );
}

/// The checked-in tree must be clean under the checked-in baseline —
/// the same invariant CI enforces, runnable locally via `cargo test`.
#[test]
fn workspace_cone_is_clean_under_baseline() {
    let root = repo_root();
    let baseline_path = root.join("alloc-baseline.toml");
    let baseline = Baseline::load(&baseline_path).expect("alloc-baseline.toml parses");
    let ws = workspace::load(&root).expect("workspace sources load");
    let outcome = alloc::run(&ws, &baseline);
    assert!(
        outcome.is_clean(),
        "alloc gate dirty: findings={:?} unused={:?}",
        outcome.findings,
        outcome.unused_waivers
    );
    assert!(outcome.stats.entry_fns > 0, "no entry points recognized");
}

/// The findings in `rel` that replacing `marker` with `seeded` adds to
/// the cone.
fn seeded_findings(rel: &str, marker: &str, seeded: &str) -> Vec<Finding> {
    let mut files = workspace_sources();
    let before = alloc::analyze(&Workspace::from_sources(&files));
    let target = files
        .iter_mut()
        .find(|(r, _)| r == rel)
        .expect("target file present");
    assert!(target.1.contains(marker), "mutation anchor moved");
    target.1 = target.1.replacen(marker, seeded, 1);
    let after = alloc::analyze(&Workspace::from_sources(&files));
    after
        .findings
        .into_iter()
        .filter(|f| f.file == rel && !before.findings.iter().any(|b| b.excerpt == f.excerpt))
        .collect()
}

/// Injecting `Vec::new()` into a function on the serving path must
/// produce a new reachable-alloc finding (the gate goes red). Every
/// `QueryEngine::submit` traversal passes through
/// `MustFramework::search`.
#[test]
fn reintroduced_reachable_vec_new_flips_the_gate_red() {
    let marker = "assert!(k > 0, \"k must be >= 1\");";
    let found = seeded_findings(
        "crates/retrieval/src/must.rs",
        marker,
        &format!("{marker}\n        let _: Vec<u32> = Vec::new();"),
    );
    assert_eq!(found.len(), 1, "reachable Vec::new not caught: {found:?}");
    assert!(
        found[0].excerpt.contains("[alloc-ctor in "),
        "{}",
        found[0].excerpt
    );
    assert!(
        found[0].excerpt.contains("MustFramework::search"),
        "finding not attributed to the mutated fn: {}",
        found[0].excerpt
    );
}

/// The one search of a built index is an entry point by name: a
/// `Vec::new()` seeded in `BuiltGraph::search` is a finding of its own.
#[test]
fn seeded_vec_new_in_the_built_graph_search_is_a_finding() {
    let found = seeded_findings(
        "crates/graph/src/pipeline.rs",
        ") -> SearchOutput {\n        match self {",
        ") -> SearchOutput {\n        let _: Vec<u32> = Vec::new();\n        match self {",
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].excerpt.contains("[alloc-ctor in "),
        "{}",
        found[0].excerpt
    );
    assert!(
        found[0].excerpt.contains("BuiltGraph::search"),
        "{}",
        found[0].excerpt
    );
}

/// Control: the same `Vec::new()` in a function no entry point reaches
/// must NOT appear in the cone (the gate stays green).
#[test]
fn unreachable_vec_new_control_stays_green() {
    let mut files = workspace_sources();

    let before = alloc::analyze(&Workspace::from_sources(&files));

    // A free function nothing calls, appended at the end of a serving
    // crate file: inventoried, but outside every entry point's cone.
    let target = files
        .iter_mut()
        .find(|(rel, _)| rel == "crates/retrieval/src/must.rs")
        .expect("must.rs present");
    target
        .1
        .push_str("\npub fn alloc_fixture_dead_code_probe() -> Vec<u32> {\n    Vec::new()\n}\n");

    let after = alloc::analyze(&Workspace::from_sources(&files));
    assert_eq!(
        before.findings.len(),
        after.findings.len(),
        "dead-code Vec::new leaked into the cone: {:?}",
        after
            .findings
            .iter()
            .filter(|f| f.excerpt.contains("dead_code_probe"))
            .collect::<Vec<_>>()
    );
}
