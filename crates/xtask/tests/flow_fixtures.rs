//! Mutation tests for the panic-freedom flow gate.
//!
//! The unit tests in `flow.rs` cover the scanner and resolver on toy
//! sources; these tests prove the gate works on the *real* workspace:
//! reintroducing a reachable `unwrap` flips the analysis red, while the
//! same mutation in unreachable (dead) code stays green. Together they
//! pin both directions — the gate catches regressions on the serving
//! path and does not cry wolf off it.

use mqa_xtask::baseline::Baseline;
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

/// Injecting `.unwrap()` into a function on the serving path must
/// produce a new reachable-panic finding (the gate goes red).
#[test]
fn reintroduced_reachable_unwrap_flips_the_gate_red() {
    let mut files = workspace_sources();

    let before = flow::analyze(&Workspace::from_sources(&files));

    // Mutate MustFramework::search_scratch — every QueryEngine::submit
    // traversal passes through it.
    let target = files
        .iter_mut()
        .find(|(rel, _)| rel == "crates/retrieval/src/must.rs")
        .expect("must.rs present");
    let marker = "assert!(k > 0, \"k must be >= 1\");";
    assert!(target.1.contains(marker), "mutation anchor moved");
    target.1 = target.1.replace(
        marker,
        "assert!(k > 0, \"k must be >= 1\");\n        let _mutant: Option<u32> = None; let _ = _mutant.unwrap();",
    );

    let after = flow::analyze(&Workspace::from_sources(&files));
    let new_unwraps: Vec<_> = after
        .findings
        .iter()
        .filter(|f| {
            f.file == "crates/retrieval/src/must.rs"
                && f.excerpt.contains("[unwrap in ")
                && !before
                    .findings
                    .iter()
                    .any(|b| b.file == f.file && b.excerpt == f.excerpt)
        })
        .collect();
    assert_eq!(
        new_unwraps.len(),
        1,
        "reachable unwrap not caught: {:?}",
        after
            .findings
            .iter()
            .filter(|f| f.file.ends_with("must.rs"))
            .collect::<Vec<_>>()
    );
    assert!(
        new_unwraps[0]
            .excerpt
            .contains("MustFramework::search_scratch"),
        "finding not attributed to the mutated fn: {}",
        new_unwraps[0].excerpt
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
