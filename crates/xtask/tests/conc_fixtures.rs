//! Fixture-driven tests for the static concurrency analysis.
//!
//! `fixture_conc.rs` seeds one instance of each conc rule at a pinned
//! line; these tests assert the exact `file:line` coordinates, then
//! exercise the full `conc::run` gate over a throwaway tree to prove that
//! nesting two locks, in either order, flips the gate red and that the
//! waiver baseline machinery carries over.

use mqa_xtask::baseline::{Baseline, Rule};
use mqa_xtask::conc;
use mqa_xtask::workspace::{self, Workspace};

fn fixture() -> conc::Analysis {
    let src = include_str!("fixtures/fixture_conc.rs");
    conc::analyze(&Workspace::from_sources(&[(
        "crates/x/src/fixture_conc.rs",
        src,
    )]))
}

#[test]
fn lock_inversion_reports_both_nested_acquisitions_at_pinned_lines() {
    let a = fixture();
    let nested: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::NestedLock)
        .collect();
    assert_eq!(nested.len(), 2, "findings: {:?}", a.findings);
    // Each finding names both locks and the line where the held guard was
    // taken, so the report alone locates the nesting.
    for (f, line, held_since) in [(nested[0], 19, "line 18"), (nested[1], 26, "line 25")] {
        assert_eq!(
            (f.file.as_str(), f.line),
            ("crates/x/src/fixture_conc.rs", line)
        );
        assert!(f.excerpt.contains("Pair.alpha"), "{}", f.excerpt);
        assert!(f.excerpt.contains("Pair.beta"), "{}", f.excerpt);
        assert!(f.excerpt.contains(held_since), "{}", f.excerpt);
    }
}

#[test]
fn if_guarded_condvar_wait_fires_at_pinned_line() {
    let a = fixture();
    let waits: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::CondvarNoLoop)
        .collect();
    assert_eq!(waits.len(), 1, "findings: {:?}", a.findings);
    assert_eq!(waits[0].line, 34);
}

#[test]
fn guard_across_join_fires_at_pinned_line() {
    let a = fixture();
    let held: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::GuardAcrossBlocking)
        .collect();
    assert_eq!(held.len(), 1, "findings: {:?}", a.findings);
    assert_eq!(held[0].line, 41);
    assert!(held[0].excerpt.contains("`g`"));
}

#[test]
fn fixture_defect_census_is_exactly_four() {
    // Exactly the seeded defects — no phantom findings from the clean
    // parts of the fixture (the drops, the struct, the doc comment).
    let a = fixture();
    assert_eq!(a.findings.len(), 4, "findings: {:?}", a.findings);
}

/// A `BoundedQueue`-shaped module whose two public entry points take the
/// same two locks one at a time, never together — the shape the real
/// workspace has.
const QUEUE_LIKE_OK: &str = r#"
use std::sync::Mutex;

pub struct Queue {
    state: Mutex<Vec<u32>>,
    stats: Mutex<u64>,
}

impl Queue {
    pub fn push(&self, v: u32) {
        let mut s = self.state.lock();
        s.push(v);
        drop(s);
        let mut n = self.stats.lock();
        *n += 1;
        drop(n);
    }

    pub fn pop(&self) -> Option<u32> {
        let mut n = self.stats.lock();
        *n += 1;
        drop(n);
        let mut s = self.state.lock();
        let v = s.pop();
        drop(s);
        v
    }
}
"#;

/// The same module with `push` mutated to take `stats` while `state` is
/// held, and `pop` to take the locks in the `first, second` order.
fn queue_like_nested(first: &str, second: &str) -> String {
    format!(
        r#"
use std::sync::Mutex;

pub struct Queue {{
    state: Mutex<Vec<u32>>,
    stats: Mutex<u64>,
}}

impl Queue {{
    pub fn push(&self, v: u32) {{
        let mut s = self.state.lock();
        s.push(v);
        let mut n = self.stats.lock();
        *n += 1;
        drop(n);
        drop(s);
    }}

    pub fn pop(&self) -> Option<u32> {{
        let a = self.{first}.lock();
        let b = self.{second}.lock();
        drop(b);
        drop(a);
        None
    }}
}}
"#
    )
}

/// End-to-end `conc::run` over a throwaway tree: the tree that takes its
/// locks one at a time passes, nesting them in either order flips the
/// gate red, and the waiver/stale-waiver machinery behaves like every
/// static gate's.
#[test]
fn nested_lock_mutation_flips_the_gate_red() {
    let root = std::env::temp_dir().join(format!("mqa-xtask-conc-fixture-{}", std::process::id()));
    let src_dir = root.join("src");
    std::fs::create_dir_all(&src_dir).unwrap();

    std::fs::write(src_dir.join("queue_like.rs"), QUEUE_LIKE_OK).unwrap();
    let outcome = conc::run(&workspace::load(&root).unwrap(), &Baseline::default());
    assert!(
        outcome.is_clean(),
        "clean tree flagged: {:?}",
        outcome.findings
    );
    assert_eq!(outcome.stats.lock_names.len(), 2);

    // Both the consistent nesting (`state` then `stats`, as `push` does)
    // and the inversion are red, each at every nested acquisition.
    for (first, second) in [("state", "stats"), ("stats", "state")] {
        let mutated = queue_like_nested(first, second);
        std::fs::write(src_dir.join("queue_like.rs"), mutated).unwrap();
        let outcome = conc::run(&workspace::load(&root).unwrap(), &Baseline::default());
        assert!(
            !outcome.is_clean(),
            "{first} -> {second} must fail the gate"
        );
        let lines: Vec<(Rule, usize)> = outcome.findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            lines,
            [(Rule::NestedLock, 13), (Rule::NestedLock, 21)],
            "{first} -> {second}: {:?}",
            outcome.findings
        );
    }

    // A matching waiver suppresses the finding; a stale one fails again.
    let waived = Baseline::parse(
        r#"
[[waiver]]
file = "src/queue_like.rs"
rule = "nested-lock"
reason = "fixture exercise"
"#,
    )
    .unwrap();
    let outcome = conc::run(&workspace::load(&root).unwrap(), &waived);
    assert!(outcome.is_clean());
    assert!(!outcome.waived.is_empty());

    std::fs::write(src_dir.join("queue_like.rs"), QUEUE_LIKE_OK).unwrap();
    let outcome = conc::run(&workspace::load(&root).unwrap(), &waived);
    assert!(!outcome.is_clean(), "stale waiver must fail the gate");
    assert_eq!(outcome.unused_waivers.len(), 1);

    std::fs::remove_dir_all(&root).ok();
}

/// The real workspace must be clean with an empty baseline: zero conc
/// findings and zero waivers is an acceptance criterion of the suite.
#[test]
fn workspace_is_clean_with_zero_waivers() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome = conc::run(&workspace::load(&root).unwrap(), &Baseline::default());
    assert!(
        outcome.findings.is_empty(),
        "workspace conc findings: {:#?}",
        outcome.findings
    );
    // The lock census: a new lock anywhere, a second engine lock or a
    // ticket that grows a mutex again changes this list. The engine's only
    // lock is its submission queue's.
    let census: Vec<&str> = outcome
        .stats
        .lock_names
        .iter()
        .map(String::as_str)
        .collect();
    assert_eq!(
        census,
        [
            "BoundedQueue.state",
            "CacheShard.slots",
            "Ctl.m",
            "Registry.counters",
            "Registry.gauges",
            "Registry.histograms",
            "Registry.spans",
            "SnapshotCell.slot",
            "TraceContext.inner",
            "UnifiedIndex.writer",
        ]
    );
}
