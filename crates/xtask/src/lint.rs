//! The lint rules.
//!
//! Dependency-free static analysis over the [`crate::workspace`] source
//! model: comments never reach the token stream, string and char literals
//! are single tokens (so rules never fire on prose), `#[cfg(test)]` items
//! are masked out (test code may unwrap freely), and each [`Rule`] matches
//! on what remains. Findings carry exact `file:line` coordinates so they
//! are clickable in editors and stable enough to waive via the
//! [`crate::baseline`] allowlist.

use crate::baseline::{apply_baseline, Baseline, Outcome};
use crate::callgraph::discharge_mask;
use crate::rustlex::{Kind, Tok};
use crate::workspace::{SourceFile, Workspace};
use std::fmt;

/// The enforced rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `.unwrap()` in non-test library code.
    NoUnwrap,
    /// `.expect(` in non-test library code.
    NoExpect,
    /// `panic!` / `todo!` / `unimplemented!` in non-test library code.
    NoPanic,
    /// Float `==` / `!=` comparison in a distance/weight kernel path.
    FloatEq,
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    UnsafeNoSafety,
    /// A wildcard `_ =>` arm in a `match` over an error value.
    WildcardErrorMatch,
    /// Ad-hoc `Instant::now()` timing outside the bench/obs crates.
    AdHocTiming,
    /// A lock acquired while another guard is live (`mqa-xtask conc`).
    NestedLock,
    /// `Condvar::wait` outside a `while`/`loop` predicate re-check.
    CondvarNoLoop,
    /// A live `MutexGuard` held across a blocking call.
    GuardAcrossBlocking,
    /// Direct slice/Vec `[...]` indexing on a serving-path crate.
    NoIndexPanic,
    /// A narrowing `as` cast that can silently truncate.
    NoLossyCast,
    /// Integer `/` or `%` with a non-literal (or zero-literal) divisor.
    NoRawDiv,
    /// A panic-capable site reachable from a serving entry point
    /// (`mqa-xtask flow`).
    ReachablePanic,
    /// An allocation-capable site reachable from a steady-state serving
    /// entry point (`mqa-xtask alloc`). Subsumes the retired
    /// `no-visited-alloc` lint: a fresh `vec![false; n]` visited set on a
    /// search path is now one flavor of reachable allocation.
    ReachableAlloc,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 15] = [
        Rule::NoUnwrap,
        Rule::NoExpect,
        Rule::NoPanic,
        Rule::FloatEq,
        Rule::UnsafeNoSafety,
        Rule::WildcardErrorMatch,
        Rule::AdHocTiming,
        Rule::NestedLock,
        Rule::CondvarNoLoop,
        Rule::GuardAcrossBlocking,
        Rule::NoIndexPanic,
        Rule::NoLossyCast,
        Rule::NoRawDiv,
        Rule::ReachablePanic,
        Rule::ReachableAlloc,
    ];

    /// The kebab-case rule name used in reports and waivers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoExpect => "no-expect",
            Rule::NoPanic => "no-panic",
            Rule::FloatEq => "float-eq",
            Rule::UnsafeNoSafety => "unsafe-no-safety",
            Rule::WildcardErrorMatch => "wildcard-error-match",
            Rule::AdHocTiming => "ad-hoc-timing",
            Rule::NestedLock => "nested-lock",
            Rule::CondvarNoLoop => "condvar-no-loop",
            Rule::GuardAcrossBlocking => "guard-across-blocking",
            Rule::NoIndexPanic => "no-index-panic",
            Rule::NoLossyCast => "no-lossy-cast",
            Rule::NoRawDiv => "no-raw-div",
            Rule::ReachablePanic => "flow-reachable-panic",
            Rule::ReachableAlloc => "alloc-reachable",
        }
    }

    /// Resolves a waiver's rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line rationale shown with findings.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "library code must propagate errors, not `.unwrap()` them",
            Rule::NoExpect => "library code must propagate errors, not `.expect(` them",
            Rule::NoPanic => "library code must not `panic!`/`todo!`/`unimplemented!`",
            Rule::FloatEq => "distance/weight kernels must not compare floats with == or !=",
            Rule::UnsafeNoSafety => "`unsafe` requires an adjacent `// SAFETY:` comment",
            Rule::WildcardErrorMatch => {
                "matches over error enums must list every variant, not `_ =>`"
            }
            Rule::AdHocTiming => {
                "instrumented code must time via mqa-obs spans/Stopwatch, not raw Instant::now()"
            }
            Rule::NestedLock => {
                "a lock taken while another guard is live is half of a lock-order deadlock (or a self-deadlock); release the held guard first"
            }
            Rule::CondvarNoLoop => {
                "Condvar::wait returns on spurious wakeups; the predicate must be re-checked in a while/loop"
            }
            Rule::GuardAcrossBlocking => {
                "a MutexGuard held across a blocking call stalls every other thread needing that lock"
            }
            Rule::NoIndexPanic => {
                "serving-path indexing panics out-of-range; use .get() with a typed error or document the bound with an // INVARIANT: comment"
            }
            Rule::NoLossyCast => {
                "a narrowing `as` cast silently truncates; use a cast helper (mqa_vector::cast) or document with // INVARIANT:"
            }
            Rule::NoRawDiv => {
                "integer / or % panics on a zero divisor; guard it, use checked_div/rem, or document with // INVARIANT:"
            }
            Rule::ReachablePanic => {
                "a panic-capable site is reachable from a serving entry point; make it a typed error or waive it in flow-baseline.toml"
            }
            Rule::ReachableAlloc => {
                "a heap allocation is reachable from the steady-state serving path; hoist it, discharge it with // ALLOC:, or waive it in alloc-baseline.toml"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at an exact source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// The trimmed original source line.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Per-file switches for the path-scoped rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintFlags {
    /// Float-comparison rule (distance/weight kernel paths only).
    pub kernel: bool,
    /// Ad-hoc-timing rule (everywhere except bench/obs, which own raw
    /// clocks by design).
    pub timing: bool,
    /// Arithmetic-safety rules (no-index-panic, no-lossy-cast,
    /// no-raw-div) on the serving-path crates.
    pub arith: bool,
    /// Fail-fast CLI driver (`…/src/bin/…`): exempt from the
    /// no-unwrap/no-expect rules — aborting with the message IS the
    /// designed behavior for experiment binaries, and the exemption
    /// replaces the per-binary waivers the baseline used to carry.
    pub fail_fast_bin: bool,
}

impl LintFlags {
    /// The switches a repo-relative path gets in a workspace run.
    pub fn for_path(rel: &str) -> Self {
        Self {
            kernel: KERNEL_PREFIXES.iter().any(|p| rel.starts_with(p)),
            timing: !TIMING_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p)),
            arith: SERVING_PREFIXES.iter().any(|p| rel.starts_with(p))
                && !rel.ends_with("/cast.rs"),
            fail_fast_bin: rel.starts_with("src/bin/") || rel.contains("/src/bin/"),
        }
    }
}

/// Reporting order of a rule within one line.
fn rule_order(rule: Rule) -> usize {
    Rule::ALL
        .iter()
        .position(|&r| r == rule)
        .unwrap_or(usize::MAX)
}

/// The block-structure rules (no-panic, unsafe-no-safety,
/// wildcard-error-match), one source line's tokens at a time: each fires
/// at most once per line, and the wildcard rule needs to know whether the
/// innermost open brace belongs to a `match` over an error value.
fn block_rules(toks: &[&Tok], raw_lines: &[&str], hits: &mut Vec<(usize, Rule)>) {
    // Stack of open braces; `true` marks a match-over-error block.
    let mut match_stack: Vec<bool> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        let end = i + toks[i..].iter().take_while(|t| t.line == line).count();
        let on_line = &toks[i..end];
        let followed_by = |p: usize, s: &str| on_line.get(p + 1).is_some_and(|n| n.is_punct(s));
        if on_line.iter().enumerate().any(|(p, t)| {
            (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented"))
                && followed_by(p, "!")
        }) {
            hits.push((line, Rule::NoPanic));
        }
        if on_line.iter().any(|t| t.is_ident("unsafe")) {
            let lo = line.saturating_sub(4);
            let nearby_safety = raw_lines
                .get(lo..line)
                .is_some_and(|w| w.iter().any(|l| l.contains("SAFETY:")));
            if !nearby_safety {
                hits.push((line, Rule::UnsafeNoSafety));
            }
        }
        if on_line[0].is_ident("_")
            && on_line
                .get(1)
                .is_some_and(|n| n.is_punct("=>") || n.is_ident("if"))
            && match_stack.last() == Some(&true)
        {
            hits.push((line, Rule::WildcardErrorMatch));
        }
        let mut err_match_pending = on_line.iter().any(|t| t.is_ident("match"))
            && on_line.iter().enumerate().any(|(p, t)| {
                t.kind == Kind::Ident
                    && (t.text.contains("Error")
                        || (t.text.ends_with("Err") && followed_by(p, "(")))
            });
        for t in on_line {
            if t.is_punct("{") {
                match_stack.push(err_match_pending);
                err_match_pending = false;
            } else if t.is_punct("}") {
                match_stack.pop();
            }
        }
        i = end;
    }
}

/// Lints one file with the given path-scoped [`LintFlags`].
///
/// Every rule matches on the file's non-test [`crate::rustlex`] token
/// stream, so call chains split across lines still fire and prose in
/// strings and comments never does.
pub fn lint_file(file: &SourceFile, flags: &LintFlags) -> Vec<Finding> {
    let toks = file.code();
    let raw_lines: Vec<&str> = file.source.lines().collect();
    let mut hits: Vec<(usize, Rule)> = Vec::new();

    if !flags.fail_fast_bin {
        for w in toks.windows(4) {
            if w[0].is_punct(".")
                && w[1].is_ident("unwrap")
                && w[2].is_punct("(")
                && w[3].is_punct(")")
            {
                hits.push((w[1].line, Rule::NoUnwrap));
            }
        }
        for w in toks.windows(3) {
            if w[0].is_punct(".") && w[1].is_ident("expect") && w[2].is_punct("(") {
                hits.push((w[1].line, Rule::NoExpect));
            }
        }
    }
    if flags.timing {
        for w in toks.windows(3) {
            if w[0].is_ident("Instant") && w[1].is_punct("::") && w[2].is_ident("now") {
                hits.push((w[0].line, Rule::AdHocTiming));
            }
        }
    }
    if flags.arith && !flags.fail_fast_bin {
        let invariant = discharge_mask(&file.source, crate::flow::INVARIANT);
        for site in crate::flow::scan_sites(&toks, &invariant) {
            if let Some(rule) = site.kind.lint_rule() {
                hits.push((site.line, rule));
            }
        }
    }
    if flags.kernel {
        let mut seen_lines = std::collections::BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            if !(t.is_punct("==") || t.is_punct("!=")) {
                continue;
            }
            let lo = i.saturating_sub(8);
            let hi = (i + 9).min(toks.len());
            let floatish = toks[lo..hi].iter().any(|w| {
                w.line == t.line
                    && (w.kind == Kind::Float
                        || (w.kind == Kind::Ident
                            && matches!(
                                w.text.as_str(),
                                "f32" | "f64" | "EPSILON" | "INFINITY" | "NAN"
                            )))
            });
            if floatish && seen_lines.insert(t.line) {
                hits.push((t.line, Rule::FloatEq));
            }
        }
    }
    block_rules(&toks, &raw_lines, &mut hits);

    hits.sort_by_key(|&(line, rule)| (line, rule_order(rule)));
    hits.into_iter()
        .map(|(line, rule)| Finding {
            file: file.rel.clone(),
            line,
            rule,
            excerpt: file.excerpt(line),
        })
        .collect()
}

/// Path prefixes where the float-comparison rule applies: the distance /
/// weight / graph kernel crates.
pub const KERNEL_PREFIXES: [&str; 3] = [
    "crates/vector/src",
    "crates/weights/src",
    "crates/graph/src",
];

/// Path prefixes exempt from the ad-hoc-timing rule: the bench harness
/// measures raw iteration clocks by design, and `mqa-obs` is the timing
/// API's own implementation.
pub const TIMING_EXEMPT_PREFIXES: [&str; 2] = ["crates/bench", "crates/obs"];

/// Path prefixes where the arithmetic-safety rules (no-index-panic,
/// no-lossy-cast, no-raw-div) apply: the crates a serving worker executes
/// per query. `cast.rs` (the checked-conversion helper module, which owns
/// its narrowing casts behind documented invariants) is exempt.
pub const SERVING_PREFIXES: [&str; 5] = [
    "crates/graph/src",
    "crates/vector/src",
    "crates/cache/src",
    "crates/engine/src",
    "crates/retrieval/src",
];

/// Lints every workspace file under its path's [`LintFlags`] and applies
/// `baseline` waivers (default file: `lint-baseline.toml`).
pub fn run(ws: &Workspace, baseline: &Baseline) -> Outcome<()> {
    let all = ws
        .files
        .iter()
        .flat_map(|f| lint_file(f, &LintFlags::for_path(&f.rel)))
        .collect();
    apply_baseline(all, ws.files.len(), (), baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_source(file: &str, source: &str, flags: &LintFlags) -> Vec<Finding> {
        lint_file(&SourceFile::new(file, source), flags)
    }

    /// Regression: a string line-continuation (`\` before the newline)
    /// must still advance the line count, or every line after it maps to
    /// the wrong mask slot and `#[cfg(test)]` items further down leak
    /// spurious no-unwrap/no-expect findings.
    #[test]
    fn string_line_continuation_keeps_mask_aligned() {
        let src = "fn f() -> String {\n    format!(\n        \"two-line \\\n         message\"\n    )\n}\n#[cfg(test)]\nmod tests {\n    fn b() { x.expect(\"fine in tests\"); }\n}\n";
        assert!(lint_source("f.rs", src, &flags(false, false)).is_empty());
    }

    fn flags(kernel: bool, timing: bool) -> LintFlags {
        LintFlags {
            kernel,
            timing,
            arith: false,
            fail_fast_bin: false,
        }
    }

    #[test]
    fn unwrap_in_test_code_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\n";
        assert!(lint_source("f.rs", src, &flags(false, false)).is_empty());
    }

    #[test]
    fn unwrap_split_across_lines_still_fires() {
        let src = "fn f() {\n    compute_the_thing(a, b)\n        .unwrap\n        ();\n}\n";
        let found = lint_source("f.rs", src, &flags(false, false));
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].line, found[0].rule), (3, Rule::NoUnwrap));
    }

    #[test]
    fn fail_fast_bin_exempts_unwrap_and_expect_only() {
        let src = "fn main() { x.unwrap(); y.expect(\"msg\"); panic!(\"still caught\"); }\n";
        let bin = LintFlags {
            fail_fast_bin: true,
            ..LintFlags::default()
        };
        let found = lint_source("src/bin/f.rs", src, &bin);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::NoPanic);
        assert_eq!(lint_source("f.rs", src, &LintFlags::default()).len(), 3);
    }

    #[test]
    fn float_eq_only_fires_in_kernel_files() {
        let src = "fn f(a: f32, b: f32) -> bool { a == b }\n";
        assert!(lint_source("f.rs", src, &flags(false, false)).is_empty());
        let found = lint_source("f.rs", src, &flags(true, false));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::FloatEq);
    }

    #[test]
    fn integer_comparison_is_not_a_float_eq() {
        let src = "fn f(a: usize, b: usize) -> bool { a == b && a != 3 }\n";
        assert!(lint_source("f.rs", src, &flags(true, false)).is_empty());
    }

    #[test]
    fn float_eq_ignores_floats_on_other_lines() {
        let src = "fn f(a: usize, w: f32) -> bool {\n    let _ = w * 2.0;\n    a == 3\n}\n";
        assert!(lint_source("f.rs", src, &flags(true, false)).is_empty());
    }

    #[test]
    fn ad_hoc_timing_only_fires_with_timing_flag() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t.elapsed(); }\n";
        assert!(lint_source("f.rs", src, &flags(false, false)).is_empty());
        let found = lint_source("f.rs", src, &flags(false, true));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::AdHocTiming);
    }
}
