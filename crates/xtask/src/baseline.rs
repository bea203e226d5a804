//! The static gates' [`Finding`]s and [`Rule`]s, the waiver baseline
//! (`<gate>-baseline.toml`) and the gate verdict.
//!
//! The baseline is an allowlist of *justified* findings: each `[[waiver]]`
//! entry names a file, a rule, an optional `pattern` substring narrowing
//! the match to specific lines, and a mandatory human `reason`. A gate
//! fails on any finding without a waiver — and on any waiver without a
//! finding, so stale entries cannot silently accumulate. Every static gate
//! reaches its verdict through the one [`apply_baseline`].
//!
//! The parser reads the small TOML subset the file needs (`[[waiver]]`
//! tables with `key = "string"` pairs, `#` comments, blank lines) — no
//! external TOML dependency.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The rules the static gates enforce (the source rules clippy can state
/// are clippy's, run by `ci.sh`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A wildcard `_ =>` arm in a `match` over an error value (`flow`).
    WildcardErrorMatch,
    /// A lock acquired while another guard is live (`conc`).
    NestedLock,
    /// `Condvar::wait` outside a `while`/`loop` predicate re-check (`conc`).
    CondvarNoLoop,
    /// A live `MutexGuard` held across a blocking call (`conc`).
    GuardAcrossBlocking,
    /// Direct slice/Vec `[...]` indexing on a serving-path crate (`flow`).
    NoIndexPanic,
    /// A narrowing `as` cast that can silently truncate (`flow`).
    NoLossyCast,
    /// Integer `/` or `%` with a non-literal or zero divisor (`flow`).
    NoRawDiv,
    /// A panic-capable site reachable from a serving entry point (`flow`).
    ReachablePanic,
    /// An allocation reachable from a steady-state serving entry (`alloc`).
    ReachableAlloc,
}

impl Rule {
    /// Every rule (a waiver must name one).
    pub const ALL: [Rule; 9] = [
        Rule::WildcardErrorMatch,
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
            Rule::WildcardErrorMatch => "wildcard-error-match",
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

    /// One-line rationale shown with findings.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::WildcardErrorMatch => {
                "matches over error enums must list every variant, not `_ =>`"
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
            self.file,
            self.line,
            self.rule.name(),
            self.excerpt
        )
    }
}

/// One allowlisted finding class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Repo-relative file the waiver applies to.
    pub file: String,
    /// Rule name (see [`Rule::name`]).
    pub rule: String,
    /// Optional substring of the flagged source line; absent = every
    /// finding of `rule` in `file`.
    pub pattern: Option<String>,
    /// Why this violation is acceptable. Mandatory.
    pub reason: String,
    /// Line of the `[[waiver]]` header in the baseline file.
    pub line: usize,
}

impl Waiver {
    /// Whether this waiver suppresses `finding`.
    pub fn matches(&self, finding: &Finding) -> bool {
        self.file == finding.file
            && self.rule == finding.rule.name()
            && self
                .pattern
                .as_deref()
                .is_none_or(|p| finding.excerpt.contains(p))
    }

    /// Short description for "unused waiver" diagnostics.
    pub fn describe(&self) -> String {
        match &self.pattern {
            Some(p) => format!(
                "{} [{}] pattern {:?} (line {})",
                self.file, self.rule, p, self.line
            ),
            None => format!("{} [{}] (line {})", self.file, self.rule, self.line),
        }
    }
}

/// The parsed baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Waivers in file order.
    pub waivers: Vec<Waiver>,
}

impl Baseline {
    /// Loads and parses a baseline file. A missing file is an empty
    /// baseline (a fresh tree needs no waivers).
    ///
    /// # Errors
    /// Returns a message on unreadable files or malformed entries.
    pub fn load(path: &Path) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Self::default());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Parses baseline text.
    ///
    /// # Errors
    /// Returns a message for syntax errors, unknown keys or rules, and
    /// waivers missing `file`, `rule`, or a non-empty `reason`.
    pub fn parse(text: &str) -> Result<Self, String> {
        // Each `[[waiver]]` table: the line of its header and its keys.
        let mut tables: Vec<(usize, BTreeMap<&str, String>)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[waiver]]" {
                tables.push((lineno, BTreeMap::new()));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {lineno}: unknown table `{line}`"));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(format!("line {lineno}: expected `key = \"value\"`"))?;
            let key = key.trim();
            let value = parse_string_value(value.trim()).ok_or(format!(
                "line {lineno}: value must be a double-quoted string"
            ))?;
            let (_, table) = tables
                .last_mut()
                .ok_or(format!("line {lineno}: `{key}` outside a [[waiver]] table"))?;
            if !["file", "rule", "pattern", "reason"].contains(&key) {
                return Err(format!("line {lineno}: unknown key `{key}`"));
            }
            if table.insert(key, value).is_some() {
                return Err(format!("line {lineno}: duplicate key `{key}`"));
            }
        }
        let waivers = tables.into_iter().map(|(line, mut table)| {
            let mut take = |key: &str| {
                table
                    .remove(key)
                    .ok_or(format!("waiver at line {line}: missing `{key}`"))
            };
            let (file, rule) = (take("file")?, take("rule")?);
            if !Rule::ALL.iter().any(|r| r.name() == rule) {
                return Err(format!("waiver at line {line}: unknown rule `{rule}`"));
            }
            let reason = take("reason")?;
            if reason.trim().is_empty() {
                return Err(format!("waiver at line {line}: empty `reason`"));
            }
            let pattern = table.remove("pattern");
            Ok(Waiver {
                file,
                rule,
                pattern,
                reason,
                line,
            })
        });
        Ok(Self {
            waivers: waivers.collect::<Result<_, String>>()?,
        })
    }
}

/// A static gate's verdict: its findings split by the baseline, plus the
/// gate's own statistics `S` (lock graph, cone sizes, …).
#[derive(Debug)]
pub struct Outcome<S> {
    /// Unwaived findings (the gate fails if non-empty).
    pub findings: Vec<Finding>,
    /// Findings suppressed by baseline waivers.
    pub waived: Vec<Finding>,
    /// Baseline entries that matched nothing (the gate fails if non-empty:
    /// a stale waiver hides drift).
    pub unused_waivers: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Gate-specific statistics.
    pub stats: S,
}

impl<S> Outcome<S> {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.unused_waivers.is_empty()
    }
}

/// Splits a gate's raw findings into waived and unwaived under `baseline`
/// and reports the waivers nothing matched.
pub fn apply_baseline<S>(
    all: Vec<Finding>,
    files_scanned: usize,
    stats: S,
    baseline: &Baseline,
) -> Outcome<S> {
    let mut used = vec![false; baseline.waivers.len()];
    let mut findings = Vec::new();
    let mut waived = Vec::new();
    for f in all {
        match baseline.waivers.iter().position(|w| w.matches(&f)) {
            Some(i) => {
                used[i] = true;
                waived.push(f);
            }
            None => findings.push(f),
        }
    }
    let unused_waivers = baseline
        .waivers
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(w, _)| w.describe())
        .collect();
    Outcome {
        findings,
        waived,
        unused_waivers,
        files_scanned,
        stats,
    }
}

/// Parses a TOML basic string (double quotes, `\"` / `\\` escapes),
/// tolerating a trailing `#` comment after the closing quote.
fn parse_string_value(v: &str) -> Option<String> {
    let rest = v.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                _ => return None,
            },
            '"' => {
                let tail = chars.as_str().trim();
                if tail.is_empty() || tail.starts_with('#') {
                    return Some(out);
                }
                return None;
            }
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# a precondition of the whole file
[[waiver]]
file = "crates/graph/src/flat.rs"
rule = "flow-reachable-panic"
reason = "documented k>=1 contract"

[[waiver]]
file = "crates/graph/src/pipeline.rs"
rule = "no-index-panic"
pattern = "connectivity present"
reason = "artifact published by the stage two lines above"
"#;

    #[test]
    fn parses_waivers_with_and_without_pattern() {
        let b = Baseline::parse(GOOD).unwrap();
        assert_eq!(b.waivers.len(), 2);
        assert_eq!(b.waivers[0].pattern, None);
        assert_eq!(
            b.waivers[1].pattern.as_deref(),
            Some("connectivity present")
        );
    }

    #[test]
    fn matching_respects_file_rule_and_pattern() {
        let b = Baseline::parse(GOOD).unwrap();
        let f = Finding {
            file: "crates/graph/src/pipeline.rs".into(),
            line: 296,
            rule: Rule::NoIndexPanic,
            excerpt: "ctx[\"connectivity\"]; // connectivity present".into(),
        };
        let matching =
            |f: &Finding| -> Vec<bool> { b.waivers.iter().map(|w| w.matches(f)).collect() };
        assert_eq!(matching(&f), vec![false, true]);
        let other = Finding {
            excerpt: "ctx[\"other\"]".into(),
            ..f.clone()
        };
        assert_eq!(matching(&other), vec![false, false]);
        let wrong_rule = Finding {
            rule: Rule::NoRawDiv,
            ..f
        };
        assert_eq!(matching(&wrong_rule), vec![false, false]);
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(
            Baseline::parse("[[waiver]]\nrule = \"no-raw-div\"\nreason = \"r\"")
                .unwrap_err()
                .contains("missing `file`")
        );
        assert!(
            Baseline::parse("[[waiver]]\nfile = \"f\"\nrule = \"nope\"\nreason = \"r\"")
                .unwrap_err()
                .contains("unknown rule")
        );
        assert!(
            Baseline::parse("[[waiver]]\nfile = \"f\"\nrule = \"no-raw-div\"")
                .unwrap_err()
                .contains("missing `reason`")
        );
        assert!(Baseline::parse("file = \"f\"")
            .unwrap_err()
            .contains("outside"));
        assert!(Baseline::parse("[[waiver]]\nfile = unquoted")
            .unwrap_err()
            .contains("double-quoted"));
    }

    #[test]
    fn missing_file_is_empty_baseline() {
        let b = Baseline::load(Path::new("/nonexistent/flow-baseline.toml")).unwrap();
        assert!(b.waivers.is_empty());
    }
}
