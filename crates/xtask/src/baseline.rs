//! The waiver baseline (`<gate>-baseline.toml`) and the gate verdict.
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

use crate::lint::{Finding, Rule};
use std::path::Path;

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

/// A `[[waiver]]` table being read: file, rule, pattern, reason and the
/// line of its header.
type Draft = (
    Option<String>,
    Option<String>,
    Option<String>,
    Option<String>,
    usize,
);

impl Baseline {
    /// A baseline waiving nothing.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Indices of waivers matching `finding`, in baseline order.
    pub fn matching<'a>(&'a self, finding: &'a Finding) -> impl Iterator<Item = usize> + 'a {
        self.waivers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.matches(finding))
            .map(|(i, _)| i)
    }

    /// Loads and parses a baseline file. A missing file is an empty
    /// baseline (a fresh tree needs no waivers).
    ///
    /// # Errors
    /// Returns a message on unreadable files or malformed entries.
    pub fn load(path: &Path) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Self::empty());
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
        let mut waivers = Vec::new();
        let mut current: Option<Draft> = None;
        let mut finish = |cur: &mut Option<Draft>| -> Result<(), String> {
            if let Some((file, rule, pattern, reason, line)) = cur.take() {
                let file = file.ok_or(format!("waiver at line {line}: missing `file`"))?;
                let rule = rule.ok_or(format!("waiver at line {line}: missing `rule`"))?;
                if Rule::from_name(&rule).is_none() {
                    return Err(format!("waiver at line {line}: unknown rule `{rule}`"));
                }
                let reason = reason.ok_or(format!("waiver at line {line}: missing `reason`"))?;
                if reason.trim().is_empty() {
                    return Err(format!("waiver at line {line}: empty `reason`"));
                }
                waivers.push(Waiver {
                    file,
                    rule,
                    pattern,
                    reason,
                    line,
                });
            }
            Ok(())
        };
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[waiver]]" {
                finish(&mut current)?;
                current = Some((None, None, None, None, lineno));
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
            let entry = current
                .as_mut()
                .ok_or(format!("line {lineno}: `{key}` outside a [[waiver]] table"))?;
            let slot = match key {
                "file" => &mut entry.0,
                "rule" => &mut entry.1,
                "pattern" => &mut entry.2,
                "reason" => &mut entry.3,
                other => return Err(format!("line {lineno}: unknown key `{other}`")),
            };
            if slot.is_some() {
                return Err(format!("line {lineno}: duplicate key `{key}`"));
            }
            *slot = Some(value);
        }
        finish(&mut current)?;
        Ok(Self { waivers })
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
        let hit = baseline.matching(&f).next();
        match hit {
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
# experiment binaries fail fast by design
[[waiver]]
file = "crates/bench/src/bin/exp.rs"
rule = "no-unwrap"
reason = "CLI binary: fail-fast on malformed input"

[[waiver]]
file = "crates/graph/src/pipeline.rs"
rule = "no-expect"
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
            rule: Rule::NoExpect,
            excerpt: "ctx.get(\"connectivity\").expect(\"connectivity present\");".into(),
        };
        assert_eq!(b.matching(&f).collect::<Vec<_>>(), vec![1]);
        let other = Finding {
            excerpt: "x.expect(\"other\")".into(),
            ..f.clone()
        };
        assert!(b.matching(&other).next().is_none());
        let wrong_rule = Finding {
            rule: Rule::NoUnwrap,
            ..f
        };
        assert!(b.matching(&wrong_rule).next().is_none());
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(
            Baseline::parse("[[waiver]]\nrule = \"no-unwrap\"\nreason = \"r\"")
                .unwrap_err()
                .contains("missing `file`")
        );
        assert!(
            Baseline::parse("[[waiver]]\nfile = \"f\"\nrule = \"nope\"\nreason = \"r\"")
                .unwrap_err()
                .contains("unknown rule")
        );
        assert!(
            Baseline::parse("[[waiver]]\nfile = \"f\"\nrule = \"no-unwrap\"")
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
        let b = Baseline::load(Path::new("/nonexistent/lint-baseline.toml")).unwrap();
        assert!(b.waivers.is_empty());
    }
}
