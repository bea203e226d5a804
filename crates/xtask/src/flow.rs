//! Panic-freedom analysis (`mqa-xtask flow`).
//!
//! A whole-workspace, two-pass call-graph analysis over [`crate::rustlex`]
//! token streams that proves the hot serving path cannot panic. The
//! generic inventory/resolution/reachability machinery lives in
//! [`crate::callgraph`] (shared with the allocation-freedom analysis in
//! [`crate::alloc`]); this module owns the panic-specific parts:
//!
//! 1. **Inventory** — every *panic-capable site*: `unwrap`/`expect`, the
//!    `panic!`/`todo!`/`unimplemented!`/`unreachable!` macros, the
//!    `assert!` family, direct slice/Vec `[...]` indexing, non-literal
//!    integer `/` and `%`, and narrowing `as` casts (value-corrupting
//!    rather than panicking — inventoried and linted, but excluded from
//!    the reachability cone). The `debug_assert!` family is *not*
//!    counted: it compiles out of release serving builds, and
//!    `overflow-checks` owns the debug run.
//! 2. **Reachability** — the panic cone is computed from the designated
//!    serving entry points ([`ENTRY_POINTS`]): `QueryEngine::{submit,
//!    submit_with_deadline,retrieve,retrieve_batch}`, the `MqaSystem`/
//!    `DialogueSession` turn path, the two searches of a built index
//!    (`BuiltGraph::search`, `PagedIndex::search_paged_into`), and
//!    `PageCache`/`ResultCache` lookups. Any panic-capable
//!    site inside a reachable function is a [`Rule::ReachablePanic`]
//!    finding unless waived in `flow-baseline.toml` (same machinery as
//!    `lint-baseline.toml`, mandatory reasons, stale-waiver detection).
//!
//! Indexing and division sites can alternatively be *discharged in
//! source* with an adjacent `// INVARIANT:` comment documenting why the
//! bound holds — the analogue of `// SAFETY:` for `unsafe`. `unwrap`/
//! `expect`/`panic!`/`assert!` have no comment escape: on the serving
//! path they are either rewritten as typed errors or waived with a
//! reason.
//!
//! Three token-accurate lint rules — `no-index-panic`, `no-lossy-cast`,
//! `no-raw-div` — ride on the same site scanner via
//! [`crate::lint::LintFlags::arith`], scoped to the serving crates
//! ([`crate::lint::SERVING_PREFIXES`]), `#[cfg(test)]`-masked and
//! bin-exempt like every other rule.

use crate::baseline::{apply_baseline, Baseline, Outcome};
use crate::callgraph::{
    self, analyze_cone, is_keyword, ConeAnalysis, ConeGate, ConeStats, EntryOwner, EntryPoint,
};
use crate::lint::Rule;
use crate::rustlex::{Kind, Tok};
use crate::workspace::Workspace;
use std::collections::BTreeSet;

/// What kind of panic-capable (or value-corrupting) construct a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `panic!` / `todo!` / `unimplemented!` / `unreachable!`.
    PanicMacro,
    /// `assert!` / `assert_eq!` / `assert_ne!`.
    AssertMacro,
    /// Direct `expr[…]` indexing.
    Index,
    /// Integer `/` or `%` with a non-literal (or zero-literal) divisor.
    RawDiv,
    /// A narrowing `as` cast (`usize as u32`, `f64 as f32`, …). Does not
    /// panic — it silently truncates — so it is linted and inventoried
    /// but not part of the reachability cone.
    LossyCast,
}

impl SiteKind {
    /// The lint rule this site kind surfaces as, for the kinds the
    /// arithmetic-safety lints own (unwrap/expect/panic are already
    /// covered by the original rules).
    pub fn lint_rule(self) -> Option<Rule> {
        match self {
            SiteKind::Index => Some(Rule::NoIndexPanic),
            SiteKind::LossyCast => Some(Rule::NoLossyCast),
            SiteKind::RawDiv => Some(Rule::NoRawDiv),
            _ => None,
        }
    }

    /// Whether the construct can abort the thread (drives the cone).
    pub fn can_panic(self) -> bool {
        !matches!(self, SiteKind::LossyCast)
    }

    /// Short display name used in finding excerpts.
    pub fn describe(self) -> &'static str {
        match self {
            SiteKind::Unwrap => "unwrap",
            SiteKind::Expect => "expect",
            SiteKind::PanicMacro => "panic-macro",
            SiteKind::AssertMacro => "assert",
            SiteKind::Index => "indexing",
            SiteKind::RawDiv => "raw-div",
            SiteKind::LossyCast => "lossy-cast",
        }
    }
}

/// One panic-capable site.
pub type Site = callgraph::Site<SiteKind>;

/// The comment keyword that discharges an indexing/division/cast site
/// (the `// SAFETY:` idiom for arithmetic). See
/// [`callgraph::discharge_mask`] for the window semantics.
pub const INVARIANT: &str = "INVARIANT:";

/// Bit width and domain of a primitive numeric type name. `usize`/`isize`
/// count as 64-bit: every supported target is 64-bit, and assuming
/// narrower would hide real truncation on the deploy targets.
fn prim_bits(name: &str) -> Option<(u32, char)> {
    Some(match name {
        "u8" => (8, 'u'),
        "u16" => (16, 'u'),
        "u32" => (32, 'u'),
        "u64" | "usize" => (64, 'u'),
        "i8" => (8, 'i'),
        "i16" => (16, 'i'),
        "i32" => (32, 'i'),
        "i64" | "isize" => (64, 'i'),
        "f32" => (32, 'f'),
        "f64" => (64, 'f'),
        _ => return None,
    })
}

/// Targets the lossy-cast rule watches. Wider targets (`u64`, `usize`,
/// `i64`, `f64`) are excluded: without type inference the ubiquitous
/// `u32 as usize` widening would swamp the rule with false positives,
/// while `usize as u32` — the truncation direction that actually loses
/// node ids — is caught.
fn narrow_target(name: &str) -> bool {
    matches!(name, "u8" | "u16" | "u32" | "i8" | "i16" | "i32" | "f32")
}

/// Parses an integer literal's value (decimal/hex/binary/octal,
/// underscores and type suffixes tolerated).
fn int_literal_value(text: &str) -> Option<u128> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let (radix, digits) = if let Some(h) = t.strip_prefix("0x") {
        (16, h)
    } else if let Some(b) = t.strip_prefix("0b") {
        (2, b)
    } else if let Some(o) = t.strip_prefix("0o") {
        (8, o)
    } else {
        (10, t.as_str())
    };
    let digits: String = digits
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect();
    u128::from_str_radix(&digits, radix).ok()
}

/// Whether an integer of `value` survives a cast to `target` unchanged.
fn literal_fits(value: u128, target: &str) -> bool {
    match target {
        "u8" => value <= u128::from(u8::MAX),
        "u16" => value <= u128::from(u16::MAX),
        "u32" => value <= u128::from(u32::MAX),
        "i8" => value <= 0x7f,
        "i16" => value <= 0x7fff,
        "i32" => value <= 0x7fff_ffff,
        // f32 represents every integer up to 2^24 exactly.
        "f32" => value <= (1 << 24),
        _ => false,
    }
}

/// Whether a cast between *known* primitive type names is lossless:
/// same domain and non-narrowing, or an integer small enough to fit the
/// float target's mantissa exactly (24 bits for f32, 53 for f64).
fn cast_lossless(src: &str, target: &str) -> bool {
    let (Some((sb, sd)), Some((tb, td))) = (prim_bits(src), prim_bits(target)) else {
        return false;
    };
    match (sd, td) {
        ('u', 'u') | ('i', 'i') | ('f', 'f') => sb <= tb,
        ('u', 'i') => sb < tb,
        ('u', 'f') | ('i', 'f') => sb <= if tb == 32 { 16 } else { 32 },
        _ => false,
    }
}

/// Identifiers declared as `f32`/`f64` anywhere in the stream — by
/// `name: f32` annotation (params, fields, locals) or `let name = <float
/// literal>`. File-granular rather than scope-granular: an over-wide but
/// deterministic exemption set for the raw-div rule, sound because float
/// division cannot panic.
fn float_idents<'t>(toks: &[&'t Tok]) -> BTreeSet<&'t str> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == Kind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            let mut j = i + 2;
            while toks
                .get(j)
                .is_some_and(|t| t.is_punct("&") || t.is_ident("mut") || t.kind == Kind::Lifetime)
            {
                j += 1;
            }
            if toks
                .get(j)
                .is_some_and(|t| t.is_ident("f32") || t.is_ident("f64"))
            {
                out.insert(t.text.as_str());
            }
        }
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == Kind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct("="))
                && toks.get(j + 2).is_some_and(|t| t.kind == Kind::Float)
            {
                out.insert(toks[j].text.as_str());
            }
        }
    }
    out
}

/// Scans a (test-masked) token stream for panic-capable sites.
/// `invariant` is the per-raw-line [`INVARIANT`] discharge mask;
/// indexing, division, and cast sites on exempted lines are discharged.
pub fn scan_sites(toks: &[&Tok], invariant: &[bool]) -> Vec<Site> {
    let exempt = |line: usize| invariant.get(line - 1).copied().unwrap_or(false);
    let floats = float_idents(toks);
    let is_float_ident = |t: &Tok| t.kind == Kind::Ident && floats.contains(t.text.as_str());
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| toks[p]);
        let next = toks.get(i + 1);
        match t.kind {
            Kind::Ident => {
                let name = t.text.as_str();
                // `.unwrap()` / `.expect(`.
                if prev.is_some_and(|p| p.is_punct(".")) {
                    if name == "unwrap"
                        && next.is_some_and(|n| n.is_punct("("))
                        && toks.get(i + 2).is_some_and(|n| n.is_punct(")"))
                    {
                        sites.push(Site {
                            kind: SiteKind::Unwrap,
                            line: t.line,
                            tok: i,
                        });
                    } else if name == "expect" && next.is_some_and(|n| n.is_punct("(")) {
                        sites.push(Site {
                            kind: SiteKind::Expect,
                            line: t.line,
                            tok: i,
                        });
                    }
                }
                // Panic/assert macros.
                if next.is_some_and(|n| n.is_punct("!"))
                    && toks
                        .get(i + 2)
                        .is_some_and(|n| n.is_punct("(") || n.is_punct("["))
                {
                    match name {
                        "panic" | "todo" | "unimplemented" | "unreachable" => {
                            sites.push(Site {
                                kind: SiteKind::PanicMacro,
                                line: t.line,
                                tok: i,
                            });
                        }
                        "assert" | "assert_eq" | "assert_ne" => {
                            sites.push(Site {
                                kind: SiteKind::AssertMacro,
                                line: t.line,
                                tok: i,
                            });
                        }
                        _ => {}
                    }
                }
                // `<expr> as <narrow>` casts.
                if name == "as" && !exempt(t.line) {
                    if let Some(n) = next {
                        if n.kind == Kind::Ident && narrow_target(&n.text) {
                            let lossless = prev.is_some_and(|p| match p.kind {
                                Kind::Int => int_literal_value(&p.text)
                                    .is_some_and(|v| literal_fits(v, &n.text)),
                                Kind::Float => n.text == "f32",
                                Kind::Ident => {
                                    p.text == "true"
                                        || p.text == "false"
                                        || cast_lossless(&p.text, &n.text)
                                }
                                _ => false,
                            });
                            if !lossless {
                                sites.push(Site {
                                    kind: SiteKind::LossyCast,
                                    line: t.line,
                                    tok: i,
                                });
                            }
                        }
                    }
                }
            }
            Kind::Punct if t.text == "[" => {
                // Indexing: `[` directly after a value expression.
                let indexing = prev.is_some_and(|p| {
                    (p.kind == Kind::Ident && !is_keyword(&p.text))
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                if indexing && !exempt(t.line) {
                    sites.push(Site {
                        kind: SiteKind::Index,
                        line: t.line,
                        tok: i,
                    });
                }
            }
            Kind::Punct if t.text == "/" || t.text == "%" => {
                if exempt(t.line) {
                    continue;
                }
                // The previous token must end a value expression.
                let value_before = prev.is_some_and(|p| {
                    matches!(p.kind, Kind::Int | Kind::Float)
                        || (p.kind == Kind::Ident && !is_keyword(&p.text))
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                if !value_before {
                    continue;
                }
                // Float arithmetic cannot panic.
                if prev.is_some_and(|p| p.kind == Kind::Float || is_float_ident(p)) {
                    continue;
                }
                match next {
                    Some(n) if n.kind == Kind::Float => {}
                    Some(n) if is_float_ident(n) => {}
                    Some(n) if n.kind == Kind::Int => {
                        // A nonzero literal divisor cannot panic; `/ 0`
                        // is an unconditional panic and always flagged.
                        if int_literal_value(&n.text) == Some(0) {
                            sites.push(Site {
                                kind: SiteKind::RawDiv,
                                line: t.line,
                                tok: i,
                            });
                        }
                    }
                    _ => {
                        // Non-literal divisor: exempt clear float context
                        // (a float literal or f32/f64 on the same line,
                        // e.g. `sum / count as f32`).
                        let lo = i.saturating_sub(6);
                        let hi = (i + 7).min(toks.len());
                        let floatish = toks[lo..hi].iter().any(|w| {
                            w.line == t.line
                                && (w.kind == Kind::Float
                                    || (w.kind == Kind::Ident
                                        && matches!(w.text.as_str(), "f32" | "f64")))
                        });
                        if !floatish {
                            sites.push(Site {
                                kind: SiteKind::RawDiv,
                                line: t.line,
                                tok: i,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
    sites
}

/// The serving path's designated roots: engine submission and retrieval,
/// the dialogue turn path, the in-memory and the paged search of a built
/// index, and both cache lookup surfaces.
pub const ENTRY_POINTS: [EntryPoint; 11] = [
    EntryPoint {
        owner: EntryOwner::Named("QueryEngine"),
        name: "submit",
    },
    EntryPoint {
        owner: EntryOwner::Named("QueryEngine"),
        name: "submit_with_deadline",
    },
    EntryPoint {
        owner: EntryOwner::Named("QueryEngine"),
        name: "retrieve",
    },
    EntryPoint {
        owner: EntryOwner::Named("QueryEngine"),
        name: "retrieve_batch",
    },
    EntryPoint {
        owner: EntryOwner::Named("DialogueSession"),
        name: "ask",
    },
    EntryPoint {
        owner: EntryOwner::Named("MqaSystem"),
        name: "ask_once",
    },
    EntryPoint {
        owner: EntryOwner::Named("BuiltGraph"),
        name: "search",
    },
    EntryPoint {
        owner: EntryOwner::Named("PagedIndex"),
        name: "search_paged_into",
    },
    EntryPoint {
        owner: EntryOwner::Named("PageCache"),
        name: "probe",
    },
    EntryPoint {
        owner: EntryOwner::Named("ResultCache"),
        name: "get",
    },
    EntryPoint {
        owner: EntryOwner::Named("ResultCache"),
        name: "insert",
    },
];

/// The panic-freedom instance of the shared reachability analysis.
/// Experiment binaries abort by design; they are not serving code.
const GATE: ConeGate<SiteKind> = ConeGate {
    rule: Rule::ReachablePanic,
    entry_points: &ENTRY_POINTS,
    discharge: INVARIANT,
    skip_file: |rel| rel.contains("/src/bin/"),
    scan: scan_sites,
    describe: SiteKind::describe,
    in_cone: SiteKind::can_panic,
};

/// Computes the panic cone of the workspace, before baseline waivers.
pub fn analyze(ws: &Workspace) -> ConeAnalysis {
    analyze_cone(ws, &GATE)
}

/// Runs the panic-freedom analysis, applying `baseline` waivers (default
/// file: `flow-baseline.toml`).
pub fn run(ws: &Workspace, baseline: &Baseline) -> Outcome<ConeStats> {
    let a = analyze(ws);
    apply_baseline(a.findings, ws.files.len(), a.stats, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn sites_of(src: &str) -> Vec<(SiteKind, usize)> {
        let file = SourceFile::new("f.rs", src);
        let invariant = callgraph::discharge_mask(src, INVARIANT);
        scan_sites(&file.code(), &invariant)
            .into_iter()
            .map(|s| (s.kind, s.line))
            .collect()
    }

    #[test]
    fn index_sites_fire_on_expressions_not_patterns_or_types() {
        let src = "\
fn f(v: &[u32], i: usize) -> u32 {
    let [a, b] = [1u32, 2];
    let t: [u32; 2] = [a, b];
    let x = v[i];
    x + t[0] + helper(v)[1]
}
";
        assert_eq!(
            sites_of(src),
            vec![
                (SiteKind::Index, 4),
                (SiteKind::Index, 5),
                (SiteKind::Index, 5)
            ]
        );
    }

    #[test]
    fn invariant_comment_discharges_nearby_sites_only() {
        let src = "\
fn f(v: &[u32], i: usize, n: usize) -> u32 {
    // INVARIANT: i was range-checked by the caller's validate() above.
    let x = v[i];
    let a = x + 1;
    let b = a + 1;
    b % n
}
";
        assert_eq!(sites_of(src), vec![(SiteKind::RawDiv, 6)]);
    }

    #[test]
    fn raw_div_exempts_literal_and_float_divisors() {
        let src = "\
fn f(a: usize, b: usize, w: f32, s: f32) -> f32 {
    let q = a / 8;
    let r = a % b;
    let z = a / 0;
    w / s
}
";
        assert_eq!(
            sites_of(src),
            vec![(SiteKind::RawDiv, 3), (SiteKind::RawDiv, 4)]
        );
    }

    #[test]
    fn lossy_cast_catches_narrowing_not_widening() {
        let src = "\
fn f(n: usize, v: f64) -> u32 {
    let id = n as u32;
    let w = n as u8 as u32;
    let t = v as f32;
    let k = 255 as u8;
    let big = id as u64;
    id
}
";
        assert_eq!(
            sites_of(src),
            vec![
                (SiteKind::LossyCast, 2),
                (SiteKind::LossyCast, 3),
                (SiteKind::LossyCast, 4)
            ]
        );
    }

    #[test]
    fn unwrap_expect_and_macros_are_sites() {
        let src = "\
fn f(o: Option<u32>) -> u32 {
    assert!(o.is_some());
    let v = o.unwrap();
    let w = o.expect(\"present\");
    if v > w { panic!(\"nope\") }
    v
}
";
        let kinds: Vec<SiteKind> = sites_of(src).into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            kinds,
            vec![
                SiteKind::AssertMacro,
                SiteKind::Unwrap,
                SiteKind::Expect,
                SiteKind::PanicMacro
            ]
        );
    }

    #[test]
    fn debug_assert_is_not_a_site() {
        let src = "fn f(x: u32) { debug_assert!(x > 0); debug_assert_eq!(x, x); }";
        assert!(sites_of(src).is_empty());
    }

    fn analyze(files: &[(&str, &str)]) -> ConeAnalysis {
        super::analyze(&Workspace::from_sources(files))
    }

    const ENGINE_LIKE: &str = "\
pub struct QueryEngine { pool: Pool }
impl QueryEngine {
    pub fn submit(&self) -> u32 {
        self.pool.dispatch()
    }
}
pub struct Pool;
impl Pool {
    pub fn dispatch(&self) -> u32 {
        risky_helper(3)
    }
}
fn risky_helper(x: u32) -> u32 {
    let v = vec![1, 2, 3];
    v.get(0).copied().unwrap()
}
fn unreached_helper() -> u32 {
    let v: Option<u32> = None;
    v.unwrap()
}
";

    #[test]
    fn reachable_unwrap_is_found_and_unreachable_is_not() {
        let a = analyze(&[("x/src/engine.rs", ENGINE_LIKE)]);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        let f = &a.findings[0];
        assert_eq!(f.line, 15);
        assert_eq!(f.rule, Rule::ReachablePanic);
        assert!(f.excerpt.contains("risky_helper"), "{}", f.excerpt);
        assert!(f.excerpt.contains("QueryEngine::submit"), "{}", f.excerpt);
        assert!(a.stats.entry_fns >= 1);
        assert!(a.stats.reachable_fns >= 3);
    }

    #[test]
    fn trait_dispatch_reaches_every_impl() {
        let src = "\
pub struct QueryEngine { framework: Arc<dyn Framework> }
pub trait Framework {
    fn search(&self, k: usize) -> u32;
}
impl QueryEngine {
    pub fn submit(&self, k: usize) -> u32 {
        self.framework.search(k)
    }
}
struct A;
impl Framework for A {
    fn search(&self, k: usize) -> u32 {
        let v = vec![0u32];
        v[k]
    }
}
";
        let a = analyze(&[("x/src/t.rs", src)]);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        assert_eq!(a.findings[0].line, 14);
        assert!(a.findings[0].excerpt.contains("indexing"));
    }

    #[test]
    fn cross_file_calls_resolve() {
        let caller = "\
pub struct DialogueSession;
impl DialogueSession {
    pub fn ask(&self) -> u32 {
        crate::deep::lookup(7)
    }
}
";
        let callee = "\
pub fn lookup(i: usize) -> u32 {
    TABLE[i]
}
static TABLE: [u32; 4] = [0, 1, 2, 3];
";
        let a = analyze(&[("x/src/sess.rs", caller), ("x/src/deep.rs", callee)]);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        assert_eq!(a.findings[0].file, "x/src/deep.rs");
        assert_eq!(a.findings[0].line, 2);
    }

    #[test]
    fn test_code_and_bins_are_exempt() {
        let masked = format!("#[cfg(test)]\nmod tests {{\n{ENGINE_LIKE}\n}}\n");
        let a = analyze(&[("x/src/engine.rs", &masked)]);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
        let b = analyze(&[("x/src/bin/exp.rs", ENGINE_LIKE)]);
        assert!(b.findings.is_empty(), "findings: {:?}", b.findings);
    }

    #[test]
    fn arity_disambiguates_method_fallback() {
        // Two `lookup` methods with different arity: the 1-arg call on an
        // untyped receiver must not pull in the 2-arg impl's panic site.
        let src = "\
pub struct ResultCache;
impl ResultCache {
    pub fn get(&self, k: u64) -> u32 {
        helper().lookup(k)
    }
}
struct Clean;
impl Clean {
    fn lookup(&self, _k: u64) -> u32 { 0 }
}
struct Dirty;
impl Dirty {
    fn lookup(&self, _k: u64, _extra: u64) -> u32 {
        panic!(\"two-arg\")
    }
}
fn helper() -> Clean { Clean }
";
        let a = analyze(&[("x/src/c.rs", src)]);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }

    #[test]
    fn a_closure_argument_counts_once_whatever_its_parameters() {
        // `|k, ef|` is one argument: the call must still resolve to the
        // 2-parameter method (it read as arity 3 and resolved to nothing,
        // leaving the callee outside the cone).
        let src = "\
pub struct ResultCache;
impl ResultCache {
    pub fn get(&self, k: usize) -> u32 {
        helper().retry(k, move |k, ef| k + ef)
    }
}
struct Tomb;
impl Tomb {
    fn retry(&self, k: usize, mut walk: impl FnMut(usize, usize) -> usize) -> u32 {
        let v = vec![0u32];
        v[walk(k, k)]
    }
}
fn helper() -> Tomb { Tomb }
";
        let a = analyze(&[("x/src/c.rs", src)]);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        assert_eq!(a.findings[0].line, 11);
    }

    #[test]
    fn typed_local_receiver_resolves_precisely() {
        let src = "\
pub struct PageCache;
impl PageCache {
    pub fn probe(&self) -> u32 {
        let shard = Shard::new();
        shard.touch()
    }
}
struct Shard;
impl Shard {
    fn new() -> Shard { Shard }
    fn touch(&self) -> u32 { 1 }
}
struct Other;
impl Other {
    fn touch(&self) -> u32 {
        panic!(\"wrong receiver\")
    }
}
";
        let a = analyze(&[("x/src/p.rs", src)]);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }

    #[test]
    fn self_field_type_resolves_method() {
        let src = "\
pub struct QueryEngine { pool: WorkerPool }
impl QueryEngine {
    pub fn submit(&self) -> u32 {
        self.pool.go()
    }
}
pub struct WorkerPool;
impl WorkerPool {
    fn go(&self) -> u32 {
        unimplemented!()
    }
}
";
        let a = analyze(&[("x/src/e.rs", src)]);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        assert!(a.findings[0].excerpt.contains("panic-macro"));
    }

    #[test]
    fn lossy_casts_are_inventoried_but_not_cone_findings() {
        let src = "\
pub struct PageCache;
impl PageCache {
    pub fn probe(&self, n: usize) -> u32 {
        n as u32
    }
}
";
        let a = analyze(&[("x/src/p.rs", src)]);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
        assert_eq!(a.stats.off_cone_sites, 1);
    }
}
