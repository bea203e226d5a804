//! Static concurrency analysis (`mqa-xtask conc`).
//!
//! A token-level pass over the workspace sources (via [`crate::rustlex`])
//! that understands just enough Rust structure to check three properties
//! without a compiler front-end:
//!
//! 1. **No nested acquisition** — no `Mutex` / `RwLock` is acquired
//!    (`.lock()`, `.read()` / `.write()` on a resolved `RwLock`, or a
//!    guard-returning helper like `lock_ignore_poison`) while a tracked
//!    guard is live in the same function ([`Rule::NestedLock`]). The
//!    finding names the lock taken and the lock held, each by its
//!    canonical name (`Struct.field` or `static.NAME`, `?` when the
//!    receiver did not resolve), and the line the held guard was taken
//!    at. The rule is local and stricter than a lock-order check: every
//!    lock-order deadlock needs a thread that takes one lock while holding
//!    another, which is exactly the site this rule reports, and a
//!    self-reacquisition (std mutexes are not reentrant) is one such site.
//! 2. **Condvar predicate loops** — a `wait`-family call that consumes a
//!    live tracked guard must have an enclosing `loop` / `while` / `for`
//!    inside its function, or it is a spurious-wakeup bug
//!    ([`Rule::CondvarNoLoop`]). Wait *wrappers* (functions that receive
//!    the guard as a parameter, like `wait_ignore_poison`) are exempt
//!    automatically: parameters are not tracked acquisitions.
//! 3. **Guards across blocking calls** — a live guard at a blocking call
//!    site (`.join()`, `thread::sleep`, `Ticket::wait`'s empty-arg
//!    `.wait()`, `BoundedQueue::{push,pop}`) stalls every thread needing
//!    that lock ([`Rule::GuardAcrossBlocking`]). A second guard held
//!    across a condvar wait needs no check of its own: one of the two was
//!    taken while the other was live, which rule 1 already reports.
//!
//! Guard tracking is deliberately conservative: a guard binding is only
//! recorded when the acquisition is the *entire* right-hand side of a
//! `let` (`let g = x.lock();`) — optionally followed by a poison-adapter
//! chain (`.unwrap()` / `.expect(…)` / `.unwrap_or_else(…)`), which
//! returns the same guard — so chained temporaries
//! (`x.lock().map_err(…)?`, `x.lock().map(…)`) never produce long-lived
//! phantom guards.
//! Guards die at `drop(g)`, at the closing brace of their scope, and
//! test code (`#[cfg(test)]`) is masked out entirely.
//!
//! Findings reuse the [`crate::baseline`] `Finding`/`Rule` types and the same
//! baseline-waiver machinery (default baseline: `conc-baseline.toml`).

use crate::baseline::{apply_baseline, Baseline, Finding, Outcome, Rule};
use crate::rustlex::{Kind, Tok};
use crate::workspace::{
    matching_paren, owner_map, param_chunks, receiver_path, skip_angles, struct_fields, SourceFile,
    Workspace,
};
use std::collections::{BTreeMap, BTreeSet};

/// What a lock-ish struct field or static is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldKind {
    /// `Mutex<T>`: acquired via `.lock()` or a
    /// guard-returning helper.
    Lock,
    /// `RwLock<T>`: acquired via `.read()` / `.write()`.
    Rw,
    /// `Condvar`.
    Condvar,
    /// `BoundedQueue<T>`: `.push(` / `.pop(` on it blocks.
    Channel,
}

/// The workspace-wide symbol index built by pass 1.
#[derive(Debug, Default)]
struct Index {
    /// `(struct, field)` -> kind, for every lock-ish field.
    fields: BTreeMap<(String, String), FieldKind>,
    /// field name -> structs declaring it (global-unique fallback for
    /// nested receivers like `self.shared.slot`).
    by_field: BTreeMap<String, BTreeSet<String>>,
    /// `static NAME: Mutex<…>` items.
    statics: BTreeMap<String, FieldKind>,
    /// Guard-returning acquisition helpers (first param `&Mutex`-ish,
    /// return type contains `MutexGuard`).
    helpers: BTreeSet<String>,
}

/// The full analysis result, before baseline waivers.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All rule violations, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Every canonical lock name that was acquired somewhere.
    pub lock_names: BTreeSet<String>,
}

/// Condvar-family call names. Deliberately exact (not a `wait*` prefix):
/// scheduler-style wrappers like `wait_for_grant` must not be forced
/// into predicate loops.
const WAIT_NAMES: [&str; 5] = [
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "wait_ignore_poison",
];

fn is_wait_name(name: &str) -> bool {
    WAIT_NAMES.contains(&name)
}

fn classify_type(toks: &[&Tok]) -> Option<FieldKind> {
    let has = |s: &str| toks.iter().any(|t| t.is_ident(s));
    if has("Mutex") {
        Some(FieldKind::Lock)
    } else if has("RwLock") {
        Some(FieldKind::Rw)
    } else if has("Condvar") {
        Some(FieldKind::Condvar)
    } else if has("BoundedQueue") {
        Some(FieldKind::Channel)
    } else {
        None
    }
}

/// Pass 1: structs' lock-ish fields (classified from the shared
/// struct-field walker), statics and guard helpers.
fn index_file(toks: &[&Tok], idx: &mut Index) {
    for f in struct_fields(toks) {
        if let Some(kind) = classify_type(f.ty) {
            idx.fields
                .insert((f.strukt.to_string(), f.name.to_string()), kind);
            idx.by_field
                .entry(f.name.to_string())
                .or_default()
                .insert(f.strukt.to_string());
        }
    }
    for (i, t) in toks.iter().enumerate() {
        // static NAME: Mutex<…> = …;
        if t.is_ident("static") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == Kind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct(":"))
            {
                let name = toks[j].text.clone();
                let ty_start = j + 2;
                let mut k = ty_start;
                while k < toks.len() && !toks[k].is_punct("=") && !toks[k].is_punct(";") {
                    k += 1;
                }
                if let Some(kind) = classify_type(&toks[ty_start..k]) {
                    idx.statics.insert(name, kind);
                }
            }
        }
        // fn name(first: &Mutex<…>, …) -> …Guard…  => acquisition helper.
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) {
            let name = toks[i + 1].text.clone();
            let j = skip_angles(toks, i + 2);
            if toks.get(j).is_some_and(|t| t.is_punct("(")) {
                if let Some(close) = matching_paren(toks, j) {
                    let chunks = param_chunks(&toks[j + 1..close]);
                    let first = chunks.first().copied().unwrap_or_default();
                    let takes_lock = first.iter().any(|t| t.is_ident("Mutex"))
                        && !first.iter().any(|t| t.is_ident("MutexGuard"));
                    if takes_lock && toks.get(close + 1).is_some_and(|t| t.is_punct("->")) {
                        let mut k = close + 2;
                        let mut returns_guard = false;
                        while k < toks.len()
                            && !toks[k].is_punct("{")
                            && !toks[k].is_punct(";")
                            && !toks[k].is_ident("where")
                        {
                            if toks[k].is_ident("MutexGuard") {
                                returns_guard = true;
                            }
                            k += 1;
                        }
                        if returns_guard {
                            idx.helpers.insert(name);
                        }
                    }
                }
            }
        }
    }
}

impl Index {
    /// Resolves a receiver path (`["self", "state"]`, `["PAIRS"]`, …) to
    /// a `(canonical_name, kind)` under the impl context `ctx`.
    fn resolve(&self, path: &[String], ctx: Option<&str>) -> Option<(String, FieldKind)> {
        match path {
            [] => None,
            [single] => self
                .statics
                .get(single)
                .map(|&k| (format!("static.{single}"), k)),
            _ => {
                let field = path.last()?;
                let strukt = if path.len() == 2 && path[0] == "self" {
                    let c = ctx?;
                    if self.fields.contains_key(&(c.to_string(), field.clone())) {
                        Some(c.to_string())
                    } else {
                        None
                    }
                } else {
                    None
                };
                let strukt = strukt.or_else(|| {
                    let owners = self.by_field.get(field)?;
                    if owners.len() == 1 {
                        owners.iter().next().cloned()
                    } else {
                        None
                    }
                })?;
                let kind = *self.fields.get(&(strukt.clone(), field.clone()))?;
                Some((format!("{strukt}.{field}"), kind))
            }
        }
    }
}

/// A tracked live guard.
#[derive(Debug, Clone)]
struct GuardVar {
    var: String,
    /// Canonical lock name, when the receiver resolved.
    lock: Option<String>,
    line: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Fn,
    Loop,
    Plain,
}

struct Scope {
    kind: ScopeKind,
    guards: Vec<GuardVar>,
}

/// The `&`-stripped path of a helper call's first argument:
/// `lock_ignore_poison(&self.inner)` -> `["self", "inner"]`.
fn arg_path(args: &[&Tok]) -> Vec<String> {
    let mut i = 0;
    while args
        .get(i)
        .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
    {
        i += 1;
    }
    let mut segs = Vec::new();
    while i < args.len() {
        let t = args[i];
        if t.kind == Kind::Ident {
            segs.push(t.text.clone());
            i += 1;
            if args
                .get(i)
                .is_some_and(|t| t.is_punct(".") || t.is_punct("::"))
            {
                i += 1;
                continue;
            }
            if i < args.len() && !args[i].is_punct(",") {
                // Trailing tokens mean the arg is a bigger expression.
                return Vec::new();
            }
            break;
        }
        return Vec::new();
    }
    segs
}

/// Pass 2 over one file: track scopes + guards and report per-site
/// findings.
fn analyze_file(
    ctx: &SourceFile,
    toks: &[&Tok],
    owners: &[Option<String>],
    idx: &Index,
    out: &mut Analysis,
) {
    let mut scopes: Vec<Scope> = vec![Scope {
        kind: ScopeKind::Plain,
        guards: Vec::new(),
    }];
    let mut pending_fn = false;
    let mut pending_loop = false;
    let mut pending_let: Option<String> = None;

    let live_guards = |scopes: &[Scope]| -> Vec<GuardVar> {
        scopes
            .iter()
            .flat_map(|s| s.guards.iter().cloned())
            .collect()
    };

    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        if t.is_punct("{") {
            let kind = if pending_fn {
                ScopeKind::Fn
            } else if pending_loop {
                ScopeKind::Loop
            } else {
                ScopeKind::Plain
            };
            pending_fn = false;
            pending_loop = false;
            scopes.push(Scope {
                kind,
                guards: Vec::new(),
            });
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            if scopes.len() > 1 {
                scopes.pop();
            }
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            pending_let = None;
            pending_fn = false;
            pending_loop = false;
            i += 1;
            continue;
        }
        if t.kind == Kind::Ident {
            match t.text.as_str() {
                "fn" => pending_fn = true,
                "loop" | "while" | "for" => pending_loop = true,
                "let" => {
                    let mut j = i + 1;
                    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    if toks.get(j).is_some_and(|t| t.kind == Kind::Ident) {
                        pending_let = Some(toks[j].text.clone());
                    } else {
                        pending_let = None;
                    }
                }
                "drop"
                    if toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                        && toks.get(i + 2).is_some_and(|t| t.kind == Kind::Ident)
                        && toks.get(i + 3).is_some_and(|t| t.is_punct(")")) =>
                {
                    let var = &toks[i + 2].text;
                    for scope in scopes.iter_mut().rev() {
                        if let Some(pos) = scope.guards.iter().rposition(|g| &g.var == var) {
                            scope.guards.remove(pos);
                            break;
                        }
                    }
                    i += 4;
                    continue;
                }
                _ => {}
            }
            // Call sites: `name(` — method when preceded by `.`.
            if toks.get(i + 1).is_some_and(|t| t.is_punct("(")) && !t.is_ident("fn") {
                let prev_is_dot = i > 0 && toks[i - 1].is_punct(".");
                let prev_is_fn = i > 0 && toks[i - 1].is_ident("fn");
                if !prev_is_fn {
                    let close = matching_paren(toks, i + 1);
                    if let Some(close) = close {
                        let args = &toks[i + 2..close];
                        let name = t.text.as_str();
                        let line = t.line;
                        let ictx = owners.get(i).cloned().flatten();

                        let live = live_guards(&scopes);
                        let takes_guard = args
                            .iter()
                            .any(|a| a.kind == Kind::Ident && live.iter().any(|g| g.var == a.text));

                        // `Some(lock)` at an acquisition; `lock` is its
                        // canonical name when the receiver resolved.
                        let mut acquisition: Option<Option<String>> = None;
                        let mut blocking: Option<&str> = None;
                        let mut wait_site = false;

                        if prev_is_dot {
                            let recv = receiver_path(toks, i - 1);
                            let resolved = idx.resolve(&recv, ictx.as_deref());
                            match name {
                                "lock" if args.is_empty() => {
                                    acquisition = Some(resolved.map(|(n, _)| n));
                                }
                                "read" | "write" if args.is_empty() => {
                                    if let Some((n, FieldKind::Rw)) = resolved {
                                        acquisition = Some(Some(n));
                                    }
                                }
                                "join" if args.is_empty() => blocking = Some("join()"),
                                "wait" if args.is_empty() => blocking = Some("Ticket::wait()"),
                                "push" | "pop" => {
                                    if let Some((_, FieldKind::Channel)) = resolved {
                                        blocking = Some("BoundedQueue push/pop");
                                    }
                                }
                                _ if is_wait_name(name) && takes_guard => wait_site = true,
                                _ => {}
                            }
                        } else if idx.helpers.contains(name) {
                            let resolved = idx.resolve(&arg_path(args), ictx.as_deref());
                            acquisition = Some(resolved.map(|(n, _)| n));
                        } else if name == "sleep" {
                            blocking = Some("sleep()");
                        } else if is_wait_name(name) && takes_guard {
                            wait_site = true;
                        }

                        if let Some(lock) = acquisition {
                            if let Some(n) = &lock {
                                out.lock_names.insert(n.clone());
                            }
                            // Rule: nothing is acquired while a guard is
                            // live.
                            for g in &live {
                                out.findings.push(Finding {
                                    file: ctx.rel.clone(),
                                    line,
                                    rule: Rule::NestedLock,
                                    excerpt: format!(
                                        "{} [acquires `{}` while holding `{}` from line {}]",
                                        ctx.excerpt(line),
                                        lock.as_deref().unwrap_or("?"),
                                        g.lock.as_deref().unwrap_or("?"),
                                        g.line
                                    ),
                                });
                            }
                            // Bind when the acquisition is the whole RHS of
                            // a `let`, modulo a trailing poison-adapter
                            // chain (`.unwrap()` / `.expect(…)` /
                            // `.unwrap_or_else(…)`): those return the same
                            // guard, so `let g = m.lock().unwrap_or_else(…);`
                            // is a real long-lived acquisition, not a
                            // dropped temporary.
                            let mut end = close;
                            while toks.get(end + 1).is_some_and(|t| t.is_punct("."))
                                && toks.get(end + 2).is_some_and(|t| {
                                    t.is_ident("unwrap")
                                        || t.is_ident("expect")
                                        || t.is_ident("unwrap_or_else")
                                })
                                && toks.get(end + 3).is_some_and(|t| t.is_punct("("))
                            {
                                match matching_paren(toks, end + 3) {
                                    Some(c2) => end = c2,
                                    None => break,
                                }
                            }
                            let ends_stmt = toks.get(end + 1).is_some_and(|t| t.is_punct(";"));
                            if ends_stmt {
                                if let Some(var) = pending_let.take() {
                                    if let Some(scope) = scopes.last_mut() {
                                        scope.guards.push(GuardVar { var, lock, line });
                                    }
                                }
                            }
                            i = close + 1;
                            continue;
                        }

                        if wait_site {
                            // Rule: the wait must sit inside a loop within
                            // its function.
                            let mut in_loop = false;
                            for scope in scopes.iter().rev() {
                                if scope.kind == ScopeKind::Fn {
                                    break;
                                }
                                if scope.kind == ScopeKind::Loop {
                                    in_loop = true;
                                    break;
                                }
                            }
                            if !in_loop {
                                out.findings.push(Finding {
                                    file: ctx.rel.clone(),
                                    line,
                                    rule: Rule::CondvarNoLoop,
                                    excerpt: ctx.excerpt(line),
                                });
                            }
                        } else if let Some(what) = blocking {
                            for g in &live {
                                out.findings.push(Finding {
                                    file: ctx.rel.clone(),
                                    line,
                                    rule: Rule::GuardAcrossBlocking,
                                    excerpt: format!(
                                        "{} [guard `{}` from line {} held across blocking {}]",
                                        ctx.excerpt(line),
                                        g.var,
                                        g.line,
                                        what
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Runs the analysis over the workspace. The gate and the unit tests both
/// enter here.
pub fn analyze(ws: &Workspace) -> Analysis {
    let files: Vec<(&SourceFile, Vec<&Tok>)> = ws.files.iter().map(|f| (f, f.code())).collect();
    // Pass 1: the index needs every file before pass 2 can resolve
    // cross-file receivers.
    let mut idx = Index::default();
    for (_, toks) in &files {
        index_file(toks, &mut idx);
    }

    let mut out = Analysis::default();

    // Pass 2.
    for (file, toks) in &files {
        let owners = owner_map(toks).0;
        analyze_file(file, toks, &owners, &idx, &mut out);
    }

    out.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    out
}

/// Runs the static concurrency analysis, applying `baseline` waivers
/// (default file: `conc-baseline.toml`). The outcome's `stats` is the
/// [`Analysis`] minus its findings: the lock-name inventory.
pub fn run(ws: &Workspace, baseline: &Baseline) -> Outcome<Analysis> {
    let mut analysis = analyze(ws);
    let all = std::mem::take(&mut analysis.findings);
    apply_baseline(all, ws.files.len(), analysis, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, src: &str) -> Analysis {
        analyze(&Workspace::from_sources(&[(rel, src)]))
    }

    const AB_BA: &str = r#"
use std::sync::Mutex;
struct Pair { alpha: Mutex<u32>, beta: Mutex<u32> }
impl Pair {
    fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop(b);
        drop(a);
    }
    fn ba(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        drop(a);
        drop(b);
    }
}
"#;

    #[test]
    fn ab_ba_inversion_reports_both_nested_acquisitions() {
        let a = one("x/src/pair.rs", AB_BA);
        let nested: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::NestedLock)
            .collect();
        assert_eq!(nested.len(), 2, "findings: {:?}", a.findings);
        assert_eq!(nested[0].line, 7);
        assert_eq!(nested[1].line, 13);
    }

    /// A nesting in one consistent order cannot deadlock by lock order
    /// alone, but it is still a lock taken while another is held: the
    /// rule is per site and needs no second function to fire.
    #[test]
    fn consistent_nesting_is_a_finding() {
        let src = r#"
use std::sync::Mutex;
struct Pair { alpha: Mutex<u32>, beta: Mutex<u32> }
impl Pair {
    fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop(b);
        drop(a);
    }
}
"#;
        let a = one("x/src/pair.rs", src);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        let f = &a.findings[0];
        assert_eq!((f.rule, f.line), (Rule::NestedLock, 7));
        assert!(
            f.excerpt
                .contains("acquires `Pair.beta` while holding `Pair.alpha` from line 6"),
            "{}",
            f.excerpt
        );
    }

    #[test]
    fn self_reacquire_is_a_nested_lock() {
        let src = r#"
use std::sync::Mutex;
struct S { m: Mutex<u32> }
impl S {
    fn f(&self) {
        let a = self.m.lock();
        let b = self.m.lock();
        drop(b);
        drop(a);
    }
}
"#;
        let a = one("x/src/s.rs", src);
        let nested: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::NestedLock)
            .collect();
        assert_eq!(nested.len(), 1);
        assert_eq!(nested[0].line, 7);
    }

    /// A second guard held across a condvar wait is reported once, where
    /// it was taken while the first was live, and not again at the wait.
    #[test]
    fn second_guard_across_a_condvar_wait_is_one_nested_lock() {
        let src = r#"
use std::sync::{Condvar, Mutex};
struct S { m: Mutex<bool>, n: Mutex<u32>, cv: Condvar }
impl S {
    fn f(&self) {
        let g = self.n.lock();
        let mut h = self.m.lock();
        while !*h {
            h = self.cv.wait(h);
        }
        drop(h);
        drop(g);
    }
}
"#;
        let a = one("x/src/s.rs", src);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        let f = &a.findings[0];
        assert_eq!((f.rule, f.line), (Rule::NestedLock, 7));
        assert!(f.excerpt.contains("`S.m` while holding `S.n` from line 6"));
    }

    #[test]
    fn if_guarded_condvar_wait_fires_and_looped_wait_does_not() {
        let src = r#"
use std::sync::{Condvar, Mutex};
struct S { m: Mutex<bool>, cv: Condvar }
impl S {
    fn bad(&self) {
        let mut g = self.m.lock();
        if !*g {
            g = self.cv.wait(g);
        }
    }
    fn good(&self) {
        let mut g = self.m.lock();
        while !*g {
            g = self.cv.wait(g);
        }
    }
}
"#;
        let a = one("x/src/s.rs", src);
        let waits: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::CondvarNoLoop)
            .collect();
        assert_eq!(waits.len(), 1, "findings: {:?}", a.findings);
        assert_eq!(waits[0].line, 8);
    }

    #[test]
    fn guard_across_join_fires() {
        let src = r#"
use std::sync::Mutex;
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, h: std::thread::JoinHandle<()>) {
        let g = self.m.lock();
        h.join();
        drop(g);
    }
}
"#;
        let a = one("x/src/s.rs", src);
        let hits: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::GuardAcrossBlocking)
            .collect();
        assert_eq!(hits.len(), 1, "findings: {:?}", a.findings);
        assert_eq!(hits[0].line, 7);
        assert!(hits[0].excerpt.contains("`g`"));
    }

    #[test]
    fn guard_dropped_before_join_is_clean() {
        let src = r#"
use std::sync::Mutex;
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, h: std::thread::JoinHandle<()>) {
        { let g = self.m.lock(); drop(g); }
        h.join();
    }
}
"#;
        let a = one("x/src/s.rs", src);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }

    #[test]
    fn poison_adapter_chain_still_tracks_the_guard() {
        // `.lock().unwrap_or_else(…)` returns the same guard, so holding
        // it across a join() must still fire — the chain is not a
        // dropped temporary.
        let src = r#"
use std::sync::Mutex;
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, h: std::thread::JoinHandle<()>) {
        let g = self.m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        h.join();
        drop(g);
    }
}
"#;
        let a = one("x/src/s.rs", src);
        let hits: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::GuardAcrossBlocking)
            .collect();
        assert_eq!(hits.len(), 1, "findings: {:?}", a.findings);
        assert!(hits[0].excerpt.contains("`g`"));
        assert!(a.lock_names.contains("S.m"));
    }

    #[test]
    fn workspace_inventory_covers_live_index_locks() {
        // The online-mutation refactor introduced two locks on the write
        // path: the snapshot cell's publication slot and the unified
        // index's single-writer mutex. Both must be inventoried under
        // their canonical names so the gate watches them — an empty
        // resolution here would mean mutation locking is invisible to
        // the nested-lock rule's excerpts and the census.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = analyze(&crate::workspace::load(&root).expect("workspace sources readable"));
        for name in ["SnapshotCell.slot", "UnifiedIndex.writer"] {
            assert!(
                a.lock_names.contains(name),
                "lock `{name}` missing from inventory: {:?}",
                a.lock_names
            );
        }
    }

    #[test]
    fn chained_temporaries_do_not_become_guards() {
        let src = r#"
use std::sync::Mutex;
struct S { m: Mutex<Vec<u32>> }
impl S {
    fn f(&self, h: std::thread::JoinHandle<()>) {
        let n = self.m.lock().map(|g| g.len());
        h.join();
    }
}
"#;
        let a = one("x/src/s.rs", src);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }

    #[test]
    fn wait_wrapper_taking_guard_param_is_exempt() {
        // `raw` arrives as a parameter, not a tracked acquisition, so the
        // wrapper body needs no loop.
        let src = r#"
use std::sync::{Condvar, MutexGuard};
fn forward<'a, T>(cv: &Condvar, raw: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    wait_ignore_poison(cv, raw)
}
"#;
        let a = one("x/src/w.rs", src);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }

    #[test]
    fn helper_acquisition_resolves_static() {
        let src = r#"
use std::sync::{Mutex, MutexGuard};
static PAIRS: Mutex<Vec<u32>> = Mutex::new(Vec::new());
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
fn f(h: std::thread::JoinHandle<()>) {
    let g = lock_ignore_poison(&PAIRS);
    h.join();
    drop(g);
}
"#;
        let a = one("x/src/s.rs", src);
        let hits: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::GuardAcrossBlocking)
            .collect();
        assert_eq!(hits.len(), 1, "findings: {:?}", a.findings);
        assert!(a.lock_names.contains("static.PAIRS"));
    }

    #[test]
    fn test_code_is_masked() {
        let masked = format!("#[cfg(test)]\nmod tests {{\n{AB_BA}\n}}\n");
        let a = one("x/src/pair.rs", &masked);
        assert!(a.findings.is_empty());
    }

    /// Pass 1 indexes every file before pass 2 runs, so a receiver in one
    /// file resolves to a struct declared in another and the finding names
    /// both locks.
    #[test]
    fn cross_file_receivers_resolve_to_canonical_names() {
        let decl = r#"
use std::sync::Mutex;
pub struct Pair { pub alpha: Mutex<u32>, pub beta: Mutex<u32> }
"#;
        let rev = r#"
fn ba(p: &crate::Pair) {
    let b = p.beta.lock();
    let a = p.alpha.lock();
    drop(a);
    drop(b);
}
"#;
        let a = analyze(&Workspace::from_sources(&[
            ("x/src/decl.rs", decl),
            ("x/src/rev.rs", rev),
        ]));
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        let f = &a.findings[0];
        assert_eq!((f.file.as_str(), f.line), ("x/src/rev.rs", 4));
        assert!(f
            .excerpt
            .contains("acquires `Pair.alpha` while holding `Pair.beta` from line 3"));
    }
}
