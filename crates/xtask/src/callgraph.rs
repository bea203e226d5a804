//! Shared two-pass call-graph machinery for whole-workspace analyses.
//!
//! [`crate::flow`] (panic-freedom) and [`crate::alloc`] (allocation-
//! freedom) are the same analysis shape instantiated with different site
//! scanners: pass 1 inventories every `fn` — impl/trait owner, parameter
//! arity, the calls its body makes, and the analysis-specific *sites*
//! inside it — and pass 2 resolves calls to candidate callees
//! (receiver-typed where a `self` field, typed local, or parameter type
//! is known; name + arity over-approximation otherwise, so `dyn Trait`
//! dispatch reaches every impl) and computes the cone from designated
//! entry points. This module owns all of that, including the one
//! workspace → cone → findings routine ([`analyze_cone`]); an analysis
//! is a [`ConeGate`]: its [`Site`] kinds, scanner, entry points and rule.

use crate::baseline::{Finding, Rule};
use crate::rustlex::{Kind, Tok};
use crate::workspace::{
    matching_paren, owner_map, param_chunks, receiver_path, skip_angles, struct_fields, Workspace,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Rust keywords that can precede `[` without being a value (so slice
/// patterns `let [a, b] = …` and array types/literals are not flagged as
/// indexing) and that never *are* a callee name.
const KEYWORDS: [&str; 35] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "trait", "true", "type",
    "where",
];

/// Whether `s` is a Rust keyword (one of `KEYWORDS`).
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// One analysis-specific site (panic-capable, allocation-capable, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site<K> {
    /// What the construct is (analysis-owned kind enum).
    pub kind: K,
    /// 1-based source line.
    pub line: usize,
    /// Index of the triggering token in the scanned stream (used to
    /// attribute the site to its enclosing function).
    pub tok: usize,
}

/// Per-line mask from the *raw* source: `true` where a `// <keyword>`
/// comment on the same line or up to three lines above discharges a site
/// (the `// SAFETY:` idiom generalized — flow uses `INVARIANT:`, alloc
/// uses `ALLOC:`). A multi-line comment counts as a whole: the lines
/// continuing a discharge comment block are marked too, so the three-line
/// window is measured from the end of the comment, not its first line.
pub fn discharge_mask(source: &str, keyword: &str) -> Vec<bool> {
    let lines: Vec<&str> = source.lines().collect();
    let mut marked = vec![false; lines.len()];
    for i in 0..lines.len() {
        if lines[i].contains(keyword) {
            marked[i] = true;
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim_start().starts_with("//") {
                marked[j] = true;
                j += 1;
            }
        }
    }
    let mut mask = vec![false; lines.len()];
    for (i, slot) in mask.iter_mut().enumerate() {
        let lo = i.saturating_sub(3);
        *slot = marked[lo..=i].iter().any(|&m| m);
    }
    mask
}

// ---------------------------------------------------------------------------
// Pass 1: the function inventory.
// ---------------------------------------------------------------------------

/// One call site inside a function body.
#[derive(Debug, Clone)]
struct Call {
    /// Callee name (last path segment).
    name: String,
    /// `Type::name(…)` qualifier, `Self`, or a lowercase module segment.
    qualifier: Option<String>,
    /// `true` for `recv.name(…)` method syntax.
    method: bool,
    /// Receiver type candidates from typed locals/params.
    recv_hints: Vec<String>,
    /// `["self", "field"]`-style receiver path, for field-type lookup.
    recv_path: Vec<String>,
    /// Argument count (top-level commas + 1).
    args: usize,
}

/// One function in the inventory.
#[derive(Debug)]
struct FnNode<K> {
    /// Impl/trait owner's type name, `None` for free functions.
    owner: Option<String>,
    /// Function name.
    name: String,
    /// Index into the analyzed file list.
    file: usize,
    /// Parameter count excluding `self`.
    arity: usize,
    /// Calls made by the body.
    calls: Vec<Call>,
    /// Analysis sites in the body.
    sites: Vec<Site<K>>,
}

impl<K> FnNode<K> {
    /// `Owner::name` display form.
    fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Capitalized type names in a token slice, in order — the candidates a
/// field/local/param type resolves a method call against.
fn type_names(toks: &[&Tok]) -> Vec<String> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind == Kind::Ident
            && t.text.chars().next().is_some_and(char::is_uppercase)
            && !out.contains(&t.text)
        {
            out.push(t.text.clone());
        }
    }
    out
}

/// Counts top-level commas in a call's argument tokens, skipping
/// turbofish `::<…>` blocks and the parameter lists of closure arguments
/// (`f(a, |x, y| …)` passes two arguments, not three).
fn count_args(args: &[&Tok]) -> usize {
    if args.is_empty() {
        return 0;
    }
    let mut depth = 0i64;
    let mut commas = 0;
    let mut j = 0;
    while j < args.len() {
        let t = args[j];
        if t.is_punct("::") && args.get(j + 1).is_some_and(|n| n.is_punct("<")) {
            // skip_angles works on the tail sub-slice; translate back.
            j += skip_angles(&args[j + 1..], 0) + 1;
            continue;
        }
        // A `|` where an argument starts opens a closure's parameters.
        let starts_arg = j == 0 || args[j - 1].is_punct(",") || args[j - 1].is_ident("move");
        if depth == 0 && starts_arg && t.is_punct("|") {
            let params = args[j + 1..].iter().position(|n| n.is_punct("|"));
            j += params.map_or(1, |len| len + 2);
            continue;
        }
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(",") {
            commas += 1;
        }
        j += 1;
    }
    commas + 1
}

/// The workspace-wide index an analysis builds in pass 1.
#[derive(Debug)]
struct Inventory<K> {
    /// Repo-relative paths of the analyzed files.
    files: Vec<String>,
    /// Every function found, in scan order.
    fns: Vec<FnNode<K>>,
    /// `(struct, field)` -> candidate type names.
    field_types: BTreeMap<(String, String), Vec<String>>,
    /// Trait names (dyn-dispatch widening).
    traits: BTreeSet<String>,
}

impl<K> Inventory<K> {
    /// An empty inventory over the given repo-relative file paths.
    fn new(files: Vec<String>) -> Self {
        Self {
            files,
            fns: Vec::new(),
            field_types: BTreeMap::new(),
            traits: BTreeSet::new(),
        }
    }

    /// Whether a file plausibly hosts module `module` (`deep.rs`,
    /// `deep/…`, or `crates/deep/…`) — used to scope `module::free_fn()`
    /// resolution.
    fn file_matches_module(&self, file: usize, module: &str) -> bool {
        self.files.get(file).is_some_and(|p| {
            p.contains(&format!("/{module}.rs"))
                || p.contains(&format!("/{module}/"))
                || p.contains(&format!("crates/{module}/"))
        })
    }
}

/// Scans one file's (test-masked) tokens into the inventory. `fi` is the
/// file's index; `sites` are the analysis sites pre-scanned from the same
/// token stream, attributed here to their innermost enclosing function.
fn scan_file<K: Copy>(fi: usize, toks: &[&Tok], sites: Vec<Site<K>>, inv: &mut Inventory<K>) {
    for f in struct_fields(toks) {
        let tys = type_names(f.ty);
        if !tys.is_empty() {
            inv.field_types
                .insert((f.strukt.to_string(), f.name.to_string()), tys);
        }
    }
    let (omap, traits) = owner_map(toks);
    inv.traits.extend(traits);

    // (body start tok, body end tok, fn id) spans for site attribution.
    let mut spans: Vec<(usize, usize, usize)> = Vec::new();
    // Open fn stack: (fn id, depth at body open, body start, typed locals).
    type Frame = (usize, i64, usize, BTreeMap<String, Vec<String>>);
    let mut open: Vec<Frame> = Vec::new();
    let mut depth = 0i64;

    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) {
            let name = toks[i + 1].text.clone();
            let j = skip_angles(toks, i + 2);
            if toks.get(j).is_some_and(|t| t.is_punct("(")) {
                if let Some(close) = matching_paren(toks, j) {
                    let params = &toks[j + 1..close];
                    let chunks = param_chunks(params);
                    let is_method = chunks.first().is_some_and(|c| {
                        c.iter().any(|t| t.is_ident("self"))
                            && c.iter().take_while(|t| !t.is_ident("self")).all(|t| {
                                t.is_punct("&") || t.is_ident("mut") || t.kind == Kind::Lifetime
                            })
                    });
                    let arity = chunks.len().saturating_sub(usize::from(is_method));
                    // Typed params seed the body's locals.
                    let mut locals: BTreeMap<String, Vec<String>> = BTreeMap::new();
                    for c in chunks.iter().skip(usize::from(is_method)) {
                        if let Some(colon) = c.iter().position(|t| t.is_punct(":")) {
                            if colon >= 1 && c[colon - 1].kind == Kind::Ident {
                                let tys = type_names(&c[colon + 1..]);
                                if !tys.is_empty() {
                                    locals.insert(c[colon - 1].text.clone(), tys);
                                }
                            }
                        }
                    }
                    // Find the body `{` (or `;` for a bodyless decl),
                    // skipping `[…; N]` array return types whose `;`
                    // would otherwise read as end-of-declaration.
                    let mut k = close + 1;
                    let mut brackets = 0i64;
                    while k < toks.len() {
                        let tk = toks[k];
                        if tk.is_punct("[") {
                            brackets += 1;
                        } else if tk.is_punct("]") {
                            brackets -= 1;
                        } else if brackets == 0 && (tk.is_punct("{") || tk.is_punct(";")) {
                            break;
                        }
                        k += 1;
                    }
                    let id = inv.fns.len();
                    inv.fns.push(FnNode {
                        owner: omap.get(i).cloned().flatten(),
                        name,
                        file: fi,
                        arity,
                        calls: Vec::new(),
                        sites: Vec::new(),
                    });
                    if toks.get(k).is_some_and(|t| t.is_punct("{")) {
                        open.push((id, depth, k + 1, locals));
                        depth += 1;
                    }
                    i = k + 1;
                    continue;
                }
            }
        }
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth -= 1;
            while open.last().is_some_and(|(_, d, _, _)| *d >= depth) {
                if let Some((id, _, start, _)) = open.pop() {
                    spans.push((start, i, id));
                }
            }
            i += 1;
            continue;
        }
        if let Some((fn_id, _, _, locals)) = open.last_mut() {
            // Typed locals: `let x: Type = …` or `let x = Type::…`.
            if t.is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.kind == Kind::Ident) {
                    let var = toks[j].text.clone();
                    let mut tys = Vec::new();
                    if toks.get(j + 1).is_some_and(|t| t.is_punct(":")) {
                        let mut e = j + 2;
                        while e < toks.len() && !toks[e].is_punct("=") && !toks[e].is_punct(";") {
                            e += 1;
                        }
                        tys = type_names(&toks[j + 2..e]);
                    } else if toks.get(j + 1).is_some_and(|t| t.is_punct("="))
                        && toks.get(j + 2).is_some_and(|t| {
                            t.kind == Kind::Ident
                                && t.text.chars().next().is_some_and(char::is_uppercase)
                        })
                        && toks.get(j + 3).is_some_and(|t| t.is_punct("::"))
                    {
                        tys = vec![toks[j + 2].text.clone()];
                    }
                    if !tys.is_empty() {
                        locals.insert(var, tys);
                    }
                }
            }
            // Call sites: `name(…)` / `name::<…>(…)`, not a macro.
            if t.kind == Kind::Ident && !is_keyword(&t.text) {
                let after = if toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct("<"))
                {
                    skip_angles(toks, i + 2)
                } else {
                    i + 1
                };
                let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
                if !is_macro && toks.get(after).is_some_and(|n| n.is_punct("(")) {
                    if let Some(close) = matching_paren(toks, after) {
                        let args = count_args(&toks[after + 1..close]);
                        let prev = i.checked_sub(1).map(|p| toks[p]);
                        let method = prev.is_some_and(|p| p.is_punct("."));
                        let mut qualifier = None;
                        let mut recv_hints = Vec::new();
                        let mut recv_path = Vec::new();
                        if method {
                            recv_path = receiver_path(toks, i - 1);
                            if let [one] = recv_path.as_slice() {
                                if one != "self" {
                                    if let Some(tys) = locals.get(one) {
                                        recv_hints = tys.clone();
                                    }
                                }
                            }
                        } else if prev.is_some_and(|p| p.is_punct("::")) && i >= 2 {
                            let q = toks[i - 2];
                            if q.kind == Kind::Ident {
                                qualifier = Some(q.text.clone());
                            }
                        }
                        inv.fns[*fn_id].calls.push(Call {
                            name: t.text.clone(),
                            qualifier,
                            method,
                            recv_hints,
                            recv_path,
                            args,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    while let Some((id, _, start, _)) = open.pop() {
        spans.push((start, toks.len(), id));
    }

    // Attribute sites to the innermost enclosing function. Sites outside
    // any body (consts, statics) have no serving caller and stay out of
    // the cone; flow's per-file pass still reports them.
    for s in sites {
        let hit = spans
            .iter()
            .filter(|&&(start, end, _)| start <= s.tok && s.tok < end)
            .min_by_key(|&&(start, end, _)| end - start);
        if let Some(&(_, _, id)) = hit {
            inv.fns[id].sites.push(s);
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 2: resolution + reachability.
// ---------------------------------------------------------------------------

/// What owner shape an entry point requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryOwner {
    /// The method on one named impl owner.
    Named(&'static str),
    /// A free function (no impl owner), e.g. `mmr_diversify`.
    Free,
}

/// An analysis entry-point matcher.
#[derive(Debug, Clone, Copy)]
pub struct EntryPoint {
    /// Required owner shape.
    pub owner: EntryOwner,
    /// Function name.
    pub name: &'static str,
}

impl EntryPoint {
    /// Whether `f` matches this entry point.
    fn matches<K>(&self, f: &FnNode<K>) -> bool {
        f.name == self.name
            && match self.owner {
                EntryOwner::Named(o) => f.owner.as_deref() == Some(o),
                EntryOwner::Free => f.owner.is_none(),
            }
    }
}

struct Resolver<'a, K> {
    inv: &'a Inventory<K>,
    by_owner_name: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    methods_by_name: BTreeMap<&'a str, Vec<usize>>,
    free_by_name: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a, K> Resolver<'a, K> {
    fn new(inv: &'a Inventory<K>) -> Self {
        let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, f) in inv.fns.iter().enumerate() {
            if let Some(owner) = &f.owner {
                by_owner_name
                    .entry((owner.as_str(), f.name.as_str()))
                    .or_default()
                    .push(id);
                methods_by_name.entry(f.name.as_str()).or_default().push(id);
            } else {
                free_by_name.entry(f.name.as_str()).or_default().push(id);
            }
        }
        Self {
            inv,
            by_owner_name,
            methods_by_name,
            free_by_name,
        }
    }

    /// Callees for `Owner::name`. A trait owner means dyn dispatch:
    /// every impl of the method is a candidate alongside the trait's
    /// default body.
    fn owned(&self, owner: &str, name: &str) -> Vec<usize> {
        let direct: Vec<usize> = self
            .by_owner_name
            .get(&(owner, name))
            .cloned()
            .unwrap_or_default();
        if self.inv.traits.contains(owner) {
            let mut all = direct;
            all.extend(self.fallback_methods(name, None));
            all.sort_unstable();
            all.dedup();
            all
        } else {
            direct
        }
    }

    fn fallback_methods(&self, name: &str, arity: Option<usize>) -> Vec<usize> {
        self.methods_by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| arity.is_none_or(|a| self.inv.fns[id].arity == a))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Candidate callee ids for `call` made from `caller`.
    fn resolve(&self, call: &Call, caller: &FnNode<K>) -> Vec<usize> {
        if call.method {
            if call.recv_path.first().map(String::as_str) == Some("self") {
                if let Some(owner) = &caller.owner {
                    // `self.m(…)` or `self.field.m(…)` with a known
                    // field type.
                    let mut hit: Vec<usize> = match call.recv_path.len() {
                        1 => self.owned(owner, &call.name),
                        2 => self
                            .inv
                            .field_types
                            .get(&(owner.clone(), call.recv_path[1].clone()))
                            .into_iter()
                            .flatten()
                            .flat_map(|t| self.owned(t, &call.name))
                            .collect(),
                        _ => Vec::new(),
                    };
                    if !hit.is_empty() {
                        hit.sort_unstable();
                        hit.dedup();
                        return hit;
                    }
                }
            }
            if !call.recv_hints.is_empty() {
                let mut hit: Vec<usize> = call
                    .recv_hints
                    .iter()
                    .flat_map(|t| self.owned(t, &call.name))
                    .collect();
                if !hit.is_empty() {
                    hit.sort_unstable();
                    hit.dedup();
                    return hit;
                }
            }
            // Unknown receiver: every same-name, same-arity method.
            return self.fallback_methods(&call.name, Some(call.args));
        }
        match call.qualifier.as_deref() {
            Some("Self") | Some("self") => caller
                .owner
                .as_deref()
                .map(|o| self.owned(o, &call.name))
                .unwrap_or_default(),
            Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                self.owned(q, &call.name)
            }
            Some(q) => {
                // Module-qualified free call: prefer fns whose file
                // matches the module segment, fall back to all.
                let all = self
                    .free_by_name
                    .get(call.name.as_str())
                    .cloned()
                    .unwrap_or_default();
                let module = q.strip_prefix("mqa_").unwrap_or(q);
                let scoped: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&id| self.inv.file_matches_module(self.inv.fns[id].file, module))
                    .collect();
                if scoped.is_empty() {
                    all
                } else {
                    scoped
                }
            }
            None => self
                .free_by_name
                .get(call.name.as_str())
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| self.inv.fns[id].arity == call.args)
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

/// The resolved call graph with reachability from an entry-point set.
#[derive(Debug)]
struct Cone {
    /// Total resolved edge count.
    edges: usize,
    /// Entry-point function ids.
    entries: Vec<usize>,
    /// Per-function reachability from the entry set.
    reached: Vec<bool>,
    /// BFS parent pointers (for sample call-chain excerpts).
    parent: Vec<Option<usize>>,
}

impl Cone {
    /// A sample entry-to-`id` call chain, `a -> b -> c`, capped at six
    /// hops.
    fn path_to<K>(&self, inv: &Inventory<K>, mut id: usize) -> String {
        let mut names = vec![inv.fns[id].display()];
        let mut hops = 0;
        while let Some(p) = self.parent[id] {
            names.push(inv.fns[p].display());
            id = p;
            hops += 1;
            if hops >= 6 {
                names.push("…".to_string());
                break;
            }
        }
        names.reverse();
        names.join(" -> ")
    }

    /// Reachable function count.
    fn reachable_fns(&self) -> usize {
        self.reached.iter().filter(|&&r| r).count()
    }
}

/// Resolves every call in the inventory and BFSes from the functions
/// matching `entry_points`.
fn build_cone<K>(inv: &Inventory<K>, entry_points: &[EntryPoint]) -> Cone {
    let resolver = Resolver::new(inv);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); inv.fns.len()];
    let mut edges = 0usize;
    for (id, f) in inv.fns.iter().enumerate() {
        let mut outs = BTreeSet::new();
        for call in &f.calls {
            outs.extend(resolver.resolve(call, f));
        }
        edges += outs.len();
        adj[id] = outs.into_iter().collect();
    }

    let entries: Vec<usize> = inv
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| entry_points.iter().any(|ep| ep.matches(f)))
        .map(|(id, _)| id)
        .collect();

    // BFS with parent pointers for sample paths in excerpts.
    let mut parent: Vec<Option<usize>> = vec![None; inv.fns.len()];
    let mut reached: Vec<bool> = vec![false; inv.fns.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in &entries {
        if !reached[e] {
            reached[e] = true;
            queue.push_back(e);
        }
    }
    while let Some(n) = queue.pop_front() {
        for &m in &adj[n] {
            if !reached[m] {
                reached[m] = true;
                parent[m] = Some(n);
                queue.push_back(m);
            }
        }
    }

    Cone {
        edges,
        entries,
        reached,
        parent,
    }
}

// ---------------------------------------------------------------------------
// The gate: workspace -> inventory -> cone -> findings.
// ---------------------------------------------------------------------------

/// What distinguishes one reachability analysis from another.
pub struct ConeGate<K: 'static> {
    /// The rule a reachable site is reported under.
    pub rule: Rule,
    /// The roots of the cone.
    pub entry_points: &'static [EntryPoint],
    /// Comment keyword that discharges a site in source (see
    /// [`discharge_mask`]).
    pub discharge: &'static str,
    /// The site scanner: non-test tokens + per-line discharge mask.
    pub scan: fn(&[&Tok], &[bool]) -> Vec<Site<K>>,
    /// Short display name of a site kind, for finding excerpts.
    pub describe: fn(K) -> &'static str,
}

/// Aggregate statistics of one analysis run.
#[derive(Debug, Default, Clone)]
pub struct ConeStats {
    /// Functions inventoried.
    pub fns: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Entry-point functions found.
    pub entry_fns: usize,
    /// Functions reachable from an entry point.
    pub reachable_fns: usize,
    /// Sites inventoried workspace-wide (after in-source discharge).
    pub total_sites: usize,
    /// Sites in reachable functions (the cone, pre-waiver).
    pub cone_sites: usize,
}

/// The raw analysis result, before baseline waivers.
#[derive(Debug, Default)]
pub struct ConeAnalysis {
    /// Cone findings, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Run statistics.
    pub stats: ConeStats,
}

/// Whether a file (by repo-relative path) is left out of every cone's
/// inventory: binaries (experiment programs abort and allocate by design),
/// and the gate tooling in `crates/xtask`, which never links into a
/// serving process and whose generically named methods (`get`, `push`,
/// `name`, `parse`) would otherwise alias serving-path calls through the
/// name+arity fallback and drag phantom chains into the cone.
pub fn outside_cone(rel: &str) -> bool {
    rel.contains("/src/bin/") || rel.starts_with("crates/xtask/")
}

/// Runs `gate` over the workspace: scan every file [`outside_cone`]
/// does not exclude into one inventory, build the cone from the gate's entry points, and report
/// each in-cone site of a reachable function with a sample call chain.
pub fn analyze_cone<K: Copy>(ws: &Workspace, gate: &ConeGate<K>) -> ConeAnalysis {
    let mut inv: Inventory<K> = Inventory::new(ws.files.iter().map(|f| f.rel.clone()).collect());
    let mut stats = ConeStats::default();
    for (fi, file) in ws.files.iter().enumerate() {
        if outside_cone(&file.rel) {
            continue;
        }
        let toks = file.code();
        let sites = (gate.scan)(&toks, &discharge_mask(&file.source, gate.discharge));
        stats.total_sites += sites.len();
        scan_file(fi, &toks, sites, &mut inv);
    }

    let cone = build_cone(&inv, gate.entry_points);

    let mut findings = Vec::new();
    for (id, f) in inv.fns.iter().enumerate() {
        if !cone.reached[id] {
            continue;
        }
        let file = &ws.files[f.file];
        for s in &f.sites {
            stats.cone_sites += 1;
            findings.push(Finding {
                file: file.rel.clone(),
                line: s.line,
                rule: gate.rule,
                excerpt: format!(
                    "{} [{} in {}; via {}]",
                    file.excerpt(s.line),
                    (gate.describe)(s.kind),
                    f.display(),
                    cone.path_to(&inv, id)
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    stats.fns = inv.fns.len();
    stats.edges = cone.edges;
    stats.entry_fns = cone.entries.len();
    stats.reachable_fns = cone.reachable_fns();
    ConeAnalysis { findings, stats }
}
