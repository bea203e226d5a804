//! Allocation-freedom analysis (`mqa-xtask alloc`).
//!
//! The same two-pass call-graph shape as [`crate::flow`] (shared
//! machinery in [`crate::callgraph`]), instantiated for *heap
//! allocation*: pass 1 inventories every allocation-capable site in
//! workspace library code, pass 2 computes the allocation cone from the
//! steady-state serving entry points and reports every reachable site
//! with a sample call chain. PR 3 made search allocation-free by
//! construction (epoch-stamped `SearchScratch`); this gate turns that
//! convention into a machine-checked invariant, cross-validated at
//! runtime by the counting allocator of `mqa-graph`'s tier-1 test
//! `tests/alloc_free.rs`, which measures warmed `search_paged_into` calls
//! at zero allocations.
//!
//! **Allocation-capable sites** ([`AllocKind`]):
//! `Vec`/`Box`/`Arc`/`Rc`/`String`/`HashMap`/`BTreeMap`/… constructor
//! calls (`new`/`with_capacity`/`from`/`default`), the `vec![…]` and
//! `format!`-family macros, `.to_string()`/`.to_owned()`/`.to_vec()`,
//! `.collect()`, `.clone()` on a receiver known to own heap storage, and
//! `.insert(…)`/`.entry(…)` on a receiver known to be a map/set. The
//! receiver heuristics are file-granular and deterministic: an identifier
//! (local, param, or struct field) counts as heap-owning when its
//! declared type's *first* capitalized name is a heap container — so
//! `Arc<Vec<T>>` is *not* a heap clone (refcount bump only), while
//! `Vec<T>` is. Unknown receivers are skipped; the runtime witness is
//! the catch-all for what the heuristic cannot see.
//!
//! **Entry points** ([`ALLOC_ENTRY_POINTS`]) are the *steady-state* query
//! path: `BuiltGraph::search`, `PagedIndex::search_paged_into`,
//! `QueryEngine::{submit,
//! submit_with_deadline,retrieve,retrieve_batch}` (whose bodies include
//! the worker-job closure),
//! `PageCache::probe`, `ResultCache::get`, `mmr_diversify`, and the
//! trace record path (`record_stage`/`add_search_work`). Build,
//! mutation, and dialogue-turn paths allocate by design and are out of
//! scope.
//!
//! A site is discharged three ways, strictly ordered by preference:
//! 1. **Fix it** — hoist the allocation out of the per-query path.
//! 2. **`// ALLOC:` comment** — same 3-line window as flow's
//!    `// INVARIANT:`; documents *why* the allocation is init-only,
//!    amortized, or a deliberate per-query transfer of ownership.
//! 3. **Waiver** in `alloc-baseline.toml` — mandatory reason, stale
//!    waivers fail the gate; for sites shared across call sites where a
//!    comment would mislead (e.g. whole encode stages).

use crate::baseline::{apply_baseline, Baseline, Outcome};
use crate::callgraph::{
    analyze_cone, ConeAnalysis, ConeGate, ConeStats, EntryOwner, EntryPoint, Site,
};
use crate::lint::Rule;
use crate::rustlex::{Kind, Tok};
use crate::workspace::{skip_angles, Workspace};
use std::collections::BTreeSet;

/// Heap-container type names whose constructors allocate (or whose
/// values own heap storage, for the clone heuristic).
const HEAP_TYPES: [&str; 11] = [
    "Vec",
    "VecDeque",
    "Box",
    "String",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Arc",
    "Rc",
];

/// The subset of [`HEAP_TYPES`] whose `.clone()` is a refcount bump, not
/// a deep copy — excluded from the clone heuristic.
const RC_TYPES: [&str; 2] = ["Arc", "Rc"];

/// Map/set containers whose `.insert(…)`/`.entry(…)` can allocate.
const MAP_TYPES: [&str; 4] = ["HashMap", "HashSet", "BTreeMap", "BTreeSet"];

/// Constructor names that produce a (potentially) allocating container.
const CTOR_NAMES: [&str; 4] = ["new", "with_capacity", "from", "default"];

/// Macros that build a `String` per call.
const FORMAT_MACROS: [&str; 2] = ["format", "format_args_alloc"];

/// What kind of allocation-capable construct a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// `Vec::new()` / `HashMap::with_capacity(…)` / `Box::new(…)` /
    /// `Arc::new(…)` / `String::from(…)` — any heap-container
    /// constructor.
    Ctor,
    /// The `vec![…]` macro (subsumes the retired `no-visited-alloc`
    /// lint's `vec![false; n]` check).
    VecMacro,
    /// `format!(…)` — a fresh `String` per call.
    FormatMacro,
    /// `.to_string()` / `.to_owned()` / `.to_vec()`.
    ToOwned,
    /// `.clone()` on a receiver known to own heap storage.
    CloneHeap,
    /// `.collect()` — materializes an iterator into a container.
    Collect,
    /// `.insert(…)` / `.entry(…)` on a known map/set receiver.
    MapInsert,
}

impl AllocKind {
    /// Short display name used in finding excerpts.
    pub fn describe(self) -> &'static str {
        match self {
            AllocKind::Ctor => "alloc-ctor",
            AllocKind::VecMacro => "vec-macro",
            AllocKind::FormatMacro => "format",
            AllocKind::ToOwned => "to-owned",
            AllocKind::CloneHeap => "heap-clone",
            AllocKind::Collect => "collect",
            AllocKind::MapInsert => "map-insert",
        }
    }
}

/// One allocation-capable site.
pub type AllocSite = Site<AllocKind>;

/// The comment keyword that discharges an allocation site. See
/// [`crate::callgraph::discharge_mask`] for the window semantics.
pub const ALLOC: &str = "ALLOC:";

/// Identifiers (locals, params, struct fields) whose declared type's
/// first capitalized name is a heap container, split into all-heap and
/// map-typed sets. Also catches `let x = vec![…]` / `let x = Vec::new()`
/// initializer forms. File-granular and deterministic, mirroring flow's
/// `float_idents`.
fn heap_idents<'t>(toks: &[&'t Tok]) -> (BTreeSet<&'t str>, BTreeSet<&'t str>) {
    let mut heap = BTreeSet::new();
    let mut maps = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        // `name: Type` — annotation on a param, field, or local.
        if t.kind == Kind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            let mut j = i + 2;
            while toks
                .get(j)
                .is_some_and(|t| t.is_punct("&") || t.is_ident("mut") || t.kind == Kind::Lifetime)
            {
                j += 1;
            }
            if let Some(ty) = toks.get(j) {
                if ty.kind == Kind::Ident {
                    let name = ty.text.as_str();
                    if HEAP_TYPES.contains(&name) && !RC_TYPES.contains(&name) {
                        heap.insert(t.text.as_str());
                    }
                    if MAP_TYPES.contains(&name) {
                        maps.insert(t.text.as_str());
                    }
                }
            }
        }
        // `let [mut] x = Vec::…` / `let [mut] x = vec![…]`.
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(var) = toks.get(j).filter(|t| t.kind == Kind::Ident) else {
                continue;
            };
            if !toks.get(j + 1).is_some_and(|t| t.is_punct("=")) {
                continue;
            }
            if let Some(init) = toks.get(j + 2) {
                if init.kind == Kind::Ident {
                    let name = init.text.as_str();
                    let qualified = toks.get(j + 3).is_some_and(|t| t.is_punct("::"));
                    let is_vec_macro =
                        name == "vec" && toks.get(j + 3).is_some_and(|t| t.is_punct("!"));
                    if (qualified && HEAP_TYPES.contains(&name) && !RC_TYPES.contains(&name))
                        || is_vec_macro
                    {
                        heap.insert(var.text.as_str());
                    }
                    if qualified && MAP_TYPES.contains(&name) {
                        maps.insert(var.text.as_str());
                    }
                }
            }
        }
    }
    (heap, maps)
}

/// Scans a (test-masked) token stream for allocation-capable sites.
/// `mask` is the per-raw-line [`ALLOC`] discharge mask; sites on exempted
/// lines are discharged.
pub fn scan_alloc_sites(toks: &[&Tok], mask: &[bool]) -> Vec<AllocSite> {
    let exempt = |line: usize| mask.get(line - 1).copied().unwrap_or(false);
    let (heap, maps) = heap_idents(toks);
    let mut sites = Vec::new();
    let mut push = |kind: AllocKind, t: &Tok, i: usize| {
        if !exempt(t.line) {
            sites.push(AllocSite {
                kind,
                line: t.line,
                tok: i,
            });
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let prev = i.checked_sub(1).map(|p| toks[p]);
        let next = toks.get(i + 1);

        // Macros: `vec![…]`, `format!(…)`.
        if next.is_some_and(|n| n.is_punct("!"))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("["))
        {
            if name == "vec" {
                push(AllocKind::VecMacro, t, i);
            } else if FORMAT_MACROS.contains(&name) {
                push(AllocKind::FormatMacro, t, i);
            }
            continue;
        }

        // Qualified constructors: `Vec::new(`, `Vec::<u8>::with_capacity(`,
        // `Box::new(`, `Arc::new(`, `String::from(`, …
        if HEAP_TYPES.contains(&name) && next.is_some_and(|n| n.is_punct("::")) {
            // Step over an optional `::<…>` turbofish.
            let mut j = i + 2;
            if toks.get(j).is_some_and(|n| n.is_punct("<")) {
                j = skip_angles(toks, j);
                if toks.get(j).is_some_and(|n| n.is_punct("::")) {
                    j += 1;
                } else {
                    continue;
                }
            }
            if toks
                .get(j)
                .is_some_and(|n| n.kind == Kind::Ident && CTOR_NAMES.contains(&n.text.as_str()))
                && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
            {
                push(AllocKind::Ctor, t, i);
            }
            continue;
        }

        // Method-syntax sites: `.to_string()`, `.to_owned()`, `.to_vec()`,
        // `.collect()`, `.clone()`, `.insert(`, `.entry(`.
        if !prev.is_some_and(|p| p.is_punct(".")) {
            continue;
        }
        let callish = next.is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
        if !callish {
            continue;
        }
        match name {
            "to_string" | "to_owned" | "to_vec" => push(AllocKind::ToOwned, t, i),
            "collect" => push(AllocKind::Collect, t, i),
            "clone" => {
                // Only when the receiver identifier is known heap-owning
                // (`x.clone()` with `x: Vec<…>`, `self.buf.clone()` with
                // `buf: String`, …).
                let recv = i.checked_sub(2).map(|p| toks[p]);
                if recv.is_some_and(|r| r.kind == Kind::Ident && heap.contains(r.text.as_str())) {
                    push(AllocKind::CloneHeap, t, i);
                }
            }
            "insert" | "entry" => {
                let recv = i.checked_sub(2).map(|p| toks[p]);
                if recv.is_some_and(|r| r.kind == Kind::Ident && maps.contains(r.text.as_str())) {
                    push(AllocKind::MapInsert, t, i);
                }
            }
            _ => {}
        }
    }
    sites
}

/// The steady-state serving path's designated roots. Deliberately
/// *narrower* than flow's panic entry points: submission/retrieval and
/// the search kernel, but not the dialogue/build/mutation paths, which
/// allocate by design.
pub const ALLOC_ENTRY_POINTS: [EntryPoint; 11] = [
    EntryPoint {
        owner: EntryOwner::Named("BuiltGraph"),
        name: "search",
    },
    EntryPoint {
        owner: EntryOwner::Named("PagedIndex"),
        name: "search_paged_into",
    },
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
        owner: EntryOwner::Named("PageCache"),
        name: "probe",
    },
    EntryPoint {
        owner: EntryOwner::Named("ResultCache"),
        name: "get",
    },
    EntryPoint {
        owner: EntryOwner::Free,
        name: "mmr_diversify",
    },
    EntryPoint {
        owner: EntryOwner::Free,
        name: "record_stage",
    },
    EntryPoint {
        owner: EntryOwner::Free,
        name: "add_search_work",
    },
];

/// The allocation-freedom instance of the shared reachability analysis.
/// Experiment binaries allocate freely; they are not serving code. The
/// gate tooling itself never links into a serving process, and its
/// generically named methods (`get`, `push`, `load`, `parse`) otherwise
/// alias serving-path calls through the name+arity fallback, dragging
/// phantom chains into the cone.
const GATE: ConeGate<AllocKind> = ConeGate {
    rule: Rule::ReachableAlloc,
    entry_points: &ALLOC_ENTRY_POINTS,
    discharge: ALLOC,
    skip_file: |rel| rel.contains("/src/bin/") || rel.starts_with("crates/xtask/"),
    scan: scan_alloc_sites,
    describe: AllocKind::describe,
    in_cone: |_| true,
};

/// Computes the allocation cone of the workspace, before baseline waivers.
pub fn analyze(ws: &Workspace) -> ConeAnalysis {
    analyze_cone(ws, &GATE)
}

/// Runs the allocation-freedom analysis, applying `baseline` waivers
/// (default file: `alloc-baseline.toml`).
pub fn run(ws: &Workspace, baseline: &Baseline) -> Outcome<ConeStats> {
    let a = analyze(ws);
    apply_baseline(a.findings, ws.files.len(), a.stats, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::discharge_mask;
    use crate::workspace::SourceFile;

    fn sites_of(src: &str) -> Vec<(AllocKind, usize)> {
        let file = SourceFile::new("f.rs", src);
        let mask = discharge_mask(src, ALLOC);
        scan_alloc_sites(&file.code(), &mask)
            .into_iter()
            .map(|s| (s.kind, s.line))
            .collect()
    }

    #[test]
    fn ctors_macros_and_adapters_are_sites() {
        let src = "\
fn f(n: usize) -> Vec<u32> {
    let a = Vec::with_capacity(n);
    let b = vec![0u32; n];
    let c = format!(\"{n}\");
    let d = c.to_string();
    let e = (0..n).map(|i| i as u32).collect();
    let g = Box::new(n);
    let h = Arc::new(n);
    a
}
";
        let kinds: Vec<AllocKind> = sites_of(src).into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            kinds,
            vec![
                AllocKind::Ctor,
                AllocKind::VecMacro,
                AllocKind::FormatMacro,
                AllocKind::ToOwned,
                AllocKind::Collect,
                AllocKind::Ctor,
                AllocKind::Ctor,
            ]
        );
    }

    #[test]
    fn clone_fires_only_on_heap_receivers() {
        let src = "\
struct S { buf: Vec<u8>, handle: Arc<Vec<u8>>, n: u32 }
fn f(s: &S, ids: Vec<u32>, k: u32) {
    let a = ids.clone();
    let b = s.buf.clone();
    let c = s.handle.clone();
    let d = k.clone();
    let e = s.n.clone();
}
";
        assert_eq!(
            sites_of(src),
            vec![(AllocKind::CloneHeap, 3), (AllocKind::CloneHeap, 4)]
        );
    }

    #[test]
    fn map_insert_fires_only_on_map_receivers() {
        let src = "\
fn f(table: &mut BTreeMap<u32, u32>, list: &mut Vec<u32>) {
    table.insert(1, 2);
    table.entry(3);
    list.insert(0, 4);
}
";
        assert_eq!(
            sites_of(src),
            vec![(AllocKind::MapInsert, 2), (AllocKind::MapInsert, 3)]
        );
    }

    #[test]
    fn alloc_comment_discharges_nearby_sites_only() {
        let src = "\
fn f(k: usize) -> Vec<u32> {
    // ALLOC: one sized results buffer per query; ownership moves out.
    let mut out = Vec::with_capacity(k);
    out.push(1);
    out.push(2);
    let extra = vec![0u32; k];
    out
}
";
        assert_eq!(sites_of(src), vec![(AllocKind::VecMacro, 6)]);
    }

    #[test]
    fn turbofish_ctor_is_a_site() {
        let src = "fn f() { let v = Vec::<u8>::new(); }";
        assert_eq!(sites_of(src), vec![(AllocKind::Ctor, 1)]);
    }

    fn analyze(files: &[(&str, &str)]) -> ConeAnalysis {
        super::analyze(&Workspace::from_sources(files))
    }

    const SEARCHER_LIKE: &str = "\
pub struct BuiltGraph;
impl BuiltGraph {
    pub fn search(&self, k: usize) -> u32 {
        helper(k)
    }
}
fn helper(k: usize) -> u32 {
    let visited = vec![false; k];
    visited.len() as u32
}
fn dead_helper(k: usize) -> Vec<u32> {
    Vec::with_capacity(k)
}
";

    #[test]
    fn reachable_vec_macro_is_found_and_dead_code_is_not() {
        let a = analyze(&[("x/src/flat.rs", SEARCHER_LIKE)]);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        let f = &a.findings[0];
        assert_eq!(f.line, 8);
        assert_eq!(f.rule, Rule::ReachableAlloc);
        assert!(f.excerpt.contains("vec-macro"), "{}", f.excerpt);
        assert!(f.excerpt.contains("BuiltGraph::search"), "{}", f.excerpt);
    }

    #[test]
    fn free_fn_entry_points_root_the_cone() {
        let src = "\
pub fn mmr_diversify(k: usize) -> Vec<u32> {
    scoring_pool(k)
}
fn scoring_pool(k: usize) -> Vec<u32> {
    Vec::with_capacity(k)
}
";
        let a = analyze(&[("x/src/diversify.rs", src)]);
        assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
        assert!(a.findings[0].excerpt.contains("scoring_pool"));
    }

    #[test]
    fn test_code_and_bins_are_exempt() {
        let masked = format!("#[cfg(test)]\nmod tests {{\n{SEARCHER_LIKE}\n}}\n");
        let a = analyze(&[("x/src/flat.rs", &masked)]);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
        let b = analyze(&[("x/src/bin/exp.rs", SEARCHER_LIKE)]);
        assert!(b.findings.is_empty(), "findings: {:?}", b.findings);
    }

    #[test]
    fn alloc_comment_keeps_site_out_of_the_cone() {
        let src = "\
pub struct PagedIndex;
impl PagedIndex {
    pub fn search_paged_into(&self, k: usize) -> usize {
        // ALLOC: one sized buffer per query, handed to the caller.
        let out = Vec::with_capacity(k);
        out.len()
    }
}
";
        let a = analyze(&[("x/src/flat.rs", src)]);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }
}
