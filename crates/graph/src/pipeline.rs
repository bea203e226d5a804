//! The five-stage navigation-graph construction pipeline, and the
//! [`IndexAlgorithm`] configurations built on it.
//!
//! The paper: *"We propose a general pipeline for constructing fine-grained
//! navigation graphs on CGraph … The pipeline consists of five flexible
//! parts, allowing any current navigation graph to be decomposed and
//! smoothly integrated."* The five parts here are:
//!
//! 1. **Initialization** ([`InitStage`]) — a starting graph: random regular
//!    or (approximate) kNN;
//! 2. **Entry selection** ([`EntryStage`]) — the medoid, alone or with
//!    spread random entries;
//! 3. **Candidate acquisition + neighbour selection** ([`RefineStage`],
//!    [`SelectStage`]) — per vertex, gather a candidate pool (by searching
//!    the evolving graph from the entry, Vamana-style) and prune it to a
//!    bounded diverse out-neighbour set under the α-robust rule, inserting
//!    pruned reverse edges;
//! 4. **Connectivity repair** ([`RepairStage`]) — attach any vertex
//!    unreachable from the entry.
//!
//! [`GraphPipeline::run`] calls the stages in that order, each under one
//! `graph.build.*` span whose duration is the [`BuildReport`], so a custom
//! graph is literally a different stage configuration:
//!
//! * **NSG** = kNN init + single refine pass at `α = 1` + repair + medoid;
//! * **Vamana/DiskANN** = random init + two refine passes at `α > 1` +
//!   repair + medoid;
//! * **MQA-graph** (the paper's "novel indexing algorithm" combining
//!   state-of-the-art components, used on concatenated weighted vectors) =
//!   kNN init + two refine passes at `α > 1` + repair + medoid.

use crate::adjacency::Adjacency;
use crate::flat::FlatSearcher;
use crate::hnsw::{Hnsw, HnswParams};
use crate::knn::knn_graph;
use crate::live::Tombstones;
use crate::prune::{record_construction, robust_prune, Rule};
use crate::scratch::{with_pooled, SearchScratch};
use crate::search::SearchOutput;
use crate::traits::{DistanceFn, FlatDistance};
use crate::util::medoid;
use crate::validate::{check_bound, check_layer, InvariantViolation};
use mqa_rng::StdRng;
use mqa_vector::{ops, Candidate, VecId, VectorStore};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Stage 1: the starting graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitStage {
    /// Every vertex gets `degree` random out-neighbours.
    Random {
        /// Out-degree of the random graph.
        degree: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Approximate kNN graph (exact for small stores).
    Knn {
        /// Neighbours per vertex.
        k: usize,
        /// RNG seed for the NN-expansion initialization.
        seed: u64,
    },
}

/// Stage 2: entry-point selection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryStage {
    /// The store's medoid (NSG / Vamana convention).
    Medoid,
    /// The medoid plus `extra` random vertices. Multiple spatially spread
    /// entries make beam search robust to *metric mismatch* — e.g. a
    /// text-only query walking a graph whose edges were selected under an
    /// image-heavy fused metric (the unified index's partial-query case).
    MedoidPlusRandom {
        /// Number of extra random entries.
        extra: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// Stage 3a: per-vertex candidate pools come from searching the evolving
/// graph from the entry with beam width `l`, for `passes` passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefineStage {
    /// Beam width (candidate pool size) of the construction searches.
    pub l: usize,
    /// Number of passes over all vertices.
    pub passes: usize,
}

/// Stage 3b: neighbour selection applied to each candidate pool — the
/// α-robust pruning rule with degree bound `r` (`α = 1` is the MRNG rule
/// NSG uses).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectStage {
    /// Diversification slack (≥ 1.0).
    pub alpha: f32,
    /// Degree bound.
    pub r: usize,
}

/// Stage 4: connectivity repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairStage {
    /// Leave the graph as refined.
    None,
    /// Attach every vertex unreachable from the entry to its nearest
    /// reachable vertex (NSG's spanning-growth step).
    GrowFromEntry,
}

/// A full pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphPipeline {
    /// Stage 1.
    pub init: InitStage,
    /// Stage 2.
    pub entry: EntryStage,
    /// Stage 3a.
    pub refine: RefineStage,
    /// Stage 3b.
    pub select: SelectStage,
    /// Stage 4.
    pub repair: RepairStage,
}

/// What the build took, stage by stage. The graph's shape (degrees, edge
/// count, [`NavGraph::connectivity`]) is read from the graph itself, so it
/// cannot go stale when the graph grows or compacts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BuildReport {
    /// Per-stage wall-clock timings, in execution order.
    pub stage_timings: Vec<(String, Duration)>,
}

/// A pipeline-built navigation graph ready for search.
///
/// It remembers the refinement recipe it was built under — the
/// construction beam width and the neighbour-selection rule — so online
/// growth and compaction link vertices exactly as the build did, and so
/// every clean prefix in `graph` is clean under one known rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NavGraph {
    graph: Adjacency,
    entries: Vec<VecId>,
    report: BuildReport,
    name: String,
    l: usize,
    select: SelectStage,
}

impl NavGraph {
    /// The adjacency structure.
    pub fn graph(&self) -> &Adjacency {
        &self.graph
    }

    /// The entry vertices.
    pub fn entries(&self) -> &[VecId] {
        &self.entries
    }

    /// Construction timings.
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// Fraction of vertices reachable from the first entry (0 for an
    /// empty graph or one without an in-range entry).
    pub fn connectivity(&self) -> f64 {
        match self.entries.first() {
            Some(&e0) if (e0 as usize) < self.graph.len() => {
                self.graph.reachable_count(e0) as f64 / self.graph.len() as f64
            }
            _ => 0.0,
        }
    }

    /// Audits the structural invariants of the built graph against the
    /// `store` it indexes and the deletion state `tomb` of its generation
    /// (`Tombstones::new(0)` for a never-compacted graph), and returns
    /// every violation found (empty = sound).
    ///
    /// Checked invariants:
    /// - the recipe growth links under meets the bounds a build enforces:
    ///   `l >= 1`, `r >= 1`, `alpha >= 1`;
    /// - a non-empty graph has at least one entry; entries are in range
    ///   and distinct;
    /// - the graph passes [`check_layer`] under this graph's α: in-range
    ///   endpoints, no self-loops, no duplicates, every stored edge
    ///   distance and clean prefix what it claims to be, and no edge into
    ///   an id `tomb` marks compacted.
    pub fn validate(&self, store: &VectorStore, tomb: &Tombstones) -> Vec<InvariantViolation> {
        let n = self.graph.len();
        let context = format!("navgraph {}", self.name);
        let (l, SelectStage { alpha, r }) = (self.l, self.select);
        let mut out = check_layer(&context, &self.graph, store, Rule::Alpha(alpha), tomb);
        out.extend(check_bound(&context, l >= 1, "l >= 1", l));
        out.extend(check_bound(&context, r >= 1, "r >= 1", r));
        out.extend(check_bound(&context, alpha >= 1.0, "alpha >= 1", alpha));
        if n == 0 {
            return out;
        }
        if self.entries.is_empty() {
            out.push(InvariantViolation::BadEntry {
                detail: format!("navgraph {}: no entry vertices", self.name),
            });
            return out;
        }
        let mut seen = std::collections::HashSet::new();
        for &e in &self.entries {
            if e as usize >= n {
                out.push(InvariantViolation::IdOutOfRange {
                    context: format!("navgraph {} entries", self.name),
                    id: e,
                    n,
                });
            }
            if !seen.insert(e) {
                out.push(InvariantViolation::BadEntry {
                    detail: format!("navgraph {}: entry {e} listed twice", self.name),
                });
            }
        }
        out
    }

    /// Incrementally links every not-yet-indexed vector of `store` into
    /// the graph — the online-insert path for the pipeline-built family
    /// (NSG / Vamana / MQA-graph). Each new vertex runs one iteration of
    /// the refinement stage against the *current* graph: beam-search from
    /// the entries for a candidate pool, prune it with the graph's own
    /// selection rule, install reverse edges with overflow re-pruning.
    /// Ids `tomb` marks compacted may still seed the search (a retired
    /// entry) but are never selected as neighbours.
    pub fn extend_from(&mut self, store: &VectorStore, tomb: &Tombstones) {
        let start = self.graph.len();
        if store.len() <= start {
            return;
        }
        self.graph.grow(store.len());
        let (graph, entries, recipe) = (&mut self.graph, &self.entries, (self.l, &self.select));
        with_pooled(|scratch| {
            for v in start as VecId..store.len() as VecId {
                link_vertex(graph, entries, store, recipe, tomb, v, scratch);
            }
        });
    }

    /// Rewires the graph around the dead vertices of `tomb` through
    /// [`Tombstones::rewire`], re-pruning with the graph's own rule (so the
    /// degree bound holds); dead entries keep live-spliced out-edges so
    /// they can continue to seed searches. Then the build's repair step
    /// re-attaches every live vertex the rewiring left unreachable from the
    /// first entry. After this pass no edge points *into* a dead vertex.
    pub fn compact(&mut self, store: &VectorStore, tomb: &Tombstones) {
        let (entries, select) = (&self.entries, &self.select);
        tomb.rewire(
            &mut self.graph,
            store,
            |v| entries.contains(&v),
            |v, pool| {
                let picks = robust_prune(store, v, pool, select.alpha, select.r);
                let kept = picks.len();
                (picks, kept)
            },
        );
        reattach(store, &mut self.graph, entries, tomb, attach_nearest);
    }
}

impl GraphPipeline {
    /// Runs the stages in order and returns the built graph. Each
    /// stage runs under one `graph.build.*` span whose duration is its
    /// entry in [`BuildReport::stage_timings`].
    ///
    /// # Panics
    /// Panics if the store is empty, or under the conditions of
    /// [`robust_prune`]: `alpha < 1.0` or `r == 0`.
    pub fn run(&self, store: &Arc<VectorStore>, name: &str) -> NavGraph {
        assert!(!store.is_empty(), "pipeline requires a non-empty store");
        assert!(
            self.select.alpha >= 1.0,
            "robust prune requires alpha >= 1.0"
        );
        assert!(self.select.r > 0, "robust prune requires r >= 1");
        let mut stage_timings = Vec::with_capacity(4);
        let mut timed = |stage: &str, span: mqa_obs::SpanGuard| {
            stage_timings.push((stage.to_string(), span.finish()));
        };

        let span = mqa_obs::span("graph.build.initialization");
        let graph = run_init(&self.init, store);
        timed("initialization", span);

        let span = mqa_obs::span("graph.build.entry_selection");
        let entries = run_entry(&self.entry, store);
        timed("entry_selection", span);

        let span = mqa_obs::span("graph.build.refinement");
        let mut graph = run_refine(&self.refine, &self.select, store, graph, &entries);
        timed("refinement", span);

        let span = mqa_obs::span("graph.build.connectivity_repair");
        if self.repair == RepairStage::GrowFromEntry {
            reattach(
                store,
                &mut graph,
                &entries,
                &Tombstones::new(0),
                attach_nearest,
            );
        }
        timed("connectivity_repair", span);

        NavGraph {
            graph,
            entries,
            report: BuildReport { stage_timings },
            name: name.to_string(),
            l: self.refine.l,
            select: self.select,
        }
    }
}

fn run_init(cfg: &InitStage, store: &VectorStore) -> Adjacency {
    let n = store.len();
    match *cfg {
        InitStage::Random { degree, seed } => {
            let degree = degree.min(n.saturating_sub(1));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1217);
            let mut g = Adjacency::new(n);
            for v in 0..n as VecId {
                let mut nb: Vec<Candidate> = Vec::with_capacity(degree);
                while nb.len() < degree {
                    let u = rng.gen_range(0..n) as VecId;
                    if u != v && !nb.iter().any(|c| c.id == u) {
                        nb.push(Candidate::new(u, ops::l2_sq(store.get(v), store.get(u))));
                    }
                }
                g.set_neighbors(v, &nb);
            }
            g
        }
        InitStage::Knn { k, seed } => knn_graph(store, k, seed),
    }
}

fn run_entry(cfg: &EntryStage, store: &VectorStore) -> Vec<VecId> {
    match *cfg {
        EntryStage::Medoid => vec![medoid(store)],
        EntryStage::MedoidPlusRandom { extra, seed } => {
            let mut out = vec![medoid(store)];
            let mut rng = StdRng::seed_from_u64(seed ^ 0xE218);
            let n = store.len();
            while out.len() < (extra + 1).min(n) {
                let v = rng.gen_range(0..n) as VecId;
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            out
        }
    }
}

fn run_refine(
    refine: &RefineStage,
    select: &SelectStage,
    store: &VectorStore,
    mut graph: Adjacency,
    entries: &[VecId],
) -> Adjacency {
    // One scratch serves every construction search of the stage; nothing
    // is retired while a graph is being built.
    let recipe = (refine.l, select);
    let live = Tombstones::new(0);
    with_pooled(|scratch| {
        for _pass in 0..refine.passes {
            for v in 0..store.len() as VecId {
                link_vertex(&mut graph, entries, store, recipe, &live, v, scratch);
            }
        }
    });
    graph
}

/// One refinement step for `v` against the current graph, under the
/// `(l, select)` recipe: acquire candidates, select out-edges, install
/// reverse edges with re-pruning past the degree bound.
#[allow(clippy::too_many_arguments)]
fn link_vertex(
    graph: &mut Adjacency,
    entries: &[VecId],
    store: &VectorStore,
    (l, select): (usize, &SelectStage),
    tomb: &Tombstones,
    v: VecId,
    scratch: &mut SearchScratch,
) {
    // Candidate acquisition: search the evolving graph from the entries
    // for the vertex's own vector, keeping the full visited list (path
    // vertices supply long-range candidates). The pool stays on the
    // scratch.
    let mut dist = FlatDistance::for_vertex(store, v);
    let pool = crate::search::beam_search_collect(graph, entries, &mut dist, l, scratch);
    // The pool holds every candidate the walk evaluated.
    let walk_evals = pool.len() as u64;
    // Compaction keeps a retired entry as a search seed; it is the one
    // retired id the walk can reach, and it must not become a neighbour.
    pool.retain(|c| !tomb.is_compacted(c.id));
    // Merge current neighbours, at their stored distances, so established
    // edges compete (a newly grown vertex has none yet).
    pool.extend(graph.edges_of(v));
    // No records: the α rule from scratch, on the scratch's buffers. The
    // result is a *clean* list.
    let rule = Rule::Alpha(select.alpha);
    let candidates = scratch.evaluated.iter().copied();
    let (picks, kept) = scratch
        .reprune
        .run(store, v, candidates, (0, 0), rule, select.r);
    graph.set_pruned(v, picks, kept);
    // The spent pool takes the picks: the reverse edges reuse the
    // re-prune's buffers.
    scratch.evaluated.clear();
    scratch.evaluated.extend_from_slice(picks);
    for p in &scratch.evaluated {
        // The reverse edge's distance is the forward one: `l2_sq` is
        // symmetric to the bit.
        let back = Candidate::new(v, p.dist);
        scratch
            .reprune
            .add_edge(store, graph, p.id, back, rule, select.r);
    }
    record_construction(walk_evals);
}

/// Connectivity repair: links every live vertex unreachable from the
/// first entry from the reachable component (NSG's spanning-growth step);
/// vertices `tomb` marks dead stay detached. `attach(graph, v, near)` adds
/// the link for the orphan `v`, given the reachable vertices nearest to it
/// (nearest first, never empty), and returns whether `v` is now linked.
/// [`attach_nearest`] links it from the nearest; HNSW picks a list with
/// room under its degree cap.
pub(crate) fn reattach(
    store: &VectorStore,
    graph: &mut Adjacency,
    entries: &[VecId],
    tomb: &Tombstones,
    mut attach: impl FnMut(&mut Adjacency, VecId, &[Candidate]) -> bool,
) {
    // No entry vertex means nothing to grow from.
    let Some(&start) = entries.first() else {
        return;
    };
    let mut reachable = graph.reachable_from(start);
    for v in 0..graph.len() as VecId {
        // INVARIANT: reachable_from returns one flag per vertex and v
        // iterates 0..len.
        if reachable[v as usize] || tomb.is_dead(v) {
            continue;
        }
        // Route toward v through the reachable component; the search can
        // only return reachable vertices.
        let mut dist = FlatDistance::for_vertex(store, v);
        let out = with_pooled(|scratch| {
            crate::search::beam_search(&*graph, entries, &mut dist, 16, 16, scratch)
        });
        // A non-empty graph with a valid entry always yields at least one
        // beam-search result; skip v defensively if not.
        let linked = !out.results.is_empty() && attach(graph, v, &out.results);
        // Recorded after the attachment, so a re-prune it ran counts here.
        record_construction(out.stats.evals);
        if !linked {
            continue;
        }
        // Everything v reaches is now reachable.
        let mut queue = std::collections::VecDeque::new();
        // INVARIANT: v < len, and neighbour ids of a well-formed graph are
        // < len (set_neighbors debug-rejects others).
        reachable[v as usize] = true;
        queue.push_back(v);
        while let Some(x) = queue.pop_front() {
            for &y in graph.neighbors(x) {
                // INVARIANT: neighbour ids stay < len (as above).
                if !reachable[y as usize] {
                    reachable[y as usize] = true;
                    queue.push_back(y);
                }
            }
        }
    }
}

/// The pipeline graphs' [`reattach`] link: from the nearest reachable
/// vertex, whatever its degree.
pub(crate) fn attach_nearest(graph: &mut Adjacency, v: VecId, near: &[Candidate]) -> bool {
    near.first()
        .is_some_and(|p| graph.add_edge(p.id, v, p.dist))
}

/// The configuration-panel index choices. `build_graph` dispatches to the
/// pipeline (NSG / Vamana / MQA-graph), to the direct HNSW implementation,
/// or to the exhaustive baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IndexAlgorithm {
    /// Exhaustive scan (exact).
    Flat,
    /// Hierarchical Navigable Small World graph.
    Hnsw(HnswParams),
    /// Navigating Spreading-out Graph.
    Nsg {
        /// Degree bound.
        r: usize,
        /// Construction beam width.
        l: usize,
        /// kNN-init neighbour count.
        knn_k: usize,
        /// Seed.
        seed: u64,
    },
    /// DiskANN's Vamana graph.
    Vamana {
        /// Degree bound.
        r: usize,
        /// Construction beam width.
        l: usize,
        /// Robust-pruning slack (≥ 1.0).
        alpha: f32,
        /// Seed.
        seed: u64,
    },
    /// The paper's combined algorithm: kNN init + α-robust refinement +
    /// repair, designed for concatenated weighted multi-vectors.
    MqaGraph {
        /// Degree bound.
        r: usize,
        /// Construction beam width.
        l: usize,
        /// Robust-pruning slack (≥ 1.0).
        alpha: f32,
        /// kNN-init neighbour count.
        knn_k: usize,
        /// Seed.
        seed: u64,
    },
}

/// A built navigation structure in concrete (serializable) form: what
/// [`IndexAlgorithm::build_graph`] produces, what index snapshots persist,
/// and the one dispatcher every search of a built structure goes through
/// ([`BuiltGraph::search`]). A custom graph comes in as a
/// [`GraphPipeline`] stage configuration and lands here as `Nav`. Every
/// variant that can hold a value grows ([`BuiltGraph::grow_to`]) and
/// compacts ([`BuiltGraph::compact_live`]) in place.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BuiltGraph {
    /// Exhaustive scan (no structure).
    Flat(FlatSearcher),
    /// Pipeline-built flat navigation graph (NSG / Vamana / MQA-graph).
    Nav(NavGraph),
    /// Layered HNSW.
    Hnsw(Hnsw),
    /// The removed inverted-file family. Its payload is uninhabited, so no
    /// value of this variant exists: a snapshot that names it fails to
    /// load with an error naming the family. The variant is kept only
    /// because `crates/benchmark/src/system.rs:137` matches on it; the
    /// `[benchmark]` change that drops that arm deletes it.
    Ivf(RemovedFamily),
}

/// The payload of [`BuiltGraph::Ivf`]: an enum with no variants.
#[derive(Debug, Clone, PartialEq)]
pub enum RemovedFamily {}

impl Serialize for RemovedFamily {
    fn to_value(&self) -> serde::Value {
        match *self {}
    }
}

impl Deserialize for RemovedFamily {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Err(serde::Error::new(
            "the IVF index family was removed; rebuild the index with another algorithm",
        ))
    }
}

impl BuiltGraph {
    /// Searches for the `k` nearest objects with beam width `ef` (`ef >=
    /// k`; families clamp), running all per-query state on `scratch` —
    /// compiled around the evaluator's type, so the unified index's fused
    /// scanner and the single-vector [`FlatDistance`] each get their own
    /// copy. Callers without a scratch of their own use
    /// [`crate::scratch::with_pooled`].
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn search<D: DistanceFn + ?Sized>(
        &self,
        dist: &mut D,
        k: usize,
        ef: usize,
        scratch: &mut SearchScratch,
    ) -> SearchOutput {
        match self {
            BuiltGraph::Flat(s) => s.scan(dist, k, |_| true),
            BuiltGraph::Nav(g) => {
                crate::search::beam_search(&g.graph, &g.entries, dist, k, ef, scratch)
            }
            BuiltGraph::Hnsw(h) => h.descend_and_walk(dist, k, ef, scratch),
            BuiltGraph::Ivf(never) => match *never {},
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        match self {
            BuiltGraph::Flat(s) => s.len(),
            BuiltGraph::Nav(g) => g.graph.len(),
            BuiltGraph::Hnsw(h) => h.len(),
            BuiltGraph::Ivf(never) => match *never {},
        }
    }

    /// Whether the structure indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean out-degree of the graph (0 for the flat scan).
    pub fn avg_degree(&self) -> f64 {
        match self {
            BuiltGraph::Flat(_) => 0.0,
            BuiltGraph::Nav(g) => g.graph.avg_degree(),
            BuiltGraph::Hnsw(h) => h.layers().first().map_or(0.0, Adjacency::avg_degree),
            BuiltGraph::Ivf(never) => match *never {},
        }
    }

    /// The family name searches record under: `"flat"`, the pipeline
    /// graph's own name (`"nsg"`, `"vamana"`, `"mqa-graph"` or a custom
    /// pipeline's), or `"hnsw"`. The structure is the one record of what
    /// was built, so a restored index cannot report one family and search
    /// another.
    pub fn name(&self) -> &str {
        match self {
            BuiltGraph::Flat(_) => "flat",
            BuiltGraph::Nav(g) => &g.name,
            BuiltGraph::Hnsw(_) => "hnsw",
            BuiltGraph::Ivf(never) => match *never {},
        }
    }

    /// Short human-readable description for the status panel.
    pub fn describe(&self) -> String {
        match self {
            BuiltGraph::Flat(s) => format!("flat exhaustive scan over {} vectors", s.len()),
            BuiltGraph::Nav(g) => format!(
                "{} over {} vertices (avg degree {:.1}, {} entries)",
                g.name,
                g.graph.len(),
                g.graph.avg_degree(),
                g.entries.len()
            ),
            BuiltGraph::Hnsw(h) => h.describe(),
            BuiltGraph::Ivf(never) => match *never {},
        }
    }

    /// Audits the inner structure against the `store` it indexes and the
    /// deletion state `tomb` of its generation, and returns every
    /// invariant violation found (empty = sound). Dispatches to the
    /// per-index validators; `Flat` carries no structure to audit.
    pub fn validate(&self, store: &VectorStore, tomb: &Tombstones) -> Vec<InvariantViolation> {
        match self {
            BuiltGraph::Flat(_) => Vec::new(),
            BuiltGraph::Nav(g) => g.validate(store, tomb),
            BuiltGraph::Hnsw(h) => h.validate(store, tomb),
            BuiltGraph::Ivf(never) => match *never {},
        }
    }

    /// Recomputes every stored edge distance from `store`, the vectors the
    /// structure indexes ([`Adjacency::restore_distances`] on each graph or
    /// layer): a structure read back from JSON carries none, and needs
    /// them before it grows, compacts or validates.
    pub fn restore_distances(&mut self, store: &VectorStore) {
        match self {
            BuiltGraph::Flat(_) => {}
            BuiltGraph::Nav(g) => g.graph.restore_distances(store),
            BuiltGraph::Hnsw(h) => h.restore_distances(store),
            BuiltGraph::Ivf(never) => match *never {},
        }
    }

    /// Extends the structure over every not-yet-indexed vector of `store`
    /// — the online-insert path. HNSW and the pipeline family link the new
    /// vertices incrementally (HNSW's growth is bit-identical to a batch
    /// build); `Flat` just widens its scan. No new edge points at an id
    /// `tomb` marks compacted (`Tombstones::new(0)` for a never-compacted
    /// graph).
    pub fn grow_to(&mut self, store: &Arc<VectorStore>, tomb: &Tombstones) {
        match self {
            BuiltGraph::Flat(s) => *s = FlatSearcher::new(store.len()),
            BuiltGraph::Hnsw(h) => h.extend_from(store, tomb),
            BuiltGraph::Nav(g) => g.extend_from(store, tomb),
            BuiltGraph::Ivf(never) => match *never {},
        }
    }

    /// Rewires the structure around the dead ids of `tomb`, after which
    /// they may be marked compacted: the graph families splice neighbours
    /// around the holes, and `Flat` has no edges to rewire.
    pub fn compact_live(&mut self, store: &Arc<VectorStore>, tomb: &Tombstones) {
        match self {
            BuiltGraph::Flat(_) => {}
            BuiltGraph::Hnsw(h) => h.compact(store, tomb),
            BuiltGraph::Nav(g) => g.compact(store, tomb),
            BuiltGraph::Ivf(never) => match *never {},
        }
    }
}

impl IndexAlgorithm {
    /// Default NSG configuration.
    pub fn nsg() -> Self {
        IndexAlgorithm::Nsg {
            r: 24,
            l: 64,
            knn_k: 20,
            seed: 0,
        }
    }

    /// Default Vamana configuration.
    pub fn vamana() -> Self {
        IndexAlgorithm::Vamana {
            r: 24,
            l: 64,
            alpha: 1.2,
            seed: 0,
        }
    }

    /// Default HNSW configuration.
    pub fn hnsw() -> Self {
        IndexAlgorithm::Hnsw(HnswParams::default())
    }

    /// Default MQA-graph configuration.
    pub fn mqa_graph() -> Self {
        IndexAlgorithm::MqaGraph {
            r: 24,
            l: 64,
            alpha: 1.2,
            knn_k: 20,
            seed: 0,
        }
    }

    /// Panel display name.
    pub fn name(&self) -> &'static str {
        match self {
            IndexAlgorithm::Flat => "flat",
            IndexAlgorithm::Hnsw(_) => "hnsw",
            IndexAlgorithm::Nsg { .. } => "nsg",
            IndexAlgorithm::Vamana { .. } => "vamana",
            IndexAlgorithm::MqaGraph { .. } => "mqa-graph",
        }
    }

    /// Builds the concrete (serializable) navigation structure.
    pub fn build_graph(&self, store: &Arc<VectorStore>) -> BuiltGraph {
        match self {
            IndexAlgorithm::Flat => BuiltGraph::Flat(FlatSearcher::new(store.len())),
            IndexAlgorithm::Hnsw(params) => BuiltGraph::Hnsw(Hnsw::build(store, params)),
            IndexAlgorithm::Nsg { r, l, knn_k, seed } => {
                BuiltGraph::Nav(crate::nsg::build(store, *r, *l, *knn_k, *seed))
            }
            IndexAlgorithm::Vamana { r, l, alpha, seed } => {
                BuiltGraph::Nav(crate::vamana::build(store, *r, *l, *alpha, *seed))
            }
            IndexAlgorithm::MqaGraph {
                r,
                l,
                alpha,
                knn_k,
                seed,
            } => {
                // Multiple entries: the unified index must route *partial*
                // queries (text-only rounds) whose metric differs from the
                // fused build metric; spread entry points recover the
                // recall a single medoid start loses there.
                let pipeline = GraphPipeline {
                    init: InitStage::Knn {
                        k: *knn_k,
                        seed: *seed,
                    },
                    entry: EntryStage::MedoidPlusRandom {
                        extra: 4,
                        seed: *seed,
                    },
                    refine: RefineStage { l: *l, passes: 2 },
                    select: SelectStage {
                        alpha: *alpha,
                        r: *r,
                    },
                    repair: RepairStage::GrowFromEntry,
                };
                BuiltGraph::Nav(pipeline.run(store, "mqa-graph"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_rng::StdRng;

    fn clustered_store(n: usize, dim: usize, clusters: usize, seed: u64) -> Arc<VectorStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.gen_range(-1.0f32..1.0) * 4.0)
                    .collect()
            })
            .collect();
        let mut s = VectorStore::new(dim);
        for i in 0..n {
            let c = &centers[i % clusters];
            let v: Vec<f32> = c.iter().map(|x| x + rng.gen_range(-0.3f32..0.3)).collect();
            s.push(&v);
        }
        Arc::new(s)
    }

    fn recall_of(algo: &IndexAlgorithm, store: &Arc<VectorStore>, queries: usize) -> f64 {
        let searcher = algo.build_graph(store);
        let flat = FlatSearcher::new(store.len());
        let mut scratch = SearchScratch::new();
        let mut rng = StdRng::seed_from_u64(77);
        let dim = store.dim();
        let k = 10;
        let mut hits = 0usize;
        for _ in 0..queries {
            let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let mut d1 = FlatDistance::new(store, &q).unwrap();
            let truth = flat.scan(&mut d1, k, |_| true).ids();
            let mut d2 = FlatDistance::new(store, &q).unwrap();
            let got = searcher.search(&mut d2, k, 64, &mut scratch).ids();
            hits += got.iter().filter(|id| truth.contains(id)).count();
        }
        hits as f64 / (queries * k) as f64
    }

    #[test]
    fn nsg_reaches_high_recall() {
        let store = clustered_store(800, 16, 10, 1);
        let r = recall_of(&IndexAlgorithm::nsg(), &store, 20);
        assert!(r > 0.9, "nsg recall {r}");
    }

    #[test]
    fn vamana_reaches_high_recall() {
        let store = clustered_store(800, 16, 10, 2);
        let r = recall_of(&IndexAlgorithm::vamana(), &store, 20);
        assert!(r > 0.9, "vamana recall {r}");
    }

    #[test]
    fn mqa_graph_reaches_high_recall() {
        let store = clustered_store(800, 16, 10, 3);
        let r = recall_of(&IndexAlgorithm::mqa_graph(), &store, 20);
        assert!(r >= 0.85, "mqa-graph recall {r}");
    }

    #[test]
    fn pipeline_graphs_are_fully_connected() {
        let store = clustered_store(500, 8, 25, 4);
        for algo in [
            IndexAlgorithm::nsg(),
            IndexAlgorithm::vamana(),
            IndexAlgorithm::mqa_graph(),
        ] {
            // Rebuild through the pipeline to read the report.
            let nav = match &algo {
                IndexAlgorithm::Nsg { r, l, knn_k, seed } => {
                    crate::nsg::pipeline(*r, *l, *knn_k, *seed).run(&store, "nsg")
                }
                IndexAlgorithm::Vamana { r, l, alpha, seed } => {
                    crate::vamana::pipeline(*r, *l, *alpha, *seed).run(&store, "vamana")
                }
                IndexAlgorithm::MqaGraph {
                    r,
                    l,
                    alpha,
                    knn_k,
                    seed,
                } => GraphPipeline {
                    init: InitStage::Knn {
                        k: *knn_k,
                        seed: *seed,
                    },
                    entry: EntryStage::Medoid,
                    refine: RefineStage { l: *l, passes: 2 },
                    select: SelectStage {
                        alpha: *alpha,
                        r: *r,
                    },
                    repair: RepairStage::GrowFromEntry,
                }
                .run(&store, "mqa-graph"),
                _ => unreachable!(),
            };
            assert!(
                (nav.connectivity() - 1.0).abs() < 1e-9,
                "{} connectivity {}",
                algo.name(),
                nav.connectivity()
            );
            assert!(nav.graph().max_degree() > 0);
        }
    }

    #[test]
    fn degree_bound_is_respected() {
        let store = clustered_store(400, 8, 8, 5);
        let nav = GraphPipeline {
            init: InitStage::Random {
                degree: 12,
                seed: 0,
            },
            entry: EntryStage::Medoid,
            refine: RefineStage { l: 32, passes: 2 },
            select: SelectStage { alpha: 1.2, r: 12 },
            repair: RepairStage::None,
        }
        .run(&store, "test");
        // Repair can add one extra edge per unreachable vertex; without
        // repair the bound holds strictly.
        assert!(
            nav.graph().max_degree() <= 12,
            "max degree {}",
            nav.graph().max_degree()
        );
    }

    #[test]
    fn report_has_all_stage_timings() {
        let store = clustered_store(300, 4, 5, 6);
        let nav = GraphPipeline {
            init: InitStage::Knn { k: 8, seed: 0 },
            entry: EntryStage::Medoid,
            refine: RefineStage { l: 16, passes: 1 },
            select: SelectStage { alpha: 1.0, r: 8 },
            repair: RepairStage::GrowFromEntry,
        }
        .run(&store, "test");
        let names: Vec<&str> = nav
            .report()
            .stage_timings
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "initialization",
                "entry_selection",
                "refinement",
                "connectivity_repair",
            ]
        );
    }

    #[test]
    fn entry_stage_variants() {
        let store = clustered_store(50, 4, 5, 7);
        let m = run_entry(&EntryStage::Medoid, &store);
        assert_eq!(m.len(), 1);
        let spread = run_entry(&EntryStage::MedoidPlusRandom { extra: 3, seed: 1 }, &store);
        assert_eq!((spread.len(), spread[0]), (4, m[0]));
    }

    #[test]
    fn flat_algorithm_is_exact() {
        let store = clustered_store(200, 8, 4, 8);
        let r = recall_of(&IndexAlgorithm::Flat, &store, 10);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn describe_names_each_family() {
        let store = clustered_store(200, 8, 4, 9);
        for (algo, name, degree) in [
            (IndexAlgorithm::Flat, "flat exhaustive scan over 200", false),
            (IndexAlgorithm::nsg(), "nsg over 200 vertices", true),
            (IndexAlgorithm::hnsw(), "hnsw over 200 vertices", true),
        ] {
            let built = algo.build_graph(&store);
            assert!(built.describe().starts_with(name), "{}", built.describe());
            assert_eq!(built.avg_degree() > 0.0, degree, "{}", algo.name());
            assert_eq!(built.len(), 200);
        }
    }

    #[test]
    fn algorithm_serde_round_trip() {
        for algo in [
            IndexAlgorithm::Flat,
            IndexAlgorithm::nsg(),
            IndexAlgorithm::vamana(),
            IndexAlgorithm::mqa_graph(),
            IndexAlgorithm::hnsw(),
        ] {
            let j = serde_json::to_string(&algo).unwrap();
            let back: IndexAlgorithm = serde_json::from_str(&j).unwrap();
            assert_eq!(algo, back);
        }
    }

    fn built_navgraph(seed: u64) -> (Arc<VectorStore>, NavGraph) {
        let store = clustered_store(300, 8, 6, seed);
        let nav = crate::nsg::pipeline(24, 48, 12, seed).run(&store, "nsg");
        (store, nav)
    }

    #[test]
    fn nav_extend_links_new_vertices() {
        let full = clustered_store(400, 8, 8, 31);
        let mut half = VectorStore::new(8);
        for id in 0..300u32 {
            half.push(full.get(id));
        }
        let algo = IndexAlgorithm::vamana();
        let mut built = algo.build_graph(&Arc::new(half));
        built.grow_to(&full, &Tombstones::new(0));
        assert_eq!(built.len(), 400);
        let violations = built.validate(&full, &Tombstones::new(0));
        assert!(violations.is_empty(), "{violations:?}");
        // New objects are discoverable through the grown graph.
        let mut found = 0usize;
        for id in 300..400u32 {
            let mut d = FlatDistance::for_vertex(&full, id);
            let mut scratch = crate::scratch::SearchScratch::new();
            let out = built.search(&mut d, 5, 64, &mut scratch);
            if out.results.iter().any(|c| c.id == id) {
                found += 1;
            }
        }
        assert!(found >= 90, "only {found}/100 grown objects discoverable");
    }

    #[test]
    fn nav_compact_unlinks_dead_vertices() {
        let store = clustered_store(400, 8, 8, 32);
        let algo = IndexAlgorithm::nsg();
        let mut built = algo.build_graph(&store);
        let mut tomb = Tombstones::new(400);
        for id in (0..400u32).step_by(5) {
            tomb.kill(id);
        }
        built.compact_live(&store, &tomb);
        let BuiltGraph::Nav(nav) = &built else {
            panic!("nsg builds a Nav graph");
        };
        for (v, u) in nav.graph().edges() {
            assert!(!tomb.is_dead(u), "edge {v}->{u} into dead vertex");
        }
        // The report was refreshed, so validate sees no staleness; only
        // entry-membership defects would remain, and there are none.
        let violations = nav.validate(&store, &Tombstones::new(0));
        assert!(
            violations.is_empty(),
            "post-compaction violations: {violations:?}"
        );
    }

    #[test]
    fn grow_to_widens_the_flat_scan() {
        let full = clustered_store(250, 8, 5, 33);
        let mut half = VectorStore::new(8);
        for id in 0..200u32 {
            half.push(full.get(id));
        }
        let mut built = IndexAlgorithm::Flat.build_graph(&Arc::new(half));
        built.grow_to(&full, &Tombstones::new(0));
        assert_eq!(built.len(), 250);
    }

    /// The recipe a graph grows and compacts under is the one it was
    /// built with: the graph carries it, and growth and compaction take
    /// no recipe argument.
    #[test]
    fn nav_graphs_remember_their_recipe() {
        let store = clustered_store(300, 8, 6, 34);
        for (algo, l, select) in [
            (IndexAlgorithm::nsg(), 64, SelectStage { alpha: 1.0, r: 24 }),
            (
                IndexAlgorithm::vamana(),
                64,
                SelectStage { alpha: 1.2, r: 24 },
            ),
            (
                IndexAlgorithm::mqa_graph(),
                64,
                SelectStage { alpha: 1.2, r: 24 },
            ),
        ] {
            let BuiltGraph::Nav(nav) = algo.build_graph(&store) else {
                panic!("{} builds a Nav graph", algo.name());
            };
            assert_eq!((nav.l, nav.select), (l, select), "{}", algo.name());
        }
    }

    #[test]
    fn validate_accepts_pipeline_graphs() {
        let (store, g) = built_navgraph(11);
        let violations = g.validate(&store, &Tombstones::new(0));
        assert!(violations.is_empty(), "sound graph flagged: {violations:?}");
    }

    #[test]
    fn validate_detects_corruption() {
        use crate::validate::InvariantViolation as V;
        let (store, sound) = built_navgraph(12);
        let audit = |g: &NavGraph| g.validate(&store, &Tombstones::new(0));

        // Adjacency defects surface through the shared checker.
        let mut g = sound.clone();
        g.graph.lists_mut()[0].push(0);
        assert!(audit(&g)
            .iter()
            .any(|x| matches!(x, V::SelfLoop { id: 0, .. })));

        // No entries.
        let mut g = sound.clone();
        g.entries.clear();
        assert!(audit(&g).iter().any(|x| matches!(x, V::BadEntry { .. })));

        // Duplicate entries.
        let mut g = sound;
        g.entries.push(g.entries[0]);
        assert!(audit(&g).iter().any(|x| matches!(x, V::BadEntry { .. })));
    }

    /// One stored distance forged off by one ulp is reported as exactly
    /// that edge, and nothing else moves: the clean-prefix check evaluates
    /// its own distances.
    #[test]
    fn validate_flags_a_forged_edge_distance() {
        use crate::validate::InvariantViolation as V;
        let (store, sound) = built_navgraph(14);
        let v = 7;
        let mut g = sound.clone();
        let d = &mut g.graph.dists_mut()[v as usize][2];
        *d = f32::from_bits(d.to_bits() + 1);
        assert_eq!(
            g.validate(&store, &Tombstones::new(0)),
            vec![V::WrongEdgeDistance {
                context: format!("navgraph {}", sound.name),
                from: v,
                to: sound.graph.neighbors(v)[2],
                stored: g.graph.distances(v)[2],
                actual: sound.graph.distances(v)[2],
            }]
        );
    }

    /// A clean length forged over a list that is not a prune result is
    /// flagged in each of its three shapes, and growing the forged graph
    /// (which re-prunes through the false prefix) does not panic.
    #[test]
    fn validate_flags_a_forged_clean_prefix() {
        use crate::validate::InvariantViolation as V;
        let (store, sound) = built_navgraph(13);
        let flagged = |g: &NavGraph, v: VecId| {
            g.validate(&store, &Tombstones::new(0))
                .iter()
                .any(|x| matches!(x, V::FalseCleanPrefix { id, .. } if *id == v))
        };
        let v = (0..300)
            .find(|&v| sound.graph.clean_len(v) >= 3)
            .expect("some list kept three pruned edges");
        assert!(!flagged(&sound, v));

        // Longer than the list.
        let mut g = sound.clone();
        g.graph.clean_mut()[v as usize] = 99;
        assert!(flagged(&g, v));

        // Covering a list that is not sorted by distance.
        let mut g = sound.clone();
        g.graph.lists_mut()[v as usize].reverse();
        g.graph.dists_mut()[v as usize].reverse();
        assert!(flagged(&g, v));

        // Covering a dirty tail: the vertex's nearest non-neighbours,
        // appended and declared clean, are dominated by what is there.
        let mut g = sound.clone();
        let flat = FlatSearcher::new(store.len());
        let mut d = FlatDistance::for_vertex(&store, v);
        for c in flat.scan(&mut d, 40, |_| true).results {
            if c.id != v {
                g.graph.add_edge(v, c.id, c.dist);
            }
        }
        g.graph.clean_mut()[v as usize] = g.graph.degree(v) as u32;
        assert!(flagged(&g, v));
        let full = clustered_store(340, 8, 6, 13);
        g.extend_from(&full, &Tombstones::new(0));
        assert_eq!(g.graph.len(), 340);
    }

    /// The clean-prefix bookkeeping through a real life cycle: at every
    /// overflow of build → grow → compact → grow → save/load → grow the
    /// incremental re-prune equals the from-scratch one (asserted inside
    /// `Reprune::add_edge`), the validator stays silent, and a graph
    /// that went through JSON keeps growing exactly like one that did not.
    #[test]
    fn clean_prefixes_survive_grow_compact_and_persistence() {
        let full = clustered_store(420, 8, 6, 35);
        let prefix = |n: u32| {
            let mut s = VectorStore::new(8);
            for id in 0..n {
                s.push(full.get(id));
            }
            Arc::new(s)
        };
        let edges = |g: &BuiltGraph| match g {
            BuiltGraph::Nav(nav) => nav.graph().edges().collect::<Vec<_>>(),
            _ => unreachable!("pipeline families build Nav graphs"),
        };
        let checked = || crate::prune::REPRUNES_CHECKED.with(std::cell::Cell::get);
        for algo in [IndexAlgorithm::vamana(), IndexAlgorithm::mqa_graph()] {
            let mut at = checked();
            let mut step = |what: &str| {
                assert!(checked() > at, "{}: {what} re-pruned nothing", algo.name());
                at = checked();
            };
            let mut built = algo.build_graph(&prefix(300));
            step("build");
            built.grow_to(&prefix(340), &Tombstones::new(0));
            step("first growth");
            let mut tomb = Tombstones::new(340);
            for id in (0..340u32).step_by(6) {
                tomb.kill(id);
            }
            built.compact_live(&prefix(340), &tomb);
            tomb.mark_all_compacted();
            built.grow_to(&prefix(380), &tomb);
            step("growth after compaction");
            let violations = built.validate(&prefix(380), &Tombstones::new(0));
            assert!(violations.is_empty(), "{}: {violations:?}", algo.name());

            let json = serde_json::to_string(&built).expect("graph serializes");
            let mut reloaded: BuiltGraph = serde_json::from_str(&json).expect("round trips");
            reloaded.restore_distances(&prefix(380));
            assert_eq!(reloaded, built, "{}: clean prefixes persist", algo.name());
            built.grow_to(&full, &tomb);
            reloaded.grow_to(&full, &tomb);
            step("growth after reload");
            assert_eq!(edges(&reloaded), edges(&built), "{}", algo.name());
            assert_eq!(reloaded, built);
            assert!(reloaded.validate(&full, &Tombstones::new(0)).is_empty());
        }
    }
}
