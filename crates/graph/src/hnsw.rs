//! Hierarchical Navigable Small World graphs.
//!
//! A faithful HNSW implementation: geometric level assignment, greedy
//! descent through the upper layers, beam search with
//! `SELECT-NEIGHBORS-HEURISTIC` diversification at insertion, bidirectional
//! linking with overflow re-pruning. Built directly (its layered structure
//! does not flatten into the five-stage pipeline) and searched through the
//! same [`crate::BuiltGraph`] dispatcher as the pipeline-built graphs,
//! which is what makes it selectable from the configuration panel.

use crate::live::Tombstones;
use crate::prune::hnsw_heuristic;
use crate::scratch::{SearchScratch, VisitedSet};
use crate::search::{search_into, SearchOutput, Seeds, WalkGraph};
use crate::traits::{DistanceFn, FlatDistance};
use crate::validate::InvariantViolation;
use mqa_rng::StdRng;
use mqa_vector::{Candidate, Metric, VecId, VectorStore};
use serde::{Deserialize, Serialize};

/// HNSW hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HnswParams {
    /// Target degree of upper layers (`M`); layer 0 allows `2·M`.
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Level-assignment RNG seed.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            seed: 0,
        }
    }
}

/// A built HNSW index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hnsw {
    /// `links[v][level]` = out-neighbours of `v` at `level`.
    links: Vec<Vec<Vec<VecId>>>,
    entry: VecId,
    max_level: usize,
    params: HnswParams,
}

impl Hnsw {
    /// Builds the index over every vector of `store`.
    ///
    /// # Panics
    /// Panics if the store is empty or `m == 0`.
    pub fn build(store: &VectorStore, metric: Metric, params: &HnswParams) -> Self {
        assert!(!store.is_empty(), "HNSW over an empty store");
        assert!(params.m > 0, "HNSW requires m >= 1");
        let n = store.len();
        let mut hnsw = Hnsw {
            links: Vec::with_capacity(n),
            entry: 0,
            max_level: 0,
            params: *params,
        };
        let live = Tombstones::new(0);
        let mut scratch = SearchScratch::new();
        for _ in 0..n {
            hnsw.insert_next(store, metric, &live, &mut scratch);
        }
        hnsw
    }

    /// Inserts the next not-yet-indexed vector of `store`.
    ///
    /// The vertex inserted is always `self.len()`; its level derives
    /// deterministically from `(seed, id)`, so batch builds and incremental
    /// growth produce identical indexes.
    ///
    /// # Panics
    /// Panics if the store holds no vector beyond the indexed population.
    fn insert_next(
        &mut self,
        store: &VectorStore,
        metric: Metric,
        tomb: &Tombstones,
        scratch: &mut SearchScratch,
    ) {
        let v = self.links.len() as VecId;
        assert!(
            (v as usize) < store.len(),
            "no unindexed vector: index covers {} of {}",
            self.links.len(),
            store.len()
        );
        let level_mult = 1.0 / (self.params.m as f64).ln().max(f64::EPSILON);
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x9A55 ^ (v as u64) << 17);
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let level = (-u.ln() * level_mult).floor() as usize;
        self.links.push(vec![Vec::new(); level + 1]);
        if v == 0 {
            self.max_level = level;
            self.entry = 0;
            return;
        }
        self.insert(store, metric, tomb, v, level, scratch);
    }

    /// Appends every not-yet-indexed vector of `store` — incremental growth
    /// after a batch build. HNSW is the family member with natural
    /// *incremental* construction, which is how MQA can grow a knowledge
    /// base without a rebuild: push new objects to the store, then call
    /// this. Batch building and incremental growth produce identical
    /// indexes (levels derive from `(seed, id)`). Ids `tomb` marks
    /// compacted may still route (a retired entry) but are never linked to.
    pub fn extend_from(&mut self, store: &VectorStore, metric: Metric, tomb: &Tombstones) {
        let mut scratch = SearchScratch::new();
        while self.links.len() < store.len() {
            self.insert_next(store, metric, tomb, &mut scratch);
        }
    }

    fn insert(
        &mut self,
        store: &VectorStore,
        metric: Metric,
        tomb: &Tombstones,
        v: VecId,
        level: usize,
        scratch: &mut SearchScratch,
    ) {
        let mut dist = FlatDistance::for_vertex(store, v, metric);
        let mut ep = Candidate::new(self.entry, dist.exact(self.entry));

        // Greedy descent through layers above the node's level.
        let mut lc = self.max_level;
        while lc > level {
            ep = self.greedy_step(&mut dist, ep, lc);
            lc -= 1;
        }

        // Beam insertion from min(level, max_level) down to 0.
        let ef = self.params.ef_construction;
        let mut cands = Vec::new();
        for lc in (0..=level.min(self.max_level)).rev() {
            let layer = self.layer(lc);
            let seed = Seeds::Evaluated(ep);
            search_into(&layer, seed, &mut dist, ef, ef, scratch, &mut cands);
            let cap = if lc == 0 {
                self.params.m * 2
            } else {
                self.params.m
            };
            // A retired entry still seeds the walk; it is never selected.
            let mut pool = cands.clone();
            pool.retain(|c| !tomb.is_compacted(c.id));
            let selected = hnsw_heuristic(store, metric, v, pool, cap);
            for &u in &selected {
                // INVARIANT: v and every candidate u are inserted vertices
                // whose level lists extend past lc (selection is level-aware).
                self.links[v as usize][lc].push(u);
                let ul = &mut self.links[u as usize][lc];
                if !ul.contains(&v) {
                    ul.push(v);
                    if ul.len() > cap {
                        // Overflow: re-prune u's neighbours.
                        let uv = store.get(u);
                        let pool: Vec<Candidate> = ul
                            .iter()
                            .map(|&w| Candidate::new(w, metric.distance(uv, store.get(w))))
                            .collect();
                        // INVARIANT: u's level list reaches lc (checked on entry).
                        self.links[u as usize][lc] = hnsw_heuristic(store, metric, u, pool, cap);
                    }
                }
            }
            // Best candidate of this layer seeds the next one down.
            if let Some(best) = cands.first() {
                ep = *best;
            }
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = v;
        }
    }

    /// One greedy (ef = 1) routing step through layer `lc`.
    fn greedy_step<D: DistanceFn + ?Sized>(
        &self,
        dist: &mut D,
        mut ep: Candidate,
        lc: usize,
    ) -> Candidate {
        loop {
            let mut improved = false;
            for &u in self.neighbors(ep.id, lc) {
                let d = dist.exact(u);
                if d < ep.dist {
                    ep = Candidate::new(u, d);
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    fn neighbors(&self, v: VecId, level: usize) -> &[VecId] {
        // An out-of-range id or level reads as "no neighbours" — the beam
        // dead-ends instead of panicking mid-search.
        self.links
            .get(v as usize)
            .and_then(|levels| levels.get(level))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Layer `level` as a walkable graph.
    fn layer(&self, level: usize) -> Layer<'_> {
        Layer { hnsw: self, level }
    }

    /// Highest populated layer.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// Base-layer adjacency as a flat [`crate::Adjacency`] (used by the
    /// Starling layout, which pages the base layer).
    pub fn base_layer(&self) -> crate::adjacency::Adjacency {
        let mut g = crate::adjacency::Adjacency::new(self.links.len());
        for v in 0..self.links.len() as VecId {
            g.set_neighbors(v, self.neighbors(v, 0).to_vec());
        }
        g
    }

    /// The current global entry vertex.
    pub fn entry(&self) -> VecId {
        self.entry
    }

    /// Visits every directed edge of every layer as `(level, from, to)`.
    /// Feeds the tombstone-aware structural validator.
    pub fn for_each_edge(&self, mut f: impl FnMut(usize, VecId, VecId)) {
        for (vi, layers) in self.links.iter().enumerate() {
            for (level, nb) in layers.iter().enumerate() {
                for &u in nb {
                    f(level, vi as VecId, u);
                }
            }
        }
    }

    /// Rewires every layer around the dead vertices of `tomb`: a live
    /// vertex with dead neighbours splices in those neighbours' live
    /// same-layer neighbours (re-pruned through the construction
    /// heuristic, so the degree caps hold); dead vertices other than the
    /// entry are unlinked entirely; a dead entry keeps live-spliced
    /// out-edges so it can continue to seed searches. After this pass no
    /// edge points *into* a dead vertex.
    pub fn compact(&mut self, store: &VectorStore, metric: Metric, tomb: &Tombstones) {
        let entry = self.entry;
        let m = self.params.m;
        let old = self.links.clone();
        for (vi, layers) in self.links.iter_mut().enumerate() {
            let v = vi as VecId;
            let dead_v = tomb.is_dead(v);
            for (level, nb) in layers.iter_mut().enumerate() {
                if dead_v && v != entry {
                    nb.clear();
                    continue;
                }
                if !nb.iter().any(|&u| tomb.is_dead(u)) {
                    continue;
                }
                // The dead neighbours' same-layer lists, as they were
                // before this pass touched them.
                let pool = tomb.splice_pool(store, metric, v, nb, |u| {
                    old.get(u as usize)
                        .and_then(|ls| ls.get(level))
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                });
                let cap = if level == 0 { m * 2 } else { m };
                *nb = hnsw_heuristic(store, metric, v, pool, cap);
            }
        }
    }
}

/// One level of the hierarchy as a walkable graph.
struct Layer<'a> {
    hnsw: &'a Hnsw,
    level: usize,
}

impl WalkGraph for Layer<'_> {
    fn vertices(&self) -> usize {
        self.hnsw.links.len()
    }

    #[inline]
    fn neighbors(&self, v: VecId) -> &[VecId] {
        self.hnsw.neighbors(v, self.level)
    }
}

impl Hnsw {
    /// Greedy descent through the upper layers, then the shared walk on
    /// the base layer — compiled around the evaluator's type.
    pub(crate) fn descend_and_walk<D: DistanceFn + ?Sized>(
        &self,
        dist: &mut D,
        k: usize,
        ef: usize,
        scratch: &mut SearchScratch,
    ) -> SearchOutput {
        let mut ep = Candidate::new(self.entry, dist.exact(self.entry));
        let mut routing_hops = 0;
        for lc in (1..=self.max_level).rev() {
            ep = self.greedy_step(dist, ep, lc);
            routing_hops += 1;
        }
        // ALLOC: the returned hit list, sized once by the copy.
        let mut results = Vec::new();
        let base = self.layer(0);
        let seed = Seeds::Evaluated(ep);
        let mut stats = search_into(&base, seed, dist, k, ef, scratch, &mut results);
        // Plus the entry evaluation and one routing hop per upper layer.
        stats.evals += 1;
        stats.hops += routing_hops;
        SearchOutput { results, stats }
    }

    /// Number of indexed vertices.
    pub(crate) fn len(&self) -> usize {
        self.links.len()
    }

    /// Mean base-layer out-degree.
    pub(crate) fn avg_degree(&self) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        // INVARIANT: every inserted vertex has at least a base layer.
        let total: usize = self.links.iter().map(|l| l[0].len()).sum();
        total as f64 / self.links.len() as f64
    }

    /// Status-panel description.
    pub(crate) fn describe(&self) -> String {
        format!(
            "hnsw over {} vertices ({} layers, M={}, efC={})",
            self.links.len(),
            self.max_level + 1,
            self.params.m,
            self.params.ef_construction
        )
    }
}

impl Hnsw {
    /// Fraction of vertices that must be reachable from the entry over the
    /// base layer for [`Hnsw::validate`] to accept the index. HNSW gives no
    /// hard connectivity guarantee (neighbour re-pruning can orphan
    /// vertices), but on any realistic corpus the reachable fraction is
    /// essentially 1; a structurally corrupted graph falls far below this.
    pub const REACHABILITY_FLOOR: f64 = 0.9;

    /// Audits the structural invariants of the built index and returns
    /// every violation found (empty = sound).
    ///
    /// Checked invariants:
    /// - the entry vertex is in range and populated up to `max_level`;
    /// - `max_level` equals the highest populated layer over all vertices;
    /// - every vertex has at least the base layer;
    /// - per layer: degree within the cap (`2m` at layer 0, `m` above), no
    ///   self-loops, no duplicate neighbours, endpoints in range;
    /// - layer-`l` edges only point at vertices populated at layer `l`
    ///   (the HNSW hierarchy property);
    /// - at least [`Hnsw::REACHABILITY_FLOOR`] of the vertices are
    ///   reachable from the entry over the base layer.
    ///
    /// Strict edge *symmetry* is deliberately not required: insertion
    /// re-prunes the reverse lists, so a forward edge may legally lack its
    /// mirror.
    pub fn validate(&self) -> Vec<InvariantViolation> {
        let n = self.links.len();
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        if self.entry as usize >= n {
            out.push(InvariantViolation::BadEntry {
                detail: format!("entry {} out of range (n = {n})", self.entry),
            });
        // INVARIANT: the else-if branch only runs with entry < n checked.
        } else if self.links[self.entry as usize].len() != self.max_level + 1 {
            out.push(InvariantViolation::BadEntry {
                detail: format!(
                    "entry {} has {} layer(s), expected max_level + 1 = {}",
                    self.entry,
                    // INVARIANT: entry < n re-checked in this branch.
                    self.links[self.entry as usize].len(),
                    self.max_level + 1
                ),
            });
        }
        let highest = self.links.iter().map(Vec::len).max().unwrap_or(1) - 1;
        if highest != self.max_level {
            out.push(InvariantViolation::SizeMismatch {
                context: "hnsw max_level".to_string(),
                expected: highest,
                got: self.max_level,
            });
        }
        for (vi, layers) in self.links.iter().enumerate() {
            let v = vi as VecId;
            if layers.is_empty() {
                out.push(InvariantViolation::SizeMismatch {
                    context: format!("hnsw vertex {v} layer count"),
                    expected: 1,
                    got: 0,
                });
                continue;
            }
            for (level, nb) in layers.iter().enumerate() {
                let context = format!("hnsw layer {level}");
                let cap = if level == 0 {
                    self.params.m * 2
                } else {
                    self.params.m
                };
                if nb.len() > cap {
                    out.push(InvariantViolation::DegreeOverflow {
                        context: context.clone(),
                        id: v,
                        degree: nb.len(),
                        cap,
                    });
                }
                let mut seen = std::collections::HashSet::new();
                for &u in nb {
                    if u as usize >= n {
                        out.push(InvariantViolation::IdOutOfRange {
                            context: context.clone(),
                            id: u,
                            n,
                        });
                        continue;
                    }
                    if u == v {
                        out.push(InvariantViolation::SelfLoop {
                            context: context.clone(),
                            id: v,
                        });
                    }
                    if !seen.insert(u) {
                        out.push(InvariantViolation::DuplicateNeighbor {
                            context: context.clone(),
                            id: v,
                            neighbor: u,
                        });
                    }
                    // INVARIANT: out-of-range u was reported + skipped above.
                    let u_levels = self.links[u as usize].len();
                    if u_levels <= level {
                        out.push(InvariantViolation::CrossLevelEdge {
                            vertex: v,
                            level,
                            neighbor: u,
                            neighbor_levels: u_levels,
                        });
                    }
                }
            }
        }
        if (self.entry as usize) < n {
            // BFS over the raw base layer (not `base_layer()`, whose
            // construction would debug-assert on the very defects this
            // audit exists to report). Out-of-range ids are skipped; they
            // are already reported above.
            let mut seen = VisitedSet::new(n);
            seen.next_epoch();
            let mut queue = std::collections::VecDeque::from([self.entry]);
            seen.insert(self.entry);
            let mut reached = 1usize;
            while let Some(v) = queue.pop_front() {
                // INVARIANT: only ids < n are enqueued (guarded below).
                for &u in self.links[v as usize]
                    .first()
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                {
                    if (u as usize) < n && seen.insert(u) {
                        reached += 1;
                        queue.push_back(u);
                    }
                }
            }
            if (reached as f64) < Self::REACHABILITY_FLOOR * n as f64 {
                out.push(InvariantViolation::LowReachability {
                    context: "hnsw base layer".to_string(),
                    reached,
                    n,
                    floor: Self::REACHABILITY_FLOOR,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatSearcher;
    use mqa_rng::StdRng;

    impl Hnsw {
        fn search(&self, dist: &mut FlatDistance<'_>, k: usize, ef: usize) -> SearchOutput {
            self.descend_and_walk(dist, k, ef, &mut SearchScratch::new())
        }
    }

    fn random_store(n: usize, dim: usize, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn single_vector_index() {
        let mut store = VectorStore::new(2);
        store.push(&[1.0, 2.0]);
        let h = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        let q = [1.0f32, 2.0];
        let mut d = FlatDistance::new(&store, &q, Metric::L2).unwrap();
        let out = h.search(&mut d, 1, 10);
        assert_eq!(out.ids(), vec![0]);
    }

    #[test]
    fn recall_against_flat() {
        let store = random_store(1_500, 12, 1);
        let h = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        let flat = FlatSearcher::new(store.len());
        let mut rng = StdRng::seed_from_u64(9);
        let k = 10;
        let mut hits = 0;
        let queries = 30;
        for _ in 0..queries {
            let q: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut d1 = FlatDistance::new(&store, &q, Metric::L2).unwrap();
            let truth = flat.scan(&mut d1, k, |_| true).ids();
            let mut d2 = FlatDistance::new(&store, &q, Metric::L2).unwrap();
            let got = h.search(&mut d2, k, 80).ids();
            hits += got.iter().filter(|id| truth.contains(id)).count();
        }
        let recall = hits as f64 / (queries * k) as f64;
        assert!(recall > 0.9, "hnsw recall {recall}");
    }

    #[test]
    fn base_layer_degrees_bounded() {
        let store = random_store(500, 8, 2);
        let params = HnswParams {
            m: 8,
            ef_construction: 60,
            seed: 0,
        };
        let h = Hnsw::build(&store, Metric::L2, &params);
        let base = h.base_layer();
        assert!(
            base.max_degree() <= 16,
            "layer-0 degree {}",
            base.max_degree()
        );
        for v in 0..500u32 {
            assert!(!base.neighbors(v).contains(&v), "self loop at {v}");
        }
    }

    #[test]
    fn base_layer_is_mostly_connected() {
        let store = random_store(800, 8, 3);
        let h = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        let base = h.base_layer();
        // Bidirectional linking keeps layer 0 connected in practice.
        let reach = base.reachable_count(h.entry());
        assert!(reach as f64 / 800.0 > 0.99, "reachable {reach}/800");
    }

    #[test]
    fn deterministic_in_seed() {
        let store = random_store(300, 6, 4);
        let a = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        let b = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        assert_eq!(a.base_layer(), b.base_layer());
        assert_eq!(a.entry(), b.entry());
    }

    #[test]
    fn describe_reports_layers() {
        let store = random_store(200, 4, 5);
        let h = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        assert!(h.describe().contains("hnsw"));
        assert!(h.max_level() < 10);
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn empty_store_panics() {
        Hnsw::build(&VectorStore::new(2), Metric::L2, &HnswParams::default());
    }

    #[test]
    fn incremental_growth_matches_batch_build() {
        let store = random_store(400, 8, 7);
        let batch = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        // Build over the first half, then grow to the full store.
        let mut half_store = VectorStore::new(8);
        for id in 0..200u32 {
            half_store.push(store.get(id));
        }
        let mut grown = Hnsw::build(&half_store, Metric::L2, &HnswParams::default());
        grown.extend_from(&store, Metric::L2, &Tombstones::new(0));
        assert_eq!(grown.len(), 400);
        assert_eq!(batch.base_layer(), grown.base_layer());
        assert_eq!(batch.entry(), grown.entry());
    }

    #[test]
    fn grown_index_finds_new_objects() {
        let mut store = random_store(300, 8, 8);
        let mut h = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        // Ingest 50 new objects and grow the index.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            store.push(&v);
        }
        h.extend_from(&store, Metric::L2, &Tombstones::new(0));
        for id in 300..350u32 {
            let mut d = FlatDistance::for_vertex(&store, id, Metric::L2);
            let out = h.search(&mut d, 1, 64);
            assert_eq!(out.results[0].id, id, "new object {id} not found");
        }
    }

    #[test]
    fn compact_unlinks_dead_vertices() {
        let store = random_store(400, 8, 21);
        let mut h = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        let mut tomb = Tombstones::new(400);
        // Kill a spread of vertices (skip the entry so the entry-exception
        // path is exercised separately below).
        for id in (0..400u32).step_by(7) {
            if id != h.entry() {
                tomb.kill(id);
            }
        }
        h.compact(&store, Metric::L2, &tomb);
        let mut into_dead = 0usize;
        h.for_each_edge(|_, _, u| {
            if tomb.is_dead(u) {
                into_dead += 1;
            }
        });
        assert_eq!(into_dead, 0, "compaction left edges into dead vertices");
        // Dead vertices are fully unlinked; live ones keep bounded degree.
        for id in tomb.iter_dead() {
            assert!(h.neighbors(id, 0).is_empty(), "dead {id} still linked");
        }
        assert!(h
            .validate()
            .iter()
            .all(|v| matches!(v, InvariantViolation::LowReachability { .. })));
        // Live objects are still discoverable after the rewiring.
        let mut found = 0usize;
        let mut probed = 0usize;
        for id in (1..400u32).step_by(13).filter(|&id| !tomb.is_dead(id)) {
            probed += 1;
            let mut d = FlatDistance::for_vertex(&store, id, Metric::L2);
            let out = h.search(&mut d, 5, 64);
            if out.ids().contains(&id) {
                found += 1;
            }
        }
        assert!(
            found * 10 >= probed * 9,
            "post-compaction discoverability {found}/{probed}"
        );
    }

    #[test]
    fn compact_keeps_dead_entry_routing() {
        let store = random_store(200, 6, 22);
        let mut h = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        let entry = h.entry();
        let mut tomb = Tombstones::new(200);
        tomb.kill(entry);
        h.compact(&store, Metric::L2, &tomb);
        // The dead entry keeps out-edges (to live targets only) so search
        // can still seed from it.
        assert!(!h.neighbors(entry, 0).is_empty());
        assert!(h.neighbors(entry, 0).iter().all(|&u| !tomb.is_dead(u)));
        let mut into_dead = 0usize;
        h.for_each_edge(|_, _, u| {
            if tomb.is_dead(u) {
                into_dead += 1;
            }
        });
        assert_eq!(into_dead, 0);
    }

    #[test]
    fn validate_accepts_built_index() {
        let store = random_store(400, 8, 3);
        let h = Hnsw::build(&store, Metric::L2, &HnswParams::default());
        let violations = h.validate();
        assert!(violations.is_empty(), "sound index flagged: {violations:?}");
    }

    #[test]
    fn validate_detects_corruption() {
        use crate::validate::InvariantViolation as V;
        let store = random_store(200, 6, 4);
        let sound = Hnsw::build(&store, Metric::L2, &HnswParams::default());

        // Out-of-range neighbour.
        let mut h = sound.clone();
        h.links[3][0].push(10_000);
        assert!(h
            .validate()
            .iter()
            .any(|v| matches!(v, V::IdOutOfRange { id: 10_000, .. })));

        // Self-loop.
        let mut h = sound.clone();
        h.links[5][0].push(5);
        assert!(h
            .validate()
            .iter()
            .any(|v| matches!(v, V::SelfLoop { id: 5, .. })));

        // Duplicate neighbour.
        let mut h = sound.clone();
        if let Some(&u) = h.links[7][0].first() {
            h.links[7][0].push(u);
        }
        assert!(h
            .validate()
            .iter()
            .any(|v| matches!(v, V::DuplicateNeighbor { id: 7, .. })));

        // Degree overflow at layer 0 (cap 2m).
        let mut h = sound.clone();
        let cap = h.params.m * 2;
        h.links[2][0] = (0..=cap as VecId).map(|i| (i + 10) % 200).collect();
        assert!(h
            .validate()
            .iter()
            .any(|v| matches!(v, V::DegreeOverflow { id: 2, .. })));

        // Cross-level edge: a layer-1 edge to a base-only vertex.
        let mut h = sound.clone();
        let tall = (0..h.links.len()).find(|&v| h.links[v].len() > 1);
        let short = (0..h.links.len()).find(|&v| h.links[v].len() == 1);
        if let (Some(t), Some(s)) = (tall, short) {
            h.links[t][1].insert(0, s as VecId);
            assert!(h
                .validate()
                .iter()
                .any(|v| matches!(v, V::CrossLevelEdge { .. })));
        }

        // Forged entry: points below the top layer.
        let mut h = sound.clone();
        if let Some(s) = short {
            h.entry = s as VecId;
            assert!(h.validate().iter().any(|v| matches!(v, V::BadEntry { .. })));
        }

        // Severed base layer: isolate most of the graph from the entry.
        let mut h = sound;
        for v in 0..150usize {
            h.links[v][0].clear();
        }
        assert!(h
            .validate()
            .iter()
            .any(|v| matches!(v, V::LowReachability { .. })));
    }
}
