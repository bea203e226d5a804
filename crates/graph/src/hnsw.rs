//! Hierarchical Navigable Small World graphs.
//!
//! A faithful HNSW implementation: geometric level assignment, greedy
//! descent through the upper layers, beam search with
//! `SELECT-NEIGHBORS-HEURISTIC` diversification at insertion, bidirectional
//! linking with overflow re-pruning. Built directly (its layered structure
//! does not flatten into the five-stage pipeline) and searched through the
//! same [`crate::BuiltGraph`] dispatcher as the pipeline-built graphs,
//! which is what makes it selectable from the configuration panel. Each
//! layer is an [`Adjacency`] over the whole population, so the layers are
//! edited, walked, compacted and checked by the code the flat graphs use.
//!
//! Every list the heuristic installs — a vertex's own selection, an
//! overflow re-prune, compaction's rewire — is stored as its output is
//! ordered: the entries it *kept* ascending, then the *fillers* it
//! back-filled ascending, and the list records both counts
//! ([`Adjacency::clean_len`], [`Adjacency::filler_len`]). When a reverse
//! edge meets a full list, the re-prune (`Reprune::add_edge`) runs over
//! the list plus the new edge before the list grows. It ranks the edge
//! against the recorded runs at their stored distances and trusts the
//! records: two kept entries are known not to dominate each other, and a
//! filler is known to be dominated by a kept entry before it unless a kept
//! entry was dominated earlier in the pass. So it tests only the new edge,
//! the kept entries the new edge might dominate, and the fillers after
//! such a demotion, and installs the same list, order included, as the
//! heuristic from scratch.

use crate::adjacency::Adjacency;
use crate::live::Tombstones;
use crate::prune::{hnsw_heuristic, Reprune, Rule};
use crate::scratch::{with_pooled, SearchScratch};
use crate::search::{search_into, SearchOutput, SearchStats, Seeds};
use crate::traits::{DistanceFn, FlatDistance};
use crate::validate::{check_bound, check_layer, InvariantViolation};
use mqa_rng::StdRng;
use mqa_vector::{Candidate, VecId, VectorStore};
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

impl HnswParams {
    /// Degree cap of layer `level`: `2m` at the base, `m` above.
    fn cap(&self, level: usize) -> usize {
        if level == 0 {
            self.m * 2
        } else {
            self.m
        }
    }
}

/// A built HNSW index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hnsw {
    /// `layers[l]` = every vertex's out-neighbours at level `l`; a vertex's
    /// lists above its own level stay empty.
    layers: Vec<Adjacency>,
    /// Each vertex's top level.
    levels: Vec<u8>,
    entry: VecId,
    params: HnswParams,
}

impl Hnsw {
    /// Builds the index over every vector of `store`.
    ///
    /// # Panics
    /// Panics if the store is empty, `m < 2` (the level multiplier is
    /// `1 / ln m`) or `ef_construction == 0`.
    pub fn build(store: &VectorStore, params: &HnswParams) -> Self {
        assert!(!store.is_empty(), "HNSW over an empty store");
        assert!(params.m >= 2, "HNSW requires m >= 2");
        assert!(
            params.ef_construction > 0,
            "HNSW requires ef_construction >= 1"
        );
        let mut hnsw = Hnsw {
            layers: Vec::new(),
            levels: Vec::with_capacity(store.len()),
            entry: 0,
            params: *params,
        };
        hnsw.extend_from(store, &Tombstones::new(0));
        hnsw
    }

    /// Appends every not-yet-indexed vector of `store` — incremental growth
    /// after a batch build. HNSW is the family member with natural
    /// *incremental* construction, which is how MQA can grow a knowledge
    /// base without a rebuild: push new objects to the store, then call
    /// this. Batch building and incremental growth produce identical
    /// indexes: the vertex inserted is always `self.len()`, and its level
    /// derives from `(seed, id)`. Ids `tomb` marks compacted may still
    /// route (a retired entry) but are never linked to.
    pub fn extend_from(&mut self, store: &VectorStore, tomb: &Tombstones) {
        let level_mult = 1.0 / (self.params.m as f64).ln();
        with_pooled(|scratch| {
            for v in self.len() as VecId..store.len() as VecId {
                let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x9A55 ^ (v as u64) << 17);
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                // INVARIANT: the cast saturates, and m >= 2 bounds the level
                // by -ln(ε) / ln 2 < 53 anyway.
                let level = (-u.ln() * level_mult).floor() as u8;
                self.levels.push(level);
                let n = self.levels.len();
                for layer in &mut self.layers {
                    layer.grow(n);
                }
                self.insert(store, tomb, v, usize::from(level), scratch);
                if usize::from(level) >= self.layers.len() {
                    self.layers
                        .resize(usize::from(level) + 1, Adjacency::new(n));
                    self.entry = v;
                }
            }
        });
    }

    /// Links `v` (top level `level`) into every existing layer up to
    /// `level`; the first vertex of an empty index has nothing to link to.
    fn insert(
        &mut self,
        store: &VectorStore,
        tomb: &Tombstones,
        v: VecId,
        level: usize,
        scratch: &mut SearchScratch,
    ) {
        let Some(top) = self.layers.len().checked_sub(1) else {
            return;
        };
        let mut dist = FlatDistance::for_vertex(store, v);
        let mut ep = Candidate::new(self.entry, dist.exact(self.entry));
        let mut walked = SearchStats {
            evals: 1,
            ..SearchStats::default()
        };

        // Greedy descent through layers above the node's level.
        for layer in self.layers.iter().take(top + 1).skip(level + 1).rev() {
            ep = greedy_step(layer, &mut dist, ep, &mut walked);
        }

        // Beam insertion from min(level, top) down to 0.
        let ef = self.params.ef_construction;
        let mut cands = Vec::new();
        for lc in (0..=level.min(top)).rev() {
            let cap = self.params.cap(lc);
            // INVARIANT: lc <= top, the index of the last layer.
            let layer = &mut self.layers[lc];
            let seed = Seeds::Evaluated(ep);
            let stats = search_into(&*layer, seed, &mut dist, ef, ef, scratch, &mut cands);
            walked.merge(&stats);
            // Best candidate of this layer seeds the next one down, a
            // retired entry included; a retired entry is never selected.
            if let Some(best) = cands.first() {
                ep = *best;
            }
            cands.retain(|c| !tomb.is_compacted(c.id));
            // No records: the heuristic from scratch.
            let candidates = cands.iter().copied();
            let (picks, kept) = scratch
                .reprune
                .run(store, v, candidates, (0, 0), Rule::Hnsw, cap);
            layer.set_pruned(v, picks, kept);
            // The picks leave the re-prune's buffers, which the reverse
            // edges reuse.
            cands.clear();
            cands.extend_from_slice(picks);
            for p in &cands {
                // `l2_sq` is symmetric to the bit: the reverse edge carries
                // the forward distance.
                let back = Candidate::new(v, p.dist);
                scratch
                    .reprune
                    .add_edge(store, layer, p.id, back, Rule::Hnsw, cap);
            }
        }
        crate::prune::record_construction(walked.evals);
    }

    /// Recomputes every layer's stored edge distances from `store` (see
    /// [`Adjacency::restore_distances`]).
    pub(crate) fn restore_distances(&mut self, store: &VectorStore) {
        for layer in &mut self.layers {
            layer.restore_distances(store);
        }
    }

    /// Highest populated layer.
    pub fn max_level(&self) -> usize {
        self.layers.len().saturating_sub(1)
    }

    /// The layers, base first.
    pub(crate) fn layers(&self) -> &[Adjacency] {
        &self.layers
    }

    /// The base layer (used by the Starling layout, which pages it).
    pub fn base_layer(&self) -> &Adjacency {
        // INVARIANT: a built index has at least its base layer.
        &self.layers[0]
    }

    /// The current global entry vertex.
    pub fn entry(&self) -> VecId {
        self.entry
    }

    /// Visits every directed edge of every layer as `(level, from, to)`,
    /// vertex by vertex, each vertex's layers base first.
    pub fn for_each_edge(&self, mut f: impl FnMut(usize, VecId, VecId)) {
        for v in 0..self.len() as VecId {
            for (level, layer) in self.layers.iter().enumerate() {
                for &u in layer.neighbors(v) {
                    f(level, v, u);
                }
            }
        }
    }

    /// Rewires every layer around the dead vertices of `tomb` through
    /// `Tombstones::rewire`, re-pruning with the construction heuristic
    /// at the layer's cap; the entry is the one dead vertex that keeps
    /// (live-spliced) out-edges, so it can continue to seed searches. Then
    /// the pipeline's repair step re-attaches every live vertex the base
    /// layer no longer reaches from the entry, from a list with room under
    /// the cap where one is near. After this pass no edge points *into* a
    /// dead vertex and no list exceeds its cap.
    pub fn compact(&mut self, store: &VectorStore, tomb: &Tombstones) {
        let (entry, params) = (self.entry, self.params);
        for (level, layer) in self.layers.iter_mut().enumerate() {
            let cap = params.cap(level);
            tomb.rewire(
                layer,
                store,
                |v| v == entry,
                |v, pool| hnsw_heuristic(store, v, pool, cap),
            );
        }
        if let Some(base) = self.layers.first_mut() {
            let cap = params.cap(0);
            crate::pipeline::reattach(store, base, &[entry], tomb, |base, v, near| {
                with_pooled(|s| attach_within_cap(store, base, v, near, cap, &mut s.reprune))
            });
        }
    }

    /// Greedy descent through the upper layers, then the shared walk on
    /// the base layer — compiled around the evaluator's type.
    pub(crate) fn descend_and_walk<D: DistanceFn + ?Sized>(
        &self,
        dist: &mut D,
        k: usize,
        ef: usize,
        scratch: &mut SearchScratch,
    ) -> SearchOutput {
        // The entry evaluation, then the upper-layer routing.
        let mut routing = SearchStats {
            evals: 1,
            ..SearchStats::default()
        };
        let mut ep = Candidate::new(self.entry, dist.exact(self.entry));
        let Some((base, upper)) = self.layers.split_first() else {
            return SearchOutput::default();
        };
        for layer in upper.iter().rev() {
            ep = greedy_step(layer, dist, ep, &mut routing);
        }
        // ALLOC: the returned hit list, sized once by the copy.
        let mut results = Vec::new();
        let seed = Seeds::Evaluated(ep);
        let mut stats = search_into(base, seed, dist, k, ef, scratch, &mut results);
        stats.merge(&routing);
        SearchOutput { results, stats }
    }

    /// Number of indexed vertices.
    pub(crate) fn len(&self) -> usize {
        self.levels.len()
    }

    /// Status-panel description.
    pub(crate) fn describe(&self) -> String {
        format!(
            "hnsw over {} vertices ({} layers, M={}, efC={})",
            self.len(),
            self.layers.len(),
            self.params.m,
            self.params.ef_construction
        )
    }

    /// Fraction of vertices that must be reachable from the entry over the
    /// base layer for [`Hnsw::validate`] to accept the index. HNSW gives no
    /// hard connectivity guarantee (neighbour re-pruning can orphan
    /// vertices), but on any realistic corpus the reachable fraction is
    /// essentially 1; a structurally corrupted graph falls far below this.
    pub const REACHABILITY_FLOOR: f64 = 0.9;

    /// Audits the structural invariants of the built index against the
    /// `store` it indexes and the deletion state `tomb` of its generation
    /// (`Tombstones::new(0)` for a never-compacted index), and returns
    /// every violation found (empty = sound).
    ///
    /// Checked invariants:
    /// - the recipe growth links under meets the bounds
    ///   [`Hnsw::build`] asserts: `m >= 2`, `ef_construction >= 1`;
    /// - one layer per level up to the highest vertex level, each over the
    ///   whole population, and the entry on the top layer;
    /// - every layer passes [`check_layer`] under [`Rule::Hnsw`]: sound
    ///   adjacency, then, on a layer that covers the store, the stored
    ///   distances and the records the re-prune trusts (the kept prefix
    ///   pairwise undominated, each filler dominated by a kept entry ranked
    ///   before it), and no edge into an id `tomb` marks compacted;
    /// - every list within its layer's degree cap (`2m` at layer 0, `m`
    ///   above, none above the vertex's own level), and layer-`l` edges
    ///   only pointing at vertices whose level reaches `l` (the HNSW
    ///   hierarchy property);
    /// - while no id has been compacted, at least
    ///   [`Hnsw::REACHABILITY_FLOOR`] of the vertices are reachable from
    ///   the entry over the base layer. Compaction legitimately unlinks
    ///   dead vertices, which the floor would misread as corruption.
    ///
    /// Strict edge *symmetry* is deliberately not required: insertion
    /// re-prunes the reverse lists, so a forward edge may legally lack its
    /// mirror.
    pub fn validate(&self, store: &VectorStore, tomb: &Tombstones) -> Vec<InvariantViolation> {
        let (n, params) = (self.len(), self.params);
        let mut out = Vec::new();
        let ef = params.ef_construction;
        out.extend(check_bound("hnsw", params.m >= 2, "m >= 2", params.m));
        out.extend(check_bound("hnsw", ef >= 1, "ef_construction >= 1", ef));
        let Some(&highest) = self.levels.iter().max() else {
            return out;
        };
        let layers = usize::from(highest) + 1;
        if self.layers.len() != layers {
            out.push(InvariantViolation::SizeMismatch {
                context: "hnsw layer count".to_string(),
                expected: layers,
                got: self.layers.len(),
            });
        }
        match self.levels.get(self.entry as usize) {
            None => out.push(InvariantViolation::BadEntry {
                detail: format!("entry {} out of range (n = {n})", self.entry),
            }),
            Some(&l) if l != highest => out.push(InvariantViolation::BadEntry {
                detail: format!("entry {} has level {l}, the top is {highest}", self.entry),
            }),
            Some(_) => {}
        }
        let level_of = |v: VecId| self.levels.get(v as usize).map(|&l| usize::from(l));
        for (level, layer) in self.layers.iter().enumerate() {
            let context = format!("hnsw layer {level}");
            if layer.len() != n {
                out.push(InvariantViolation::SizeMismatch {
                    context: format!("{context} population"),
                    expected: n,
                    got: layer.len(),
                });
            }
            out.extend(check_layer(&context, layer, store, Rule::Hnsw, tomb));
            for v in 0..layer.len() as VecId {
                // A vertex holds no edges above its own level.
                let cap = match level_of(v) {
                    Some(l) if l >= level => params.cap(level),
                    _ => 0,
                };
                let degree = layer.degree(v);
                if degree > cap {
                    out.push(InvariantViolation::DegreeOverflow {
                        context: context.clone(),
                        id: v,
                        degree,
                        cap,
                    });
                }
                for &u in layer.neighbors(v) {
                    if let Some(l) = level_of(u).filter(|&l| l < level) {
                        out.push(InvariantViolation::CrossLevelEdge {
                            vertex: v,
                            level,
                            neighbor: u,
                            neighbor_levels: l + 1,
                        });
                    }
                }
            }
        }
        let floored = (self.entry as usize) < n && tomb.compacted_count() == 0;
        if let Some(base) = self.layers.first().filter(|_| floored) {
            let reached = base.reachable_count(self.entry);
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

/// Links the orphan `v` from the nearest of `near` whose list has room
/// under `cap`. When every one is full, from each in turn, nearest first,
/// re-pruning its list with the new edge to the cap like any overflow
/// ([`Reprune::add_edge`]), until the heuristic keeps `v`; a list that
/// drops `v` is left as the re-prune made it. Returns whether `v` is
/// linked.
fn attach_within_cap(
    store: &VectorStore,
    layer: &mut Adjacency,
    v: VecId,
    near: &[Candidate],
    cap: usize,
    reprune: &mut Reprune,
) -> bool {
    if let Some(p) = near.iter().find(|p| layer.degree(p.id) < cap) {
        return layer.add_edge(p.id, v, p.dist);
    }
    near.iter().any(|p| {
        let edge = Candidate::new(v, p.dist);
        reprune.add_edge(store, layer, p.id, edge, Rule::Hnsw, cap)
    })
}

/// One greedy (ef = 1) routing step through `layer`, counting each
/// neighbour list read as a hop and each evaluation in `stats`.
fn greedy_step<D: DistanceFn + ?Sized>(
    layer: &Adjacency,
    dist: &mut D,
    mut ep: Candidate,
    stats: &mut SearchStats,
) -> Candidate {
    loop {
        let mut improved = false;
        let neighbors = layer.neighbors(ep.id);
        stats.hops += 1;
        stats.evals += neighbors.len() as u64;
        for &u in neighbors {
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
        let h = Hnsw::build(&store, &HnswParams::default());
        let q = [1.0f32, 2.0];
        let mut d = FlatDistance::new(&store, &q).unwrap();
        let out = h.search(&mut d, 1, 10);
        assert_eq!(out.ids(), vec![0]);
    }

    #[test]
    fn recall_against_flat() {
        let store = random_store(1_500, 12, 1);
        let h = Hnsw::build(&store, &HnswParams::default());
        let flat = FlatSearcher::new(store.len());
        let mut rng = StdRng::seed_from_u64(9);
        let k = 10;
        let mut hits = 0;
        let queries = 30;
        for _ in 0..queries {
            let q: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut d1 = FlatDistance::new(&store, &q).unwrap();
            let truth = flat.scan(&mut d1, k, |_| true).ids();
            let mut d2 = FlatDistance::new(&store, &q).unwrap();
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
        let h = Hnsw::build(&store, &params);
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
        let h = Hnsw::build(&store, &HnswParams::default());
        let base = h.base_layer();
        // Bidirectional linking keeps layer 0 connected in practice.
        let reach = base.reachable_count(h.entry());
        assert!(reach as f64 / 800.0 > 0.99, "reachable {reach}/800");
    }

    #[test]
    fn deterministic_in_seed() {
        let store = random_store(300, 6, 4);
        let a = Hnsw::build(&store, &HnswParams::default());
        let b = Hnsw::build(&store, &HnswParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn describe_reports_layers() {
        let store = random_store(200, 4, 5);
        let h = Hnsw::build(&store, &HnswParams::default());
        assert!(h.describe().contains("hnsw"));
        assert!(h.max_level() < 10);
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn empty_store_panics() {
        Hnsw::build(&VectorStore::new(2), &HnswParams::default());
    }

    #[test]
    fn incremental_growth_matches_batch_build() {
        let store = random_store(400, 8, 7);
        let batch = Hnsw::build(&store, &HnswParams::default());
        // Build over the first half, then grow to the full store.
        let mut half_store = VectorStore::new(8);
        for id in 0..200u32 {
            half_store.push(store.get(id));
        }
        let mut grown = Hnsw::build(&half_store, &HnswParams::default());
        grown.extend_from(&store, &Tombstones::new(0));
        assert_eq!(grown.len(), 400);
        // Every layer, every level and the entry.
        assert_eq!(batch, grown);
    }

    #[test]
    fn grown_index_finds_new_objects() {
        let mut store = random_store(300, 8, 8);
        let mut h = Hnsw::build(&store, &HnswParams::default());
        // Ingest 50 new objects and grow the index.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            store.push(&v);
        }
        h.extend_from(&store, &Tombstones::new(0));
        for id in 300..350u32 {
            let mut d = FlatDistance::for_vertex(&store, id);
            let out = h.search(&mut d, 1, 64);
            assert_eq!(out.results[0].id, id, "new object {id} not found");
        }
    }

    #[test]
    fn compact_unlinks_dead_vertices() {
        let store = random_store(400, 8, 21);
        let mut h = Hnsw::build(&store, &HnswParams::default());
        let mut tomb = Tombstones::new(400);
        // Kill a spread of vertices (skip the entry so the entry-exception
        // path is exercised separately below).
        for id in (0..400u32).step_by(7) {
            if id != h.entry() {
                tomb.kill(id);
            }
        }
        h.compact(&store, &tomb);
        let mut into_dead = 0usize;
        h.for_each_edge(|_, _, u| {
            if tomb.is_dead(u) {
                into_dead += 1;
            }
        });
        assert_eq!(into_dead, 0, "compaction left edges into dead vertices");
        // Dead vertices are fully unlinked; live ones keep bounded degree.
        for id in tomb.iter_dead() {
            assert!(
                h.base_layer().neighbors(id).is_empty(),
                "dead {id} still linked"
            );
        }
        assert!(h
            .validate(&store, &Tombstones::new(0))
            .iter()
            .all(|v| matches!(v, InvariantViolation::LowReachability { .. })));
        // Live objects are still discoverable after the rewiring.
        let mut found = 0usize;
        let mut probed = 0usize;
        for id in (1..400u32).step_by(13).filter(|&id| !tomb.is_dead(id)) {
            probed += 1;
            let mut d = FlatDistance::for_vertex(&store, id);
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
        let mut h = Hnsw::build(&store, &HnswParams::default());
        let entry = h.entry();
        let mut tomb = Tombstones::new(200);
        tomb.kill(entry);
        h.compact(&store, &tomb);
        // The dead entry keeps out-edges (to live targets only) so search
        // can still seed from it.
        assert!(!h.base_layer().neighbors(entry).is_empty());
        assert!(h
            .base_layer()
            .neighbors(entry)
            .iter()
            .all(|&u| !tomb.is_dead(u)));
        let mut into_dead = 0usize;
        h.for_each_edge(|_, _, u| {
            if tomb.is_dead(u) {
                into_dead += 1;
            }
        });
        assert_eq!(into_dead, 0);
    }

    /// The records through a real life cycle: at every overflow of build →
    /// grow → compact → grow, at m = 2, 4 and 16, the incremental re-prune
    /// equals the heuristic from scratch (asserted inside
    /// `Reprune::add_edge`, and counted here so the check cannot silently
    /// stop running), and the validator, which checks every record and
    /// every degree cap, finds nothing but the reachability compaction may
    /// cost. Compaction's repair attaches its orphans within the cap, at
    /// m = 2 by re-pruning full lists.
    #[test]
    fn every_overflow_reprune_is_checked_against_the_heuristic() {
        let full = random_store(360, 6, 31);
        let prefix = |n: u32| {
            let mut s = VectorStore::new(6);
            for id in 0..n {
                s.push(full.get(id));
            }
            s
        };
        let checked = || crate::prune::REPRUNES_CHECKED.with(std::cell::Cell::get);
        for m in [2usize, 4, 16] {
            let params = HnswParams {
                m,
                ef_construction: 40,
                seed: m as u64,
            };
            let mut at = checked();
            let mut step = |what: &str| {
                assert!(checked() > at, "m {m}: {what} re-pruned nothing");
                at = checked();
            };
            let mut h = Hnsw::build(&prefix(240), &params);
            step("build");
            assert!(
                h.validate(&prefix(240), &Tombstones::new(0)).is_empty(),
                "m {m}"
            );
            h.extend_from(&prefix(300), &Tombstones::new(0));
            step("growth");
            let mut tomb = Tombstones::new(300);
            for id in (0..300u32).step_by(5).filter(|&id| id != h.entry()) {
                tomb.kill(id);
            }
            h.compact(&prefix(300), &tomb);
            tomb.mark_all_compacted();
            tomb.grow(360);
            h.extend_from(&full, &tomb);
            step("growth after compaction");
            let violations = h.validate(&full, &Tombstones::new(0));
            assert!(
                violations
                    .iter()
                    .all(|v| matches!(v, InvariantViolation::LowReachability { .. })),
                "m {m}: {violations:?}"
            );
        }
    }

    #[test]
    fn validate_accepts_built_index() {
        let store = random_store(400, 8, 3);
        let h = Hnsw::build(&store, &HnswParams::default());
        let violations = h.validate(&store, &Tombstones::new(0));
        assert!(violations.is_empty(), "sound index flagged: {violations:?}");
    }

    #[test]
    fn validate_detects_corruption() {
        use crate::validate::InvariantViolation as V;
        let store = random_store(200, 6, 4);
        let sound = Hnsw::build(&store, &HnswParams::default());

        // Out-of-range neighbour.
        let mut h = sound.clone();
        h.layers[0].lists_mut()[3].push(10_000);
        assert!(h
            .validate(&store, &Tombstones::new(0))
            .iter()
            .any(|v| matches!(v, V::IdOutOfRange { id: 10_000, .. })));

        // A stored distance off by one ulp.
        let mut h = sound.clone();
        let d = &mut h.layers[0].dists_mut()[4][0];
        *d = f32::from_bits(d.to_bits() + 1);
        let u = h.base_layer().neighbors(4)[0];
        assert_eq!(
            h.validate(&store, &Tombstones::new(0)),
            vec![V::WrongEdgeDistance {
                context: "hnsw layer 0".to_string(),
                from: 4,
                to: u,
                stored: h.base_layer().distances(4)[0],
                actual: sound.base_layer().distances(4)[0],
            }]
        );

        // A kept count one too high: the first filler of a list that has
        // one claimed kept, though a kept entry before it dominates it.
        let base = sound.base_layer();
        let v = (0..200)
            .find(|&v| base.clean_len(v) > 0 && base.filler_len(v) > 0)
            .expect("some list holds kept entries and fillers");
        let mut h = sound.clone();
        h.layers[0].clean_mut()[v as usize] += 1;
        h.layers[0].fillers_mut()[v as usize] -= 1;
        let flagged = h.validate(&store, &Tombstones::new(0));
        assert!(
            matches!(flagged.as_slice(), [V::FalseCleanPrefix { id, .. }] if *id == v),
            "{flagged:?}"
        );

        // A filler count reaching past the list.
        let mut h = sound.clone();
        h.layers[0].fillers_mut()[v as usize] += 1;
        let flagged = h.validate(&store, &Tombstones::new(0));
        assert!(
            matches!(flagged.as_slice(), [V::FalseCleanPrefix { id, .. }] if *id == v),
            "{flagged:?}"
        );

        // A kept entry relabelled a filler: nothing before it dominates it.
        let mut h = sound.clone();
        let w = (0..200)
            .find(|&w| base.clean_len(w) > 1)
            .expect("some list kept two entries");
        h.layers[0].clean_mut()[w as usize] -= 1;
        h.layers[0].fillers_mut()[w as usize] += 1;
        let flagged = h.validate(&store, &Tombstones::new(0));
        assert!(
            matches!(flagged.as_slice(), [V::FalseCleanPrefix { id, .. }] if *id == w),
            "{flagged:?}"
        );

        // Self-loop.
        let mut h = sound.clone();
        h.layers[0].lists_mut()[5].push(5);
        assert!(h
            .validate(&store, &Tombstones::new(0))
            .iter()
            .any(|v| matches!(v, V::SelfLoop { id: 5, .. })));

        // Duplicate neighbour.
        let mut h = sound.clone();
        if let Some(&u) = h.base_layer().neighbors(7).first() {
            h.layers[0].lists_mut()[7].push(u);
        }
        assert!(h
            .validate(&store, &Tombstones::new(0))
            .iter()
            .any(|v| matches!(v, V::DuplicateNeighbor { id: 7, .. })));

        // Degree overflow at layer 0 (cap 2m).
        let mut h = sound.clone();
        let cap = h.params.m * 2;
        h.layers[0].lists_mut()[2] = (0..=cap as VecId).map(|i| (i + 10) % 200).collect();
        assert!(h
            .validate(&store, &Tombstones::new(0))
            .iter()
            .any(|v| matches!(v, V::DegreeOverflow { id: 2, .. })));

        // Cross-level edge: a layer-1 edge to a base-only vertex.
        let mut h = sound.clone();
        let tall = h.levels.iter().position(|&l| l > 0);
        let short = h.levels.iter().position(|&l| l == 0);
        if let (Some(t), Some(s)) = (tall, short) {
            h.layers[1].lists_mut()[t].insert(0, s as VecId);
            assert!(h
                .validate(&store, &Tombstones::new(0))
                .iter()
                .any(|v| matches!(v, V::CrossLevelEdge { .. })));
        }

        // Forged entry: points below the top layer.
        let mut h = sound.clone();
        if let Some(s) = short {
            h.entry = s as VecId;
            assert!(h
                .validate(&store, &Tombstones::new(0))
                .iter()
                .any(|v| matches!(v, V::BadEntry { .. })));
        }

        // A list above the vertex's own level: its cap there is 0.
        let mut h = sound.clone();
        if let (Some(t), Some(s)) = (tall, short) {
            h.layers[1].lists_mut()[s].push(t as VecId);
            assert!(h
                .validate(&store, &Tombstones::new(0))
                .iter()
                .any(|v| matches!(v, V::DegreeOverflow { id, cap: 0, .. } if *id == s as VecId)));
        }

        // Severed base layer: isolate most of the graph from the entry.
        let mut h = sound;
        for v in 0..150usize {
            h.layers[0].lists_mut()[v].clear();
        }
        assert!(h
            .validate(&store, &Tombstones::new(0))
            .iter()
            .any(|v| matches!(v, V::LowReachability { .. })));
    }
}
