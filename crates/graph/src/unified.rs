//! The unified multi-vector navigation graph — the paper's Index
//! Construction + Query Execution core.
//!
//! One graph vertex per *object*, even though each object carries several
//! vectors (one per modality). Construction runs any [`IndexAlgorithm`]
//! over the **weighted concatenation** of the modality vectors: scaling
//! each block by `sqrt(w_m)` makes plain L2 on the concatenation equal to
//! the fused weighted distance `Σ w_m‖q_m − o_m‖²`, so every existing graph
//! algorithm works unchanged on multi-modal data.
//!
//! Search is **merging-free**: a query (possibly missing modalities) walks
//! the graph once. Distances are computed by [`FusedDistance`], which wraps
//! `mqa_vector::FusedScanner` — modality-by-modality incremental scanning
//! with early abandonment against the beam bound. Per-modality result
//! merging (the MR baseline) never happens.
//!
//! Query-time weights default to the build weights but can be overridden
//! ("user-specific inputs for search refinement" in the paper); overrides
//! change the scoring, not the graph, so extreme overrides trade recall
//! for control — measured in E6.
//!
//! ## Online mutation
//!
//! The index is *snapshot-published-and-mutable*: searchers pin an
//! immutable [`IndexSnapshot`] through an epoch-stamped
//! [`crate::live::SnapshotCell`]. A generation is four parts — object
//! store, weighted rows, graph, tombstones — and one routine makes the next
//! one: under the writer lock it drafts the current parts by reference,
//! [`UnifiedIndex::add_objects`] / [`UnifiedIndex::remove_objects`] edit
//! the draft through `Arc::make_mut`, and the draft is published
//! atomically, so a part a mutation does not change is shared, not copied.
//! Deletes are tombstones filtered at result-collection time — dead
//! vertices keep routing until the pending dead fraction crosses the
//! compaction threshold, when the graph is rewired around them (see
//! [`crate::live`]).

use crate::live::{
    lock_ignore_poison, MutationError, MutationReport, SnapshotCell, SnapshotGuard, Tombstones,
};
use crate::pipeline::{BuiltGraph, IndexAlgorithm};
use crate::search::SearchOutput;
use crate::traits::DistanceFn;
use crate::validate::{check_tombstones, check_weighted_rows, InvariantViolation};
use mqa_vector::{
    FusedScanner, Metric, MultiVector, MultiVectorStore, ScanStats, Schema, VecId, Weights,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// [`DistanceFn`] adapter: fused weighted distance from a fixed query to
/// objects of a [`MultiVectorStore`], with incremental scanning.
pub struct FusedDistance<'a> {
    store: &'a MultiVectorStore,
    scanner: FusedScanner,
}

impl<'a> FusedDistance<'a> {
    /// Creates the evaluator for `query` under `weights`.
    ///
    /// The `Metric` argument is ignored (L2 is the only distance); it
    /// remains only because the benchmark crate still passes it.
    pub fn new(
        store: &'a MultiVectorStore,
        query: &MultiVector,
        weights: &Weights,
        metric: Metric,
    ) -> Self {
        let scanner = FusedScanner::new(store.schema(), query, weights, metric);
        Self { store, scanner }
    }

    /// Scanner work counters (terms computed vs skipped).
    pub fn scan_stats(&self) -> ScanStats {
        self.scanner.stats()
    }
}

impl DistanceFn for FusedDistance<'_> {
    #[inline]
    fn eval(&mut self, id: VecId, bound: f32) -> Option<f32> {
        self.scanner.distance(self.store.concat_of(id), bound)
    }
}

/// One published generation of the index, as four parts: the object
/// collection, its weighted rows (what the graph's edges were selected
/// over), the navigation structure, and the deletion state. Immutable once
/// published; a clone shares the three `Arc` parts and copies the tombstone
/// words — the writer's draft of the next generation.
#[derive(Debug, Clone)]
pub struct IndexSnapshot {
    store: Arc<MultiVectorStore>,
    weighted: Arc<mqa_vector::VectorStore>,
    searcher: Arc<BuiltGraph>,
    tombstones: Tombstones,
}

impl IndexSnapshot {
    /// The object collection of this generation (live + dead slots).
    pub fn store(&self) -> &MultiVectorStore {
        &self.store
    }

    /// The navigation structure of this generation.
    pub fn searcher(&self) -> &BuiltGraph {
        &self.searcher
    }

    /// The deletion state of this generation.
    pub fn tombstones(&self) -> &Tombstones {
        &self.tombstones
    }

    /// Audits the snapshot's cross-structure invariants and returns every
    /// violation found (empty = sound). `weights` are the owning index's:
    /// the graph's edges were selected over the held weighted rows, which
    /// is what their stored distances and clean prefixes are checked in.
    ///
    /// - the navigation structure covers exactly the store population;
    /// - `weights` cover exactly the schema's modalities;
    /// - the held weighted rows are the scaled store rows, bit for bit;
    /// - the tombstone bitmaps are internally consistent
    ///   ([`crate::validate::check_tombstones`]);
    /// - the per-family structural validator ([`BuiltGraph::validate`])
    ///   over the held rows and the tombstones, one path for every
    ///   generation, compacted or not.
    pub fn validate(&self, weights: &Weights) -> Vec<InvariantViolation> {
        let n = self.store.len();
        let mut out = Vec::new();
        if self.searcher.len() != n {
            out.push(InvariantViolation::SizeMismatch {
                context: "unified snapshot population".to_string(),
                expected: n,
                got: self.searcher.len(),
            });
        }
        let arity = self.store.schema().arity();
        if weights.arity() != arity {
            out.push(InvariantViolation::SizeMismatch {
                context: "unified snapshot weights arity".to_string(),
                expected: arity,
                got: weights.arity(),
            });
        }
        out.extend(check_tombstones("unified snapshot", n, &self.tombstones));
        out.extend(check_weighted_rows(&self.store, &self.weighted, weights));
        if self.weighted.len() != n {
            return out; // the graph audits read the held rows by vertex id
        }
        out.extend(self.searcher.validate(&self.weighted, &self.tombstones));
        out
    }
}

/// The unified index over a multi-modal object collection.
///
/// ```
/// use mqa_graph::{IndexAlgorithm, UnifiedIndex};
/// use mqa_vector::{Metric, MultiVector, MultiVectorStore, Schema, Weights};
///
/// let schema = Schema::text_image(4, 4);
/// let mut store = MultiVectorStore::new(schema.clone());
/// for i in 0..64 {
///     let x = i as f32 / 64.0;
///     store.push(&MultiVector::complete(&schema, vec![vec![x; 4], vec![-x; 4]]));
/// }
/// let index = UnifiedIndex::build(
///     store,
///     Weights::normalized(&[1.2, 0.8]),
///     Metric::L2,
///     &IndexAlgorithm::hnsw(),
/// );
///
/// // A text-only (partial) query: one merging-free traversal.
/// let query = MultiVector::partial(&schema, vec![Some(vec![0.25; 4]), None]);
/// let out = index.search(&query, None, 3, 16);
/// assert_eq!(out.ids()[0], 16); // x = 16/64 = 0.25
///
/// // Online mutation: retire an object and insert a new one while any
/// // concurrent searcher keeps reading its pinned snapshot.
/// index.remove_objects(&[16]).unwrap();
/// assert!(!index.search(&query, None, 3, 16).ids().contains(&16));
/// let obj = MultiVector::complete(&schema, vec![vec![0.25; 4], vec![-0.25; 4]]);
/// let report = index.add_objects(std::slice::from_ref(&obj)).unwrap();
/// assert_eq!(index.search(&query, None, 3, 16).ids()[0], 64);
/// assert_eq!(report.epoch, 2);
/// ```
pub struct UnifiedIndex {
    weights: Weights,
    build_time: Duration,
    /// The published generation searchers read through an epoch guard.
    published: SnapshotCell<IndexSnapshot>,
    /// Serializes mutators; never held by searchers.
    writer: Mutex<()>,
    /// Raised while a mutation batch is being applied (traces use it to
    /// distinguish quiesced from concurrent-mutation queries).
    mutating: AtomicBool,
}

impl UnifiedIndex {
    /// Pending-dead fraction past which a delete batch triggers graph
    /// compaction (FreshDiskANN-style consolidation territory).
    pub const DEFAULT_COMPACT_THRESHOLD: f64 = 0.2;

    /// Builds the index: weights each object's concatenated representation,
    /// then constructs the chosen navigation graph over it.
    ///
    /// The `Metric` argument is ignored (L2 is the only distance); it
    /// remains only because the benchmark crate still passes it.
    ///
    /// # Panics
    /// Panics if the store is empty or the weights' arity mismatches the
    /// store schema.
    pub fn build(
        store: MultiVectorStore,
        weights: Weights,
        _metric: Metric,
        algorithm: &IndexAlgorithm,
    ) -> Self {
        assert!(!store.is_empty(), "cannot index an empty object collection");
        assert_eq!(
            weights.arity(),
            store.schema().arity(),
            "weights arity must match the schema"
        );
        let build_span = mqa_obs::span(format!("graph.{}.build", algorithm.name()));
        let weighted = Arc::new(store.weighted_store(&weights));
        let searcher = algorithm.build_graph(&weighted);
        let build_time = build_span.finish();
        let tombstones = Tombstones::new(store.len());
        Self::assemble(store, weights, weighted, searcher, tombstones, build_time)
    }

    /// Reassembles an index from persisted parts (see
    /// [`crate::persist::UnifiedSnapshot`]). `tombstones` is the deletion
    /// state to restore — `Tombstones::new(store.len())` for an all-live
    /// index; the reported build time is zero since nothing was built.
    /// The graph's stored edge distances, which a snapshot does not carry,
    /// are recomputed from the weighted rows
    /// ([`BuiltGraph::restore_distances`]).
    ///
    /// # Panics
    /// Panics if `searcher` does not cover exactly the store population.
    pub fn from_parts(
        store: MultiVectorStore,
        weights: Weights,
        mut searcher: BuiltGraph,
        tombstones: Tombstones,
    ) -> Self {
        let weighted = Arc::new(store.weighted_store(&weights));
        searcher.restore_distances(&weighted);
        Self::assemble(
            store,
            weights,
            weighted,
            searcher,
            tombstones,
            Duration::ZERO,
        )
    }

    /// Generation 0 from its parts; `weighted` is the store's one full
    /// weighted-rows pass, which `searcher` was built or restored over.
    fn assemble(
        store: MultiVectorStore,
        weights: Weights,
        weighted: Arc<mqa_vector::VectorStore>,
        searcher: BuiltGraph,
        mut tombstones: Tombstones,
        build_time: Duration,
    ) -> Self {
        assert_eq!(
            searcher.len(),
            store.len(),
            "navigation structure does not match the store"
        );
        tombstones.grow(store.len());
        Self {
            weights,
            build_time,
            published: SnapshotCell::new(IndexSnapshot {
                store: Arc::new(store),
                weighted,
                searcher: Arc::new(searcher),
                tombstones,
            }),
            writer: Mutex::new(()),
            mutating: AtomicBool::new(false),
        }
    }

    /// Captures a serializable snapshot of the whole index.
    pub fn snapshot(&self) -> crate::persist::UnifiedSnapshot {
        let snap = self.published.load();
        crate::persist::UnifiedSnapshot {
            store: snap.store().clone(),
            weights: self.weights.clone(),
            graph: snap.searcher().clone(),
            tombstones: snap.tombstones().clone(),
        }
    }

    /// Pins the current published generation. The guard stays valid (and
    /// immutable) across concurrent mutations; its epoch identifies the
    /// generation.
    pub fn current(&self) -> SnapshotGuard<IndexSnapshot> {
        self.published.load()
    }

    /// The current publication epoch (0 = as built; each mutation batch
    /// publishes one epoch).
    pub fn epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// The generation protocol, owned here and nowhere else: writer lock,
    /// draft of the current generation, `edit` (a part it takes through
    /// `Arc::make_mut` is copied once, a part it leaves alone stays shared),
    /// publish, instruments. `edit` returns `(applied, compacted)`.
    fn publish_next(
        &self,
        applied_counter: mqa_obs::Counter,
        edit: impl FnOnce(&mut IndexSnapshot) -> (usize, bool),
    ) -> MutationReport {
        let _writer = lock_ignore_poison(&self.writer);
        let _mutating = MutatingFlag::raise(&self.mutating);
        let sw = mqa_obs::Stopwatch::start();
        // Pinned so the parts the edit replaces are freed after the publish,
        // not under the slot lock readers load through.
        let pinned = self.published.load();
        let mut draft = IndexSnapshot::clone(&pinned);
        let (applied, compacted) = edit(&mut draft);
        let (live, dead) = (draft.tombstones.live_count(), draft.tombstones.dead_count());
        let dead_fraction = draft.tombstones.dead_fraction();
        let epoch = self.published.publish(draft);
        applied_counter.add(applied as u64);
        if compacted {
            mqa_obs::counter("graph.mutate.compactions").inc();
        }
        mqa_obs::histogram("graph.mutate.publish_us").record(sw.elapsed_us());
        mqa_obs::gauge("graph.mutate.dead_fraction").set(dead_fraction);
        MutationReport {
            epoch,
            applied,
            compacted,
            live,
            dead,
        }
    }

    /// Inserts a batch of complete multi-vector objects, assigning them
    /// the next dense ids. The new generation is published atomically
    /// after the navigation structure has been grown over the batch;
    /// concurrent searchers keep their pinned snapshots.
    ///
    /// # Errors
    /// Rejects the whole batch (publishing nothing) on an empty batch, an
    /// arity mismatch, an incomplete object, a modality vector of the wrong
    /// dimension, or a non-finite component.
    pub fn add_objects(&self, objects: &[MultiVector]) -> Result<MutationReport, MutationError> {
        if objects.is_empty() {
            return Err(MutationError::EmptyBatch);
        }
        // Checked against any generation: the schema never changes.
        let pinned = self.published.load();
        for object in objects {
            check_object(pinned.store.schema(), object)?;
        }
        let inserts = mqa_obs::counter("graph.mutate.inserts");
        Ok(self.publish_next(inserts, |draft| {
            // The held rows are copied by hand at their final capacity (a
            // `make_mut` clone is full; its first push doubles it) and before the
            // store is cloned: the order that fragments the heap least (§15).
            let rows = draft.store.len() + objects.len();
            let mut weighted = mqa_vector::VectorStore::with_capacity(draft.weighted.dim(), rows);
            weighted.extend_from_store(&draft.weighted);
            let store = Arc::make_mut(&mut draft.store);
            for object in objects {
                let id = store.push(object);
                weighted.push(store.concat_of(id));
                self.weights
                    .scale_concat(store.schema(), weighted.get_mut(id));
            }
            draft.weighted = Arc::new(weighted);
            draft.tombstones.grow(store.len());
            Arc::make_mut(&mut draft.searcher).grow_to(&draft.weighted, &draft.tombstones);
            (objects.len(), false)
        }))
    }

    /// Tombstones a batch of objects. Dead objects never surface in
    /// results (filtered at result-collection time) but keep routing
    /// searches until the pending dead fraction crosses the compaction
    /// threshold, at which point the graph is rewired around them before
    /// the new generation is published. Deleting an already-dead id is an
    /// idempotent no-op (it does not count toward `applied`).
    ///
    /// # Errors
    /// Rejects the whole batch on an empty batch or an out-of-range id.
    pub fn remove_objects(&self, ids: &[VecId]) -> Result<MutationReport, MutationError> {
        if ids.is_empty() {
            return Err(MutationError::EmptyBatch);
        }
        // Checked against any generation: the population only grows.
        let n = self.len();
        if let Some(&id) = ids.iter().find(|&&id| id as usize >= n) {
            return Err(MutationError::IdOutOfRange { id, n });
        }
        let deletes = mqa_obs::counter("graph.mutate.deletes");
        Ok(self.publish_next(deletes, |draft| {
            let applied = ids.iter().filter(|&&id| draft.tombstones.kill(id)).count();
            let compacted = draft.tombstones.pending_fraction() > Self::DEFAULT_COMPACT_THRESHOLD;
            if compacted {
                Arc::make_mut(&mut draft.searcher).compact_live(&draft.weighted, &draft.tombstones);
                draft.tombstones.mark_all_compacted();
            }
            (applied, compacted)
        }))
    }

    /// Merging-free multi-modal search.
    ///
    /// `query` may miss modalities (e.g. text-only); `weight_override`
    /// replaces the learned weights for *scoring* this query. Returns the
    /// ranked results plus work statistics (including incremental-scanning
    /// savings in `scan`). Only live objects surface: tombstoned ids are
    /// filtered at result-collection time (never mid-traversal).
    pub fn search(
        &self,
        query: &MultiVector,
        weight_override: Option<&Weights>,
        k: usize,
        ef: usize,
    ) -> UnifiedSearchOutput {
        crate::scratch::with_pooled(|scratch| {
            self.search_scratch(query, weight_override, k, ef, scratch)
        })
    }

    /// [`UnifiedIndex::search`] on a caller-supplied scratch, for a caller
    /// that keeps its own across a loop of queries.
    pub fn search_scratch(
        &self,
        query: &MultiVector,
        weight_override: Option<&Weights>,
        k: usize,
        ef: usize,
        scratch: &mut crate::scratch::SearchScratch,
    ) -> UnifiedSearchOutput {
        let sw = mqa_obs::Stopwatch::start();
        let snap = self.published.load();
        mqa_obs::trace::note_index_state(snap.epoch(), self.mutating.load(Ordering::Relaxed));
        let weights = weight_override.unwrap_or(&self.weights);
        let mut dist = FusedDistance::new(snap.store(), query, weights, Metric::L2);
        let out = snap.tombstones().search_live(k, ef, |k, ef| {
            snap.searcher().search(&mut dist, k, ef, scratch)
        });
        out.stats.record(snap.searcher().name(), sw.elapsed_us());
        UnifiedSearchOutput {
            output: out,
            scan: dist.scan_stats(),
        }
    }

    /// Exact (exhaustive) fused search — the recall oracle. Live-only like
    /// graph search: tombstoned ids are skipped inside the scan.
    pub fn search_exact(
        &self,
        query: &MultiVector,
        weight_override: Option<&Weights>,
        k: usize,
    ) -> UnifiedSearchOutput {
        let sw = mqa_obs::Stopwatch::start();
        let snap = self.published.load();
        let weights = weight_override.unwrap_or(&self.weights);
        let mut dist = FusedDistance::new(snap.store(), query, weights, Metric::L2);
        let flat = crate::flat::FlatSearcher::new(snap.store().len());
        let out = flat.scan(&mut dist, k, |id| !snap.tombstones().is_dead(id));
        out.stats.record("flat", sw.elapsed_us());
        UnifiedSearchOutput {
            output: out,
            scan: dist.scan_stats(),
        }
    }

    /// The current generation's object collection (live and dead slots;
    /// ids are never reclaimed), unchanged by later publishes.
    pub fn store(&self) -> Arc<MultiVectorStore> {
        Arc::clone(&self.published.load().store)
    }

    /// The build-time (learned) weights.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The metric in use: always [`Metric::L2`]. Kept only because the
    /// benchmark crate still calls it.
    pub fn metric(&self) -> Metric {
        Metric::L2
    }

    /// Wall-clock build time.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Number of indexed object slots (live + dead; ids are stable).
    pub fn len(&self) -> usize {
        self.published.load().store().len()
    }

    /// Number of live (searchable) objects.
    pub fn live_len(&self) -> usize {
        self.published.load().tombstones().live_count()
    }

    /// Whether the index has no object slots.
    pub fn is_empty(&self) -> bool {
        self.published.load().store().is_empty()
    }

    /// Status-panel description.
    pub fn describe(&self) -> String {
        let snap = self.published.load();
        format!(
            "unified multi-vector index ({} modalities): {}",
            snap.store().schema().arity(),
            snap.searcher().describe()
        )
    }
}

/// Why `object` cannot be inserted under `schema`, if it cannot.
fn check_object(schema: &Schema, object: &MultiVector) -> Result<(), MutationError> {
    let want = schema.arity();
    if object.arity() != want {
        return Err(MutationError::ArityMismatch {
            got: object.arity(),
            want,
        });
    }
    for (modality, spec) in schema.modalities().iter().enumerate() {
        let Some(part) = object.part(modality) else {
            return Err(MutationError::IncompleteObject { modality });
        };
        if part.len() != spec.dim {
            return Err(MutationError::DimensionMismatch {
                modality,
                got: part.len(),
                want: spec.dim,
            });
        }
        if part.iter().any(|x| !x.is_finite()) {
            return Err(MutationError::NonFinite { modality });
        }
    }
    Ok(())
}

/// RAII marker for the mutation-in-progress flag: raised on construction,
/// lowered on drop so a panicking writer cannot leave the flag stuck.
struct MutatingFlag<'a>(&'a AtomicBool);

impl<'a> MutatingFlag<'a> {
    fn raise(flag: &'a AtomicBool) -> Self {
        flag.store(true, Ordering::Release);
        Self(flag)
    }
}

impl Drop for MutatingFlag<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Search output plus incremental-scanning counters.
#[derive(Debug, Clone)]
pub struct UnifiedSearchOutput {
    /// Ranked results and graph-walk statistics.
    pub output: SearchOutput,
    /// Fused-scan term counters (E8 reads `scan.savings()`).
    pub scan: ScanStats,
}

impl UnifiedSearchOutput {
    /// Ids of the results in rank order.
    pub fn ids(&self) -> Vec<VecId> {
        self.output.ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_rng::StdRng;
    use mqa_vector::VectorStore;

    /// Clustered multi-modal store: objects around per-class centers in
    /// both modalities, with the image modality noisier.
    fn clustered(
        n: usize,
        classes: usize,
        text_noise: f32,
        image_noise: f32,
        seed: u64,
        dim: usize,
    ) -> (MultiVectorStore, Vec<u32>) {
        let schema = Schema::text_image(dim, dim);
        let mut store = MultiVectorStore::new(schema.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<(Vec<f32>, Vec<f32>)> = (0..classes)
            .map(|_| {
                (
                    (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                    (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                )
            })
            .collect();
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            let t: Vec<f32> = centers[c]
                .0
                .iter()
                .map(|x| x + rng.gen_range(-text_noise..text_noise))
                .collect();
            let im: Vec<f32> = centers[c]
                .1
                .iter()
                .map(|x| x + rng.gen_range(-image_noise..image_noise))
                .collect();
            store.push(&MultiVector::complete(&schema, vec![t, im]));
            labels.push(c as u32);
        }
        (store, labels)
    }

    fn build_default(seed: u64) -> (UnifiedIndex, Vec<u32>) {
        let (store, labels) = clustered(600, 12, 0.2, 0.6, seed, 8);
        let weights = Weights::normalized(&[1.5, 0.5]);
        let idx = UnifiedIndex::build(store, weights, Metric::L2, &IndexAlgorithm::mqa_graph());
        (idx, labels)
    }

    fn random_object(schema: &Schema, rng: &mut StdRng) -> MultiVector {
        let parts: Vec<Vec<f32>> = (0..schema.arity())
            .map(|m| {
                (0..schema.dim(m))
                    .map(|_| rng.gen_range(-2.0f32..2.0))
                    .collect()
            })
            .collect();
        MultiVector::complete(schema, parts)
    }

    #[test]
    fn graph_search_matches_exact_search() {
        let (idx, _) = build_default(1);
        let schema = idx.store().schema().clone();
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0usize;
        let queries = 20;
        let k = 10;
        for _ in 0..queries {
            let q = MultiVector::complete(
                &schema,
                vec![
                    (0..8).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                    (0..8).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                ],
            );
            let truth = idx.search_exact(&q, None, k).ids();
            let got = idx.search(&q, None, k, 64).ids();
            hits += got.iter().filter(|id| truth.contains(id)).count();
        }
        let recall = hits as f64 / (queries * k) as f64;
        assert!(recall > 0.9, "unified recall {recall}");
    }

    #[test]
    fn partial_query_searches_present_modality_only() {
        let (idx, labels) = build_default(2);
        let schema = idx.store().schema().clone();
        // text part of object 0, no image
        let text = idx.store().part_of(0, 0).unwrap().to_vec();
        let q = MultiVector::partial(&schema, vec![Some(text), None]);
        let out = idx.search(&q, None, 10, 64);
        // the top results should share object 0's class (text is informative)
        let target = labels[0];
        let same = out
            .ids()
            .iter()
            .filter(|&&id| labels[id as usize] == target)
            .count();
        assert!(
            same >= 7,
            "text-only search matched {same}/10 of class {target}"
        );
    }

    #[test]
    fn incremental_scanning_saves_terms_at_equal_results() {
        let (idx, _) = build_default(3);
        let schema = idx.store().schema().clone();
        let q = MultiVector::complete(&schema, vec![vec![0.3; 8], vec![-0.2; 8]]);
        let pruned = idx.search(&q, None, 10, 64);
        assert!(pruned.scan.terms_skipped > 0, "expected scan savings");
        // exact scan agrees on the result set at full ef
        let exact = idx.search_exact(&q, None, 10);
        let graph_ids = pruned.ids();
        let overlap = exact
            .ids()
            .iter()
            .filter(|id| graph_ids.contains(id))
            .count();
        assert!(overlap >= 9, "overlap {overlap}");
    }

    #[test]
    fn weight_override_changes_ranking() {
        let (store, _) = clustered(300, 6, 0.2, 0.2, 4, 8);
        let idx = UnifiedIndex::build(
            store,
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::mqa_graph(),
        );
        let schema = idx.store().schema().clone();
        // query: text like object 0, image like object 1
        let t = idx.store().part_of(0, 0).unwrap().to_vec();
        let im = idx.store().part_of(1, 1).unwrap().to_vec();
        let q = MultiVector::complete(&schema, vec![t, im]);
        let text_heavy = idx.search_exact(&q, Some(&Weights::normalized(&[1.0, 0.0])), 1);
        let image_heavy = idx.search_exact(&q, Some(&Weights::normalized(&[0.0, 1.0])), 1);
        assert_eq!(text_heavy.ids()[0], 0);
        assert_eq!(image_heavy.ids()[0], 1);
    }

    #[test]
    fn three_modality_schema_works() {
        let schema = mqa_vector::Schema::new(vec![
            mqa_vector::Modality {
                name: "a".into(),
                kind: mqa_vector::ModalityKind::Text,
                dim: 4,
            },
            mqa_vector::Modality {
                name: "b".into(),
                kind: mqa_vector::ModalityKind::Image,
                dim: 4,
            },
            mqa_vector::Modality {
                name: "c".into(),
                kind: mqa_vector::ModalityKind::Video,
                dim: 4,
            },
        ]);
        let mut store = MultiVectorStore::new(schema.clone());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let parts: Vec<Vec<f32>> = (0..3)
                .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            store.push(&MultiVector::complete(&schema, parts));
        }
        let idx = UnifiedIndex::build(
            store,
            Weights::uniform(3),
            Metric::L2,
            &IndexAlgorithm::nsg(),
        );
        let q = MultiVector::partial(&schema, vec![Some(vec![0.0; 4]), None, Some(vec![0.1; 4])]);
        let out = idx.search(&q, None, 5, 32);
        assert_eq!(out.ids().len(), 5);
    }

    #[test]
    #[should_panic(expected = "empty object collection")]
    fn empty_store_panics() {
        let schema = Schema::text_image(2, 2);
        UnifiedIndex::build(
            MultiVectorStore::new(schema),
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::Flat,
        );
    }

    /// The evaluator with early abandonment switched off: every bound it
    /// is handed becomes infinite.
    struct Unpruned<'a, 'q>(&'a mut FusedDistance<'q>);

    impl DistanceFn for Unpruned<'_, '_> {
        fn eval(&mut self, id: VecId, _bound: f32) -> Option<f32> {
            self.0.eval(id, f32::INFINITY)
        }
    }

    /// Pruning never changes an answer: at the system's 64-dim blocks (two
    /// chunks each) a search whose evaluations never abandon returns the
    /// same ids and distance bits, for more terms.
    #[test]
    fn pruning_toggle_preserves_results() {
        let (store, _) = clustered(400, 12, 0.2, 0.6, 8, 64);
        let idx = UnifiedIndex::build(
            store,
            Weights::normalized(&[1.5, 0.5]),
            Metric::L2,
            &IndexAlgorithm::mqa_graph(),
        );
        let snap = idx.current();
        let bits = |out: &SearchOutput| {
            out.results
                .iter()
                .map(|c| (c.id, c.dist.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..20 {
            let q = random_object(snap.store().schema(), &mut rng);
            let pruned = idx.search(&q, None, 10, 64);
            let mut dist = FusedDistance::new(snap.store(), &q, idx.weights(), Metric::L2);
            let mut scratch = crate::scratch::SearchScratch::new();
            let unpruned = snap
                .searcher()
                .search(&mut Unpruned(&mut dist), 10, 64, &mut scratch);
            assert_eq!(bits(&pruned.output), bits(&unpruned), "query {i}");
            let full = dist.scan_stats();
            assert_eq!(full.terms_skipped, 0);
            assert!(pruned.scan.terms < full.terms, "query {i}");
        }
    }

    #[test]
    fn describe_mentions_modalities() {
        let (idx, _) = build_default(7);
        assert!(idx.describe().contains("2 modalities"));
        assert!(!idx.is_empty());
        assert_eq!(idx.len(), 600);
    }

    #[test]
    fn add_objects_publishes_and_finds_new_objects() {
        let (idx, _) = build_default(10);
        assert_eq!(idx.epoch(), 0);
        let schema = idx.store().schema().clone();
        let mut rng = StdRng::seed_from_u64(77);
        let batch: Vec<MultiVector> = (0..20).map(|_| random_object(&schema, &mut rng)).collect();
        let report = idx.add_objects(&batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.applied, 20);
        assert_eq!(report.live, 620);
        assert_eq!(idx.len(), 620);
        assert_eq!(idx.live_len(), 620);
        // Every inserted object is its own nearest neighbour.
        for (i, obj) in batch.iter().enumerate() {
            let expect = 600 + i as VecId;
            let got = idx.search(obj, None, 1, 64).ids();
            assert_eq!(got, vec![expect], "inserted object {expect} not found");
        }
        assert!(idx.current().validate(idx.weights()).is_empty());
    }

    #[test]
    fn remove_objects_filters_dead_from_results() {
        let (idx, _) = build_default(11);
        let schema = idx.store().schema().clone();
        // Delete object 0 and search for exactly its vectors: it must
        // never surface, in graph search or the exact oracle.
        let parts: Vec<Vec<f32>> = (0..2)
            .map(|m| idx.store().part_of(0, m).unwrap().to_vec())
            .collect();
        let q = MultiVector::complete(&schema, parts);
        assert_eq!(idx.search(&q, None, 1, 64).ids(), vec![0]);
        let report = idx.remove_objects(&[0]).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.applied, 1);
        assert_eq!(report.live, 599);
        assert!(!report.compacted);
        assert!(!idx.search(&q, None, 10, 64).ids().contains(&0));
        assert!(!idx.search_exact(&q, None, 10).ids().contains(&0));
        assert_eq!(idx.len(), 600, "slots are never reclaimed");
        assert_eq!(idx.live_len(), 599);
        // Idempotent: a second delete applies nothing, still publishes.
        let again = idx.remove_objects(&[0]).unwrap();
        assert_eq!(again.applied, 0);
        assert_eq!(again.epoch, 2);
    }

    #[test]
    fn deletes_past_threshold_trigger_compaction() {
        let (store, _) = clustered(300, 6, 0.2, 0.6, 12, 8);
        let idx = UnifiedIndex::build(
            store,
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::vamana(),
        );
        // 75/300 = 25% dead crosses the 20% threshold in one batch.
        let doomed: Vec<VecId> = (0..300).step_by(4).map(|i| i as VecId).collect();
        let report = idx.remove_objects(&doomed).unwrap();
        assert!(report.compacted, "25% dead must compact at threshold 20%");
        let snap = idx.current();
        assert_eq!(snap.tombstones().pending_count(), 0);
        let violations = snap.validate(idx.weights());
        assert!(violations.is_empty(), "{violations:?}");
        // Live objects remain discoverable after the rewiring.
        let schema = idx.store().schema().clone();
        let mut found = 0usize;
        let mut probed = 0usize;
        for id in (1..300u32)
            .step_by(11)
            .filter(|&id| !snap.tombstones().is_dead(id))
        {
            probed += 1;
            let parts: Vec<Vec<f32>> = (0..2)
                .map(|m| idx.store().part_of(id, m).unwrap().to_vec())
                .collect();
            let q = MultiVector::complete(&schema, parts);
            if idx.search(&q, None, 5, 64).ids().contains(&id) {
                found += 1;
            }
        }
        assert!(
            found * 10 >= probed * 9,
            "post-compaction discoverability {found}/{probed}"
        );
    }

    #[test]
    fn mutation_batches_reject_bad_input() {
        let three = mqa_vector::Schema::new(vec![
            mqa_vector::Modality {
                name: "a".into(),
                kind: mqa_vector::ModalityKind::Text,
                dim: 8,
            },
            mqa_vector::Modality {
                name: "b".into(),
                kind: mqa_vector::ModalityKind::Image,
                dim: 8,
            },
            mqa_vector::Modality {
                name: "c".into(),
                kind: mqa_vector::ModalityKind::Video,
                dim: 8,
            },
        ]);
        // Same arity, wrong dims would panic in the store; wrong arity is
        // the typed error.
        let wrong_arity = MultiVector::complete(&three, vec![vec![0.0; 8]; 3]);
        for algo in families() {
            let idx = build_small(200, 13, &algo);
            let before = idx.current();
            assert_eq!(idx.add_objects(&[]), Err(MutationError::EmptyBatch));
            assert_eq!(idx.remove_objects(&[]), Err(MutationError::EmptyBatch));
            assert_eq!(
                idx.remove_objects(&[3, 200]),
                Err(MutationError::IdOutOfRange { id: 200, n: 200 })
            );
            assert_eq!(
                idx.add_objects(std::slice::from_ref(&wrong_arity)),
                Err(MutationError::ArityMismatch { got: 3, want: 2 })
            );
            let schema = idx.store().schema().clone();
            let partial = MultiVector::partial(&schema, vec![Some(vec![0.0; 8]), None]);
            assert_eq!(
                idx.add_objects(std::slice::from_ref(&partial)),
                Err(MutationError::IncompleteObject { modality: 1 })
            );
            // Rejected batches publish nothing and copy nothing: the published
            // generation is still the very allocation pinned before them, so
            // all four parts are the parts it held.
            let after = idx.current();
            assert_eq!(idx.epoch(), 0, "{}", algo.name());
            assert!(Arc::ptr_eq(before.snapshot(), after.snapshot()));
            assert_eq!(shared(&before, &after), (true, true, true));
            assert_eq!(before.tombstones(), after.tombstones());
        }
    }

    /// Asserts `idx` rejects `object` with `want` and publishes nothing.
    fn rejects(idx: &UnifiedIndex, object: &MultiVector, want: MutationError) {
        let before = idx.current();
        let got = idx.add_objects(std::slice::from_ref(object));
        assert_eq!(got, Err(want), "{}", idx.current().searcher().name());
        assert_eq!(idx.epoch(), 0);
        assert!(Arc::ptr_eq(before.snapshot(), idx.current().snapshot()));
    }

    /// An object built for `text_image(3, 13)` has the total length of
    /// this `text_image(8, 8)` index, and its blocks used to be misread.
    #[test]
    fn add_objects_rejects_a_per_modality_dimension_mismatch() {
        let other = Schema::text_image(3, 13);
        let object = MultiVector::complete(&other, vec![vec![0.5; 3], vec![0.5; 13]]);
        let want = MutationError::DimensionMismatch {
            modality: 0,
            got: 3,
            want: 8,
        };
        for algo in families() {
            rejects(&build_small(200, 17, &algo), &object, want);
        }
    }

    /// A NaN or infinite component used to be accepted, validate clean,
    /// and make every later snapshot unsavable.
    #[test]
    fn add_objects_rejects_non_finite_components() {
        let idx = build_small(200, 18, &IndexAlgorithm::mqa_graph());
        let schema = idx.store().schema().clone();
        for (m, bad) in [(0, f32::NAN), (1, f32::INFINITY), (1, f32::NEG_INFINITY)] {
            let mut parts = vec![vec![0.5; 8], vec![0.5; 8]];
            parts[m][3] = bad;
            let object = MultiVector::complete(&schema, parts);
            rejects(&idx, &object, MutationError::NonFinite { modality: m });
        }
    }

    #[test]
    fn readers_pin_their_generation_across_publishes() {
        let (idx, _) = build_default(14);
        let before = idx.current();
        assert_eq!(before.epoch(), 0);
        idx.remove_objects(&[5]).unwrap();
        let after = idx.current();
        assert_eq!(after.epoch(), 1);
        // The pinned generation still sees object 5 as live.
        assert!(!before.tombstones().is_dead(5));
        assert!(after.tombstones().is_dead(5));
    }

    #[test]
    fn insert_then_delete_round_trip_keeps_recall() {
        let (idx, _) = build_default(15);
        let schema = idx.store().schema().clone();
        let mut rng = StdRng::seed_from_u64(16);
        let batch: Vec<MultiVector> = (0..30).map(|_| random_object(&schema, &mut rng)).collect();
        idx.add_objects(&batch).unwrap();
        let doomed: Vec<VecId> = (600..630).collect();
        idx.remove_objects(&doomed).unwrap();
        // The inserted-then-deleted objects never surface.
        for obj in &batch {
            let ids = idx.search(obj, None, 3, 64).ids();
            assert!(ids.iter().all(|&id| id < 600), "dead id surfaced: {ids:?}");
        }
        // Graph search still agrees with the (filtered) exact oracle.
        let q = random_object(&schema, &mut rng);
        let truth = idx.search_exact(&q, None, 10).ids();
        let got = idx.search(&q, None, 10, 64).ids();
        let overlap = got.iter().filter(|id| truth.contains(id)).count();
        assert!(overlap >= 8, "post-mutation recall {overlap}/10");
    }

    fn families() -> [IndexAlgorithm; 5] {
        [
            IndexAlgorithm::Flat,
            IndexAlgorithm::hnsw(),
            IndexAlgorithm::nsg(),
            IndexAlgorithm::vamana(),
            IndexAlgorithm::mqa_graph(),
        ]
    }

    fn build_small(n: usize, seed: u64, algo: &IndexAlgorithm) -> UnifiedIndex {
        let (store, _) = clustered(n, 6, 0.2, 0.6, seed, 8);
        UnifiedIndex::build(store, Weights::normalized(&[1.5, 0.5]), Metric::L2, algo)
    }

    /// Which of (store, weighted rows, graph) two generations share.
    fn shared(a: &IndexSnapshot, b: &IndexSnapshot) -> (bool, bool, bool) {
        (
            Arc::ptr_eq(&a.store, &b.store),
            Arc::ptr_eq(&a.weighted, &b.weighted),
            Arc::ptr_eq(&a.searcher, &b.searcher),
        )
    }

    #[test]
    fn mutations_copy_only_the_parts_they_change() {
        for algo in families() {
            let name = algo.name();
            let idx = build_small(200, 21, &algo);
            // Below the threshold a delete copies the tombstone words only.
            let g0 = idx.current();
            assert!(!idx.remove_objects(&[3, 5]).unwrap().compacted);
            let g1 = idx.current();
            assert_eq!(shared(&g0, &g1), (true, true, true), "{name}: delete");
            assert!(!g0.tombstones().is_dead(3) && g1.tombstones().is_dead(3));
            // A compacting delete copies the graph and nothing else.
            let doomed: Vec<VecId> = (0..200).step_by(4).collect();
            assert!(idx.remove_objects(&doomed).unwrap().compacted);
            let g2 = idx.current();
            assert_eq!(shared(&g1, &g2), (true, true, false), "{name}: compaction");
            // An insert copies what it appends to; the generation pinned
            // before it still equals its deep clone.
            let frozen = (
                g2.store().clone(),
                VectorStore::clone(&g2.weighted),
                g2.searcher().clone(),
                g2.tombstones().clone(),
            );
            let mut rng = StdRng::seed_from_u64(22);
            let batch: Vec<MultiVector> = (0..10)
                .map(|_| random_object(g2.store().schema(), &mut rng))
                .collect();
            idx.add_objects(&batch).unwrap();
            assert_eq!(shared(&g2, &idx.current()), (false, false, false), "{name}");
            assert_eq!(g2.store(), &frozen.0, "{name}: pinned store moved");
            assert_eq!(*g2.weighted, frozen.1, "{name}: pinned rows moved");
            assert_eq!(g2.searcher(), &frozen.2, "{name}: pinned graph moved");
            assert_eq!(g2.tombstones(), &frozen.3, "{name}: pinned tombstones");
        }
    }

    /// A search's walk counters and its scanner's counters describe the
    /// same evaluations: every completed one (HNSW's upper-layer routing
    /// included) is a `SearchStats::evals`, every abandoned one a
    /// `SearchStats::pruned`, for every family.
    #[test]
    fn search_stats_count_every_scanner_evaluation() {
        for algo in families() {
            let name = algo.name();
            let idx = build_small(400, 41, &algo);
            let schema = idx.store().schema().clone();
            let mut rng = StdRng::seed_from_u64(42);
            for i in 0..20 {
                let mut q = random_object(&schema, &mut rng);
                if i % 2 == 1 {
                    q = MultiVector::partial(&schema, vec![q.part(0).map(<[f32]>::to_vec), None]);
                }
                let out = idx.search(&q, None, 5, 32);
                let (walk, scan) = (out.output.stats, out.scan);
                assert_eq!(walk.evals, scan.full_evals, "{name} query {i}: evals");
                assert_eq!(walk.pruned, scan.abandoned, "{name} query {i}: pruned");
            }
        }
    }

    /// Mean completed evaluations per query over `queries`, none of whose
    /// answers may be dead.
    fn mean_evals(idx: &UnifiedIndex, queries: &[MultiVector]) -> f64 {
        let snap = idx.current();
        let mut evals = 0u64;
        for q in queries {
            let out = idx.search(q, None, 5, 64);
            assert_eq!(out.output.results.len(), 5);
            for id in out.ids() {
                assert!(!snap.tombstones().is_dead(id), "dead id {id} surfaced");
            }
            evals += out.output.stats.evals;
        }
        evals as f64 / queries.len() as f64
    }

    /// A delete must not tax every later read. Counts, not timings: with
    /// 15 % of the ids pending a read may cost up to 1.35x a fresh one (the
    /// beam widens by the pending share), and once a quarter is dead and
    /// compacted it costs no more than 1.10x (less, if anything: the graph
    /// is a quarter smaller). Widening by the lifetime dead count instead
    /// reads 2.9x and 4.1x here.
    #[test]
    fn deletes_do_not_tax_later_reads() {
        let n = 2000usize;
        let idx = build_small(n, 31, &IndexAlgorithm::mqa_graph());
        let schema = idx.store().schema().clone();
        let mut rng = StdRng::seed_from_u64(32);
        let queries: Vec<MultiVector> =
            (0..100).map(|_| random_object(&schema, &mut rng)).collect();
        let mut ids: Vec<VecId> = (0..n as VecId).collect();
        rng.shuffle(&mut ids);
        let fresh = mean_evals(&idx, &queries);

        assert!(!idx.remove_objects(&ids[..n * 15 / 100]).unwrap().compacted);
        let dirty = mean_evals(&idx, &queries);
        assert!(
            dirty <= 1.35 * fresh,
            "15 % pending: {dirty:.1} evaluations per query against {fresh:.1} fresh"
        );

        let more = &ids[n * 15 / 100..n * 25 / 100];
        assert!(idx.remove_objects(more).unwrap().compacted);
        let clean = mean_evals(&idx, &queries);
        assert!(
            clean <= 1.10 * fresh,
            "25 % dead and compacted: {clean:.1} evaluations per query against {fresh:.1} fresh"
        );
    }

    /// The retry path, on purpose: every object the first beam can hold is
    /// dead, so the search widens — and still returns exactly `k` live
    /// results, the nearest ones.
    #[test]
    fn a_dead_pocket_around_the_query_widens_the_search() {
        let (k, ef) = (10usize, 64usize);
        for algo in [
            IndexAlgorithm::mqa_graph(),
            IndexAlgorithm::hnsw(),
            IndexAlgorithm::Flat,
        ] {
            let name = algo.name();
            let idx = build_small(600, 33, &algo);
            let q = idx.store().multivector_of(17);
            let pocket = idx.search_exact(&q, None, ef + k).ids();
            assert!(!idx.remove_objects(&pocket).unwrap().compacted);
            let widened = || mqa_obs::counter("graph.search.widened").get();
            let before = widened();
            let out = idx.search(&q, None, k, ef);
            assert!(widened() > before, "{name}: the search never widened");
            assert_eq!(out.ids(), idx.search_exact(&q, None, k).ids(), "{name}");
            assert!(out.ids().iter().all(|id| !pocket.contains(id)), "{name}");
            // The retry's work is reported on top of the first pass's.
            let narrow = idx.current().searcher().search(
                &mut FusedDistance::new(&idx.store(), &q, idx.weights(), Metric::L2),
                k,
                ef,
                &mut crate::scratch::SearchScratch::new(),
            );
            assert!(out.output.stats.evals > narrow.stats.evals, "{name}");
        }
    }

    /// The compaction trigger measures pending deletes against what a walk
    /// can still reach, so it fires as readily in the tenth generation as in
    /// the first. Measured against every id ever allocated it got lazier
    /// with each one (the second generation here already slipped through).
    #[test]
    fn every_churn_generation_compacts() {
        let idx = build_small(400, 35, &IndexAlgorithm::vamana());
        let mut live: Vec<VecId> = (0..400).collect();
        for generation in 1..=10 {
            // The oldest quarter of the live set out (past the 20 %
            // threshold) ...
            let doomed: Vec<VecId> = live.drain(..100).collect();
            let report = idx.remove_objects(&doomed).unwrap();
            assert!(report.compacted, "generation {generation} did not compact");
            // ... and as many back in: constant live size, growing id space.
            let store = idx.store();
            let back: Vec<MultiVector> =
                doomed.iter().map(|&id| store.multivector_of(id)).collect();
            let first = idx.len() as VecId;
            idx.add_objects(&back).unwrap();
            live.extend(first..first + 100);
            assert_eq!((idx.live_len(), idx.len()), (400, 400 + 100 * generation));
        }
        let snap = idx.current();
        assert_eq!(snap.tombstones().compacted_count(), 1000);
        let violations = snap.validate(idx.weights());
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// After every step of a seeded add / delete / compact / add script the
    /// rows appended per batch are the full pass's rows to the bit, and the
    /// index answers exactly like one assembled by `from_parts` (the full
    /// pass) from the same store, graph and tombstones.
    #[test]
    fn incremental_generations_equal_the_full_pass() {
        for algo in families() {
            let idx = build_small(240, 23, &algo);
            let schema = idx.store().schema().clone();
            let mut rng = StdRng::seed_from_u64(24);
            let mut objects = |n: usize| -> Vec<MultiVector> {
                (0..n).map(|_| random_object(&schema, &mut rng)).collect()
            };
            let queries = objects(8);
            let check = |step: &str| {
                let context = format!("{} after {step}", algo.name());
                let snap = idx.current();
                let violations = snap.validate(idx.weights());
                assert!(violations.is_empty(), "{context}: {violations:?}");
                let full = snap.store().weighted_store(idx.weights());
                let bits =
                    |s: &VectorStore| s.raw().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&snap.weighted), bits(&full), "{context}");
                let assembled = idx.snapshot().restore().expect("sound snapshot");
                for q in &queries {
                    assert_eq!(
                        idx.search(q, None, 10, 48).output.results,
                        assembled.search(q, None, 10, 48).output.results,
                        "{context}"
                    );
                    assert_eq!(
                        idx.search_exact(q, None, 10).output.results,
                        assembled.search_exact(q, None, 10).output.results,
                        "{context}"
                    );
                }
            };
            idx.add_objects(&objects(20)).unwrap();
            check("add");
            assert!(!idx.remove_objects(&[1, 7, 250]).unwrap().compacted);
            check("delete");
            let doomed: Vec<VecId> = (0..260).step_by(4).collect();
            assert!(idx.remove_objects(&doomed).unwrap().compacted);
            check("compaction");
            idx.add_objects(&objects(20)).unwrap();
            check("add after compaction");
        }
    }

    /// Regression: compaction keeps a retired entry as a search seed, and
    /// growth used to link new vertices to it (`EdgeIntoRetired`). Retire
    /// every entry, then insert copies of the entries' own vectors — at
    /// distance zero the retired ids head every candidate pool.
    #[test]
    fn retired_entries_seed_inserts_but_are_never_linked_to() {
        let assert_sound = |idx: &UnifiedIndex, step: &str| {
            let snap = idx.current();
            let context = format!("{} after {step}", idx.current().searcher().name());
            let violations = snap.validate(idx.weights());
            assert!(violations.is_empty(), "{context}: {violations:?}");
            let mut edges = Vec::new();
            match snap.searcher() {
                BuiltGraph::Nav(g) => edges.extend(g.graph().edges()),
                BuiltGraph::Hnsw(h) => h.for_each_edge(|_, v, u| edges.push((v, u))),
                _ => unreachable!("graph families only"),
            }
            for (v, u) in edges {
                assert!(!snap.tombstones().is_compacted(u), "{context}: {v} -> {u}");
            }
        };
        for algo in [
            IndexAlgorithm::mqa_graph(),
            IndexAlgorithm::vamana(),
            IndexAlgorithm::hnsw(),
        ] {
            let idx = build_small(300, 25, &algo);
            let entries: Vec<VecId> = match idx.current().searcher() {
                BuiltGraph::Nav(g) => g.entries().to_vec(),
                BuiltGraph::Hnsw(h) => vec![h.entry()],
                _ => unreachable!("graph families only"),
            };
            // Every entry plus a quarter of the ids: past the 20 % threshold.
            let doomed: Vec<VecId> = entries.iter().copied().chain((0..300).step_by(4)).collect();
            assert!(idx.remove_objects(&doomed).unwrap().compacted);
            assert_sound(&idx, "compaction");
            let store = idx.store();
            let twins: Vec<MultiVector> =
                entries.iter().map(|&e| store.multivector_of(e)).collect();
            idx.add_objects(&twins).unwrap();
            assert_sound(&idx, "entry twins");
            let mut rng = StdRng::seed_from_u64(26);
            let batch: Vec<MultiVector> = (0..30)
                .map(|_| random_object(store.schema(), &mut rng))
                .collect();
            idx.add_objects(&batch).unwrap();
            assert_sound(&idx, "growth");
            // The twins are live and findable where the retired entries were.
            for (i, twin) in twins.iter().enumerate() {
                assert_eq!(idx.search(twin, None, 1, 64).ids(), vec![300 + i as VecId]);
            }
        }
    }

    /// Red path for the held-rows audit: one forged value, one missing row.
    #[test]
    fn validate_flags_forged_weighted_rows() {
        let idx = build_small(150, 27, &IndexAlgorithm::vamana());
        let snap = idx.current();
        let audit = |weighted: VectorStore| {
            let forged = IndexSnapshot {
                weighted: Arc::new(weighted),
                ..IndexSnapshot::clone(&snap)
            };
            forged.validate(idx.weights())
        };
        assert!(audit(VectorStore::clone(&snap.weighted)).is_empty());
        let mut one_value = VectorStore::clone(&snap.weighted);
        one_value.get_mut(7)[3] += 0.5;
        let violations = audit(one_value);
        assert!(
            violations.contains(&InvariantViolation::StaleWeightedRow { id: 7 }),
            "{violations:?}"
        );
        // A missing row is reported alone: the rows can no longer be paired
        // with objects or vertices, so nothing past it is audited.
        let mut one_short = VectorStore::new(snap.weighted.dim());
        for id in 0..149 {
            one_short.push(snap.weighted.get(id));
        }
        assert_eq!(
            audit(one_short),
            vec![InvariantViolation::SizeMismatch {
                context: "unified snapshot weighted rows".to_string(),
                expected: 150,
                got: 149,
            }]
        );
    }
}
