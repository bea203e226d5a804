//! Property tests for online index mutation: an interleaved script of
//! inserts, tombstoned deletes, and searches across every index family
//! must (a) never surface a dead object, and (b) keep post-mutation
//! recall@10 within a pinned bound of a from-scratch rebuild over the
//! same live content.
//!
//! The unified families (flat / HNSW / NSG / Vamana) run through
//! [`UnifiedIndex::add_objects`] / [`UnifiedIndex::remove_objects`] so the
//! epoch-published snapshot path itself is exercised; the paged (Starling)
//! index filters dead ids at collection time and, once compaction runs,
//! is laid out again over the compacted navigation graph.

use mqa_graph::starling::LayoutStrategy;
use mqa_graph::{
    with_pooled, BuiltGraph, FlatDistance, IndexAlgorithm, PageLayout, PagedIndex, SearchOutput,
    SearchScratch, Tombstones, UnifiedIndex,
};
use mqa_rng::StdRng;
use mqa_vector::{Metric, MultiVector, MultiVectorStore, Schema, VecId, VectorStore, Weights};
use std::collections::HashSet;

const K: usize = 10;
/// Post-mutation graph recall may trail a fresh rebuild by at most this
/// much (absolute, on recall@10 against each index's own exact oracle).
const RECALL_SLACK: f64 = 0.15;

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

/// Graph-search recall@10 against the index's own exhaustive live oracle.
fn recall_at_10(idx: &UnifiedIndex, queries: &[MultiVector]) -> f64 {
    let mut hits = 0usize;
    for q in queries {
        let truth = idx.search_exact(q, None, K).ids();
        let got = idx.search(q, None, K, 96).ids();
        hits += got.iter().filter(|id| truth.contains(id)).count();
    }
    hits as f64 / (queries.len() * K) as f64
}

#[test]
fn unified_families_only_return_live_objects_and_keep_recall() {
    let schema = Schema::text_image(8, 8);
    let weights = Weights::normalized(&[1.0, 1.0]);
    let families = [
        IndexAlgorithm::Flat,
        IndexAlgorithm::hnsw(),
        IndexAlgorithm::nsg(),
        IndexAlgorithm::vamana(),
    ];
    for (fi, algo) in families.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xD15C0 + fi as u64);
        let mut store = MultiVectorStore::new(schema.clone());
        for _ in 0..240 {
            store.push(&random_object(&schema, &mut rng));
        }
        let idx = UnifiedIndex::build(store, weights.clone(), Metric::L2, algo);
        let queries: Vec<MultiVector> = (0..12).map(|_| random_object(&schema, &mut rng)).collect();
        let mut killed: HashSet<VecId> = HashSet::new();

        // Six rounds alternating insert / delete; the delete volume is
        // sized so the pending-dead fraction crosses the compaction
        // threshold on the last delete round, exercising rewiring too.
        for round in 0..6 {
            if round % 2 == 0 {
                let batch: Vec<MultiVector> =
                    (0..8).map(|_| random_object(&schema, &mut rng)).collect();
                let before = idx.len();
                let report = idx.add_objects(&batch).expect("insert batch");
                assert_eq!(report.applied, 8, "{}", algo.name());
                assert_eq!(idx.len(), before + 8, "{}", algo.name());
            } else {
                let len = idx.len() as VecId;
                let mut batch: Vec<VecId> = Vec::new();
                while batch.len() < 20 {
                    let id = rng.gen_range(0..len);
                    if !killed.contains(&id) && !batch.contains(&id) {
                        batch.push(id);
                    }
                }
                let report = idx.remove_objects(&batch).expect("delete batch");
                assert_eq!(report.applied, 20, "{}", algo.name());
                killed.extend(batch);
            }
            // Property: no search after any mutation may surface a dead id.
            for q in &queries {
                let ids = idx.search(q, None, K, 96).ids();
                assert!(
                    !ids.is_empty(),
                    "{}: live index stopped answering",
                    algo.name()
                );
                for id in &ids {
                    assert!(
                        !killed.contains(id),
                        "{}: round {round} surfaced dead object {id}",
                        algo.name()
                    );
                    assert!((*id as usize) < idx.len());
                }
            }
        }
        assert_eq!(idx.len(), 264, "{}", algo.name());
        assert_eq!(idx.live_len(), 264 - killed.len(), "{}", algo.name());

        // Recall bound: rebuild from scratch over exactly the live
        // content and compare recall@10 (each index against its own
        // exact oracle, so id spaces never need aligning).
        let mutated_recall = recall_at_10(&idx, &queries);
        let mut fresh = MultiVectorStore::new(schema.clone());
        {
            let pinned = idx.store();
            for id in 0..idx.len() as VecId {
                if !killed.contains(&id) {
                    fresh.push(&pinned.multivector_of(id));
                }
            }
        }
        let fresh_idx = UnifiedIndex::build(fresh, weights.clone(), Metric::L2, algo);
        let fresh_recall = recall_at_10(&fresh_idx, &queries);
        assert!(
            mutated_recall >= fresh_recall - RECALL_SLACK,
            "{}: mutated recall {mutated_recall:.3} trails fresh rebuild {fresh_recall:.3} \
             by more than {RECALL_SLACK}",
            algo.name()
        );
    }
}

/// Exhaustive live top-k for the paged test's single-modal store.
fn brute_force_live(store: &VectorStore, q: &[f32], tomb: &Tombstones, k: usize) -> Vec<VecId> {
    let mut scored: Vec<(f32, VecId)> = store
        .iter()
        .filter(|(id, _)| !tomb.is_dead(*id))
        .map(|(id, v)| {
            let d: f32 = v.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, id)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, id)| id).collect()
}

/// Paged search as a mutated index serves it.
fn paged_search_live(paged: &PagedIndex, dist: &mut FlatDistance, tomb: &Tombstones) -> Vec<VecId> {
    let search = |k, ef| {
        let mut results = Vec::new();
        let stats = with_pooled(|s| paged.search_paged_into(dist, k, ef, s, &mut results));
        SearchOutput { results, stats }
    };
    tomb.search_live(K, 48, search).ids()
}

/// The pipeline graph inside `built`, laid out on 4-vertex pages.
fn paged_over(built: &BuiltGraph) -> PagedIndex {
    let BuiltGraph::Nav(nav) = built else {
        panic!("vamana must build a Nav graph, got {}", built.describe());
    };
    let layout = PageLayout::build(nav.graph(), 4, LayoutStrategy::BfsCluster);
    PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout)
}

#[test]
fn paged_index_filters_dead_and_survives_compaction() {
    let dim = 8usize;
    let mut rng = StdRng::seed_from_u64(0xD15C5);
    let mut store = VectorStore::new(dim);
    for _ in 0..500 {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        store.push(&v);
    }
    let store = std::sync::Arc::new(store);
    let mut built = IndexAlgorithm::vamana().build_graph(&store, Metric::L2);
    let mut paged = paged_over(&built);
    let mut tomb = Tombstones::new(500);
    let queries: Vec<Vec<f32>> = (0..12)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut killed: HashSet<VecId> = HashSet::new();
    let mut compactions = 0usize;

    for round in 0..6 {
        let mut batch: Vec<VecId> = Vec::new();
        while batch.len() < 25 {
            let id = rng.gen_range(0..500u32);
            if !killed.contains(&id) && !batch.contains(&id) {
                batch.push(id);
            }
        }
        for &id in &batch {
            assert!(tomb.kill(id));
        }
        killed.extend(batch);
        if tomb.pending_fraction() > 0.2 {
            // The graph's own compaction rule, then a fresh layout.
            assert!(built.compact_live(&store, Metric::L2, &tomb));
            paged = paged_over(&built);
            tomb.mark_all_compacted();
            compactions += 1;
        }
        for q in &queries {
            let mut dist = FlatDistance::new(&store, q, Metric::L2).expect("dim matches");
            let ids = paged_search_live(&paged, &mut dist, &tomb);
            assert!(!ids.is_empty(), "paged live search stopped answering");
            for id in &ids {
                assert!(
                    !killed.contains(id),
                    "round {round} surfaced dead vertex {id}"
                );
            }
        }
    }
    assert!(compactions >= 1, "delete volume must cross the threshold");
    assert_eq!(tomb.live_count(), 500 - killed.len());

    // Recall bound vs a fresh rebuild over only the live vectors. The
    // fresh index's result ids are remapped back to original ids so both
    // sides are judged against the same brute-force live oracle.
    let live_ids: Vec<VecId> = (0..500u32).filter(|id| !tomb.is_dead(*id)).collect();
    let mut fresh_store = VectorStore::new(dim);
    for &id in &live_ids {
        fresh_store.push(store.get(id));
    }
    let fresh_store = std::sync::Arc::new(fresh_store);
    let fresh_built = IndexAlgorithm::vamana().build_graph(&fresh_store, Metric::L2);
    let mut scratch = SearchScratch::new();
    let (mut mutated_hits, mut fresh_hits) = (0usize, 0usize);
    for q in &queries {
        let truth = brute_force_live(&store, q, &tomb, K);
        let mut dist = FlatDistance::new(&store, q, Metric::L2).expect("dim matches");
        let got = paged_search_live(&paged, &mut dist, &tomb);
        mutated_hits += got.iter().filter(|id| truth.contains(id)).count();
        let mut fdist = FlatDistance::new(&fresh_store, q, Metric::L2).expect("dim matches");
        let fresh_got = fresh_built.search(&mut fdist, K, 48, &mut scratch).ids();
        fresh_hits += fresh_got
            .iter()
            // INVARIANT: fresh-store ids index live_ids by construction.
            .filter(|&&id| truth.contains(&live_ids[id as usize]))
            .count();
    }
    let denom = (queries.len() * K) as f64;
    let mutated_recall = mutated_hits as f64 / denom;
    let fresh_recall = fresh_hits as f64 / denom;
    assert!(
        mutated_recall >= fresh_recall - RECALL_SLACK,
        "paged: mutated recall {mutated_recall:.3} trails fresh rebuild {fresh_recall:.3} \
         by more than {RECALL_SLACK}"
    );
}
