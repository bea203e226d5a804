//! Property tests for scratch reuse: one [`SearchScratch`] driven through
//! interleaved searches over every index family must produce bit-identical
//! results and work counters to a search on a fresh scratch — including
//! straight through a visited-epoch wraparound. This is the correctness contract
//! that lets every thread, engine workers included, reuse one pooled scratch
//! for its whole lifetime.

use mqa_graph::starling::{LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{BuiltGraph, FlatDistance, IndexAlgorithm, SearchOutput, SearchScratch};
use mqa_rng::StdRng;
use mqa_vector::{Metric, VectorStore};
use std::sync::Arc;

fn random_store(n: usize, dim: usize, seed: u64) -> VectorStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = VectorStore::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        s.push(&v);
    }
    s
}

fn random_queries(count: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

fn assert_identical(a: &SearchOutput, b: &SearchOutput, what: &str) {
    assert_eq!(a.results, b.results, "{what}: results diverged");
    assert_eq!(a.stats, b.stats, "{what}: work counters diverged");
}

/// `search` — `(evaluator, k, ef, scratch) -> output` — driven on
/// `scratch` must answer exactly like on a fresh one.
fn assert_reuse_matches_fresh(
    search: impl Fn(&mut FlatDistance<'_>, usize, usize, &mut SearchScratch) -> SearchOutput,
    store: &VectorStore,
    q: &[f32],
    (k, ef): (usize, usize),
    scratch: &mut SearchScratch,
    what: &str,
) {
    let mut d1 = FlatDistance::new(store, q, Metric::L2).expect("dims match");
    let reused = search(&mut d1, k, ef, scratch);
    let mut d2 = FlatDistance::new(store, q, Metric::L2).expect("dims match");
    let fresh = search(&mut d2, k, ef, &mut SearchScratch::new());
    assert_identical(&reused, &fresh, what);
}

/// Every index family, one shared scratch, interleaved round-robin: each
/// answer must equal the fresh-scratch answer.
#[test]
fn interleaved_reuse_matches_fresh_search_everywhere() {
    let dim = 8;
    let store = Arc::new(random_store(300, dim, 11));
    let indexes: Vec<(&str, BuiltGraph)> = [
        ("flat", IndexAlgorithm::Flat),
        ("hnsw", IndexAlgorithm::hnsw()),
        ("nsg", IndexAlgorithm::nsg()),
        ("vamana", IndexAlgorithm::vamana()),
    ]
    .into_iter()
    .map(|(name, algo)| (name, algo.build_graph(&store, Metric::L2)))
    .collect();

    let nav = mqa_graph::vamana::build(&store, Metric::L2, 16, 48, 1.2, 3);
    let layout = PageLayout::build(nav.graph(), 4, LayoutStrategy::BfsCluster);
    let paged = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout);
    let paged_search = |d: &mut FlatDistance<'_>, k, ef, s: &mut SearchScratch| {
        let mut results = Vec::new();
        let stats = paged.search_paged_into(d, k, ef, s, &mut results);
        SearchOutput { results, stats }
    };

    let mut scratch = SearchScratch::new();
    for (round, q) in random_queries(12, dim, 99).iter().enumerate() {
        let shape = (1 + round % 7, 16 + round * 3);
        for (name, idx) in &indexes {
            assert_reuse_matches_fresh(
                |d, k, ef, s| idx.search(d, k, ef, s),
                &store,
                q,
                shape,
                &mut scratch,
                name,
            );
        }
        assert_reuse_matches_fresh(paged_search, &store, q, shape, &mut scratch, "starling");
    }
}

/// The epoch counter crossing `u32::MAX` mid-stream must be invisible:
/// searches right before, during, and after the wraparound all agree with
/// fresh searches.
#[test]
fn epoch_wraparound_is_invisible() {
    let dim = 6;
    let store = Arc::new(random_store(250, dim, 21));
    let idx = IndexAlgorithm::hnsw().build_graph(&store, Metric::L2);
    let mut scratch = SearchScratch::new();
    // Three epochs of headroom before the stamp array must re-zero.
    scratch.force_epoch(u32::MAX - 3);
    for (i, q) in random_queries(10, dim, 77).iter().enumerate() {
        let what = format!("query {i} around wraparound");
        assert_reuse_matches_fresh(
            |d, k, ef, s| idx.search(d, k, ef, s),
            &store,
            q,
            (5, 32),
            &mut scratch,
            &what,
        );
    }
}

/// Every vector stored four times makes candidates tie at the bound, so a
/// walk can end with candidates still waiting in the pool's tie list; two
/// indexes of different sizes on one scratch make the visited set shrink
/// and regrow between walks. Neither may leak into the next walk, on
/// either side of the epoch wraparound.
#[test]
fn ties_and_population_changes_do_not_leak_between_walks() {
    let dim = 4;
    let duplicated = |distinct: usize, seed: u64| {
        let base = random_store(distinct, dim, seed);
        let mut s = VectorStore::new(dim);
        for copy in 0..4 {
            for id in 0..distinct {
                // Interleave the copies so duplicates are not id-adjacent.
                s.push(base.get(((id + copy * 7) % distinct) as u32));
            }
        }
        Arc::new(s)
    };
    let (large, small) = (duplicated(60, 31), duplicated(18, 32));
    let build = |store: &Arc<VectorStore>| {
        [IndexAlgorithm::vamana(), IndexAlgorithm::hnsw()]
            .map(|algo| algo.build_graph(store, Metric::L2))
    };
    let (on_large, on_small) = (build(&large), build(&small));
    let mut scratch = SearchScratch::new();
    scratch.force_epoch(u32::MAX - 6);
    for round in 0..8u32 {
        // Stored vectors as queries: their copies tie at distance zero.
        for (store, indexes) in [(&large, &on_large), (&small, &on_small)] {
            let q = store.get(round * 5 % store.len() as u32).to_vec();
            for (i, idx) in indexes.iter().enumerate() {
                let shape = (1 + round as usize % 3, 2 + round as usize % 4);
                let what = format!("round {round} n {} index {i}", store.len());
                assert_reuse_matches_fresh(
                    |d, k, ef, s| idx.search(d, k, ef, s),
                    store,
                    &q,
                    shape,
                    &mut scratch,
                    &what,
                );
            }
        }
    }
}
