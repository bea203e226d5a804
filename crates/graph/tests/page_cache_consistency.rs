//! Property test: a shared page cache must never change paged-search
//! answers — only where page touches are served from.
//!
//! For every navigation-graph algorithm (HNSW base layer, NSG, Vamana),
//! both page-layout strategies, and three cache regimes (a tiny capacity
//! that turns most missed pages away, a middling one that both evicts and
//! rejects, a large one that goes fully warm), a cached [`PagedIndex`]
//! must return results bit-identical to an uncached twin, and every
//! distinct page touch must be accounted for as exactly one of a device
//! read or a cache hit:
//!
//! ```text
//! cached.pages_read + cached.pages_cached == uncached.pages_read
//! ```
//!
//! A query waits for the device once per submission that missed a page —
//! a hop's pages and its read-ahead go down together: never more often
//! than it reads, and not at all when every page hits.
//!
//! The cache's own counters must tell the same story (this file holds
//! one test, so the process-wide `cache.page.*` counters are its alone):
//! `hits + misses` = probes and `misses − rejected − evictions` = pages
//! resident.

use mqa_cache::PageCache;
use mqa_graph::starling::{LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{hnsw, nsg, vamana, Adjacency, FlatDistance, SearchOutput, SearchScratch};
use mqa_rng::StdRng;
use mqa_vector::{VecId, VectorStore};
use std::sync::Arc;

/// One paged search on a fresh scratch, hits returned.
fn search(paged: &PagedIndex, dist: &mut FlatDistance, k: usize, ef: usize) -> SearchOutput {
    let mut results = Vec::new();
    let stats = paged.search_paged_into(dist, k, ef, &mut SearchScratch::new(), &mut results);
    SearchOutput { results, stats }
}

fn store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
    let mut s = VectorStore::new(dim);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        s.push(&v);
    }
    Arc::new(s)
}

/// Builds `(name, adjacency, entry points)` for every algorithm under test.
fn graphs(s: &Arc<VectorStore>) -> Vec<(&'static str, Adjacency, Vec<VecId>)> {
    let h = hnsw::Hnsw::build(s, &hnsw::HnswParams::default());
    let n = nsg::build(s, 12, 32, 12, 5);
    let v = vamana::build(s, 12, 32, 1.2, 5);
    vec![
        ("hnsw", h.base_layer().clone(), vec![h.entry()]),
        ("nsg", n.graph().clone(), n.entries().to_vec()),
        ("vamana", v.graph().clone(), v.entries().to_vec()),
    ]
}

/// The process-wide page-cache counters.
#[derive(Debug)]
struct PageCounters {
    hits: u64,
    misses: u64,
    rejected: u64,
    evictions: u64,
}

impl PageCounters {
    fn read() -> Self {
        let get = |name: &str| mqa_obs::counter(name).get();
        Self {
            hits: get("cache.page.hits"),
            misses: get("cache.page.misses"),
            rejected: get("cache.page.rejected"),
            evictions: get("cache.page.evictions"),
        }
    }

    fn since(&self, earlier: &Self) -> Self {
        Self {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            rejected: self.rejected - earlier.rejected,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

#[test]
fn cached_paged_search_is_bit_identical_across_algorithms_and_regimes() {
    let s = store(500, 8, 3);
    let mut rng = StdRng::seed_from_u64(17);
    let queries: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();

    for (name, graph, entries) in graphs(&s) {
        for strategy in [LayoutStrategy::InsertionOrder, LayoutStrategy::BfsCluster] {
            let layout = PageLayout::build(&graph, 4, strategy);
            let uncached = PagedIndex::new(graph.clone(), entries.clone(), layout.clone());
            // Tiny capacity: one slot a shard against 125 pages, so a
            // missed page almost always finds a resident asked for at
            // least as often and is not kept. Middling: room for the
            // pages every query crosses, the rest compete. Large: the
            // whole working set becomes resident.
            for capacity in [4usize, 32, 4096] {
                let before = PageCounters::read();
                let mut touches = 0u64;
                let cache = Arc::new(PageCache::new(capacity));
                let cached = PagedIndex::new(graph.clone(), entries.clone(), layout.clone())
                    .with_page_cache(Arc::clone(&cache));
                // Two passes: cold, then warm (or still-thrashing at the
                // tiny capacity). The invariants hold in both.
                for pass in ["cold", "warm"] {
                    for (qi, q) in queries.iter().enumerate() {
                        let mut d1 = FlatDistance::new(&s, q).unwrap();
                        let plain = search(&uncached, &mut d1, 5, 24);
                        let mut d2 = FlatDistance::new(&s, q).unwrap();
                        let with_cache = search(&cached, &mut d2, 5, 24);
                        assert_eq!(
                            plain.results, with_cache.results,
                            "{name}/{strategy:?}/cap={capacity}/{pass} query {qi}: \
                             cached results diverge"
                        );
                        assert_eq!(
                            with_cache.stats.pages_read + with_cache.stats.pages_cached,
                            plain.stats.pages_read,
                            "{name}/{strategy:?}/cap={capacity}/{pass} query {qi}: \
                             page touches unaccounted for"
                        );
                        touches += plain.stats.pages_read;
                        if capacity == 4096 && pass == "warm" {
                            assert_eq!(
                                (with_cache.stats.pages_read, with_cache.stats.device_waits),
                                (0, 0),
                                "{name}/{strategy:?}/warm query {qi}: every page hits, nothing to wait for"
                            );
                        }
                        for (side, stats) in
                            [("uncached", plain.stats), ("cached", with_cache.stats)]
                        {
                            assert!(
                                stats.device_waits <= stats.pages_read
                                    && (stats.device_waits == 0) == (stats.pages_read == 0),
                                "{name}/{strategy:?}/cap={capacity}/{pass} query {qi}: \
                                 {side} waited {} times for {} reads",
                                stats.device_waits,
                                stats.pages_read
                            );
                        }
                    }
                }
                assert!(
                    cache.len() <= cache.capacity(),
                    "{name}/{strategy:?}: cache overfilled"
                );
                let moved = PageCounters::read().since(&before);
                let tag = format!("{name}/{strategy:?}/cap={capacity}");
                assert_eq!(moved.hits + moved.misses, touches, "{tag}: probes");
                assert_eq!(
                    moved.misses - moved.rejected - moved.evictions,
                    cache.len() as u64,
                    "{tag}: admissions minus evictions must equal residency ({moved:?})"
                );
                if capacity == 4096 {
                    assert_eq!(moved.rejected + moved.evictions, 0, "{tag}: {moved:?}");
                } else {
                    // The working set dwarfs the cache, so it filled
                    // completely and both verdicts on a full shard — take
                    // the victim's slot, be turned away — were exercised.
                    assert_eq!(cache.len(), cache.capacity(), "{tag}: never filled");
                    assert!(moved.rejected > 0, "{tag}: nothing rejected ({moved:?})");
                    assert!(moved.evictions > 0, "{tag}: nothing evicted ({moved:?})");
                }
            }
        }
    }
}
