//! Golden pins for the best-first walk: every index family's traversal
//! (results, distances to the bit, and all five work counters) and the
//! HNSW/NSG edge lists after build and after one incremental growth are
//! hashed and compared against constants recorded at the commit *before*
//! the graph layer's four beam loops were collapsed into one. A refactor
//! of the walk, the beam collector, or the construction searches must
//! leave every hash unchanged. The Vamana/HNSW edge lists after one
//! `compact_live` are pinned the same way, recorded at the commit before
//! the link and splice routines were each written once. The HNSW search
//! hash was re-recorded once, when its upper-layer routing started
//! counting every evaluation as an eval and every neighbour-list read as
//! a hop; its ids and distance bits did not move.

use mqa_graph::starling::{LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{
    BuiltGraph, FlatDistance, IndexAlgorithm, SearchOutput, SearchScratch, Tombstones,
};
use mqa_rng::StdRng;
use mqa_vector::{VecId, VectorStore};
use std::sync::Arc;

const DIM: usize = 8;
const N: usize = 500;
const GROWN: usize = 540;
const QUERIES: usize = 32;

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn random_vectors(count: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// The first `n` of the 540 seeded vectors (500 as built, 540 as grown).
fn store(n: usize) -> Arc<VectorStore> {
    let mut s = VectorStore::new(DIM);
    for v in random_vectors(GROWN, 0x60_1D).iter().take(n) {
        s.push(v);
    }
    Arc::new(s)
}

/// Hash of 32 seeded searches (varying `k` and `ef`) on one reused
/// scratch: ids, distance bits and all five work counters of each.
fn search_hash(
    store: &VectorStore,
    mut search: impl FnMut(&mut FlatDistance, usize, usize, &mut SearchScratch) -> SearchOutput,
) -> u64 {
    let mut h = Fnv::new();
    let mut scratch = SearchScratch::new();
    for (i, q) in random_vectors(QUERIES, 0xBEA7).iter().enumerate() {
        let (k, ef) = (1 + i % 10, 8 + 3 * i);
        let mut dist = FlatDistance::new(store, q).expect("dims match");
        let SearchOutput { results, stats } = search(&mut dist, k, ef, &mut scratch);
        h.word(results.len() as u64);
        for c in &results {
            h.word(u64::from(c.id));
            h.word(u64::from(c.dist.to_bits()));
        }
        for w in [stats.hops, stats.evals, stats.pruned] {
            h.word(w);
        }
        for w in [stats.pages_read, stats.pages_cached] {
            h.word(w);
        }
    }
    h.0
}

/// Hash of the structure's edge list (and entry points).
fn edge_hash(built: &BuiltGraph) -> u64 {
    let mut h = Fnv::new();
    match built {
        BuiltGraph::Nav(nav) => {
            for &e in nav.entries() {
                h.word(u64::from(e));
            }
            for (v, u) in nav.graph().edges() {
                h.word(u64::from(v) << 32 | u64::from(u));
            }
        }
        BuiltGraph::Hnsw(hnsw) => {
            h.word(u64::from(hnsw.entry()));
            h.word(hnsw.max_level() as u64);
            hnsw.for_each_edge(|level, v, u| {
                h.word(level as u64);
                h.word(u64::from(v) << 32 | u64::from(u));
            });
        }
        _ => {}
    }
    h.0
}

#[test]
fn search_traversals_are_bit_identical() {
    let store = store(N);
    let golden: [(IndexAlgorithm, u64); 5] = [
        (IndexAlgorithm::Flat, 0xf479_82a0_27b0_0a29),
        (IndexAlgorithm::hnsw(), 0xcdb5_fc2c_cad5_9a9b),
        (IndexAlgorithm::nsg(), 0x43ed_c02d_f87b_253a),
        (IndexAlgorithm::vamana(), 0x0d9e_4ea8_0889_c67c),
        (IndexAlgorithm::mqa_graph(), 0xafb3_235f_49f0_5122),
    ];
    for (algo, want) in golden {
        let built = algo.build_graph(&store);
        let got = search_hash(&store, |d, k, ef, s| built.search(d, k, ef, s));
        assert_eq!(got, want, "{}: search hash {got:#018x}", algo.name());
    }
}

#[test]
fn paged_traversal_is_bit_identical() {
    let store = store(N);
    let built = IndexAlgorithm::vamana().build_graph(&store);
    let BuiltGraph::Nav(nav) = &built else {
        panic!("vamana builds a Nav graph");
    };
    let layout = PageLayout::build(nav.graph(), 4, LayoutStrategy::BfsCluster);
    // A cache a quarter of the pages, so both device reads and cache hits
    // (and the eviction order between them) land in the hash.
    let cache = Arc::new(mqa_cache::PageCache::new(layout.pages() / 4));
    let paged =
        PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout).with_page_cache(cache);
    let got = search_hash(&store, |d, k, ef, s| {
        let mut results = Vec::new();
        let stats = paged.search_paged_into(d, k, ef, s, &mut results);
        // What no layout and no cache may move: ids, distance bits and the
        // walk's own counters are those of the unpaged search.
        let plain = built.search(d, k, ef, s);
        let bits = |c: &[mqa_vector::Candidate]| -> Vec<(VecId, u32)> {
            c.iter().map(|c| (c.id, c.dist.to_bits())).collect()
        };
        assert_eq!(bits(&results), bits(&plain.results));
        assert_eq!(
            (stats.hops, stats.evals, stats.pruned),
            (plain.stats.hops, plain.stats.evals, plain.stats.pruned)
        );
        SearchOutput { results, stats }
    });
    // Re-recorded once (was 0x110c_9b19_bbbc_733f) when `BfsCluster` began
    // packing pages by shared neighbours and the page cache began
    // admitting by frequency, and once more (was 0xb81e_efac_b53c_9d37)
    // when each hop's submission began reading ahead for the next
    // candidates' neighbours: `pages_read` and `pages_cached` are in the
    // hash and both moved; everything asserted above did not.
    assert_eq!(got, 0x7818_428e_7dac_88d3, "paged search hash {got:#018x}");
}

#[test]
fn construction_is_bit_identical() {
    let (store, grown) = (store(N), store(GROWN));
    let golden: [(IndexAlgorithm, u64, u64); 2] = [
        (
            IndexAlgorithm::hnsw(),
            0xeaee_7f0b_fd47_ec2b,
            0xe800_5291_7827_486e,
        ),
        (
            IndexAlgorithm::nsg(),
            0xe001_1a4d_4255_1de5,
            0x2c14_5635_5efc_c03d,
        ),
    ];
    for (algo, want_built, want_grown) in golden {
        let mut built = algo.build_graph(&store);
        let got = edge_hash(&built);
        assert_eq!(got, want_built, "{}: built edges {got:#018x}", algo.name());
        built.grow_to(&grown, &Tombstones::new(0));
        assert_eq!(built.len(), GROWN);
        let got = edge_hash(&built);
        assert_eq!(got, want_grown, "{}: grown edges {got:#018x}", algo.name());
    }
}

#[test]
fn compaction_is_bit_identical() {
    let store = store(N);
    // A seeded 15 %-dead tombstone set.
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut tomb = Tombstones::new(N);
    while tomb.dead_count() < N * 15 / 100 {
        tomb.kill(rng.gen_range(0..N) as VecId);
    }
    let golden: [(IndexAlgorithm, u64); 2] = [
        (IndexAlgorithm::vamana(), 0xe546_5483_f165_25a0),
        (IndexAlgorithm::hnsw(), 0xe47c_400d_3055_3b0e),
    ];
    for (algo, want) in golden {
        let mut built = algo.build_graph(&store);
        built.compact_live(&store, &tomb);
        let got = edge_hash(&built);
        assert_eq!(got, want, "{}: compacted edges {got:#018x}", algo.name());
    }
}
