//! Exact-count gate for the two things that decide what a paged query
//! costs: how many pages it touches (the layout) and how many of those
//! touches reach the device (the page cache).
//!
//! The shape is the benchmark's `paged_spill` workload in miniature —
//! Vamana R = 16, L = 48 over 1 000 vectors in ten clusters, 7 vertices a
//! page, a cache a quarter of the pages, an 80/20 query stream with one
//! warming chunk and two timed rounds over the same draws — on a free
//! device, so nothing here is a timing: the counts repeat to the last
//! digit on any host.

use mqa_cache::PageCache;
use mqa_graph::starling::{DeviceProfile, LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{vamana, FlatDistance, SearchScratch};
use mqa_rng::StdRng;
use mqa_vector::{Metric, VectorStore};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 32;
const OBJECTS: usize = 1_000;
const QUERIES: usize = 70;
const CHUNK: usize = 16;
const ROUNDS: u64 = 2;

/// Device reads and page touches (reads + cache hits) over the 32 timed
/// queries, as recorded at the commit before `BfsCluster` packed pages by
/// shared neighbours and the page cache admitted by frequency. That
/// change brought them to 882 and 1 780 (x0.48 and x0.877; the benchmark's
/// own ratios on its encoded corpus are x0.53 and x0.84).
const PARENT_READS: u64 = 1_836;
const PARENT_TOUCHED: u64 = 2_030;

#[test]
fn paged_spill_shape_reads_and_touches_fewer_pages() {
    let mut rng = StdRng::seed_from_u64(0x5B11);
    let centres: Vec<Vec<f32>> = (0..10)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let near = |rng: &mut StdRng| -> Vec<f32> {
        let c = &centres[rng.gen_range(0..centres.len())];
        c.iter().map(|x| x + rng.gen_range(-0.5f32..0.5)).collect()
    };
    let mut store = VectorStore::new(DIM);
    for _ in 0..OBJECTS {
        store.push(&near(&mut rng));
    }
    let store = Arc::new(store);
    let queries: Vec<Vec<f32>> = (0..QUERIES).map(|_| near(&mut rng)).collect();
    // 80 % of the draws go to the first tenth of the queries.
    let hot = QUERIES / 10;
    let draws: Vec<usize> = (0..2 * CHUNK)
        .map(|_| {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(hot..QUERIES)
            }
        })
        .collect();

    let nav = vamana::build(&store, Metric::L2, 16, 48, 1.2, 0);
    let layout = PageLayout::build(nav.graph(), 7, LayoutStrategy::BfsCluster);
    let cache = Arc::new(PageCache::new(layout.pages() / 4));
    let paged = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout)
        .with_device(DeviceProfile::with_read_latency(Duration::ZERO))
        .with_page_cache(cache);

    let mut scratch = SearchScratch::new();
    let mut hits = Vec::new();
    let mut round = |draws: &[usize]| -> (u64, u64) {
        let (mut read, mut cached) = (0, 0);
        for &qi in draws {
            let mut dist = FlatDistance::new(&store, &queries[qi], Metric::L2).unwrap();
            let stats = paged.search_paged_into(&mut dist, 10, 32, &mut scratch, &mut hits);
            read += stats.pages_read;
            cached += stats.pages_cached;
        }
        (read, cached)
    };
    let (warm, timed) = draws.split_at(CHUNK);
    round(warm);
    let (mut reads, mut touched) = (0, 0);
    for _ in 0..ROUNDS {
        let (read, cached) = round(timed);
        reads += read;
        touched += read + cached;
    }
    assert!(
        reads * 100 <= PARENT_READS * 65,
        "{reads} device reads against the parent's {PARENT_READS}: \
         the cache is not keeping what queries share"
    );
    assert!(
        touched * 100 <= PARENT_TOUCHED * 90,
        "{touched} pages touched against the parent's {PARENT_TOUCHED}: \
         the layout is not keeping neighbourhoods together"
    );
}
