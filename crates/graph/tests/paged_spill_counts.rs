//! Exact-count gate for the three things that decide what a paged query
//! costs: how many pages it touches (the layout), how many of those
//! touches reach the device (the page cache), and how many times it waits
//! for the device (one submission per hop that touched a new page and
//! missed one, its read-ahead included).
//!
//! The shape is the benchmark's `paged_spill` workload in miniature —
//! Vamana R = 16, L = 48 over 1 000 vectors in ten clusters, 7 vertices a
//! page, a cache a quarter of the pages, an 80/20 query stream with one
//! warming chunk and two timed rounds over the same draws — on a free
//! device, so nothing here is a timing: the counts repeat to the last
//! digit on any host.

use mqa_cache::PageCache;
use mqa_graph::starling::{DeviceProfile, LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{vamana, FlatDistance, SearchScratch, SearchStats};
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
/// queries. Packing pages by shared neighbours and admitting to the page
/// cache by frequency brought them from 1 836 and 2 030 to 882 and 1 780;
/// submitting a hop's reads together did not move either. Reading ahead
/// for the next candidates' neighbours then touched pages the walk never
/// reaches, re-recorded once: 1 292 and 2 352.
const READS: u64 = 1_292;
const TOUCHED: u64 = 2_352;

/// Device waits over the same queries: one read at a time waited 882
/// times, one submission a hop 371 (x0.42 of the reads), and a submission
/// that also reads ahead 231 (x0.18).
const WAITS: u64 = 231;

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
    let mut round = |draws: &[usize]| -> SearchStats {
        let mut total = SearchStats::default();
        for &qi in draws {
            let mut dist = FlatDistance::new(&store, &queries[qi], Metric::L2).unwrap();
            let stats = paged.search_paged_into(&mut dist, 10, 32, &mut scratch, &mut hits);
            assert!(
                stats.device_waits <= stats.pages_read
                    && (stats.device_waits > 0) == (stats.pages_read > 0)
                    && stats.device_waits <= stats.hops + 1,
                "a wait is a hop (or the seeding) that read something: {stats:?}"
            );
            total.merge(&stats);
        }
        total
    };
    let (warm, timed) = draws.split_at(CHUNK);
    round(warm);
    let mut total = SearchStats::default();
    for _ in 0..ROUNDS {
        total.merge(&round(timed));
    }
    assert_eq!(
        total.pages_read, READS,
        "device reads: the cache's verdicts moved"
    );
    assert_eq!(
        total.pages_read + total.pages_cached,
        TOUCHED,
        "pages touched: the layout or the walk moved"
    );
    assert_eq!(total.device_waits, WAITS, "device waits");
    assert!(
        total.device_waits * 100 <= total.pages_read * 20,
        "{} waits for {} reads: a hop's reads, and its read-ahead, are not going down together",
        total.device_waits,
        total.pages_read
    );
}
