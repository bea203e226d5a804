//! The runtime witness of allocation freedom: a counting
//! `#[global_allocator]` that belongs to this test binary alone.
//!
//! `mqa-xtask alloc` proves that no source-visible allocation site is
//! reachable from `PagedIndex::search_paged_into` without a discharge.
//! This binary measures it, and so also catches what a token-level scan
//! cannot see: allocations inside std, behind trait objects, or in
//! "pre-sized" buffers that were sized wrong.
//!
//! The fixture: 1 200 uniform 8-d vectors under Vamana (R 16, L 48,
//! α 1.2), 8 vertices a page, 40 queries at k 10, ef 32. Once one pass has
//! warmed a scratch, a result buffer and the metric registry, a second
//! pass over the same queries must allocate nothing. That holds on a free
//! device with no cache, and with a page cache a quarter of the pages and
//! a timed device attached. The red path shows the counter sees the
//! search itself: each query on a fresh scratch allocates at least once.

#![allow(unsafe_code)]

use mqa_cache::PageCache;
use mqa_graph::pipeline::NavGraph;
use mqa_graph::starling::{DeviceProfile, LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{vamana, FlatDistance, SearchScratch, SearchStats};
use mqa_rng::StdRng;
use mqa_vector::{Metric, VectorStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

thread_local! {
    /// Heap allocations made by this thread (allocs, zeroed allocs and
    /// reallocs). `const`-initialised, so the slot never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `try_with` keeps counting safe while a thread's TLS is torn down.
fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments untouched to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's layout obligations pass through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: the caller's layout obligations pass through to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator, and the
    // caller's obligations on `layout` / `new_size` pass through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: frees exactly what `System` allocated, untouched.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

// SAFETY: the binary's only global allocator; it forwards every call to
// `System`, so installing it changes what is counted, not what is done.
#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Heap allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const K: usize = 10;
const EF: usize = 32;

struct Fixture {
    store: Arc<VectorStore>,
    nav: NavGraph,
    layout: PageLayout,
    queries: Vec<Vec<f32>>,
}

/// Built once and shared by every test of the binary.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (n, dim, queries) = (1_200, 8, 40);
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            store.push(&v);
        }
        let store = Arc::new(store);
        let nav = vamana::build(&store, Metric::L2, 16, 48, 1.2, 45);
        let layout = PageLayout::build(nav.graph(), 8, LayoutStrategy::BfsCluster);
        let queries = (0..queries)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Fixture {
            store,
            nav,
            layout,
            queries,
        }
    })
}

impl Fixture {
    /// A paged index over the fixture on a free device with no cache.
    fn index(&self) -> PagedIndex {
        PagedIndex::new(
            self.nav.graph().clone(),
            self.nav.entries().to_vec(),
            self.layout.clone(),
        )
    }

    /// Searches every query through `paged` twice on one scratch and
    /// result buffer, and returns the second pass: the allocations of each
    /// `search_paged_into` call alone, and the summed work.
    /// `fresh_scratch` hands each second-pass search a new scratch.
    fn second_pass(&self, paged: &PagedIndex, fresh_scratch: bool) -> (Vec<u64>, SearchStats) {
        let (mut scratch, mut hits) = (SearchScratch::new(), Vec::new());
        let (mut counts, mut total) = (Vec::new(), SearchStats::default());
        for measured in [false, true] {
            counts.clear();
            total = SearchStats::default();
            for q in &self.queries {
                let mut dist = FlatDistance::new(&self.store, q, Metric::L2).unwrap();
                if measured && fresh_scratch {
                    scratch = SearchScratch::new();
                }
                let before = allocations();
                let stats = paged.search_paged_into(&mut dist, K, EF, &mut scratch, &mut hits);
                counts.push(allocations() - before);
                assert!(stats.evals > 0 && !hits.is_empty(), "a search did no work");
                total.merge(&stats);
            }
        }
        (counts, total)
    }
}

#[test]
fn warmed_paged_search_allocates_nothing() {
    let fx = fixture();
    let (counts, stats) = fx.second_pass(&fx.index(), false);
    let allocs: u64 = counts.iter().sum();
    assert_eq!(
        allocs,
        0,
        "{allocs} allocation(s) over {} warmed paged searches ({counts:?})",
        counts.len()
    );
    assert!(stats.pages_read > 0, "{stats:?}");
}

#[test]
fn warmed_cached_search_on_a_timed_device_allocates_nothing() {
    let fx = fixture();
    let paged = fx
        .index()
        .with_page_cache(Arc::new(PageCache::new(fx.layout.pages() / 4)))
        .with_device(DeviceProfile::with_read_latency(Duration::from_micros(50)));
    let (counts, stats) = fx.second_pass(&paged, false);
    let allocs: u64 = counts.iter().sum();
    assert_eq!(
        allocs,
        0,
        "{allocs} allocation(s) over {} warmed cached searches ({counts:?})",
        counts.len()
    );
    assert!(
        stats.pages_cached > 0 && stats.device_waits > 0,
        "the cache and the device both took part: {stats:?}"
    );
}

/// The red path: a counter that saw nothing would pass both tests above.
#[test]
fn cold_scratch_search_allocates() {
    let fx = fixture();
    let (counts, _) = fx.second_pass(&fx.index(), true);
    assert!(
        counts.iter().all(|&allocs| allocs >= 1),
        "a search on a fresh scratch must grow it: {counts:?}"
    );
}
