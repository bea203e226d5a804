//! **E13 — Shared page cache: capacity × workers sweep.**
//!
//! A Vamana graph behind the Starling paged layout with a simulated
//! 200 µs device read (the pages one hop and its read-ahead miss are one
//! submission, waited for once), searched through the worker pool with a
//! shared [`mqa_cache::PageCache`] at several capacities.
//! Each cell runs the query set twice on a fresh cache:
//!
//! - **cold** — the cache starts empty. At small capacities this tracks
//!   the uncached index (evictions force re-reads); at large capacities
//!   cross-query page sharing already absorbs reads mid-pass.
//! - **warm** — repeat queries touch resident pages; device reads drop
//!   by the factor the capacity can absorb, and the per-query latency
//!   tail collapses with them.
//!
//! Results are bit-identical in every regime — the cache only decides
//! where a page touch is served from, never what search returns.
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin exp_cache [-- --quick]
//! ```

use mqa_bench::Table;
use mqa_cache::PageCache;
use mqa_engine::WorkerPool;
use mqa_graph::starling::{DeviceProfile, LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::FlatDistance;
use mqa_rng::StdRng;
use mqa_vector::VectorStore;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const K: usize = 10;
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

fn random_store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = VectorStore::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        s.push(&v);
    }
    Arc::new(s)
}

/// One pass of the query set through the pool. Returns per-query
/// latencies (µs), the total distinct device page reads and the times a
/// query waited for the device.
fn run_pass(
    paged: &Arc<PagedIndex>,
    store: &Arc<VectorStore>,
    query_vecs: &Arc<Vec<Vec<f32>>>,
    workers: usize,
) -> (Vec<u64>, u64, u64) {
    let queries = query_vecs.len();
    let tallies: Arc<Mutex<(Vec<u64>, u64, u64)>> =
        Arc::new(Mutex::new((Vec::with_capacity(queries), 0, 0)));
    {
        let pool = WorkerPool::new(workers, 2 * queries);
        for qi in 0..queries {
            let paged = Arc::clone(paged);
            let store = Arc::clone(store);
            let query_vecs = Arc::clone(query_vecs);
            let tallies = Arc::clone(&tallies);
            let submitted = pool.submit(Box::new(move || {
                let sw = mqa_obs::Stopwatch::start();
                if let Ok(mut dist) = FlatDistance::new(&store, &query_vecs[qi]) {
                    let mut hits = Vec::new();
                    let stats = mqa_graph::with_pooled(|scratch| {
                        paged.search_paged_into(&mut dist, K, 32, scratch, &mut hits)
                    });
                    assert!(!hits.is_empty());
                    let us = sw.elapsed_us();
                    if let Ok(mut t) = tallies.lock() {
                        t.0.push(us);
                        t.1 += stats.pages_read;
                        t.2 += stats.device_waits;
                    }
                }
            }));
            assert!(submitted.is_ok(), "pool refused work mid-benchmark");
        }
        // Dropping the pool drains the queue and joins the workers.
    }
    let (mut lats, reads, waits) = match Arc::try_unwrap(tallies) {
        Ok(m) => m.into_inner().unwrap_or_else(|p| p.into_inner()),
        Err(_) => unreachable!("workers joined; no other owner remains"),
    };
    lats.sort_unstable();
    (lats, reads, waits)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, queries) = if quick { (1_500, 48) } else { (6_000, 120) };
    let dim = 16;
    let capacities: &[usize] = if quick {
        &[64, PageCache::DEFAULT_CAPACITY]
    } else {
        &[64, 512, PageCache::DEFAULT_CAPACITY]
    };
    println!(
        "E13: shared page cache, capacity x workers sweep{}\n",
        if quick { " (quick)" } else { "" }
    );

    let store = random_store(n, dim, 42);
    let nav = mqa_graph::vamana::build(&store, 16, 48, 1.2, 7);
    let layout = PageLayout::build(nav.graph(), 8, LayoutStrategy::BfsCluster);
    let device = DeviceProfile::with_read_latency(Duration::from_micros(200));
    let mut rng = StdRng::seed_from_u64(99);
    let query_vecs: Arc<Vec<Vec<f32>>> = Arc::new(
        (0..queries)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect(),
    );

    let mut table = Table::new(&[
        "capacity",
        "workers",
        "cold p50 µs",
        "cold p99 µs",
        "warm p50 µs",
        "warm p99 µs",
        "cold reads",
        "warm reads",
        "reduction",
        "cold waits",
        "warm waits",
    ]);
    for &capacity in capacities {
        for workers in WORKER_SWEEP {
            // A fresh cache per cell: the first pass starts cold, the
            // second replays the same queries against whatever survived.
            let cache = Arc::new(PageCache::new(capacity));
            let paged = Arc::new(
                PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout.clone())
                    .with_device(device)
                    .with_page_cache(Arc::clone(&cache)),
            );
            let (cold_lat, cold_reads, cold_waits) = run_pass(&paged, &store, &query_vecs, workers);
            let (warm_lat, warm_reads, warm_waits) = run_pass(&paged, &store, &query_vecs, workers);
            table.row(vec![
                capacity.to_string(),
                workers.to_string(),
                quantile(&cold_lat, 0.5).to_string(),
                quantile(&cold_lat, 0.99).to_string(),
                quantile(&warm_lat, 0.5).to_string(),
                quantile(&warm_lat, 0.99).to_string(),
                cold_reads.to_string(),
                warm_reads.to_string(),
                format!("{:.1}x", cold_reads as f64 / (warm_reads.max(1)) as f64),
                cold_waits.to_string(),
                warm_waits.to_string(),
            ]);
        }
    }
    table.print();
}
