//! **E13 — Shared page cache: capacity × workers sweep.**
//!
//! [`mqa_bench::paged`]'s Vamana graph behind the Starling paged layout
//! with a simulated 200 µs device read (the pages one hop and its
//! read-ahead miss are one submission, waited for once), searched by its
//! worker-pool pass with a shared [`mqa_cache::PageCache`] at several
//! capacities. A query left unanswered makes the binary exit 1.
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

// A fail-fast driver: aborting with the message is the designed behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqa_bench::paged::{uniform_vectors, PagedFixture};
use mqa_bench::Table;
use mqa_cache::PageCache;
use mqa_graph::starling::DeviceProfile;
use std::sync::Arc;
use std::time::Duration;

const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, queries) = if quick { (1_500, 48) } else { (6_000, 120) };
    let capacities: &[usize] = if quick {
        &[64, PageCache::DEFAULT_CAPACITY]
    } else {
        &[64, 512, PageCache::DEFAULT_CAPACITY]
    };
    println!(
        "E13: shared page cache, capacity x workers sweep{}\n",
        if quick { " (quick)" } else { "" }
    );

    let fixture = PagedFixture::uniform(n, 16, 42);
    let device = DeviceProfile::with_read_latency(Duration::from_micros(200));
    let query_vecs = Arc::new(uniform_vectors(queries, 16, 99));

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
                fixture
                    .index()
                    .with_device(device)
                    .with_page_cache(Arc::clone(&cache)),
            );
            let cold = fixture.pass(&paged, &query_vecs, workers).or_exit();
            let warm = fixture.pass(&paged, &query_vecs, workers).or_exit();
            let (cold_reads, warm_reads) = (cold.total().pages_read, warm.total().pages_read);
            table.row(vec![
                capacity.to_string(),
                workers.to_string(),
                cold.latency_us(0.5).to_string(),
                cold.latency_us(0.99).to_string(),
                warm.latency_us(0.5).to_string(),
                warm.latency_us(0.99).to_string(),
                cold_reads.to_string(),
                warm_reads.to_string(),
                format!("{:.1}x", cold_reads as f64 / (warm_reads.max(1)) as f64),
                cold.total().device_waits.to_string(),
                warm.total().device_waits.to_string(),
            ]);
        }
    }
    table.print();
}
