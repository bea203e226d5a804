//! **E12 — Concurrent query throughput: the worker-pool engine.**
//!
//! Two workloads, each swept over 1/2/4 engine workers:
//!
//! 1. **I/O-bound paged search** — a Vamana graph behind the Starling
//!    paged layout with a simulated device latency (the pages one hop and
//!    its read-ahead miss are read together and waited for once).
//!    Latency-dominated search is exactly what the pool overlaps: with the
//!    device stalling one worker, another walks its own beam, so QPS
//!    scales with workers even on one core.
//! 2. **End-to-end MUST retrieval** — real multi-modal queries through a
//!    [`mqa_engine::QueryEngine`] over the MUST framework (CPU-bound; on a
//!    single core this measures pool overhead and p50/p99 tail shape from
//!    the `engine.query.latency_us` histogram rather than speedup).
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin exp_concurrent [-- --quick]
//! ```

use mqa_bench::{build_must_with, encode, SetupParams, Table};
use mqa_engine::{EngineOptions, QueryEngine, WorkerPool};
use mqa_graph::starling::{DeviceProfile, LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::FlatDistance;
use mqa_kb::{DatasetSpec, WorkloadSpec};
use mqa_retrieval::MultiModalQuery;
use mqa_rng::StdRng;
use mqa_vector::VectorStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// Workload 1: paged search behind a simulated device latency.
fn paged_io_sweep(quick: bool, table: &mut Table) {
    let (n, queries) = if quick { (1_500, 48) } else { (6_000, 120) };
    let dim = 16;
    let store = random_store(n, dim, 42);
    let nav = mqa_graph::vamana::build(&store, 16, 48, 1.2, 7);
    let layout = PageLayout::build(nav.graph(), 8, LayoutStrategy::BfsCluster);
    let device = DeviceProfile::with_read_latency(Duration::from_micros(200));
    let paged = Arc::new(
        PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout).with_device(device),
    );
    let mut rng = StdRng::seed_from_u64(99);
    let query_vecs: Arc<Vec<Vec<f32>>> = Arc::new(
        (0..queries)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect(),
    );

    let mut baseline_qps = 0.0f64;
    for workers in WORKER_SWEEP {
        let reads = Arc::new(AtomicU64::new(0));
        let waits = Arc::new(AtomicU64::new(0));
        let sw = mqa_obs::Stopwatch::start();
        {
            let pool = WorkerPool::new(workers, 2 * queries);
            for qi in 0..queries {
                let paged = Arc::clone(&paged);
                let store = Arc::clone(&store);
                let query_vecs = Arc::clone(&query_vecs);
                let (reads, waits) = (Arc::clone(&reads), Arc::clone(&waits));
                let submitted = pool.submit(Box::new(move || {
                    if let Ok(mut dist) = FlatDistance::new(&store, &query_vecs[qi]) {
                        let mut hits = Vec::new();
                        let stats = mqa_graph::with_pooled(|scratch| {
                            paged.search_paged_into(&mut dist, K, 32, scratch, &mut hits)
                        });
                        assert!(!hits.is_empty());
                        reads.fetch_add(stats.pages_read, Ordering::Relaxed);
                        waits.fetch_add(stats.device_waits, Ordering::Relaxed);
                    }
                }));
                assert!(submitted.is_ok(), "pool refused work mid-benchmark");
            }
            // Dropping the pool drains the queue and joins the workers.
        }
        let elapsed_s = sw.elapsed_us() as f64 / 1e6;
        let qps = queries as f64 / elapsed_s;
        if workers == 1 {
            baseline_qps = qps;
        }
        table.row(vec![
            "paged-io".to_string(),
            workers.to_string(),
            format!("{qps:.0}"),
            format!("{:.2}x", qps / baseline_qps),
            "-".to_string(),
            "-".to_string(),
            format!(
                "{:.1}",
                reads.load(Ordering::Relaxed) as f64 / queries as f64
            ),
            format!(
                "{:.1}",
                waits.load(Ordering::Relaxed) as f64 / queries as f64
            ),
        ]);
    }
}

/// Workload 2: end-to-end MUST retrieval through the engine.
fn must_engine_sweep(quick: bool, table: &mut Table) {
    let (objects, queries) = if quick { (1_200, 60) } else { (4_000, 150) };
    let params = SetupParams {
        spec: DatasetSpec::weather()
            .objects(objects)
            .concepts(40)
            .styles(4)
            .caption_noise(0.3)
            .image_noise(0.15)
            .seed(2025),
        ..SetupParams::default()
    };
    let enc = encode(&params);
    let must = Arc::new(build_must_with(
        &enc,
        enc.learned.weights.clone(),
        &params.algo,
    ));
    let workload = WorkloadSpec::new(queries, 777).generate(&enc.info);
    let qs: Vec<MultiModalQuery> = workload
        .cases
        .iter()
        .map(|case| MultiModalQuery::text(&case.round1_text))
        .collect();

    let mut baseline_qps = 0.0f64;
    for workers in WORKER_SWEEP {
        mqa_obs::global().reset();
        let engine = QueryEngine::new(
            Arc::<mqa_retrieval::MustFramework>::clone(&must),
            EngineOptions::with_workers(workers),
        );
        let sw = mqa_obs::Stopwatch::start();
        let outs = match engine.retrieve_batch(qs.clone(), K, 64) {
            Ok(outs) => outs,
            Err(e) => {
                eprintln!("engine refused the batch: {e}");
                std::process::exit(1);
            }
        };
        let elapsed_s = sw.elapsed_us() as f64 / 1e6;
        assert_eq!(outs.len(), qs.len());
        let qps = qs.len() as f64 / elapsed_s;
        if workers == 1 {
            baseline_qps = qps;
        }
        let lat = mqa_obs::histogram("engine.query.latency_us");
        table.row(vec![
            "must-e2e".to_string(),
            workers.to_string(),
            format!("{qps:.0}"),
            format!("{:.2}x", qps / baseline_qps),
            format!("{}", lat.quantile(0.5)),
            format!("{}", lat.quantile(0.99)),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "E12: concurrent engine throughput at {:?} workers{}\n",
        WORKER_SWEEP,
        if quick { " (quick)" } else { "" }
    );
    let mut table = Table::new(&[
        "workload",
        "workers",
        "QPS",
        "speedup",
        "p50 µs",
        "p99 µs",
        "reads/query",
        "waits/query",
    ]);
    paged_io_sweep(quick, &mut table);
    must_engine_sweep(quick, &mut table);
    table.print();
}
