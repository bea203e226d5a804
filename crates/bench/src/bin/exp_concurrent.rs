//! **E12 — Concurrent query throughput: the worker-pool engine.**
//!
//! Two workloads, each swept over 1/2/4 engine workers:
//!
//! 1. **I/O-bound paged search** — [`mqa_bench::paged`]'s Vamana graph
//!    behind the Starling paged layout and its worker-pool pass, with a
//!    simulated device latency (the pages one hop and its read-ahead miss
//!    are read together and waited for once). A query left unanswered
//!    makes the binary exit 1.
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

use mqa_bench::paged::{uniform_vectors, PagedFixture};
use mqa_bench::{encode, SetupParams, Table};
use mqa_engine::{EngineOptions, QueryEngine};
use mqa_graph::starling::DeviceProfile;
use mqa_kb::{DatasetSpec, WorkloadSpec};
use mqa_retrieval::{MultiModalQuery, MustFramework};
use std::sync::Arc;
use std::time::Duration;

const K: usize = 10;
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

/// Workload 1: paged search behind a simulated device latency.
fn paged_io_sweep(quick: bool, table: &mut Table) {
    let (n, queries) = if quick { (1_500, 48) } else { (6_000, 120) };
    let fixture = PagedFixture::uniform(n, 16, 42);
    let device = DeviceProfile::with_read_latency(Duration::from_micros(200));
    let paged = Arc::new(fixture.index().with_device(device));
    let query_vecs = Arc::new(uniform_vectors(queries, 16, 99));

    let mut baseline_qps = 0.0f64;
    for workers in WORKER_SWEEP {
        let pass = fixture.pass(&paged, &query_vecs, workers).or_exit();
        let qps = queries as f64 / pass.wall.as_secs_f64();
        if workers == 1 {
            baseline_qps = qps;
        }
        let total = pass.total();
        table.row(vec![
            "paged-io".to_string(),
            workers.to_string(),
            format!("{qps:.0}"),
            format!("{:.2}x", qps / baseline_qps),
            "-".to_string(),
            "-".to_string(),
            format!("{:.1}", total.pages_read as f64 / queries as f64),
            format!("{:.1}", total.device_waits as f64 / queries as f64),
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
    let must = Arc::new(MustFramework::build(
        Arc::clone(&enc.corpus),
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
            Arc::<MustFramework>::clone(&must),
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
