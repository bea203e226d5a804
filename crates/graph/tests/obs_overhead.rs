//! Overhead guard for the always-on search instrumentation.
//!
//! Every `VectorIndex::search` records one counter/histogram bundle into
//! the `mqa-obs` registry. With tracing off (the default) and with it on,
//! that bundle must stay in the noise: this test pins it below 5% of a flat
//! exhaustive search over a modest store, measured on the same machine in
//! the same process.

use mqa_graph::{IndexAlgorithm, SearchStats, VectorIndex};
use mqa_rng::StdRng;
use mqa_vector::VectorStore;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`trials` per-operation cost in nanoseconds.
fn per_op_ns<F: FnMut()>(iters: u64, trials: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

const DIM: usize = 64;

fn flat_index() -> (VectorIndex, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = VectorStore::with_capacity(DIM, 2_000);
    for _ in 0..2_000 {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        store.push(&v);
    }
    let idx = VectorIndex::build(store, &IndexAlgorithm::Flat);
    let q: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    (idx, q)
}

const STATS: SearchStats = SearchStats {
    hops: 3,
    evals: 2_000,
    pruned: 10,
    pages_read: 0,
    pages_cached: 0,
    device_waits: 0,
};

/// Per-op cost of one flat search and of the recording bundle alone.
fn measure(idx: &VectorIndex, q: &[f32]) -> (f64, f64) {
    // The full search path (which already includes one recording bundle
    // per call) versus the bundle alone.
    let search_ns = per_op_ns(50, 5, || {
        black_box(idx.search(black_box(q), 10, 64).results.len());
    });
    let record_ns = per_op_ns(10_000, 5, || {
        STATS.record(black_box("overhead-test"), black_box(123));
    });
    (search_ns, record_ns)
}

/// One test, two phases in a fixed order: the trace switch is process
/// global, so an untraced measurement must not share the process with a
/// concurrently running traced one.
#[test]
fn recording_overhead_below_five_percent_of_flat_search() {
    assert!(
        !mqa_obs::trace::enabled(),
        "the first phase is specified with tracing off"
    );
    let (idx, q) = flat_index();

    let (search_ns, record_ns) = measure(&idx, &q);
    assert!(
        record_ns < search_ns * 0.05,
        "recording bundle {record_ns:.0} ns/op is not <5% of flat search {search_ns:.0} ns/op"
    );

    // Same pin with per-query tracing live: the collector is enabled and a
    // trace is adopted on the measuring thread, so every `record` call
    // also folds its counters into the active trace. That extra path (one
    // thread-local read + one uncontended mutex) must stay under the same
    // 5% budget — tracing is meant to be cheap enough to leave on.
    mqa_obs::trace::configure(mqa_obs::TraceConfig::default());
    mqa_obs::trace::enable();
    let handle =
        mqa_obs::trace::begin_detached("graph.overhead.query").expect("tracing was just enabled");
    let adopted = handle.context().adopt();
    let (search_ns, record_ns) = measure(&idx, &q);
    drop(adopted);
    handle.finish();
    mqa_obs::trace::disable();
    assert!(
        record_ns < search_ns * 0.05,
        "traced recording bundle {record_ns:.0} ns/op is not <5% of flat search {search_ns:.0} ns/op"
    );
}
