//! The `engine` smoke command: prove the concurrent query engine is both
//! *correct* (worker-pool answers are bit-identical to the serial path)
//! and *worth having* (QPS on a latency-bound paged workload scales with
//! workers), then write a metrics snapshot for the CI artifact trail.
//!
//! CI runs this as a hard gate: a refactor that breaks
//! scratch-threading shows up as an answer mismatch, and a regression
//! that serializes the pool (an accidental global lock on the search
//! path) shows up as a speedup below [`MIN_SPEEDUP`].
//!
//! The correctness phase also runs with the engine's lock witness
//! switched on: every `TracedMutex` acquisition order observed at runtime is
//! cross-validated against the static lock-order graph extracted by
//! [`crate::conc`] — a runtime-held edge the static analysis lacks means
//! the `conc` gate is blind to a real acquisition order and fails here.
//! The witness is switched off again before the throughput phase so the
//! recording mutex never touches the measured speedup.

use mqa_cache::PageCache;
use mqa_core::{Config, MqaSystem};
use mqa_engine::sync::witness;
use mqa_engine::{EngineOptions, QueryEngine, WorkerPool};
use mqa_graph::starling::{DeviceProfile, LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{FlatDistance, SearchScratch};
use mqa_kb::DatasetSpec;
use mqa_retrieval::MultiModalQuery;
use mqa_rng::StdRng;
use mqa_vector::{Metric, VectorStore};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Workers used for the concurrent side of both checks.
const WORKERS: usize = 4;

/// Minimum accepted QPS ratio (4 workers vs 1) on the paged workload.
/// The device latency dominates, so a healthy pool lands well above this;
/// an accidentally serialized pool lands at ~1.0.
const MIN_SPEEDUP: f64 = 1.8;

/// Simulated per-page device read latency for the throughput check.
const READ_LATENCY: Duration = Duration::from_micros(200);

/// Minimum accepted reduction in distinct simulated page reads when the
/// default-capacity page cache is warm versus uncached.
const MIN_CACHE_REDUCTION: f64 = 3.0;

/// What the gate measured, for the caller to print.
pub struct EngineOutcome {
    /// Queries whose engine answers matched the serial path exactly.
    pub identical_answers: usize,
    /// Paged-workload QPS with a single worker.
    pub serial_qps: f64,
    /// Paged-workload QPS with [`WORKERS`] workers.
    pub concurrent_qps: f64,
    /// `concurrent_qps / serial_qps`.
    pub speedup: f64,
    /// Jobs executed across the pool's per-worker counters.
    pub jobs_executed: u64,
    /// Distinct lock-acquisition pairs the runtime witness recorded
    /// during the correctness phase (and validated against the static
    /// lock graph).
    pub witness_pairs: usize,
    /// Distinct simulated page reads over the query set without a cache.
    pub cold_page_reads: u64,
    /// Distinct simulated page reads on the warm-cache pass.
    pub warm_page_reads: u64,
    /// `cold_page_reads / max(warm_page_reads, 1)`.
    pub cache_read_reduction: f64,
    /// Allocation-witness phase result: `Some((queries, allocations))`
    /// when the gate binary was built with `--features alloc-witness` —
    /// warmed paged searches measured, total heap allocations observed
    /// (the phase fails unless allocations == 0). `None` when the
    /// counting allocator is compiled out.
    pub alloc_witness: Option<(usize, u64)>,
}

/// Runs both checks and writes `metrics.json` under `out_dir`.
///
/// # Errors
/// Returns a message when the system cannot be built, an answer diverges
/// from the serial path, the speedup misses [`MIN_SPEEDUP`], an engine
/// instrument stayed empty, or the snapshot cannot be written.
pub fn run(out_dir: &Path, seed: u64) -> Result<EngineOutcome, String> {
    mqa_obs::global().reset();
    witness::reset();
    witness::enable(true);
    let identical_answers = check_answers_match_serial(seed)?;
    witness::enable(false);
    let witness_pairs = check_lock_witness()?;
    let (serial_qps, concurrent_qps, jobs_executed) = check_paged_speedup(seed)?;
    let speedup = concurrent_qps / serial_qps;
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "engine smoke failed: paged QPS speedup {speedup:.2}x at {WORKERS} workers \
             is below the {MIN_SPEEDUP}x gate ({serial_qps:.0} -> {concurrent_qps:.0} QPS)"
        ));
    }
    let (cold_page_reads, warm_page_reads) = check_page_cache(seed)?;
    let cache_read_reduction = cold_page_reads as f64 / (warm_page_reads.max(1)) as f64;
    let alloc_witness = check_alloc_freedom(seed)?;

    let snapshot = mqa_obs::global().snapshot();
    verify_instruments(&snapshot)?;
    crate::write_json(out_dir, "metrics.json", &snapshot)?;

    Ok(EngineOutcome {
        identical_answers,
        serial_qps,
        concurrent_qps,
        speedup,
        jobs_executed,
        witness_pairs,
        cold_page_reads,
        warm_page_reads,
        cache_read_reduction,
        alloc_witness,
    })
}

/// Check 4 — allocation freedom (armed by `--features alloc-witness`):
/// the runtime cross-check of the `mqa-xtask alloc` static cone. Builds
/// the same Vamana-behind-Starling index as the throughput check, runs
/// every query once to warm the scratch (visited sets, candidate pool,
/// gather buffer)
/// and the metric registry, then runs the same queries again with the
/// counting allocator bracketing each `search_paged_into` call. A warmed
/// steady-state search must perform **zero** heap allocations; any count
/// above zero means an allocation escaped both the static gate and its
/// discharge comments. Returns `Ok(None)` when the witness is compiled
/// out (the default build), so the gate stays meaningful either way.
fn check_alloc_freedom(seed: u64) -> Result<Option<(usize, u64)>, String> {
    if !mqa_engine::allocwitness::enabled() {
        return Ok(None);
    }
    // The lock witness must be off: its recording path allocates by
    // design (pair tables, per-edge counters) and would be charged to
    // the measured searches.
    witness::enable(false);
    let (n, dim, queries) = (1_200, 8, 40usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = VectorStore::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        store.push(&v);
    }
    let store = Arc::new(store);
    let nav = mqa_graph::vamana::build(&store, Metric::L2, 16, 48, 1.2, seed.wrapping_add(3));
    let layout = PageLayout::build(nav.graph(), 8, LayoutStrategy::BfsCluster);
    let paged = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout);
    let query_vecs: Vec<Vec<f32>> = (0..queries)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();

    let mut scratch = SearchScratch::new();
    let mut hits = Vec::new();
    // Warmup: the same query set, so every buffer (visited stamps,
    // candidate pool, result list, metric-name registrations) reaches
    // its steady-state capacity before anything is measured.
    for q in &query_vecs {
        let mut dist = FlatDistance::new(&store, q, Metric::L2)
            .map_err(|e| format!("alloc witness: distance setup failed: {e}"))?;
        paged.search_paged_into(&mut dist, 10, 32, &mut scratch, &mut hits);
    }
    let mut total_allocs = 0u64;
    let mut measured = 0usize;
    for q in &query_vecs {
        let mut dist = FlatDistance::new(&store, q, Metric::L2)
            .map_err(|e| format!("alloc witness: distance setup failed: {e}"))?;
        let cp = mqa_engine::allocwitness::checkpoint();
        let out = paged.search_paged_into(&mut dist, 10, 32, &mut scratch, &mut hits);
        let (allocs, bytes) = cp.delta_checked().ok_or_else(|| {
            "alloc witness: thread-local counters unreadable mid-measurement \
             (TLS destruction) — refusing to report a fabricated zero delta"
                .to_string()
        })?;
        if hits.is_empty() || out.evals == 0 {
            return Err("alloc witness: a measured search produced no work".to_string());
        }
        total_allocs += allocs;
        measured += 1;
        mqa_obs::global()
            .histogram("engine.allocwitness.query_bytes")
            .record(bytes);
    }
    if total_allocs != 0 {
        return Err(format!(
            "engine smoke failed: {total_allocs} heap allocation(s) observed \
             across {measured} warmed steady-state paged searches — the \
             serving path is not allocation-free (static gate: `mqa-xtask \
             alloc`)"
        ));
    }
    Ok(Some((measured, total_allocs)))
}

/// Check 1b — the runtime lock-order witness agrees with the static
/// analysis: the traced locks saw real traffic (at least one sequential
/// pair), every runtime-held edge exists in the static lock graph, and
/// every observed lock name traces back to a `TracedMutex::new` literal.
fn check_lock_witness() -> Result<usize, String> {
    let pairs = witness::pairs();
    if !pairs.iter().any(|p| !p.held) {
        return Err(
            "engine smoke failed: the lock witness recorded no sequential \
             acquisition pairs — the traced engine locks saw no traffic \
             during the correctness phase"
                .to_string(),
        );
    }
    // The static graph comes from the sources, so anchor on this crate's
    // manifest dir — the gate's unit test runs with cwd=crates/xtask.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = crate::workspace::load(&repo_root)
        .map(|ws| crate::conc::analyze(&ws))
        .map_err(|e| format!("engine smoke failed: static lock graph unavailable: {e}"))?;
    for p in pairs.iter().filter(|p| p.held) {
        let known = analysis
            .edges
            .iter()
            .any(|e| e.from == p.from && e.to == p.to);
        if !known {
            return Err(format!(
                "engine smoke failed: runtime lock-order edge `{}` -> `{}` \
                 (held, observed {}x) is absent from the static lock graph — \
                 `mqa-xtask conc` is blind to a real acquisition order",
                p.from, p.to, p.count
            ));
        }
    }
    for p in &pairs {
        for name in [&p.from, &p.to] {
            if !analysis.traced_names.contains(name.as_str()) {
                return Err(format!(
                    "engine smoke failed: witness observed lock `{name}` with no \
                     matching TracedMutex::new(\"{name}\", …) in the workspace sources"
                ));
            }
        }
    }
    Ok(pairs.len())
}

/// Check 1 — correctness: route real multi-modal queries through a
/// 4-worker [`QueryEngine`] over the system's framework and demand the
/// exact result ids and distances of the serial path.
fn check_answers_match_serial(seed: u64) -> Result<usize, String> {
    let kb = DatasetSpec::weather()
        .objects(160)
        .concepts(8)
        .caption_noise(0.1)
        .seed(seed)
        .generate();
    let sys = MqaSystem::build(Config::default(), kb).map_err(|e| format!("build failed: {e}"))?;
    let queries: Vec<MultiModalQuery> = (0..12)
        .map(|i| {
            let title = &sys.corpus().kb().get(i * 13).title;
            let phrase = title.rsplit_once(" #").map_or(title.as_str(), |(p, _)| p);
            MultiModalQuery::text(phrase)
        })
        .collect();

    let framework = Arc::clone(sys.framework());
    let serial: Vec<_> = queries
        .iter()
        .map(|q| framework.search(q, 10, 64))
        .collect();
    let engine = QueryEngine::new(framework, EngineOptions::with_workers(WORKERS));
    let concurrent = engine
        .retrieve_batch(queries.clone(), 10, 64)
        .map_err(|e| format!("engine refused the batch: {e}"))?;

    for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
        if s.ids() != c.ids() {
            return Err(format!(
                "engine smoke failed: query {i} answers diverge \
                 (serial {:?} vs engine {:?})",
                s.ids(),
                c.ids()
            ));
        }
    }
    Ok(serial.len())
}

/// Check 2 — throughput: a Vamana graph behind the Starling paged layout
/// with a simulated device latency, swept at 1 worker then [`WORKERS`].
/// Returns `(serial_qps, concurrent_qps, jobs_executed)`.
fn check_paged_speedup(seed: u64) -> Result<(f64, f64, u64), String> {
    let (n, dim, queries) = (1_200, 8, 40usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = VectorStore::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        store.push(&v);
    }
    let store = Arc::new(store);
    let nav = mqa_graph::vamana::build(&store, Metric::L2, 16, 48, 1.2, seed.wrapping_add(3));
    let layout = PageLayout::build(nav.graph(), 8, LayoutStrategy::BfsCluster);
    let paged = Arc::new(
        PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout)
            .with_device(DeviceProfile::with_read_latency(READ_LATENCY)),
    );
    let query_vecs: Arc<Vec<Vec<f32>>> = Arc::new(
        (0..queries)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect(),
    );

    let mut qps = [0.0f64; 2];
    for (slot, workers) in [(0, 1), (1, WORKERS)] {
        let answered = Arc::new(AtomicUsize::new(0));
        let sw = mqa_obs::Stopwatch::start();
        {
            let pool = WorkerPool::new(workers, 2 * queries);
            for qi in 0..queries {
                let paged = Arc::clone(&paged);
                let store = Arc::clone(&store);
                let query_vecs = Arc::clone(&query_vecs);
                let answered = Arc::clone(&answered);
                pool.submit(Box::new(move |scratch| {
                    if let Ok(mut dist) = FlatDistance::new(&store, &query_vecs[qi], Metric::L2) {
                        let mut hits = Vec::new();
                        paged.search_paged_into(&mut dist, 10, 32, scratch, &mut hits);
                        if !hits.is_empty() {
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }))
                .map_err(|e| format!("pool refused work: {e}"))?;
            }
            // Dropping the pool drains the queue and joins the workers.
        }
        let answered = answered.load(Ordering::SeqCst);
        if answered != queries {
            return Err(format!(
                "engine smoke failed: {answered}/{queries} paged searches \
                 produced results at {workers} worker(s)"
            ));
        }
        qps[slot] = queries as f64 / (sw.elapsed_us().max(1) as f64 / 1e6);
    }

    let snapshot = mqa_obs::global().snapshot();
    let jobs_executed: u64 = (0..WORKERS)
        .filter_map(|i| snapshot.counter(&format!("engine.worker.{i}.jobs")))
        .sum();
    Ok((qps[0], qps[1], jobs_executed))
}

/// Check 3 — the shared page cache: the same Vamana-behind-Starling
/// setup as the throughput check, queried uncached and then through a
/// default-capacity [`PageCache`], cold pass then warm pass. Answers must
/// be bit-identical in every pass, and the warm pass must issue at least
/// [`MIN_CACHE_REDUCTION`]× fewer distinct simulated page reads than the
/// uncached baseline. Returns `(cold_page_reads, warm_page_reads)`.
fn check_page_cache(seed: u64) -> Result<(u64, u64), String> {
    let (n, dim, queries) = (1_200, 8, 40usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = VectorStore::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        store.push(&v);
    }
    let store = Arc::new(store);
    let nav = mqa_graph::vamana::build(&store, Metric::L2, 16, 48, 1.2, seed.wrapping_add(3));
    let layout = PageLayout::build(nav.graph(), 8, LayoutStrategy::BfsCluster);
    let plain = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout.clone());
    let cached = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout)
        .with_page_cache(Arc::new(PageCache::with_default_capacity()));
    let query_vecs: Vec<Vec<f32>> = (0..queries)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();

    let run_pass = |index: &PagedIndex| -> Result<(Vec<Vec<(u32, f32)>>, u64), String> {
        let mut answers = Vec::with_capacity(queries);
        let mut pages_read = 0u64;
        let (mut scratch, mut hits) = (SearchScratch::new(), Vec::new());
        for q in &query_vecs {
            let mut dist = FlatDistance::new(&store, q, Metric::L2)
                .map_err(|e| format!("distance setup failed: {e}"))?;
            let stats = index.search_paged_into(&mut dist, 10, 32, &mut scratch, &mut hits);
            pages_read += stats.pages_read;
            answers.push(hits.iter().map(|c| (c.id, c.dist)).collect());
        }
        Ok((answers, pages_read))
    };

    let (baseline, cold_page_reads) = run_pass(&plain)?;
    let (cold_cached, _) = run_pass(&cached)?; // populates the cache
    let (warm_cached, warm_page_reads) = run_pass(&cached)?;
    for (label, answers) in [("cold", &cold_cached), ("warm", &warm_cached)] {
        if answers != &baseline {
            return Err(format!(
                "engine smoke failed: {label}-cache paged answers diverge from \
                 the uncached baseline — the cache must never change results"
            ));
        }
    }
    let reduction = cold_page_reads as f64 / (warm_page_reads.max(1)) as f64;
    if reduction < MIN_CACHE_REDUCTION {
        return Err(format!(
            "engine smoke failed: warm page cache read {warm_page_reads} distinct \
             pages vs {cold_page_reads} uncached ({reduction:.2}x reduction, \
             below the {MIN_CACHE_REDUCTION}x gate)"
        ));
    }
    Ok((cold_page_reads, warm_page_reads))
}

/// The instrument self-checks behind the CI smoke gate: every engine
/// metric wired in this refactor must have actually recorded.
fn verify_instruments(snapshot: &mqa_obs::Snapshot) -> Result<(), String> {
    let mut missing = Vec::new();
    match snapshot.counter("engine.query.submitted") {
        Some(v) if v > 0 => {}
        _ => missing.push("counter `engine.query.submitted` missing or zero".to_string()),
    }
    match snapshot.histogram("engine.query.latency_us") {
        Some(h) if h.count > 0 => {}
        _ => missing.push("histogram `engine.query.latency_us` missing or empty".to_string()),
    }
    let worker_jobs: u64 = (0..WORKERS)
        .filter_map(|i| snapshot.counter(&format!("engine.worker.{i}.jobs")))
        .sum();
    if worker_jobs == 0 {
        missing.push("per-worker `engine.worker.<i>.jobs` counters all zero".to_string());
    }
    if snapshot
        .gauges
        .iter()
        .all(|g| g.name != "engine.pool.queue_depth")
    {
        missing.push("gauge `engine.pool.queue_depth` never set".to_string());
    }
    match snapshot.counter("cache.page.hits") {
        Some(v) if v > 0 => {}
        _ => missing.push("counter `cache.page.hits` missing or zero".to_string()),
    }
    match snapshot.counter("cache.page.misses") {
        Some(v) if v > 0 => {}
        _ => missing.push("counter `cache.page.misses` missing or zero".to_string()),
    }
    if snapshot
        .gauges
        .iter()
        .all(|g| g.name != "cache.page.hit_rate")
    {
        missing.push("gauge `cache.page.hit_rate` never set".to_string());
    }
    // The throughput check searched behind a timed device: it waited, and
    // never more often than it read (a wait is a hop's whole submission).
    let waits = snapshot.counter("graph.search.device_waits").unwrap_or(0);
    let reads = snapshot.counter("graph.search.pages_read").unwrap_or(0);
    if waits == 0 || waits > reads {
        missing.push(format!(
            "counter `graph.search.device_waits` = {waits} outside \
             (0, `graph.search.pages_read` = {reads}]"
        ));
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("engine smoke failed:\n  {}", missing.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_and_writes_metrics() {
        let _serial = crate::scenario_lock();
        let dir =
            std::env::temp_dir().join(format!("mqa-xtask-engine-test-{}", std::process::id()));
        let outcome = run(&dir, 42).expect("engine gate must pass on a healthy tree");
        assert_eq!(outcome.identical_answers, 12);
        assert!(
            outcome.speedup >= MIN_SPEEDUP,
            "speedup {:.2} below gate",
            outcome.speedup
        );
        assert!(outcome.jobs_executed > 0);
        assert!(
            outcome.witness_pairs >= 1,
            "the lock witness must record at least one acquisition pair"
        );
        assert!(
            outcome.cache_read_reduction >= MIN_CACHE_REDUCTION,
            "warm cache reduction {:.2}x below gate ({} cold vs {} warm reads)",
            outcome.cache_read_reduction,
            outcome.cold_page_reads,
            outcome.warm_page_reads
        );
        let body = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics readable");
        assert!(body.contains("engine.query.latency_us"));
        assert!(
            body.contains("engine.lockwitness."),
            "witness counters must land in the metrics snapshot"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
