//! The engine gate, a tier-1 test: the concurrent query engine is both
//! *correct* (worker-pool answers are bit-identical to the serial path)
//! and *worth having* (QPS on a latency-bound paged workload scales with
//! workers).
//!
//! A refactor that breaks per-thread scratch reuse shows up as an answer
//! mismatch, and a regression that serializes the pool (an accidental
//! global lock on the search path) shows up as a speedup below
//! [`MIN_SPEEDUP`].
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
use mqa_graph::pipeline::NavGraph;
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

/// The paged workload the throughput and cache checks share, built once:
/// 1 200 uniform 8-d vectors under Vamana (R 16, L 48, α 1.2), 8 vertices
/// a page, and 40 queries drawn from the same distribution.
struct PagedFixture {
    store: Arc<VectorStore>,
    nav: NavGraph,
    layout: PageLayout,
    queries: Arc<Vec<Vec<f32>>>,
}

impl PagedFixture {
    fn build(seed: u64) -> Self {
        let (n, dim, queries) = (1_200, 8, 40);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            store.push(&v);
        }
        let store = Arc::new(store);
        let nav = mqa_graph::vamana::build(&store, Metric::L2, 16, 48, 1.2, seed.wrapping_add(3));
        let layout = PageLayout::build(nav.graph(), 8, LayoutStrategy::BfsCluster);
        let queries = (0..queries)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Self {
            store,
            nav,
            layout,
            queries: Arc::new(queries),
        }
    }

    /// A paged index over the fixture on a free device with no cache.
    fn index(&self) -> PagedIndex {
        PagedIndex::new(
            self.nav.graph().clone(),
            self.nav.entries().to_vec(),
            self.layout.clone(),
        )
    }
}

/// Check 1b — the runtime lock-order witness agrees with the static
/// analysis: the traced locks saw real traffic (at least one sequential
/// pair), every runtime-held edge exists in the static lock graph, and
/// every observed lock name traces back to a `TracedMutex::new` literal.
fn check_lock_witness() -> Result<(), String> {
    let pairs = witness::pairs();
    if !pairs.iter().any(|p| !p.held) {
        return Err(
            "engine gate failed: the lock witness recorded no sequential \
             acquisition pairs — the traced engine locks saw no traffic \
             during the correctness phase"
                .to_string(),
        );
    }
    // The static graph comes from the sources, so anchor on this crate's
    // manifest dir — the test runs with cwd=crates/xtask.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = crate::workspace::load(&repo_root)
        .map(|ws| crate::conc::analyze(&ws))
        .map_err(|e| format!("engine gate failed: static lock graph unavailable: {e}"))?;
    for p in pairs.iter().filter(|p| p.held) {
        let known = analysis
            .edges
            .iter()
            .any(|e| e.from == p.from && e.to == p.to);
        if !known {
            return Err(format!(
                "engine gate failed: runtime lock-order edge `{}` -> `{}` \
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
                    "engine gate failed: witness observed lock `{name}` with no \
                     matching TracedMutex::new(\"{name}\", …) in the workspace sources"
                ));
            }
        }
    }
    Ok(())
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
                "engine gate failed: query {i} answers diverge \
                 (serial {:?} vs engine {:?})",
                s.ids(),
                c.ids()
            ));
        }
    }
    Ok(serial.len())
}

/// Check 2 — throughput: the paged fixture behind a simulated device
/// latency, swept at 1 worker then [`WORKERS`]; the QPS ratio must reach
/// [`MIN_SPEEDUP`].
fn check_paged_speedup(fixture: &PagedFixture) -> Result<(), String> {
    let paged = Arc::new(
        fixture
            .index()
            .with_device(DeviceProfile::with_read_latency(READ_LATENCY)),
    );
    let queries = fixture.queries.len();
    let mut qps = [0.0f64; 2];
    for (slot, workers) in [(0, 1), (1, WORKERS)] {
        let answered = Arc::new(AtomicUsize::new(0));
        let sw = mqa_obs::Stopwatch::start();
        {
            let pool = WorkerPool::new(workers, 2 * queries);
            for qi in 0..queries {
                let paged = Arc::clone(&paged);
                let store = Arc::clone(&fixture.store);
                let query_vecs = Arc::clone(&fixture.queries);
                let answered = Arc::clone(&answered);
                pool.submit(Box::new(move || {
                    if let Ok(mut dist) = FlatDistance::new(&store, &query_vecs[qi], Metric::L2) {
                        let mut hits = Vec::new();
                        mqa_graph::with_pooled(|scratch| {
                            paged.search_paged_into(&mut dist, 10, 32, scratch, &mut hits)
                        });
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
                "engine gate failed: {answered}/{queries} paged searches \
                 produced results at {workers} worker(s)"
            ));
        }
        qps[slot] = queries as f64 / (sw.elapsed_us().max(1) as f64 / 1e6);
    }
    let speedup = qps[1] / qps[0];
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "engine gate failed: paged QPS speedup {speedup:.2}x at {WORKERS} workers \
             is below the {MIN_SPEEDUP}x gate ({:.0} -> {:.0} QPS)",
            qps[0], qps[1]
        ));
    }
    Ok(())
}

/// Check 3 — the shared page cache: the paged fixture queried uncached
/// and then through a default-capacity [`PageCache`], cold pass then warm
/// pass. Answers must be bit-identical in every pass, and the warm pass
/// must issue at least [`MIN_CACHE_REDUCTION`]× fewer distinct simulated
/// page reads than the uncached baseline.
fn check_page_cache(fixture: &PagedFixture) -> Result<(), String> {
    let plain = fixture.index();
    let cached = fixture
        .index()
        .with_page_cache(Arc::new(PageCache::with_default_capacity()));

    let run_pass = |index: &PagedIndex| -> Result<(Vec<Vec<(u32, f32)>>, u64), String> {
        let mut answers = Vec::with_capacity(fixture.queries.len());
        let mut pages_read = 0u64;
        let (mut scratch, mut hits) = (SearchScratch::new(), Vec::new());
        for q in fixture.queries.iter() {
            let mut dist = FlatDistance::new(&fixture.store, q, Metric::L2)
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
                "engine gate failed: {label}-cache paged answers diverge from \
                 the uncached baseline — the cache must never change results"
            ));
        }
    }
    let reduction = cold_page_reads as f64 / (warm_page_reads.max(1)) as f64;
    if reduction < MIN_CACHE_REDUCTION {
        return Err(format!(
            "engine gate failed: warm page cache read {warm_page_reads} distinct \
             pages vs {cold_page_reads} uncached ({reduction:.2}x reduction, \
             below the {MIN_CACHE_REDUCTION}x gate)"
        ));
    }
    Ok(())
}

/// The instrument self-checks: every engine and cache metric the checks
/// above exercise must have actually recorded.
fn verify_instruments(snapshot: &mqa_obs::Snapshot) -> Result<(), String> {
    let mut missing = Vec::new();
    for name in [
        "engine.query.submitted",
        "cache.page.hits",
        "cache.page.misses",
    ] {
        if snapshot.counter(name).unwrap_or(0) == 0 {
            missing.push(format!("counter `{name}` missing or zero"));
        }
    }
    if snapshot
        .histogram("engine.query.latency_us")
        .is_none_or(|h| h.count == 0)
    {
        missing.push("histogram `engine.query.latency_us` missing or empty".to_string());
    }
    let worker_jobs: u64 = (0..WORKERS)
        .filter_map(|i| snapshot.counter(&format!("engine.worker.{i}.jobs")))
        .sum();
    if worker_jobs == 0 {
        missing.push("per-worker `engine.worker.<i>.jobs` counters all zero".to_string());
    }
    for name in ["engine.pool.queue_depth", "cache.page.hit_rate"] {
        if snapshot.gauges.iter().all(|g| g.name != name) {
            missing.push(format!("gauge `{name}` never set"));
        }
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
        Err(format!("engine gate failed:\n  {}", missing.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_and_writes_metrics() {
        let _serial = crate::scenario_lock();
        let seed = 42;
        mqa_obs::global().reset();
        witness::reset();
        witness::enable(true);
        let answers = check_answers_match_serial(seed);
        witness::enable(false);
        assert_eq!(answers, Ok(12), "every engine answer equals the serial one");
        check_lock_witness().unwrap();
        let fixture = PagedFixture::build(seed);
        check_paged_speedup(&fixture).unwrap();
        check_page_cache(&fixture).unwrap();

        let snapshot = mqa_obs::global().snapshot();
        verify_instruments(&snapshot).unwrap();
        assert!(snapshot
            .histogram("engine.query.latency_us")
            .is_some_and(|h| h.count > 0));
        assert!(
            snapshot
                .counters
                .iter()
                .any(|c| c.name.starts_with("engine.lockwitness.") && c.value > 0),
            "witness counters must land in the metrics snapshot"
        );
    }
}
