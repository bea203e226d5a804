//! The engine gate, a tier-1 test: the concurrent query engine is both
//! *correct* (worker-pool answers are bit-identical to the serial path)
//! and *worth having* (QPS on a latency-bound paged workload scales with
//! workers).
//!
//! A refactor that breaks per-thread scratch reuse shows up as an answer
//! mismatch, and a regression that serializes the pool (an accidental
//! global lock on the search path) shows up as a speedup below
//! [`MIN_SPEEDUP`]. The paged checks run `mqa_bench`'s one paged fixture
//! and pool pass, the same ones E12 and E13 report from.

use mqa_bench::paged::uniform_vectors;
use mqa_bench::{PagedFixture, Pass};
use mqa_cache::PageCache;
use mqa_core::{Config, MqaSystem};
use mqa_engine::{EngineOptions, QueryEngine};
use mqa_graph::starling::{DeviceProfile, PagedIndex};
use mqa_kb::DatasetSpec;
use mqa_retrieval::MultiModalQuery;
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

/// The paged workload the throughput and cache checks share: the shared
/// fixture over 1 200 uniform 8-d vectors, and 40 queries drawn from the
/// same distribution.
fn paged_workload(seed: u64) -> (PagedFixture, Arc<Vec<Vec<f32>>>) {
    let fixture = PagedFixture::uniform(1_200, 8, seed);
    let queries = uniform_vectors(40, 8, seed.wrapping_add(57));
    (fixture, Arc::new(queries))
}

/// One pool pass that must answer every query.
fn full_pass(
    fixture: &PagedFixture,
    index: &Arc<PagedIndex>,
    queries: &Arc<Vec<Vec<f32>>>,
    workers: usize,
) -> Result<Pass, String> {
    let pass = fixture.pass(index, queries, workers);
    let (answered, total) = (pass.answered(), queries.len());
    if answered == total {
        Ok(pass)
    } else {
        Err(format!(
            "engine gate failed: {answered}/{total} paged searches \
             produced results at {workers} worker(s)"
        ))
    }
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
/// latency, passed through the pool at 1 worker then [`WORKERS`]; the QPS
/// ratio must reach [`MIN_SPEEDUP`]. Returns the speedup.
fn check_paged_speedup(
    fixture: &PagedFixture,
    queries: &Arc<Vec<Vec<f32>>>,
) -> Result<f64, String> {
    let paged = Arc::new(
        fixture
            .index()
            .with_device(DeviceProfile::with_read_latency(READ_LATENCY)),
    );
    let mut qps = [0.0f64; 2];
    for (slot, workers) in [(0, 1), (1, WORKERS)] {
        let wall = full_pass(fixture, &paged, queries, workers)?.wall;
        qps[slot] = queries.len() as f64 / wall.as_secs_f64().max(1e-6);
    }
    let speedup = qps[1] / qps[0];
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "engine gate failed: paged QPS speedup {speedup:.2}x at {WORKERS} workers \
             is below the {MIN_SPEEDUP}x gate ({:.0} -> {:.0} QPS)",
            qps[0], qps[1]
        ));
    }
    Ok(speedup)
}

/// Check 3 — the shared page cache: the paged fixture queried uncached
/// and then through a default-capacity [`PageCache`], cold pass then warm
/// pass, each on one worker. Answers must be bit-identical in every pass,
/// and the warm pass must issue at least [`MIN_CACHE_REDUCTION`]× fewer
/// distinct simulated page reads than the uncached baseline. Returns the
/// reduction.
fn check_page_cache(fixture: &PagedFixture, queries: &Arc<Vec<Vec<f32>>>) -> Result<f64, String> {
    let plain = Arc::new(fixture.index());
    let cached = Arc::new(
        fixture
            .index()
            .with_page_cache(Arc::new(PageCache::with_default_capacity())),
    );
    let hits = |pass: &Pass| -> Vec<_> {
        pass.answers
            .iter()
            .flatten()
            .map(|a| a.hits.clone())
            .collect()
    };

    let baseline = full_pass(fixture, &plain, queries, 1)?;
    let cold_cached = full_pass(fixture, &cached, queries, 1)?; // populates the cache
    let warm_cached = full_pass(fixture, &cached, queries, 1)?;
    for (label, pass) in [("cold", &cold_cached), ("warm", &warm_cached)] {
        if hits(pass) != hits(&baseline) {
            return Err(format!(
                "engine gate failed: {label}-cache paged answers diverge from \
                 the uncached baseline — the cache must never change results"
            ));
        }
    }
    let cold_page_reads = baseline.total().pages_read;
    let warm_page_reads = warm_cached.total().pages_read;
    let reduction = cold_page_reads as f64 / (warm_page_reads.max(1)) as f64;
    if reduction < MIN_CACHE_REDUCTION {
        return Err(format!(
            "engine gate failed: warm page cache read {warm_page_reads} distinct \
             pages vs {cold_page_reads} uncached ({reduction:.2}x reduction, \
             below the {MIN_CACHE_REDUCTION}x gate)"
        ));
    }
    Ok(reduction)
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
        let answers = check_answers_match_serial(seed);
        assert_eq!(answers, Ok(12), "every engine answer equals the serial one");
        let (fixture, queries) = paged_workload(seed);
        check_paged_speedup(&fixture, &queries).unwrap();
        check_page_cache(&fixture, &queries).unwrap();

        let snapshot = mqa_obs::global().snapshot();
        verify_instruments(&snapshot).unwrap();
        assert!(snapshot
            .histogram("engine.query.latency_us")
            .is_some_and(|h| h.count > 0));
    }
}
