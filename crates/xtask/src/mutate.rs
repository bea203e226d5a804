//! The `mutate` command: the online-mutation gate.
//!
//! A seeded corpus is served by a 2-worker [`QueryEngine`] while the main
//! thread runs a scripted insert/delete mix through
//! [`MqaSystem::add_objects`] / [`MqaSystem::remove_objects`] — the
//! configuration the snapshot-publication refactor exists for. The gate
//! fails unless:
//!
//! * every query answered while a mutation batch was in flight contains
//!   only objects that were live when it was submitted, and every
//!   post-batch query excludes all tombstoned objects;
//! * the result-cache generation bumps exactly once per mutation batch;
//! * the delete volume crosses the compaction threshold at least once
//!   (so graph rewiring runs under live traffic);
//! * every `graph.mutate.*` instrument actually recorded.
//!
//! It writes `BENCH_mutate.json` (a [`mqa_benchmark::report`] file) under
//! the output directory: insert and delete throughput, and search p50/p99
//! during mutation vs quiesced — the paper-facing evidence that readers
//! are not stalled by writers.

use mqa_core::{Config, MqaSystem};
use mqa_engine::EngineOptions;
use mqa_kb::{DatasetSpec, ObjectRecord};
use mqa_retrieval::MultiModalQuery;
use mqa_vector::VecId;
use std::collections::HashSet;
use std::path::Path;

/// Workers serving queries while the writer mutates.
const WORKERS: usize = 2;
/// Result-set size for every query in the mix.
const K: usize = 10;
/// Beam width for every query in the mix.
const EF: usize = 64;
/// Objects in the seeded base corpus.
const BASE_OBJECTS: usize = 240;
/// Objects per insert batch (3 insert batches interleave with deletes).
const INSERT_BATCH: usize = 10;
/// Objects per delete batch — sized so the cumulative dead fraction
/// crosses the 0.2 compaction threshold on the final batch.
const DELETE_BATCH: usize = 20;
/// Interleaved mutation batches (even = insert, odd = delete).
const BATCHES: usize = 6;

/// What the gate measured, for the caller to print.
pub struct MutateOutcome {
    /// Objects inserted across all batches.
    pub inserted: usize,
    /// Objects tombstoned across all batches.
    pub removed: usize,
    /// Insert throughput (objects/s, index work only).
    pub insert_per_sec: f64,
    /// Delete throughput (objects/s, index work only).
    pub delete_per_sec: f64,
    /// Median search latency with no writer active.
    pub quiesced_p50_us: u64,
    /// Tail search latency with no writer active.
    pub quiesced_p99_us: u64,
    /// Median search latency for queries in flight during a batch.
    pub mutating_p50_us: u64,
    /// Tail search latency for queries in flight during a batch.
    pub mutating_p99_us: u64,
    /// Graph compactions triggered by the delete volume.
    pub compactions: u64,
    /// Index epoch after the full script (one publish per batch).
    pub final_epoch: u64,
    /// Result-cache generation bumps observed (one per batch).
    pub generation_bumps: u64,
    /// Queries checked for dead-object leakage.
    pub queries_checked: usize,
}

/// Runs the scripted mutation mix and writes `BENCH_mutate.json` and
/// `metrics.json` under `out_dir`.
///
/// # Errors
/// Returns a message when the system cannot be built, a mutation or
/// query fails, a dead object surfaces, the cache generation fails to
/// bump, an instrument stayed empty, or an artifact cannot be written.
pub fn run(out_dir: &Path, seed: u64) -> Result<MutateOutcome, String> {
    mqa_obs::global().reset();

    let kb = DatasetSpec::weather()
        .objects(BASE_OBJECTS)
        .concepts(8)
        .caption_noise(0.1)
        .seed(seed)
        .generate();
    // Insert donors come from the same generator family (same schema,
    // different seed) so online inserts look like real ingest traffic.
    let donor = DatasetSpec::weather()
        .objects(BATCHES / 2 * INSERT_BATCH)
        .concepts(8)
        .caption_noise(0.1)
        .seed(seed.wrapping_add(1))
        .generate();
    let donors: Vec<ObjectRecord> = donor.iter().map(|(_, r)| r.clone()).collect();

    let mut sys =
        MqaSystem::build(Config::default(), kb).map_err(|e| format!("build failed: {e}"))?;
    let cache = sys.enable_result_cache(64);
    let engine = sys.enable_engine(EngineOptions::with_workers(WORKERS));
    let queries: Vec<MultiModalQuery> = (0..12)
        .map(|i| {
            let title = &sys.corpus().kb().get(i * 17).title;
            let phrase = title.rsplit_once(" #").map_or(title.as_str(), |(p, _)| p);
            MultiModalQuery::text(phrase)
        })
        .collect();

    // Phase 1 — quiesced baseline: the same engine, no writer anywhere.
    let mut quiesced_us: Vec<u64> = Vec::new();
    for _ in 0..3 {
        for q in &queries {
            let sw = mqa_obs::Stopwatch::start();
            engine
                .retrieve(q.clone(), K, EF)
                .map_err(|e| format!("quiesced query failed: {e}"))?;
            quiesced_us.push(sw.elapsed_us());
        }
    }

    // Phase 2 — the scripted mix: queries are submitted, THEN the batch
    // mutates while the 2 workers drain them, then the tickets are
    // collected. Latencies therefore include any publication
    // interference; results must only contain objects live at submission.
    let mut killed: HashSet<VecId> = HashSet::new();
    let mut mutating_us: Vec<u64> = Vec::new();
    let mut queries_checked = 0usize;
    let (mut inserted, mut removed) = (0usize, 0usize);
    let (mut insert_us, mut delete_us) = (0u64, 0u64);
    let mut final_epoch = 0u64;
    let mut generation_bumps = 0u64;
    let mut delete_cursor: VecId = 0;

    for batch in 0..BATCHES {
        let generation_before = cache.generation();
        let dead_before: HashSet<VecId> = killed.clone();

        let tickets: Vec<(mqa_engine::Ticket<_>, mqa_obs::Stopwatch)> = queries
            .iter()
            .map(|q| {
                engine
                    .submit(q.clone(), K, EF)
                    .map(|t| (t, mqa_obs::Stopwatch::start()))
                    .map_err(|e| format!("batch {batch}: submit failed: {e}"))
            })
            .collect::<Result<_, _>>()?;

        let report = if batch % 2 == 0 {
            let from = batch / 2 * INSERT_BATCH;
            let records = &donors[from..from + INSERT_BATCH];
            let sw = mqa_obs::Stopwatch::start();
            let report = sys
                .add_objects(records)
                .map_err(|e| format!("batch {batch}: insert failed: {e}"))?;
            insert_us += sw.elapsed_us();
            inserted += report.applied;
            report
        } else {
            let len = sys.corpus().kb().len() as VecId;
            let mut ids: Vec<VecId> = Vec::with_capacity(DELETE_BATCH);
            while ids.len() < DELETE_BATCH {
                if !killed.contains(&delete_cursor) {
                    ids.push(delete_cursor);
                }
                delete_cursor = (delete_cursor + 1) % len;
            }
            let sw = mqa_obs::Stopwatch::start();
            let report = sys
                .remove_objects(&ids)
                .map_err(|e| format!("batch {batch}: delete failed: {e}"))?;
            delete_us += sw.elapsed_us();
            removed += report.applied;
            killed.extend(ids);
            report
        };
        final_epoch = report.epoch;

        for (ticket, sw) in tickets {
            let out = ticket
                .wait()
                .map_err(|e| format!("batch {batch}: in-flight query failed: {e}"))?;
            mutating_us.push(sw.elapsed_us());
            queries_checked += 1;
            for id in out.ids() {
                if dead_before.contains(&id) {
                    return Err(format!(
                        "mutate gate failed: batch {batch} surfaced object {id}, \
                         which was tombstoned before the query was submitted"
                    ));
                }
            }
        }

        let generation_after = cache.generation();
        if generation_after != generation_before + 1 {
            return Err(format!(
                "mutate gate failed: batch {batch} moved the result-cache \
                 generation {generation_before} -> {generation_after} \
                 (exactly one bump per mutation batch required)"
            ));
        }
        generation_bumps += generation_after - generation_before;

        // Post-batch sweep: with the publish complete, no query may
        // surface anything tombstoned so far.
        for q in &queries {
            let out = engine
                .retrieve(q.clone(), K, EF)
                .map_err(|e| format!("batch {batch}: post-batch query failed: {e}"))?;
            queries_checked += 1;
            for id in out.ids() {
                if killed.contains(&id) {
                    return Err(format!(
                        "mutate gate failed: dead object {id} surfaced after \
                         batch {batch} was published"
                    ));
                }
            }
        }
    }

    let snapshot = mqa_obs::global().snapshot();
    verify_instruments(&snapshot, inserted as u64, removed as u64)?;
    let compactions = snapshot.counter("graph.mutate.compactions").unwrap_or(0);
    if compactions == 0 {
        return Err(format!(
            "mutate gate failed: {removed} deletes over {} slots never \
             crossed the compaction threshold — the script must exercise \
             graph rewiring under live traffic",
            BASE_OBJECTS + inserted
        ));
    }

    let outcome = MutateOutcome {
        inserted,
        removed,
        insert_per_sec: per_second(inserted, insert_us),
        delete_per_sec: per_second(removed, delete_us),
        quiesced_p50_us: percentile(&mut quiesced_us, 50),
        quiesced_p99_us: percentile(&mut quiesced_us, 99),
        mutating_p50_us: percentile(&mut mutating_us, 50),
        mutating_p99_us: percentile(&mut mutating_us, 99),
        compactions,
        final_epoch,
        generation_bumps,
        queries_checked,
    };
    let live_objects = BASE_OBJECTS + inserted - removed;
    let fields = [
        ("inserted", "count", inserted as f64),
        ("removed", "count", removed as f64),
        ("insert_per_sec", "1/s", outcome.insert_per_sec),
        ("delete_per_sec", "1/s", outcome.delete_per_sec),
        ("quiesced_p50_us", "us", outcome.quiesced_p50_us as f64),
        ("quiesced_p99_us", "us", outcome.quiesced_p99_us as f64),
        ("mutating_p50_us", "us", outcome.mutating_p50_us as f64),
        ("mutating_p99_us", "us", outcome.mutating_p99_us as f64),
        ("compactions", "count", compactions as f64),
        ("final_epoch", "count", final_epoch as f64),
        ("generation_bumps", "count", generation_bumps as f64),
        ("live_objects", "count", live_objects as f64),
    ];
    crate::write_bench(out_dir, "mutate", queries_checked as u64, &fields)?;
    crate::write_json(out_dir, "metrics.json", &snapshot)?;

    Ok(outcome)
}

/// Objects per second, guarding the zero-elapsed case.
fn per_second(objects: usize, elapsed_us: u64) -> f64 {
    objects as f64 / (elapsed_us.max(1) as f64 / 1e6)
}

/// The `p`-th percentile of `samples` (sorted in place).
fn percentile(samples: &mut [u64], p: usize) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    // INVARIANT: the rank is (len-1)*p/100 <= len-1, so the index is
    // always in bounds for a non-empty slice.
    samples[(samples.len() - 1) * p / 100]
}

/// The instrument self-checks: every mutation metric wired by the
/// snapshot-publication refactor must have actually recorded.
fn verify_instruments(
    snapshot: &mqa_obs::Snapshot,
    inserted: u64,
    removed: u64,
) -> Result<(), String> {
    let mut missing = Vec::new();
    match snapshot.counter("graph.mutate.inserts") {
        Some(v) if v == inserted => {}
        got => missing.push(format!(
            "counter `graph.mutate.inserts` expected {inserted}, got {got:?}"
        )),
    }
    match snapshot.counter("graph.mutate.deletes") {
        Some(v) if v == removed => {}
        got => missing.push(format!(
            "counter `graph.mutate.deletes` expected {removed}, got {got:?}"
        )),
    }
    match snapshot.histogram("graph.mutate.publish_us") {
        Some(h) if h.count > 0 => {}
        _ => missing.push("histogram `graph.mutate.publish_us` missing or empty".to_string()),
    }
    if snapshot
        .gauges
        .iter()
        .all(|g| g.name != "graph.mutate.dead_fraction")
    {
        missing.push("gauge `graph.mutate.dead_fraction` never set".to_string());
    }
    match snapshot.counter("cache.result.invalidations") {
        Some(v) if v > 0 => {}
        _ => missing.push("counter `cache.result.invalidations` missing or zero".to_string()),
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("mutate gate failed:\n  {}", missing.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_and_writes_bench() {
        let _serial = crate::scenario_lock();
        let dir =
            std::env::temp_dir().join(format!("mqa-xtask-mutate-test-{}", std::process::id()));
        let outcome = run(&dir, 42).expect("mutate gate must pass on a healthy tree");
        assert_eq!(outcome.inserted, 30);
        assert_eq!(outcome.removed, 60);
        assert_eq!(outcome.final_epoch, 6, "one publish per batch");
        assert_eq!(outcome.generation_bumps, 6, "one cache bump per batch");
        assert!(outcome.compactions >= 1);
        assert!(outcome.queries_checked >= BATCHES * 24);
        assert!(outcome.insert_per_sec > 0.0 && outcome.delete_per_sec > 0.0);
        let reading = |metric| crate::bench_reading(&dir, "mutate", metric);
        assert_eq!(reading("insert_per_sec"), outcome.insert_per_sec);
        assert_eq!(reading("mutating_p99_us"), outcome.mutating_p99_us as f64);
        assert_eq!(reading("live_objects"), 210.0);
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics readable");
        assert!(metrics.contains("graph.mutate.publish_us"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
