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
//! * every `graph.mutate.*` instrument actually recorded;
//! * under churn ([`churn`]: ten generations of deletes and re-inserts at
//!   constant live size) every generation compacts, a read costs the same
//!   number of distance evaluations in the tenth generation as in the
//!   first — dirty or compacted — and a compacted index reads like a
//!   fresh build over the same live objects. A delete that taxed every
//!   later read (a beam widened by every id ever deleted) fails here.
//!
//! It writes `BENCH_mutate.json` (a [`mqa_benchmark::report`] file) under
//! the output directory: insert and delete throughput, search p50/p99
//! during mutation vs quiesced — the paper-facing evidence that readers
//! are not stalled by writers — and the churn block's per-generation
//! evaluations, recall, store rows and peak RSS (ids, rows and tombstone
//! words are never reclaimed, so the last two only grow: the curve is
//! recorded for the reclaim decision, not gated).

use mqa_benchmark::inputs::{InputSizes, Inputs};
use mqa_benchmark::workload::Report;
use mqa_core::{Config, MqaSystem};
use mqa_engine::EngineOptions;
use mqa_graph::UnifiedIndex;
use mqa_kb::{DatasetSpec, ObjectRecord};
use mqa_retrieval::MultiModalQuery;
use mqa_rng::StdRng;
use mqa_vector::{MultiVectorStore, VecId};
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

/// Live objects of the churn block in the release run `ci.sh` makes. An
/// unoptimized build (the unit test under `cargo test`) runs the same
/// script at one small size: ten builds and 3 000 inserts at 1 000 objects
/// take it two minutes.
const CHURN_OBJECTS: &[usize] = if cfg!(debug_assertions) {
    &[400]
} else {
    &[1000, 8000]
};
/// Generations of the churn block.
const CHURN_GENERATIONS: usize = 10;
/// Delete batches per generation, each a tenth of the live objects. The
/// threshold is 20 % pending, so one tenth cannot compact: the second
/// batch leaves 2/12 of the reachable ids pending (the dirty read), the
/// third crosses the threshold and compacts (the clean read), and the
/// three tenths are then inserted again under new ids.
const CHURN_DELETES: usize = 3;
/// Text queries read after each step of a generation.
const CHURN_QUERIES: usize = 64;
/// How far evaluations per query may sit from their ten-generation mean,
/// and a compacted index's from a fresh build's.
const CHURN_TOLERANCE: f64 = 0.10;

/// What one generation of the churn block read.
struct Generation {
    /// Evaluations per query with two tenths of the live objects deleted
    /// and not yet compacted.
    dirty_evals: f64,
    /// Evaluations per query once the third tenth compacted the index.
    evals: f64,
    /// The same queries on an index freshly built over the live objects.
    fresh_evals: f64,
    /// Recall of the compacted read against exact search over the live
    /// objects.
    recall: f64,
    /// Store rows (live and dead; never reclaimed) after the re-insert.
    rows: usize,
    /// Peak resident set of the process so far, MiB.
    peak_rss_mb: f64,
}

/// The churn block at one corpus size.
struct Churn {
    /// Live objects, constant across the generations.
    objects: usize,
    /// One entry per generation.
    generations: Vec<Generation>,
    /// Objects inserted over the whole block.
    inserted: usize,
    /// Objects deleted over the whole block (the dead pocket included).
    removed: usize,
}

/// Runs the scripted mutation mix, writes `BENCH_mutate.json` and
/// `metrics.json` under `out_dir`, and returns the report filed in the
/// first.
///
/// # Errors
/// Returns a message when the system cannot be built, a mutation or
/// query fails, a dead object surfaces, the cache generation fails to
/// bump, an instrument stayed empty, or an artifact cannot be written.
pub fn run(out_dir: &Path, seed: u64) -> Result<Report, String> {
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

    let compactions = mqa_obs::counter("graph.mutate.compactions").get();
    if compactions == 0 {
        return Err(format!(
            "mutate gate failed: {removed} deletes over {} slots never \
             crossed the compaction threshold — the script must exercise \
             graph rewiring under live traffic",
            BASE_OBJECTS + inserted
        ));
    }

    // Phase 3 — churn, on systems of its own.
    let churn: Vec<Churn> = CHURN_OBJECTS
        .iter()
        .map(|&objects| churn(objects, seed))
        .collect::<Result<_, _>>()?;

    let snapshot = mqa_obs::global().snapshot();
    let churned = |count: fn(&Churn) -> usize| churn.iter().map(count).sum::<usize>() as u64;
    verify_instruments(
        &snapshot,
        inserted as u64 + churned(|c| c.inserted),
        removed as u64 + churned(|c| c.removed),
    )?;

    let mut churn_fields: Vec<(String, &str, f64)> = Vec::new();
    for c in &churn {
        for (g, generation) in c.generations.iter().enumerate() {
            let mut field = |name: &str, unit, value| {
                let name = format!("churn_{}.g{:02}.{name}", c.objects, g + 1);
                churn_fields.push((name, unit, value));
            };
            field("dirty_evals_per_query", "count", generation.dirty_evals);
            field("evals_per_query", "count", generation.evals);
            field("fresh_evals_per_query", "count", generation.fresh_evals);
            field("recall_at_k", "share", generation.recall);
            field("store_rows", "count", generation.rows as f64);
            field("peak_rss_mb", "MiB", generation.peak_rss_mb);
        }
    }

    let live_objects = BASE_OBJECTS + inserted - removed;
    let fields = [
        ("inserted", "count", inserted as f64),
        ("removed", "count", removed as f64),
        ("insert_per_sec", "1/s", per_second(inserted, insert_us)),
        ("delete_per_sec", "1/s", per_second(removed, delete_us)),
        ("quiesced_p50_us", "us", percentile(&mut quiesced_us, 50)),
        ("quiesced_p99_us", "us", percentile(&mut quiesced_us, 99)),
        ("mutating_p50_us", "us", percentile(&mut mutating_us, 50)),
        ("mutating_p99_us", "us", percentile(&mut mutating_us, 99)),
        ("compactions", "count", compactions as f64),
        ("final_epoch", "count", final_epoch as f64),
        ("generation_bumps", "count", generation_bumps as f64),
        ("live_objects", "count", live_objects as f64),
    ];
    let churn_fields = churn_fields.iter().map(|(n, u, v)| (n.as_str(), *u, *v));
    let report = crate::write_bench(
        out_dir,
        "mutate",
        queries_checked as u64,
        fields.into_iter().chain(churn_fields),
    )?;
    crate::write_json(out_dir, "metrics.json", &snapshot)?;
    Ok(report)
}

/// One read of the churn block: mean evaluations per query over `queries`
/// and every answer's ids.
///
/// # Errors
/// A message when an answer is short or holds a dead object.
fn churn_read(
    sys: &MqaSystem,
    queries: &[MultiModalQuery],
    dead: &HashSet<VecId>,
    step: &str,
) -> Result<(f64, Vec<Vec<VecId>>), String> {
    let mut evals = 0u64;
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let out = sys.framework().search(q, K, EF);
        let ids = out.ids();
        if ids.len() != K || ids.iter().any(|id| dead.contains(id)) {
            return Err(format!(
                "mutate gate failed: {step} answered {ids:?} ({K} live objects wanted)"
            ));
        }
        evals += out.stats.evals;
        answers.push(ids);
    }
    Ok((evals as f64 / queries.len() as f64, answers))
}

/// A fresh build over exactly the `live` objects of `sys`: what a
/// compacted index's reads should cost, and the exact oracle for its
/// `answers`. Returns the fresh index's mean evaluations per query and the
/// answers' recall@K against its exhaustive search.
fn fresh_baseline(
    sys: &MqaSystem,
    live: &[VecId],
    queries: &[MultiModalQuery],
    answers: &[Vec<VecId>],
) -> (f64, f64) {
    let cfg = sys.config();
    let store = sys.corpus().store();
    let mut rows = MultiVectorStore::new(store.schema().clone());
    for &id in live {
        rows.push(&store.multivector_of(id));
    }
    let fresh = UnifiedIndex::build(rows, sys.weights().clone(), cfg.metric, &cfg.index);
    let (mut evals, mut hits) = (0u64, 0usize);
    for (q, got) in queries.iter().zip(answers) {
        let qv = sys.corpus().encoders().encode_query(q);
        evals += fresh.search(&qv, None, K, EF).output.stats.evals;
        let truth = fresh.search_exact(&qv, None, K).ids();
        // INVARIANT: the fresh store holds one row per entry of `live`.
        let truth: Vec<VecId> = truth.iter().map(|&row| live[row as usize]).collect();
        hits += got.iter().filter(|id| truth.contains(id)).count();
    }
    (
        evals as f64 / queries.len() as f64,
        hits as f64 / (queries.len() * K) as f64,
    )
}

/// The churn block: [`CHURN_GENERATIONS`] generations of
/// delete-three-tenths / re-insert at a constant `objects` live objects on
/// MUST over MQA-graph, read with text queries — the workload under which
/// a delete that taxes every later read shows, because the ids ever
/// deleted outgrow the live set while the set itself never changes.
///
/// # Errors
/// A message when a generation does not compact exactly once (on its third
/// delete batch), an answer is short or holds a dead object, evaluations
/// per query drift by more than [`CHURN_TOLERANCE`] across the generations
/// (dirty or compacted) or sit further than that from a fresh build's, or
/// a dead pocket around a query does not widen its search.
fn churn(objects: usize, seed: u64) -> Result<Churn, String> {
    // The corpus and the text queries of the benchmark's `mutate` workload,
    // at this size.
    let sizes = InputSizes {
        objects,
        concepts: (objects / 25).max(4),
        dialogues: CHURN_QUERIES,
        recall_dialogues: 0,
        mm_queries: 0,
        add_batches: 0,
        remove_batches: 0,
        skewed_draws: 0,
    };
    let Inputs {
        kb,
        text_queries: queries,
        ..
    } = Inputs::from_seed(&sizes, seed)?;
    let mut sys =
        MqaSystem::build(Config::default(), kb).map_err(|e| format!("churn build failed: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<VecId> = (0..mqa_vector::cast::vec_id(objects)).collect();
    let mut dead: HashSet<VecId> = HashSet::new();
    let mut generations = Vec::with_capacity(CHURN_GENERATIONS);

    for generation in 1..=CHURN_GENERATIONS {
        rng.shuffle(&mut live);
        let mut removed: Vec<VecId> = Vec::new();
        let mut dirty_evals = 0.0;
        for batch in 1..=CHURN_DELETES {
            let doomed = live.split_off(live.len() - objects / 10);
            let report = sys
                .remove_objects(&doomed)
                .map_err(|e| format!("churn generation {generation}: delete failed: {e}"))?;
            if report.compacted != (batch == CHURN_DELETES) {
                return Err(format!(
                    "mutate gate failed: churn generation {generation}, delete batch {batch} of \
                     {CHURN_DELETES}: compacted = {} ({} live, {} dead)",
                    report.compacted, report.live, report.dead
                ));
            }
            dead.extend(&doomed);
            removed.extend(doomed);
            if batch + 1 == CHURN_DELETES {
                let step = format!("churn generation {generation}, dirty read");
                dirty_evals = churn_read(&sys, &queries, &dead, &step)?.0;
            }
        }
        let step = format!("churn generation {generation}, compacted read");
        let (evals, answers) = churn_read(&sys, &queries, &dead, &step)?;

        let (fresh_evals, recall) = fresh_baseline(&sys, &live, &queries, &answers);

        // The deleted objects come back under new ids: same live content,
        // a longer id space.
        let records: Vec<ObjectRecord> = removed
            .iter()
            .map(|&id| sys.corpus().kb().get(id).clone())
            .collect();
        let first = mqa_vector::cast::vec_id(sys.corpus().store().len());
        sys.add_objects(&records)
            .map_err(|e| format!("churn generation {generation}: insert failed: {e}"))?;
        live.extend(first..mqa_vector::cast::vec_id(sys.corpus().store().len()));
        generations.push(Generation {
            dirty_evals,
            evals,
            fresh_evals,
            recall,
            rows: sys.corpus().store().len(),
            peak_rss_mb: mqa_benchmark::blocks::peak_rss_mb(),
        });
    }

    let flat = |what: &str, read: fn(&Generation) -> f64| {
        let mean = generations.iter().map(read).sum::<f64>() / generations.len() as f64;
        match generations
            .iter()
            .position(|g| (read(g) / mean - 1.0).abs() > CHURN_TOLERANCE)
        {
            None => Ok(()),
            Some(at) => Err(format!(
                "mutate gate failed: churn at {objects} objects: {what} evaluations per query \
                 are not flat — generation {} reads {:.1} against a mean of {mean:.1}",
                at + 1,
                read(&generations[at]),
            )),
        }
    };
    flat("dirty", |g| g.dirty_evals)?;
    flat("compacted", |g| g.evals)?;
    if let Some(at) = generations
        .iter()
        .position(|g| (g.evals / g.fresh_evals - 1.0).abs() > CHURN_TOLERANCE)
    {
        let g = &generations[at];
        return Err(format!(
            "mutate gate failed: churn at {objects} objects, generation {}: {:.1} evaluations \
             per query after compaction against {:.1} on a fresh build",
            at + 1,
            g.evals,
            g.fresh_evals
        ));
    }

    // A dead pocket: everything the first beam of the first query can hold
    // is deleted (under the threshold, so it stays pending) — the search
    // must widen and still return K live objects.
    let pocket = sys.framework().search(&queries[0], EF + K, 4 * EF).ids();
    let report = sys
        .remove_objects(&pocket)
        .map_err(|e| format!("churn pocket delete failed: {e}"))?;
    dead.extend(&pocket);
    let widened = || mqa_obs::counter("graph.search.widened").get();
    let before = widened();
    churn_read(&sys, &queries[..1], &dead, "the dead-pocket read")?;
    if report.compacted || widened() == before {
        return Err(format!(
            "mutate gate failed: churn at {objects} objects: a pocket of {} dead objects around \
             a query did not widen its search (compacted = {})",
            pocket.len(),
            report.compacted
        ));
    }
    let inserted = CHURN_GENERATIONS * CHURN_DELETES * (objects / 10);
    Ok(Churn {
        objects,
        generations,
        inserted,
        removed: inserted + pocket.len(),
    })
}

/// Objects per second, guarding the zero-elapsed case.
fn per_second(objects: usize, elapsed_us: u64) -> f64 {
    objects as f64 / (elapsed_us.max(1) as f64 / 1e6)
}

/// The `p`-th percentile of `samples` (sorted in place), in microseconds.
fn percentile(samples: &mut [u64], p: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    // INVARIANT: the rank is (len-1)*p/100 <= len-1, so the index is
    // always in bounds for a non-empty slice.
    samples[(samples.len() - 1) * p / 100] as f64
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
    // The churn block ends on a search that must widen.
    match snapshot.counter("graph.search.widened") {
        Some(v) if v > 0 => {}
        _ => missing.push("counter `graph.search.widened` missing or zero".to_string()),
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
        let report = run(&dir, 42).expect("mutate gate must pass on a healthy tree");
        let reading = |metric: &str| crate::reading(&report, metric);
        assert_eq!(reading("inserted"), 30.0);
        assert_eq!(reading("removed"), 60.0);
        assert_eq!(reading("final_epoch"), 6.0, "one publish per batch");
        assert_eq!(reading("generation_bumps"), 6.0, "one cache bump per batch");
        assert!(reading("compactions") >= 1.0);
        assert!(report.attempted >= (BATCHES * 24) as u64, "queries checked");
        assert!(reading("insert_per_sec") > 0.0 && reading("delete_per_sec") > 0.0);
        assert_eq!(reading("live_objects"), 210.0);
        crate::assert_bench_file_holds(&dir, &report);
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics readable");
        assert!(metrics.contains("graph.mutate.publish_us"));
        // The churn block at each of its sizes: ten generations at constant
        // live size, each one compacting, with rows growing by three
        // tenths per generation.
        let churn_rows = report
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("churn_"));
        assert_eq!(churn_rows.count(), CHURN_OBJECTS.len() * 10 * 6);
        for &objects in CHURN_OBJECTS {
            for g in 1..=10 {
                let at = |metric: &str| reading(&format!("churn_{objects}.g{g:02}.{metric}"));
                assert_eq!(at("store_rows"), (objects + 3 * objects / 10 * g) as f64);
                assert!(at("recall_at_k") > 0.9, "{objects}: generation {g}");
            }
            let g10 = |metric: &str| reading(&format!("churn_{objects}.g10.{metric}"));
            assert_eq!(g10("store_rows"), (4 * objects) as f64);
        }
        // Each churn block inserts three tenths of its objects per
        // generation and deletes those plus the dead pocket (EF + K).
        let snapshot: mqa_obs::Snapshot = serde_json::from_str(&metrics).expect("a snapshot");
        let churned: usize = CHURN_OBJECTS.iter().map(|&objects| 3 * objects).sum();
        let pockets = CHURN_OBJECTS.len() * (EF + K);
        assert_eq!(
            snapshot.counter("graph.mutate.inserts"),
            Some((30 + churned) as u64)
        );
        assert_eq!(
            snapshot.counter("graph.mutate.deletes"),
            Some((60 + churned + pockets) as u64)
        );
        assert!(metrics.contains("graph.search.widened"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
