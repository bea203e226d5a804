//! The `trace` gate: end-to-end verification of per-query distributed
//! tracing.
//!
//! Runs a seeded multi-turn dialogue through the concurrent engine with
//! tracing enabled, then checks the contract the serving path promises:
//!
//! 1. every turn yields exactly one finalized [`mqa_obs::QueryTrace`]
//!    (and every engine-submitted ticket is visible as a worker-served
//!    trace);
//! 2. every engine-served trace covers all five query milestones
//!    ([`mqa_obs::trace::QUERY_MILESTONES`]); cache-hit turns may skip
//!    the retrieval milestones only;
//! 3. queue-wait + service stay within a pinned clock-slack bound of the
//!    engine's submit-to-resolve duration, which itself nests inside the
//!    end-to-end turn duration — tail-latency attribution adds up;
//! 4. no orphan stages: every recorded stage's parent is the trace root,
//!    another recorded stage, or empty (a root-level stage);
//! 5. the retained-set policy is deterministic: each trace's `sampled`
//!    flag reproduces [`mqa_obs::trace::sample_hit`] under the gate seed,
//!    and the slowest-N set is ordered slowest-first;
//! 6. the `/metrics` surface parses as valid Prometheus/OpenMetrics text
//!    exposition and carries at least one histogram exemplar linking a
//!    latency bucket back to a trace id;
//! 7. every instrumented pipeline layer shows in the metrics snapshot
//!    (`REQUIRED_SPANS`, `REQUIRED_COUNTERS`, `REQUIRED_HISTOGRAMS`)
//!    — a refactor that silently drops a layer's instrumentation fails here.
//!
//! Artifacts written under `--out` (default `results/trace`):
//! `traces.jsonl`, `slow_queries.txt`, `metrics.txt` (the exposition),
//! `metrics.json` (the snapshot), `report.txt` (the rendered snapshot and
//! the status panel with its per-milestone breakdown), and
//! `BENCH_trace.json` (a [`mqa_benchmark::report`] file: p50/p99
//! end-to-end latency, queue-wait share, cache-hit rate, exposition
//! samples and exemplars).

use mqa_benchmark::workload::Report;
use mqa_core::{Config, Milestone, MqaSystem, StatusMonitor, Turn};
use mqa_kb::DatasetSpec;
use mqa_obs::expo::ExpoStats;
use mqa_obs::trace::{sample_hit, QUERY_MILESTONES};
use mqa_obs::{report, QueryTrace, Snapshot, TraceConfig};
use std::path::Path;

/// Turns the scenario runs: four distinct turns plus one repeat that must
/// be served from the result cache.
const TURNS: usize = 5;

/// Engine worker threads in the scenario.
const WORKERS: usize = 2;

/// Deterministic sampling period used by the gate.
const SAMPLE_EVERY: u64 = 2;

/// Clock slack allowed between independently-measured nested durations
/// (each `Stopwatch` rounds independently, and the OS may preempt between
/// the inner stop and the outer stop).
const CLOCK_SLACK_US: u64 = 5_000;

/// Spans that must appear in the snapshot after the scenario: one per
/// instrumented pipeline layer (system build and its three components,
/// graph build and its five stages, retrieval stages, diversification,
/// generation, end-to-end turn).
const REQUIRED_SPANS: [&str; 16] = [
    "core.build",
    "core.build.data_preprocessing",
    "core.build.vector_representation",
    "core.build.index_construction",
    "graph.mqa-graph.build",
    "graph.build.initialization",
    "graph.build.entry_selection",
    "graph.build.refinement",
    "graph.build.connectivity_repair",
    "graph.build.finalization",
    "retrieval.must.search",
    "retrieval.must.encode",
    "retrieval.must.index_search",
    "retrieval.diversify",
    "core.turn",
    "llm.generate",
];

/// Counters the scenario must leave non-zero.
const REQUIRED_COUNTERS: [&str; 8] = [
    "graph.search.queries",
    "graph.search.evals",
    "llm.mock.calls",
    "llm.mock.prompt_tokens",
    "core.session.turns",
    "obs.trace.started",
    "obs.trace.completed",
    "engine.query.submitted",
];

/// Histograms the scenario must populate: per-index search latency and
/// distance-evaluation work, engine latency and queue wait.
const REQUIRED_HISTOGRAMS: [&str; 4] = [
    "graph.mqa-graph.search_us",
    "graph.mqa-graph.evals",
    "engine.query.latency_us",
    "engine.query.queue_wait_us",
];

/// Runs the traced scenario, writes the artifacts under `out_dir`, and
/// returns the report filed as `BENCH_trace.json`.
///
/// # Errors
/// Returns a message when the scenario cannot be built, an artifact
/// cannot be written, or any tracing-contract check fails.
pub fn run(out_dir: &Path, seed: u64) -> Result<Report, String> {
    mqa_obs::global().reset();
    mqa_obs::trace::configure(TraceConfig {
        slowest: 64,
        sample_every: SAMPLE_EVERY,
        seed,
        max_sampled: 256,
    });
    mqa_obs::trace::enable();
    let result = scenario(seed);
    // Tracing must come back off even when the scenario fails, so a gate
    // failure cannot leak trace minting into unrelated code.
    mqa_obs::trace::disable();
    let mut status = result?;

    let traces = mqa_obs::trace::snapshot_traces();
    let snapshot = mqa_obs::global().snapshot();
    let exposition = mqa_obs::expo::render(&snapshot);
    // Feed the per-milestone obs breakdown into the status panel, the
    // paper's ② frontend surface.
    status.detail(
        Milestone::QueryExecution,
        report::milestone_breakdown(&snapshot),
    );

    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    std::fs::write(out_dir.join("traces.jsonl"), mqa_obs::trace::to_jsonl())
        .map_err(|e| format!("writing traces.jsonl: {e}"))?;
    std::fs::write(
        out_dir.join("slow_queries.txt"),
        mqa_obs::report::render_slow_queries(&mqa_obs::trace::slowest_traces()),
    )
    .map_err(|e| format!("writing slow_queries.txt: {e}"))?;
    std::fs::write(out_dir.join("metrics.txt"), &exposition)
        .map_err(|e| format!("writing metrics.txt: {e}"))?;
    crate::write_json(out_dir, "metrics.json", &snapshot)?;
    let rendered = format!("{}\n{}", report::render(&snapshot), status.render());
    std::fs::write(out_dir.join("report.txt"), rendered)
        .map_err(|e| format!("writing report.txt: {e}"))?;

    let stats = verify(&traces, &snapshot, &exposition, seed)?;
    let fields = summarize(&traces, &stats);
    crate::write_bench(out_dir, "trace", traces.len() as u64, fields)
}

/// Builds the system and runs the five turns: a four-round session (text,
/// click-refine, reject-refine, history-carried follow-up), then a fresh
/// session repeating the opening turn so the result cache serves it.
/// Returns the system's status panel.
fn scenario(seed: u64) -> Result<StatusMonitor, String> {
    let kb = DatasetSpec::weather()
        .objects(120)
        .concepts(6)
        .caption_noise(0.05)
        .seed(seed)
        .generate();
    let config = Config {
        diversify: Some(0.4),
        carry_history: true,
        ..Config::default()
    };
    let mut sys = MqaSystem::build(config, kb).map_err(|e| format!("build failed: {e}"))?;
    sys.enable_engine(mqa_engine::EngineOptions::with_workers(WORKERS));
    sys.enable_result_cache(64);

    let opener = sys.corpus().kb().get(0).title.clone();
    let phrase = opener
        .rsplit_once(" #")
        .map(|(p, _)| p.to_string())
        .unwrap_or(opener);
    {
        let mut session = sys.open_session();
        let turns = [
            Turn::text(format!("show me {phrase}")),
            Turn::select_and_text(0, format!("more {phrase} like this one")),
            Turn::reject_and_text(1, "not that one"),
            Turn::text("even more of those"),
        ];
        for turn in turns {
            session.ask(turn).map_err(|e| format!("turn failed: {e}"))?;
        }
    }
    {
        // A fresh session's opening turn fingerprints identically to the
        // first session's, so the result cache must answer it.
        let mut session = sys.open_session();
        session
            .ask(Turn::text(format!("show me {phrase}")))
            .map_err(|e| format!("repeat turn failed: {e}"))?;
    }
    Ok(sys.status().clone())
}

/// The report's fields: turn latency, queue-wait share and cache hits of
/// the retained traces, and the size of the parsed exposition.
fn summarize(traces: &[QueryTrace], stats: &ExpoStats) -> [(&'static str, &'static str, f64); 9] {
    let mut totals: Vec<u64> = traces.iter().map(|t| t.total_us).collect();
    totals.sort_unstable();
    // With no traces the index saturates to 0 and `get` reads nothing.
    let pick = |q: f64| {
        let idx = ((totals.len() as f64 - 1.0) * q).round() as usize;
        totals.get(idx).copied().unwrap_or(0) as f64
    };
    let engine_served: Vec<&QueryTrace> = traces.iter().filter(|t| t.worker.is_some()).collect();
    let queued: u64 = engine_served.iter().map(|t| t.queue_wait_us).sum();
    let walled: u64 = engine_served.iter().map(|t| t.total_us).sum();
    let queue_wait_share = if walled == 0 {
        0.0
    } else {
        queued as f64 / walled as f64
    };
    let turns = traces.len();
    let cache_hits = traces.iter().filter(|t| t.cache_hit == Some(true)).count();
    [
        ("turns", "count", turns as f64),
        ("engine_served", "count", engine_served.len() as f64),
        ("cache_hits", "count", cache_hits as f64),
        ("p50_total_us", "us", pick(0.50)),
        ("p99_total_us", "us", pick(0.99)),
        ("queue_wait_share", "share", queue_wait_share),
        (
            "cache_hit_rate",
            "share",
            cache_hits as f64 / turns.max(1) as f64,
        ),
        ("exposition_samples", "count", stats.samples as f64),
        ("exposition_exemplars", "count", stats.exemplars as f64),
    ]
}

/// Stage-parent linkage check: every recorded stage must hang off the
/// trace root, another recorded stage, or be a root-level stage itself.
fn orphan_stages(trace: &QueryTrace) -> Vec<String> {
    trace
        .stages
        .iter()
        .filter(|s| {
            !s.parent.is_empty()
                && s.parent != trace.root
                && !trace.stages.iter().any(|o| o.name == s.parent)
        })
        .map(|s| format!("{} (parent `{}`)", s.name, s.parent))
        .collect()
}

/// The tracing-contract checks behind the CI gate.
fn verify(
    traces: &[QueryTrace],
    snapshot: &Snapshot,
    exposition: &str,
    seed: u64,
) -> Result<ExpoStats, String> {
    let mut problems = Vec::new();

    // 1. Exactly one finalized trace per turn, none lost, none duplicated.
    if traces.len() != TURNS {
        problems.push(format!(
            "retained {} trace(s), expected {TURNS}",
            traces.len()
        ));
    }
    let finalized = mqa_obs::trace::finalized_count();
    if finalized != TURNS as u64 {
        problems.push(format!("finalized {finalized} trace(s), expected {TURNS}"));
    }
    let engine_served = traces.iter().filter(|t| t.worker.is_some()).count();
    let submitted = snapshot.counter("engine.query.submitted").unwrap_or(0);
    if submitted != engine_served as u64 {
        problems.push(format!(
            "{submitted} submitted ticket(s) but {engine_served} worker-served trace(s): \
             a ticket lost or duplicated its trace"
        ));
    }
    let cache_hits = traces.iter().filter(|t| t.cache_hit == Some(true)).count();
    if cache_hits != 1 {
        problems.push(format!(
            "{cache_hits} cache-hit trace(s), expected exactly 1"
        ));
    }

    let retrieval_milestones = ["Encoding", "Fusion", "Index Search"];
    for t in traces {
        let tag = format!("trace {} (seq {})", t.trace_id, t.seq);
        if t.outcome != "completed" {
            problems.push(format!("{tag}: outcome `{}`", t.outcome));
        }
        if t.serial_fallback {
            problems.push(format!("{tag}: unexpected serial fallback"));
        }
        // 2. Milestone coverage (cache hits may skip retrieval only).
        let missing = mqa_obs::trace::missing_milestones(t);
        if t.cache_hit == Some(true) {
            let illegal: Vec<&str> = missing
                .iter()
                .filter(|m| !retrieval_milestones.contains(m))
                .copied()
                .collect();
            if !illegal.is_empty() {
                problems.push(format!("{tag}: cache hit missing milestone(s) {illegal:?}"));
            }
        } else if !missing.is_empty() {
            problems.push(format!(
                "{tag}: missing milestone(s) {missing:?} of {}",
                QUERY_MILESTONES.len()
            ));
        }
        // 3. Tail-latency attribution adds up for worker-served traces.
        if let Some(w) = t.worker {
            if w >= WORKERS as u64 {
                problems.push(format!("{tag}: worker id {w} out of range"));
            }
            let parts = t.queue_wait_us + t.service_us;
            if parts > t.engine_total_us + CLOCK_SLACK_US {
                problems.push(format!(
                    "{tag}: queue {} + service {} exceeds engine total {} (+{CLOCK_SLACK_US} slack)",
                    t.queue_wait_us, t.service_us, t.engine_total_us
                ));
            }
            if t.engine_total_us > t.total_us + CLOCK_SLACK_US {
                problems.push(format!(
                    "{tag}: engine total {} exceeds end-to-end {} (+{CLOCK_SLACK_US} slack)",
                    t.engine_total_us, t.total_us
                ));
            }
            if t.prompt_tokens == 0 || t.completion_tokens == 0 {
                problems.push(format!("{tag}: LLM token counts missing"));
            }
            if t.framework.is_empty() {
                problems.push(format!("{tag}: retrieval framework not noted"));
            }
            if t.evals == 0 {
                problems.push(format!("{tag}: no graph-walk work attributed"));
            }
        }
        // 4. No orphan stages.
        let orphans = orphan_stages(t);
        if !orphans.is_empty() {
            problems.push(format!("{tag}: orphan stage(s): {}", orphans.join(", ")));
        }
        // 5. Sampling decisions are reproducible from (seed, seq).
        if t.sampled != sample_hit(seed, t.seq, SAMPLE_EVERY) {
            problems.push(format!(
                "{tag}: sampled flag {} disagrees with sample_hit(seed, {}, {SAMPLE_EVERY})",
                t.sampled, t.seq
            ));
        }
    }

    // 5b. The slowest-N set is ordered slowest-first and (with the cap
    // above the turn count) retains every trace.
    let slowest = mqa_obs::trace::slowest_traces();
    if slowest.len() != traces.len() {
        problems.push(format!(
            "slowest-N retained {} of {} trace(s) despite headroom",
            slowest.len(),
            traces.len()
        ));
    }
    if slowest.windows(2).any(|w| match w {
        [a, b] => a.total_us < b.total_us,
        _ => false,
    }) {
        problems.push("slowest-N set is not ordered slowest-first".to_string());
    }

    // 7. Every instrumented pipeline layer recorded.
    for name in REQUIRED_SPANS {
        if snapshot.span(name).is_none() {
            problems.push(format!("span `{name}` not recorded"));
        }
    }
    for name in REQUIRED_COUNTERS {
        match snapshot.counter(name) {
            Some(v) if v > 0 => {}
            _ => problems.push(format!("counter `{name}` missing or zero")),
        }
    }
    if snapshot.counter("obs.trace.canceled").unwrap_or(0) != 0 {
        problems.push("obs.trace.canceled is non-zero in a healthy scenario".to_string());
    }
    for name in REQUIRED_HISTOGRAMS {
        match snapshot.histogram(name) {
            Some(h) if h.count > 0 => {}
            _ => problems.push(format!("histogram `{name}` missing or empty")),
        }
    }

    // 6. The exposition parses and carries at least one exemplar.
    let stats = match mqa_obs::expo::parse(exposition) {
        Ok(stats) => {
            if stats.exemplars == 0 {
                problems.push("exposition carries no histogram exemplars".to_string());
            }
            stats
        }
        Err(e) => {
            problems.push(format!("/metrics exposition invalid: {e}"));
            ExpoStats {
                families: 0,
                samples: 0,
                exemplars: 0,
            }
        }
    };

    if problems.is_empty() {
        Ok(stats)
    } else {
        Err(format!("trace gate failed:\n  {}", problems.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_and_writes_artifacts() {
        let _serial = crate::scenario_lock();
        let dir = std::env::temp_dir().join(format!("mqa-xtask-trace-test-{}", std::process::id()));
        let bench = run(&dir, 42).expect("trace gate must pass its own checks");
        let reading = |metric| crate::reading(&bench, metric);
        assert_eq!(reading("turns"), TURNS as f64);
        assert_eq!(reading("engine_served"), (TURNS - 1) as f64);
        assert_eq!(reading("cache_hits"), 1.0);
        assert!(reading("exposition_exemplars") >= 1.0);
        for file in [
            "traces.jsonl",
            "slow_queries.txt",
            "metrics.txt",
            "metrics.json",
            "report.txt",
            "BENCH_trace.json",
        ] {
            let body = std::fs::read_to_string(dir.join(file)).expect("artifact readable");
            assert!(!body.is_empty(), "{file} is empty");
        }
        let jsonl = std::fs::read_to_string(dir.join("traces.jsonl")).expect("jsonl");
        assert_eq!(jsonl.lines().count(), TURNS);
        let first: mqa_obs::QueryTrace =
            serde_json::from_str(jsonl.lines().next().expect("a line")).expect("trace parses");
        assert_eq!(first.outcome, "completed");
        let report = std::fs::read_to_string(dir.join("report.txt")).expect("report");
        assert!(report.contains("Milestones") && report.contains("core.turn"));
        assert!(report.contains("Query Execution"), "status panel missing");
        let snapshot: Snapshot =
            serde_json::from_str(&std::fs::read_to_string(dir.join("metrics.json")).unwrap())
                .expect("metrics.json is a snapshot");
        for name in REQUIRED_SPANS {
            assert!(
                snapshot.span(name).is_some(),
                "metrics.json lacks span {name}"
            );
        }
        crate::assert_bench_file_holds(&dir, &bench);
        assert_eq!(reading("cache_hit_rate"), 0.2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
