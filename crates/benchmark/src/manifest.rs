//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root is this table rendered by [`render`]; a test keeps the two equal.

use crate::stats::Better;
use serde::{Number, Value};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/benchmark/Cargo.toml",
    "--bin",
    "mqa-benchmark",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["crates/benchmark"];

/// One workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "dialogue",
        why: "serial 3-turn dialogues on MUST/mqa-graph: encoders, fused kernels, graph walk, MMR and the LLM do the work; engine, caches, mutation and paging do none",
    },
    WorkloadSpec {
        name: "engine_pipelined",
        why: "32 tickets kept in flight through a one-worker QueryEngine over HNSW: per-query engine and scheduler cost with no idle wake-up, on a different graph family",
    },
    WorkloadSpec {
        name: "mutate",
        why: "add, tombstone and compact beside dirty reads on MUST/mqa-graph: snapshot-publication cost and the k+dead over-fetch, so a read gain that costs writes shows",
    },
    WorkloadSpec {
        name: "paged_spill",
        why: "Vamana behind 4 KiB pages with a 50 us device and a page cache a quarter of the pages, 80/20 hot queries: page reads and cache verdicts dominate, kernels do little",
    },
];

/// One metric: name, unit, direction and (end-to-end only) its bound.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (`0.0` for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics; every workload prints every one of them.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("turn_p50_us", "us", Better::Lower, 0.2),
    e2e("query_p50_us", "us", Better::Lower, 0.2),
    e2e("engine_qps", "1/s", Better::Higher, 0.2),
    e2e("add_batch_p50_us", "us", Better::Lower, 0.25),
    e2e("remove_batch_p50_us", "us", Better::Lower, 0.25),
    e2e("recall_at_k", "share", Better::Higher, 0.03),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
];

use Better::{Higher, Lower};

/// Per-layer metrics (layer = crate), printed by the traced run. A layer
/// the workload bypasses reads zero.
pub const PER_LAYER: [MetricSpec; 62] = [
    layer("core.turn_r1_us", "us", Lower),
    layer("core.turn_r2_us", "us", Lower),
    layer("core.turn_r3_us", "us", Lower),
    layer("core.self_us", "us", Lower),
    layer("core.build.preprocess_s", "s", Lower),
    layer("core.mutate.add_self_us", "us", Lower),
    layer("encoders.encode_corpus_s", "s", Lower),
    layer("encoders.encode_query_text_us", "us", Lower),
    layer("encoders.encode_query_mm_us", "us", Lower),
    layer("encoders.encode_record_us", "us", Lower),
    layer("weights.learn_s", "s", Lower),
    layer("vector.l2_sq_ns", "ns", Lower),
    layer("vector.fused_scan_ns", "ns", Lower),
    layer("vector.scan_saved_share", "share", Higher),
    layer("graph.build_s", "s", Lower),
    layer("graph.build_us_per_object", "us", Lower),
    layer("graph.build_us_per_object.n_half", "us", Lower),
    layer("graph.build_us_per_object.n_double", "us", Lower),
    layer("graph.search_us", "us", Lower),
    layer("graph.ns_per_eval", "ns", Lower),
    layer("graph.evals_per_query", "count", Lower),
    layer("graph.hops_per_query", "count", Lower),
    layer("graph.mutate.add_batch_us", "us", Lower),
    layer("graph.mutate.add_growth_ratio", "ratio", Lower),
    layer("graph.mutate.remove_batch_us", "us", Lower),
    layer("graph.mutate.remove_growth_ratio", "ratio", Lower),
    layer("graph.mutate.dirty_evals_per_query", "count", Lower),
    layer("graph.mutate.clean_query_us", "us", Lower),
    layer("graph.mutate.compaction_ms", "ms", Lower),
    layer("graph.mutate.compactions", "count", Lower),
    layer("graph.paged.layout_build_s", "s", Lower),
    layer("graph.paged.pages_read_per_query", "count", Lower),
    layer("graph.paged.pages_cached_per_query", "count", Higher),
    layer("graph.paged.cpu_us", "us", Lower),
    layer("retrieval.search_us", "us", Lower),
    layer("retrieval.self_us", "us", Lower),
    layer("retrieval.diversify_us", "us", Lower),
    layer("llm.generate_us", "us", Lower),
    layer("llm.prompt_tokens_per_turn", "count", Lower),
    layer("cache.result.hit_us", "us", Lower),
    layer("cache.result.hit_share", "share", Higher),
    layer("cache.result.miss_overhead_us", "us", Lower),
    layer("cache.page.hit_share", "share", Higher),
    layer("cache.page.evictions_per_query", "count", Lower),
    layer("cache.page.probe_ns", "ns", Lower),
    layer("cache.page.fit_query_us", "us", Lower),
    layer("engine.sched_us_per_query", "us", Lower),
    layer("engine.direct_us_per_query", "us", Lower),
    layer("engine.sched_overhead_us", "us", Lower),
    layer("engine.overhead_us", "us", Lower),
    layer("engine.batch_mean", "count", Higher),
    layer("engine.roundtrip_p50_us", "us", Lower),
    layer("engine.burst.goodput_share", "share", Higher),
    layer("engine.burst.shed_rejected", "count", Lower),
    layer("engine.burst.shed_expired", "count", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.conservation_gap_share", "share", Lower),
    layer("bench.host_noise_ratio", "ratio", Lower),
    layer("bench.rounds", "count", Higher),
    layer("bench.cycles", "count", Higher),
    layer("bench.setup_conservation_gap_share", "share", Lower),
    layer("bench.spans", "count", Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end spec named `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

fn metric_value(m: &MetricSpec, with_bound: bool) -> Value {
    let mut entries = vec![
        ("name".to_string(), string(m.name)),
        ("unit".to_string(), string(m.unit)),
        ("better".to_string(), string(m.better.as_str())),
    ];
    if with_bound {
        entries.push(("bound".to_string(), Value::Number(Number::F64(m.bound))));
    }
    Value::Object(entries)
}

/// `BENCHMARK.json` as a value, in the contract's key order.
pub fn to_value() -> Value {
    Value::Object(vec![
        (
            "command".to_string(),
            Value::Array(COMMAND.iter().map(|s| string(s)).collect()),
        ),
        (
            "paths".to_string(),
            Value::Array(PATHS.iter().map(|s| string(s)).collect()),
        ),
        (
            "run_seconds".to_string(),
            Value::Number(Number::UInt(RUN_SECONDS)),
        ),
        (
            "workloads".to_string(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::Object(vec![
                            ("name".to_string(), string(w.name)),
                            ("why".to_string(), string(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Value::Array(END_TO_END.iter().map(|m| metric_value(m, true)).collect()),
        ),
        (
            "per_layer".to_string(),
            Value::Array(PER_LAYER.iter().map(|m| metric_value(m, false)).collect()),
        ),
    ])
}

/// `BENCHMARK.json` as text (what the `manifest` subcommand prints).
pub fn render() -> String {
    let mut text = serde_json::to_string_pretty(&to_value()).unwrap_or_default();
    text.push('\n');
    text
}
