//! The benchmark's contract, checked on `--quick` runs: the declared
//! surface (`BENCHMARK.json`) equals what the binary prints, every
//! workload prints every declared metric exactly once with the declared
//! unit, every workload passes its own correctness checks, and counts
//! repeat exactly under one seed.

use mqa_benchmark::manifest::{self, END_TO_END, PER_LAYER, WORKLOADS};
use mqa_benchmark::workload::{run, Plan, Report, RunOptions};
use std::collections::HashSet;
use std::process::Command;
use std::sync::OnceLock;

fn quick(workload: &str, seed: u64, trace: bool) -> Report {
    let plan = Plan::named(workload, true).expect("declared workload has a plan");
    let opts = RunOptions {
        seed,
        seconds: 1.0,
        cycles: Some(2),
        trace,
        quick: true,
    };
    run(&plan, &opts).expect("quick run completes")
}

/// One workload once per mode under seed 11, run at most once per test
/// binary (the per-workload tests below run in parallel).
fn reports(workload: &str) -> &'static (Report, Report) {
    static REPORTS: [OnceLock<(Report, Report)>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let slot = WORKLOADS
        .iter()
        .position(|w| w.name == workload)
        .expect("declared workload");
    REPORTS[slot].get_or_init(|| (quick(workload, 11, false), quick(workload, 11, true)))
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_rendered_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        manifest::render(),
        "regenerate with `mqa-benchmark manifest`"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_mqa-benchmark"))
        .arg("manifest")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), on_disk);
    assert!(on_disk.len() < 64 * 1024);
}

#[test]
fn declared_surface_is_within_the_contract_limits() {
    let mut seen = HashSet::new();
    for w in &WORKLOADS {
        assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why too long",
            w.name
        );
        assert!(Plan::named(w.name, false).is_some() && Plan::named(w.name, true).is_some());
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!(Plan::named("no-such-workload", false).is_none());
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: unit `{}`",
            m.name,
            m.unit
        );
    }
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let setup = manifest::end_to_end("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
    }
    assert!((1..=60).contains(&manifest::RUN_SECONDS));
    assert!(manifest::COMMAND.len() <= 32);
}

fn layer(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

/// Metrics that are counts made by the program: bit-identical across two
/// runs of one seed (rates, timings and shed counts are not; nor, here,
/// `cache.result.hit_share`, which reads a process-wide counter that the
/// workloads running in this test binary's other threads also bump).
const EXACT: [&str; 12] = [
    "vector.scan_saved_share",
    "graph.evals_per_query",
    "graph.hops_per_query",
    "graph.mutate.dirty_evals_per_query",
    "graph.mutate.compactions",
    "graph.paged.pages_read_per_query",
    "graph.paged.pages_cached_per_query",
    "llm.prompt_tokens_per_turn",
    "cache.page.hit_share",
    "cache.page.evictions_per_query",
    "bench.rounds",
    "bench.spans",
];

/// Everything one workload owes the contract.
fn check_workload(workload: &str) {
    let (plain, traced) = reports(workload);

    // Every declared metric exactly once, in order, with the declared unit.
    for (report, specs) in [(plain, &END_TO_END[..]), (traced, &PER_LAYER[..])] {
        let got: Vec<(&str, &str)> = report
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let want: Vec<(&str, &str)> = specs.iter().map(|s| (s.name, s.unit)).collect();
        assert_eq!(got, want, "{workload} traced={}", report.traced);
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        assert!(
            report.correct && report.failed == 0 && report.attempted > 0,
            "{workload} traced={}: {:?}",
            report.traced,
            report.notes
        );
        assert_eq!(report.cycles, 2);
    }
    for m in &plain.metrics {
        assert!(m.value > 0.0, "{workload}: end-to-end {} is zero", m.name);
    }
    assert!(traced.spans.as_ref().is_some_and(|s| !s.is_empty()));
    assert!(plain.spans.is_none());

    // The layers the workload claims to bypass read zero; the others do not.
    let paged = workload == "paged_spill";
    for name in [
        "graph.paged.pages_read_per_query",
        "graph.paged.cpu_us",
        "cache.page.probe_ns",
        "cache.page.fit_query_us",
    ] {
        assert_eq!(layer(traced, name) > 0.0, paged, "{workload}: {name}");
    }
    let mutate = workload == "mutate";
    for name in [
        "graph.mutate.compactions",
        "graph.mutate.compaction_ms",
        "graph.mutate.dirty_evals_per_query",
    ] {
        assert_eq!(layer(traced, name) > 0.0, mutate, "{workload}: {name}");
    }
    assert!(layer(traced, "engine.direct_us_per_query") > 0.0);
    assert!(layer(traced, "graph.evals_per_query") > 0.0);

    // One seed, one set of counts.
    let again = quick(workload, 11, true);
    for name in EXACT {
        assert_eq!(
            layer(traced, name).to_bits(),
            layer(&again, name).to_bits(),
            "{workload}: {name} drifted between two runs of one seed"
        );
    }
}

#[test]
fn dialogue_meets_the_contract() {
    check_workload("dialogue");
    // Another seed draws other inputs.
    let (plain, traced) = reports("dialogue");
    let other = quick("dialogue", 12, true);
    assert!(EXACT
        .iter()
        .any(|name| layer(traced, name).to_bits() != layer(&other, name).to_bits()));
    assert!(layer(plain, "recall_at_k") > 0.5);
}

#[test]
fn engine_pipelined_meets_the_contract() {
    check_workload("engine_pipelined");
}

#[test]
fn mutate_meets_the_contract() {
    check_workload("mutate");
}

#[test]
fn paged_spill_meets_the_contract() {
    check_workload("paged_spill");
}

#[test]
fn driver_style_invocation_ends_with_one_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_mqa-benchmark"))
        .args([
            "--workload",
            "mutate",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--quick")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let v = serde_json::parse_value_str(last).expect("the last line is JSON");
    let keys: Vec<&str> = v
        .as_object_for("result")
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    // Every metric is also printed by name in the table above the line.
    for m in &END_TO_END {
        assert_eq!(
            stdout
                .lines()
                .filter(|l| l.trim_start().starts_with(&format!("{} ", m.name)))
                .count(),
            1,
            "{} printed once",
            m.name
        );
    }
    // A bad argument is refused with a non-zero code and no result.
    let bad = Command::new(env!("CARGO_BIN_EXE_mqa-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success() && bad.stdout.is_empty());
}
