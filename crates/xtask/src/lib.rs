//! Workspace correctness tooling (`cargo run -p mqa-xtask -- <command>`).
//!
//! Every command is dependency-free, offline, and exits 0 only when
//! clean, which is what lets `ci.sh` chain them as hard gates.
//!
//! | command | what it proves | baseline file |
//! |---|---|---|
//! | [`conc`] | no lock is acquired while another guard is live (so no lock-order deadlock), every `Condvar::wait` re-checks its predicate in a loop, no guard is held across a blocking call | `conc-baseline.toml` (absent: zero waivers) |
//! | [`flow`] | no panic-capable site is reachable from a serving entry point; no undischarged index / narrowing cast / raw division anywhere on the serving crates; no wildcard arm in a `match` over an error value | `flow-baseline.toml` |
//! | [`alloc`] | no allocation-capable site is reachable from a steady-state serving entry point without an `// ALLOC:` discharge (cross-checked at runtime by the counting allocator of `mqa-graph`'s `alloc_free` test) | `alloc-baseline.toml` |
//! | [`trace`] | one milestone-complete [`mqa_obs::QueryTrace`] per turn, queue-wait / service attribution that adds up, deterministic tail sampling, a valid `/metrics` exposition, every instrumented pipeline layer in the metrics snapshot | — |
//! | [`mutate`] | under a scripted insert/delete mix no tombstoned object surfaces, the result-cache generation bumps, compaction triggers, every `graph.mutate.*` instrument records | — |
//! | [`counts`] | the benchmark's exact counts (evaluations, hops, page reads, cache verdicts, hit shares, prompt tokens, recall) equal the committed ones bit for bit | `BENCH_counts.json` (re-recorded with `--write`) |
//! | [`sched`] | at 2x saturation every submission resolves to exactly one typed outcome, the shed counters match, served queue-wait p99 stays within the budget | — |
//!
//! The `mutate`, `sched` and `trace` gates return their numbers as one
//! [`mqa_benchmark::workload::Report`] (workload = the gate's name), file
//! it as `BENCH_<gate>.json` in the one artefact shape the repo has, the
//! report file of [`mqa_benchmark::report`], and the CLI prints it through
//! the benchmark's own table.
//!
//! The source rules clippy can state (no `.unwrap()` / `panic!` in
//! library code, no float `==`, no undocumented `unsafe`, no ad-hoc
//! `Instant::now()`) are clippy's, run by `ci.sh` as `-D` lints.
//!
//! The three static gates share one path: [`workspace`] reads and lexes the
//! tree once ([`rustlex`]) and masks `#[cfg(test)]` items; each gate is a
//! scanner over that model (`flow` and `alloc` through the one
//! inventory → cone → findings routine in [`callgraph`]); and
//! [`baseline::apply_baseline`] turns raw findings into the verdict.
//!
//! The engine gate is a test of this crate (`engine`): worker-pool
//! answers equal the serial path, and on `mqa_bench`'s shared paged
//! fixture paged QPS scales with workers and a warm page cache reads
//! fewer pages. So is the structural audit (`audit`):
//! every index variant, the multi-vector store and every generation the
//! unified index publishes under a scripted add / compacting delete / add
//! pass their structural validators, and every literal instrument and
//! span name is well-formed and live.

pub mod alloc;
#[cfg(test)]
mod audit;
pub mod baseline;
pub mod callgraph;
pub mod conc;
pub mod counts;
#[cfg(test)]
mod engine;
pub mod flow;
pub mod mutate;
pub mod rustlex;
pub mod sched;
pub mod trace;
pub mod workspace;

use mqa_benchmark::workload::{MetricValue, Report};
use std::path::Path;

/// Writes `out_dir/BENCH_<gate>.json` as a [`mqa_benchmark::report`] file
/// of one report and returns that report: workload `gate`, one
/// single-reading metric per `(name, unit, value)` field, `attempted`
/// operations checked and none failed (a gate that fails a check returns
/// before it reports).
pub(crate) fn write_bench<'f>(
    out_dir: &Path,
    gate: &str,
    attempted: u64,
    fields: impl IntoIterator<Item = (&'f str, &'f str, f64)>,
) -> Result<Report, String> {
    let metrics = fields
        .into_iter()
        .map(|(name, unit, value)| MetricValue {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples: 1,
            rounds: 1,
        })
        .collect();
    let report = [Report {
        workload: gate.to_string(),
        traced: false,
        correct: true,
        attempted,
        failed: 0,
        notes: Vec::new(),
        cycles: 1,
        metrics,
        extras: Vec::new(),
        spans: None,
    }];
    let value = mqa_benchmark::report::file_value(&report);
    write_json(out_dir, &format!("BENCH_{gate}.json"), &value)?;
    let [report] = report;
    Ok(report)
}

/// Writes `value` as pretty JSON to `out_dir/file`, creating `out_dir`.
pub(crate) fn write_json<T: serde::Serialize>(
    out_dir: &Path,
    file: &str,
    value: &T,
) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let text =
        serde_json::to_string_pretty(value).map_err(|e| format!("serializing {file}: {e}"))?;
    std::fs::write(out_dir.join(file), text).map_err(|e| format!("writing {file}: {e}"))
}

/// The value a gate's report holds for `metric`.
#[cfg(test)]
pub(crate) fn reading(report: &Report, metric: &str) -> f64 {
    let found = report.metrics.iter().find(|m| m.name == metric);
    found
        .unwrap_or_else(|| panic!("the gate reports no `{metric}`"))
        .value
}

/// Asserts that `dir/BENCH_<gate>.json` reads back, through the one
/// parser, exactly the metrics of the gate's returned `report`.
#[cfg(test)]
pub(crate) fn assert_bench_file_holds(dir: &Path, report: &Report) {
    let gate = report.workload.as_str();
    let body = std::fs::read_to_string(dir.join(format!("BENCH_{gate}.json"))).expect("readable");
    let readings = mqa_benchmark::report::parse_file(&body).expect("a report file");
    let read: Vec<(&str, &str, f64)> = readings
        .iter()
        .map(|r| (r.workload.as_str(), r.metric.as_str(), r.value))
        .collect();
    let reported: Vec<(&str, &str, f64)> = report
        .metrics
        .iter()
        .map(|m| (gate, m.name.as_str(), m.value))
        .collect();
    assert_eq!(read, reported, "BENCH_{gate}.json");
}

/// Serializes scenario tests that reset the global `mqa-obs` registry or
/// trace collector: the engine, trace, mutate and sched gates (and the
/// audit's mutation pass) run real workloads against process-global
/// state, so their in-crate tests must not interleave.
#[cfg(test)]
pub(crate) fn scenario_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
