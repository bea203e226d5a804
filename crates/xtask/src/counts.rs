//! The `counts` gate: the benchmark's exact counts, held bit for bit
//! against the committed `BENCH_counts.json`.
//!
//! A timing moves with the host; a count made by the program does not.
//! Every workload is run at seed 1 for two cycles on its full plan, once
//! traced (the per-layer counts) and once untraced (`recall_at_k`), and
//! the metrics in [`KEPT`] — evaluations, hops, page reads and cache
//! verdicts per query, hit shares, prompt tokens — are compared with the
//! committed file to the last bit. A change that keeps every traversal,
//! every page read and every cache verdict leaves the file untouched; a
//! change that means to move one re-records it with `--write` and says why.

use mqa_benchmark::manifest::WORKLOADS;
use mqa_benchmark::report::{self, Reading};
use mqa_benchmark::workload::{self, MetricValue, Plan, Report, RunOptions};
use std::path::Path;

/// The committed trajectory file, at the repository root.
pub const FILE: &str = "BENCH_counts.json";

/// The metrics that repeat to the last digit from run to run.
pub const KEPT: [&str; 12] = [
    "graph.evals_per_query",
    "graph.hops_per_query",
    "graph.mutate.dirty_evals_per_query",
    "graph.mutate.compactions",
    "graph.paged.pages_read_per_query",
    "graph.paged.pages_cached_per_query",
    "cache.page.hit_share",
    "cache.page.evictions_per_query",
    "cache.result.hit_share",
    "llm.prompt_tokens_per_turn",
    "vector.scan_saved_share",
    "recall_at_k",
];

/// Seed and cycle count of every run: the counts repeat from cycle to
/// cycle, so two cycles (the fewest a run accepts) say what thirty do.
const SEED: u64 = 1;
const CYCLES: usize = 2;

/// Runs one workload traced and untraced and keeps the [`KEPT`] metrics.
fn measure_workload(name: &str) -> Result<Report, String> {
    let plan = Plan::named(name, false).ok_or_else(|| format!("workload `{name}` has no plan"))?;
    let mut metrics: Vec<MetricValue> = Vec::new();
    let mut attempted = 0;
    for trace in [true, false] {
        let opts = RunOptions {
            seed: SEED,
            seconds: 0.0,
            cycles: Some(CYCLES),
            trace,
            quick: false,
        };
        let run = workload::run(&plan, &opts)?;
        if !run.correct {
            return Err(format!(
                "counts: `{name}` (trace {trace}) failed {} of {} checks: {:?}",
                run.failed, run.attempted, run.notes
            ));
        }
        attempted += run.attempted;
        let reported = run.metrics.into_iter().chain(run.extras);
        metrics.extend(reported.filter(|m| KEPT.contains(&m.name.as_str())));
    }
    Ok(Report {
        workload: name.to_string(),
        traced: true,
        correct: true,
        attempted,
        failed: 0,
        notes: Vec::new(),
        cycles: CYCLES,
        metrics,
        extras: Vec::new(),
        spans: None,
    })
}

/// The report file of this tree's counts, as `--write` stores it.
fn measure() -> Result<serde::Value, String> {
    let reports = WORKLOADS
        .iter()
        .map(|w| measure_workload(w.name))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(report::file_value(&reports))
}

/// Every way `measured` departs from `committed`: a count whose bits
/// differ, a count one side lacks.
pub fn differences(committed: &[Reading], measured: &[Reading]) -> Vec<String> {
    let find = |side: &[Reading], r: &Reading| {
        side.iter()
            .find(|x| x.workload == r.workload && x.metric == r.metric)
            .map(|x| x.value)
    };
    let mut out = Vec::new();
    for c in committed {
        match find(measured, c) {
            Some(now) if now.to_bits() == c.value.to_bits() => {}
            Some(now) => out.push(format!(
                "{} {}: committed {:?}, measured {:?}",
                c.workload, c.metric, c.value, now
            )),
            None => out.push(format!("{} {}: no longer measured", c.workload, c.metric)),
        }
    }
    for m in measured {
        if find(committed, m).is_none() {
            out.push(format!(
                "{} {}: measured {:?}, not in the committed file",
                m.workload, m.metric, m.value
            ));
        }
    }
    out
}

/// Measures the counts and either stores them (`write`) or holds them
/// against `root/BENCH_counts.json`. Returns the summary line.
///
/// # Errors
/// A message when a workload fails its own checks, the file is missing or
/// malformed, or any count differs from the committed one.
pub fn run(root: &Path, write: bool) -> Result<String, String> {
    let value = measure()?;
    // Read back through the file's own text, so both sides of the
    // comparison have been through the same printer and parser.
    let text = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    let measured = report::parse_file(&text)?;
    if write {
        crate::write_json(root, FILE, &value)?;
        return Ok(format!("counts: {} count(s) written", measured.len()));
    }
    let path = root.join(FILE);
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {}: {e}", path.display()))
        .and_then(|t| report::parse_file(&t).map_err(|e| format!("{}: {e}", path.display())))?;
    let diffs = differences(&committed, &measured);
    if diffs.is_empty() {
        Ok(format!(
            "counts: {} count(s) equal the committed ones bit for bit",
            measured.len()
        ))
    } else {
        Err(format!(
            "counts: {} of {} count(s) moved (re-record with `counts --write` \
             only if the change means to move them):\n  {}",
            diffs.len(),
            committed.len(),
            diffs.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_moved_count_fails_the_step() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(FILE);
        let text = std::fs::read_to_string(path).expect("BENCH_counts.json is committed");
        let committed = report::parse_file(&text).expect("a report file");
        assert!(differences(&committed, &committed).is_empty());
        // One more page read in 1 600 queries: the last digits move.
        let mut moved = committed.clone();
        let reads = moved
            .iter_mut()
            .find(|r| r.workload == "paged_spill" && r.metric == "graph.paged.pages_read_per_query")
            .expect("paged_spill reports its reads");
        reads.value += 1.0 / 1_600.0;
        let diffs = differences(&committed, &moved);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(
            diffs[0].contains("paged_spill graph.paged.pages_read_per_query"),
            "{diffs:?}"
        );
        // A count that disappears, or appears, is a difference too.
        let fewer = &committed[1..];
        assert_eq!(differences(&committed, fewer).len(), 1);
        assert_eq!(differences(fewer, &committed).len(), 1);
    }
}
