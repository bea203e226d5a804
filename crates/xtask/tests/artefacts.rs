//! The committed `BENCH_*` artefacts share one shape: each is a report
//! file of `mqa_benchmark::report`, written by `file_value` and read back
//! by `parse_file`, with a reading for every field it declares.

use mqa_benchmark::manifest::{END_TO_END, WORKLOADS};
use mqa_benchmark::report::{parse_file, Reading};
use std::path::{Path, PathBuf};

/// The fields each scenario gate reports in its `BENCH_<gate>.json`.
const GATE_FIELDS: [(&str, &str); 3] = [
    (
        "mutate",
        "inserted removed insert_per_sec delete_per_sec quiesced_p50_us quiesced_p99_us \
         mutating_p50_us mutating_p99_us compactions final_epoch generation_bumps live_objects \
         churn_1000.g01.evals_per_query churn_1000.g10.evals_per_query \
         churn_1000.g10.dirty_evals_per_query churn_1000.g10.fresh_evals_per_query \
         churn_1000.g10.recall_at_k churn_1000.g10.store_rows churn_1000.g10.peak_rss_mb \
         churn_8000.g01.evals_per_query churn_8000.g10.evals_per_query \
         churn_8000.g10.dirty_evals_per_query churn_8000.g10.fresh_evals_per_query \
         churn_8000.g10.recall_at_k churn_8000.g10.store_rows churn_8000.g10.peak_rss_mb",
    ),
    (
        "sched",
        "arrival_qps saturation_qps submitted served shed_rejected shed_expired shed_fraction \
         deadline_us p50_queue_wait_us p99_queue_wait_us p99_service_us",
    ),
    (
        "trace",
        "turns engine_served cache_hits p50_total_us p99_total_us queue_wait_share cache_hit_rate \
         exposition_samples exposition_exemplars",
    ),
];

/// Every `BENCH_*.json` under `dir`, recursively.
fn bench_files(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("results directory is readable") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            bench_files(&path, found);
        } else if name.starts_with("BENCH_") && name.ends_with(".json") {
            found.push(path);
        }
    }
}

/// Parses `path`, checks the bytes are what the one writer produces
/// (pretty-printing the parsed value gives the file back) and that every
/// `(workload, metric)` of `declared` has a reading.
fn check_report<'d>(path: &Path, declared: impl Iterator<Item = (&'d str, &'d str)>) {
    let at = path.display();
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{at}: {e}"));
    let readings: Vec<Reading> = parse_file(&text).unwrap_or_else(|e| panic!("{at}: {e}"));
    let value = serde_json::parse_value_str(&text).expect("parse_file accepted it");
    let rewritten = serde_json::to_string_pretty(&value).expect("a parsed value serializes");
    assert_eq!(
        rewritten, text,
        "{at} was not written by report::file_value"
    );
    for (workload, metric) in declared {
        assert!(
            readings
                .iter()
                .any(|r| r.workload == workload && r.metric == metric),
            "{at}: no reading for `{metric}` of `{workload}`"
        );
    }
}

#[test]
fn committed_artefacts_are_report_files_with_every_declared_field() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    bench_files(&root.join("results"), &mut files);
    files.sort();
    assert_eq!(files.len(), GATE_FIELDS.len(), "{files:?}");
    for (path, (gate, fields)) in files.iter().zip(GATE_FIELDS) {
        assert!(
            path.ends_with(format!("{gate}/BENCH_{gate}.json")),
            "{files:?}"
        );
        check_report(path, fields.split_whitespace().map(|field| (gate, field)));
    }
    let e2e = WORKLOADS
        .iter()
        .flat_map(|w| END_TO_END.iter().map(move |spec| (w.name, spec.name)));
    check_report(&root.join("BENCH_e2e.json"), e2e);
    let counts = WORKLOADS.iter().flat_map(|w| {
        mqa_xtask::counts::KEPT
            .iter()
            .map(move |&kept| (w.name, kept))
    });
    check_report(&root.join(mqa_xtask::counts::FILE), counts);
}

/// What `BENCH_sched.json` held before the gates reported through
/// `mqa_benchmark::report`: a flat object, no `workloads` array.
#[test]
fn the_old_flat_shape_is_not_a_report_file() {
    let old = r#"{"arrival_qps": 2000.0, "saturation_qps": 1000.0, "submitted": 400,
        "served": 200, "shed_rejected": 152, "shed_expired": 48, "shed_fraction": 0.5,
        "deadline_us": 10000, "p50_queue_wait_us": 9995, "p99_queue_wait_us": 9995,
        "p99_service_us": 2185}"#;
    let err = parse_file(old).expect_err("a flat gate payload must not parse as a report");
    assert!(err.contains("workloads"), "{err}");
}
