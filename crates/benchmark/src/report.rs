//! Output: the per-metric table, the one-line JSON result the driver
//! reads, the `--out` report file, and `compare` over two such files.

use crate::manifest::END_TO_END;
use crate::stats::{verdict, worsening};
use crate::workload::{MetricValue, Report};
use serde::{Number, Value};
use std::fmt::Write as _;

fn num(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

fn uint(v: u64) -> Value {
    Value::Number(Number::UInt(v))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The table printed for one workload: every metric by name with unit,
/// value, sample count and round count, then the operation tally.
pub fn table(report: &Report) -> String {
    let mut out = String::new();
    let mode = if report.traced { "traced" } else { "untraced" };
    let _ = writeln!(
        out,
        "workload {} ({mode}, {} cycles)",
        report.workload, report.cycles
    );
    for m in report.metrics.iter().chain(&report.extras) {
        let _ = writeln!(
            out,
            "  {:<44} {:>16.4} {:<6} samples={:<7} rounds={}",
            m.name, m.value, m.unit, m.samples, m.rounds
        );
    }
    let _ = writeln!(
        out,
        "  attempted={} failed={} correct={}",
        report.attempted, report.failed, report.correct
    );
    for note in &report.notes {
        let _ = writeln!(out, "  ! {note}");
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &Report) -> String {
    let metrics = Value::Object(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![("value", num(m.value)), ("unit", text(&m.unit))]),
                )
            })
            .collect(),
    );
    let line = obj(vec![
        ("correct", Value::Bool(report.correct)),
        ("attempted", uint(report.attempted.max(1))),
        ("failed", uint(report.failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

fn metric_value(m: &MetricValue) -> Value {
    obj(vec![
        ("name", text(&m.name)),
        ("unit", text(&m.unit)),
        ("value", num(m.value)),
        ("samples", uint(m.samples as u64)),
        ("rounds", uint(m.rounds as u64)),
    ])
}

/// The `--out` file: every report of the invocation, gated metrics and
/// companions alike.
pub fn file_value(reports: &[Report]) -> Value {
    let workloads = reports
        .iter()
        .map(|r| {
            obj(vec![
                ("workload", text(&r.workload)),
                ("traced", Value::Bool(r.traced)),
                ("correct", Value::Bool(r.correct)),
                ("attempted", uint(r.attempted)),
                ("failed", uint(r.failed)),
                ("cycles", uint(r.cycles as u64)),
                (
                    "metrics",
                    Value::Array(
                        r.metrics
                            .iter()
                            .chain(&r.extras)
                            .map(metric_value)
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    obj(vec![("workloads", Value::Array(workloads))])
}

/// One workload × metric value read back from a report file.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The value.
    pub value: f64,
    /// The side's own run-to-run spread, when the file records one.
    pub spread: f64,
}

fn field<'v>(entries: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// Parses a report file written by `--out` (or by `aa --out`).
///
/// # Errors
/// A message naming what is malformed.
pub fn parse_file(text: &str) -> Result<Vec<Reading>, String> {
    let root = serde_json::parse_value_str(text).map_err(|e| e.to_string())?;
    let root = root.as_object_for("report").map_err(|e| e.to_string())?;
    let Some(Value::Array(workloads)) = field(root, "workloads") else {
        return Err("report has no `workloads` array".into());
    };
    let mut readings = Vec::new();
    for w in workloads {
        let w = w.as_object_for("workload").map_err(|e| e.to_string())?;
        let Some(Value::String(name)) = field(w, "workload") else {
            return Err("workload entry without a name".into());
        };
        let Some(Value::Array(metrics)) = field(w, "metrics") else {
            return Err(format!("workload `{name}` has no metrics"));
        };
        for m in metrics {
            let m = m.as_object_for("metric").map_err(|e| e.to_string())?;
            let (Some(Value::String(metric)), Some(value)) =
                (field(m, "name"), field(m, "value").and_then(as_f64))
            else {
                return Err(format!(
                    "workload `{name}` has a metric without name or value"
                ));
            };
            readings.push(Reading {
                workload: name.clone(),
                metric: metric.clone(),
                value,
                spread: field(m, "spread").and_then(as_f64).unwrap_or(0.0),
            });
        }
    }
    Ok(readings)
}

/// Compares two report files pair by pair: one row per workload ×
/// end-to-end metric with both values, the ratio (base = the first file)
/// and the verdict against the metric's bound. Returns the table and
/// whether any pair is worse than its bound.
pub fn compare(base: &[Reading], new: &[Reading]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for b in base {
        let Some(spec) = END_TO_END.iter().find(|s| s.name == b.metric) else {
            continue;
        };
        let n = new
            .iter()
            .find(|n| n.workload == b.workload && n.metric == b.metric);
        let (value, spread) = n.map_or((f64::NAN, 0.0), |n| (n.value, n.spread.max(b.spread)));
        let v = verdict(spec.better, spec.bound, b.value, value, spread);
        any_worse |= v == crate::stats::Verdict::WorseThanBound;
        let ratio = if b.value == 0.0 {
            f64::NAN
        } else {
            value / b.value
        };
        let _ = writeln!(
            out,
            "{:<18} {:<22} {:>14.4} {:>14.4} {:>9.4} {:>7.3}  {} ({:+.1} % worse)",
            b.workload,
            b.metric,
            b.value,
            value,
            ratio,
            spec.bound,
            v.label(),
            worsening(spec.better, b.value, value) * 100.0
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(turn: f64) -> Report {
        Report {
            workload: "dialogue".into(),
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
            cycles: 2,
            metrics: vec![MetricValue {
                name: "turn_p50_us".into(),
                unit: "us".into(),
                value: turn,
                samples: 100,
                rounds: 4,
            }],
            extras: Vec::new(),
            spans: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&report(80.25));
        let v = serde_json::parse_value_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object_for("line")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"turn_p50_us\":{\"value\":80.25,\"unit\":\"us\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn report_file_round_trips_and_compare_applies_the_bound() {
        let text = |turn| serde_json::to_string(&file_value(&[report(turn)])).unwrap();
        let base = parse_file(&text(80.0)).unwrap();
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].metric, "turn_p50_us");
        let slower = parse_file(&text(100.0)).unwrap();
        let same = parse_file(&text(82.0)).unwrap();
        let (table, worse) = compare(&base, &slower);
        assert!(worse, "{table}");
        assert!(table.contains("worse-than-bound"), "{table}");
        let (table, worse) = compare(&base, &same);
        assert!(!worse && table.contains("within"), "{table}");
        // A side whose own spread exceeds the bound decides nothing.
        let mut noisy = slower.clone();
        noisy[0].spread = 0.5;
        let (table, worse) = compare(&base, &noisy);
        assert!(!worse && table.contains("unresolved"), "{table}");
        // A metric missing on the new side is unresolved too.
        let (table, _) = compare(&base, &[]);
        assert!(table.contains("unresolved"), "{table}");
    }

    #[test]
    fn malformed_report_is_an_error() {
        assert!(parse_file("{").is_err());
        assert!(parse_file("{\"workloads\": 3}").is_err());
    }
}
