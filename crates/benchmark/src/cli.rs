//! Command line of `mqa-benchmark`.
//!
//! ```text
//! mqa-benchmark [run] --workload <name> | --all  [--seed <u64>] [--seconds <s>]
//!               [--trace 0|1] [--quick] [--cycles <n>] [--out <file>]
//! mqa-benchmark manifest
//! mqa-benchmark compare <a.json> <b.json>
//! mqa-benchmark aa --runs <n> [--workload <name>] [--seed <u64>] [--seconds <s>] [--quick] [--out <file>]
//! ```

use crate::manifest::{self, END_TO_END, WORKLOADS};
use crate::report;
use crate::stats::{median, range_share};
use crate::workload::{Plan, Report, RunOptions};
use serde::{Number, Value};
use std::io::Write;
use std::path::PathBuf;

/// Parsed flags of `run` and `aa`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    /// `--workload`.
    pub workload: Option<String>,
    /// `--all`.
    pub all: bool,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: Option<f64>,
    /// `--trace 1`.
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--cycles`.
    pub cycles: Option<usize>,
    /// `--out`.
    pub out: Option<PathBuf>,
    /// `--runs` (`aa` only).
    pub runs: usize,
}

impl Default for Flags {
    fn default() -> Self {
        Self {
            workload: None,
            all: false,
            seed: 1,
            seconds: None,
            trace: false,
            quick: false,
            cycles: None,
            out: None,
            runs: 5,
        }
    }
}

/// Parses the flags that follow the subcommand.
///
/// # Errors
/// A usage message naming the offending argument.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--all" => flags.all = true,
            "--quick" => flags.quick = true,
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--cycles" => {
                let n: usize = value("--cycles")?
                    .parse()
                    .map_err(|_| "--cycles takes a positive integer".to_string())?;
                if n == 0 || n > 10_000 {
                    return Err("--cycles must be in 1..=10000".into());
                }
                flags.cycles = Some(n);
            }
            "--runs" => {
                let n: usize = value("--runs")?
                    .parse()
                    .map_err(|_| "--runs takes a positive integer".to_string())?;
                if !(2..=100).contains(&n) {
                    return Err("--runs must be in 2..=100".into());
                }
                flags.runs = n;
            }
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

fn selected(flags: &Flags) -> Result<Vec<&'static str>, String> {
    match (&flags.workload, flags.all) {
        (Some(_), true) => Err("--workload and --all exclude each other".into()),
        (Some(name), false) => manifest::workload(name)
            .map(|w| vec![w.name])
            .ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}` (one of {})", names.join(", "))
            }),
        (None, _) => Ok(WORKLOADS.iter().map(|w| w.name).collect()),
    }
}

fn write_file(path: &PathBuf, bytes: &[u8]) -> Result<(), String> {
    let mut f =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    f.write_all(bytes)
        .and_then(|()| f.flush())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    if flags.workload.is_none() && !flags.all {
        return Err("run needs --workload <name> or --all".into());
    }
    let mut reports: Vec<Report> = Vec::new();
    for name in selected(flags)? {
        let plan = Plan::named(name, flags.quick).ok_or("workload without a plan")?;
        let opts = RunOptions {
            seed: flags.seed,
            seconds: flags.seconds.unwrap_or(manifest::RUN_SECONDS as f64),
            cycles: flags.cycles.or(flags.quick.then_some(2)),
            trace: flags.trace,
            quick: flags.quick,
        };
        let report = crate::workload::run(&plan, &opts)?;
        print!("{}", report::table(&report));
        println!("{}", report::result_line(&report));
        reports.push(report);
    }
    if let Some(out) = &flags.out {
        let text = serde_json::to_string_pretty(&report::file_value(&reports)).unwrap_or_default();
        write_file(out, text.as_bytes())?;
        // Spans go next to the report, one JSONL file per traced workload.
        for r in &reports {
            if let Some(spans) = &r.spans {
                let mut buf = Vec::new();
                spans
                    .write_jsonl(&mut buf)
                    .map_err(|e| format!("rendering spans: {e}"))?;
                let mut name = out.clone().into_os_string();
                name.push(format!(".{}.spans.jsonl", r.workload));
                write_file(&PathBuf::from(name), &buf)?;
            }
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two report files".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {p}: {e}"))
            .and_then(|t| report::parse_file(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, worse) = report::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(worse)
}

/// The end-to-end values of one child run, read from its result line.
fn child_values(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let root = serde_json::parse_value_str(line).map_err(|e| format!("result line: {e}"))?;
    let root = root.as_object_for("result").map_err(|e| e.to_string())?;
    let get = |key: &str| root.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    if get("correct") != Some(&Value::Bool(true)) {
        return Err("child run was not correct".into());
    }
    let Some(Value::Object(metrics)) = get("metrics") else {
        return Err("result line without metrics".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let entries = m.as_object_for("metric").map_err(|e| e.to_string())?;
            match entries.iter().find(|(k, _)| k == "value") {
                Some((_, Value::Number(n))) => Ok((name.clone(), n.as_f64())),
                _ => Err(format!("metric `{name}` without a value")),
            }
        })
        .collect()
}

/// `aa`: runs the same build `--runs` times per workload (as child
/// processes, so `peak_rss_mb` starts fresh) and holds `(max − min) /
/// median` of every end-to-end pair against its bound.
fn cmd_aa(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let seconds = flags.seconds.unwrap_or(manifest::RUN_SECONDS as f64);
    let mut excess = false;
    let mut file_workloads = Vec::new();
    println!(
        "{:<18} {:<22} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for name in selected(flags)? {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for _ in 0..flags.runs {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", name, "--trace", "0"])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if flags.quick {
                cmd.arg("--quick");
            }
            let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "child run of {name} failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            runs.push(child_values(&String::from_utf8_lossy(&out.stdout))?);
        }
        let mut file_metrics = Vec::new();
        for spec in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| n == spec.name).map(|(_, v)| *v))
                .collect();
            if values.len() != flags.runs {
                return Err(format!("{name}: `{}` missing from a run", spec.name));
            }
            let spread = range_share(&values);
            let mid = median(&values).unwrap_or(0.0);
            let over = spread > spec.bound;
            excess |= over;
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<18} {:<22} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>6.3}  {}",
                name,
                spec.name,
                lo,
                mid,
                hi,
                spread,
                spec.bound,
                if over { "EXCESS" } else { "ok" }
            );
            file_metrics.push(Value::Object(vec![
                ("name".into(), Value::String(spec.name.into())),
                ("unit".into(), Value::String(spec.unit.into())),
                ("value".into(), Value::Number(Number::F64(mid))),
                ("spread".into(), Value::Number(Number::F64(spread))),
            ]));
        }
        file_workloads.push(Value::Object(vec![
            ("workload".into(), Value::String(name.into())),
            (
                "runs".into(),
                Value::Number(Number::UInt(flags.runs as u64)),
            ),
            ("metrics".into(), Value::Array(file_metrics)),
        ]));
    }
    if let Some(out) = &flags.out {
        let root = Value::Object(vec![("workloads".into(), Value::Array(file_workloads))]);
        let text = serde_json::to_string_pretty(&root).unwrap_or_default();
        write_file(out, text.as_bytes())?;
    }
    Ok(excess)
}

/// Runs the command line; returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    let (cmd, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (first.as_str(), rest),
        _ => ("run", args),
    };
    let outcome = match cmd {
        "run" => parse_flags(rest).and_then(|f| cmd_run(&f)).map(|()| 0),
        "manifest" => {
            print!("{}", manifest::render());
            Ok(0)
        }
        "compare" => cmd_compare(rest).map(i32::from),
        "aa" => parse_flags(rest).and_then(|f| cmd_aa(&f)).map(i32::from),
        other => Err(format!(
            "unknown command `{other}` (run, manifest, compare, aa)"
        )),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mqa-benchmark: {message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_flags_parse() {
        let f = parse_flags(&args("--workload mutate --seed 7 --seconds 25 --trace 1")).unwrap();
        assert_eq!(f.workload.as_deref(), Some("mutate"));
        assert_eq!((f.seed, f.seconds, f.trace), (7, Some(25.0), true));
        assert!(!f.quick && f.cycles.is_none());
    }

    #[test]
    fn bad_flags_are_refused() {
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--cycles 0",
            "--runs 1",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
        let f = parse_flags(&args("--workload nope")).unwrap();
        assert!(selected(&f).is_err());
        let f = parse_flags(&args("--workload mutate --all")).unwrap();
        assert!(selected(&f).is_err());
    }

    #[test]
    fn child_result_lines_are_read_back() {
        let line = "noise\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n";
        assert_eq!(
            child_values(line).unwrap(),
            vec![("setup_s".to_string(), 0.5)]
        );
        let wrong = "{\"correct\":false,\"attempted\":3,\"failed\":1,\"metrics\":{}}";
        assert!(child_values(wrong).is_err());
    }
}
