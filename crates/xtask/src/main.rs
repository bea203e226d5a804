//! `mqa-xtask` — the workspace correctness gate.
//!
//! ```text
//! cargo run -p mqa-xtask -- lint    # static source rules + waiver baseline
//! cargo run -p mqa-xtask -- trace   # a scenario gate: prints its report table
//! ```
//!
//! Every command exits 0 only when clean, so `ci.sh` can chain them. The
//! commands live in one table ([`COMMANDS`]) that both dispatches them and
//! renders the usage text.

use mqa_benchmark::workload::Report;
use mqa_xtask::baseline::{Baseline, Outcome};
use mqa_xtask::workspace::{self, Workspace};
use mqa_xtask::{alloc, conc, counts, flow, lint, mutate, sched, trace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One subcommand: its name, its option synopsis, its help paragraph and
/// its handler (which receives the arguments after the name).
struct Command {
    name: &'static str,
    options: &'static str,
    help: &'static str,
    run: fn(&[String]) -> ExitCode,
}

const STATIC_OPTIONS: &str = " [--baseline <path>] [--root <dir>]";
const SCENARIO_OPTIONS: &str = " [--out <dir>] [--seed <n>]";

const COMMANDS: [Command; 9] = [
    Command {
        name: "lint",
        options: STATIC_OPTIONS,
        help: "Walk the workspace sources and enforce the lint rules. Findings
must be fixed or waived in lint-baseline.toml; unused waivers
also fail the gate.",
        run: |args| static_gate("lint", args, lint::run, |_| String::new()),
    },
    Command {
        name: "conc",
        options: STATIC_OPTIONS,
        help: "Static concurrency analysis: resolve every Mutex/RwLock
acquisition to its lock and fail on a lock acquired while another
guard is live, non-looped Condvar waits, and guards held across
blocking calls. Waivers live in conc-baseline.toml.",
        run: |args| {
            static_gate("conc", args, conc::run, |a| {
                format!("{} lock(s), ", a.lock_names.len())
            })
        },
    },
    Command {
        name: "flow",
        options: STATIC_OPTIONS,
        help: "Panic-freedom analysis: inventory every function and
panic-capable construct (unwrap/expect/panic!/assert!, direct
indexing, raw integer division), build the workspace call graph,
and fail on any site reachable from a serving entry point.
Waivers live in flow-baseline.toml.",
        run: |args| {
            static_gate("flow", args, flow::run, |s| {
                format!(
                    "{} fn(s), {} edge(s), {} entry fn(s), {} reachable, {} cone site(s), ",
                    s.fns, s.edges, s.entry_fns, s.reachable_fns, s.cone_sites
                )
            })
        },
    },
    Command {
        name: "alloc",
        options: STATIC_OPTIONS,
        help: "Allocation-freedom analysis: inventory every allocation-capable
site (container ctors, vec!/format!, to_owned/collect, heap
clones, map inserts), build the workspace call graph, and fail
on any site reachable from a steady-state serving entry point
without an // ALLOC: discharge. Waivers live in
alloc-baseline.toml.",
        run: |args| {
            static_gate("alloc", args, alloc::run, |s| {
                format!(
                    "{} fn(s), {} edge(s), {} entry fn(s), {} reachable, \
                     {} site(s) total, {} cone site(s), ",
                    s.fns, s.edges, s.entry_fns, s.reachable_fns, s.total_sites, s.cone_sites
                )
            })
        },
    },
    Command {
        name: "rules",
        options: "",
        help: "List the lint rules with their rationales.",
        run: |_| cmd_rules(),
    },
    Command {
        name: "mutate",
        options: SCENARIO_OPTIONS,
        help: "Online-mutation gate: run a scripted insert/delete/query mix on a
2-worker engine. Fails if a tombstoned object surfaces, the
result-cache generation misses a bump, the delete volume never
triggers compaction, a graph.mutate.* instrument stays empty, or
ten generations of churn at constant live size (1 000 and 8 000
objects in a release build, 400 otherwise) move evaluations per
query by more than 10 % or away from a fresh build's. Writes
BENCH_mutate.json (insert/delete throughput, search p50/p99
during mutation vs quiesced, the churn block's per-generation
readings) and metrics.json into <dir> (default results/mutate).",
        run: |args| scenario("mutate", args, mutate::run),
    },
    Command {
        name: "trace",
        options: SCENARIO_OPTIONS,
        help: "Per-query tracing gate: run a seeded dialogue through the
concurrent engine with tracing enabled; every turn must yield
exactly one milestone-complete trace with queue-wait / service
attribution that adds up, deterministic tail sampling, a valid
/metrics exposition, and every instrumented pipeline layer in
the metrics snapshot. Writes traces.jsonl, slow_queries.txt,
metrics.txt, metrics.json, report.txt (snapshot + status panel)
and BENCH_trace.json into <dir> (default results/trace).",
        run: |args| scenario("trace", args, trace::run),
    },
    Command {
        name: "sched",
        options: SCENARIO_OPTIONS,
        help: "Admission-control gate: open-loop arrivals at 2x the engine's
saturation rate, every query under a fixed latency budget, one
queue sized to the watermark. Fails unless every submission
resolves to exactly one typed outcome, the engine.sched.shed_*
counters equal the observed outcomes exactly, the shed fraction
is strictly between 0 and 1, and served queue-wait p99 stays
within the budget. Writes BENCH_sched.json and metrics.json
into <dir> (default results/sched).",
        run: |args| scenario("sched", args, sched::run),
    },
    Command {
        name: "counts",
        options: " [--write]",
        help: "Count trajectory: run the four benchmark workloads at seed 1 for
two cycles, traced and untraced, and hold the counts that repeat
to the last digit (evaluations, hops, page reads and cache
verdicts per query, hit shares, prompt tokens, recall) bit for
bit against the committed BENCH_counts.json. --write stores
this tree's counts instead.",
        run: cmd_counts,
    },
];

/// The usage text, rendered from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::from(
        "mqa-xtask — workspace correctness gate\n\n\
         USAGE:\n    cargo run -p mqa-xtask -- <COMMAND>\n\n\
         COMMANDS:\n",
    );
    for c in &COMMANDS {
        out.push_str(&format!("    {}{}\n", c.name, c.options));
        for line in c.help.lines() {
            out.push_str(&format!("        {line}\n"));
        }
        out.push('\n');
    }
    out.push_str(
        "EXIT CODES:\n    0  clean\n    1  findings / violations\n    2  usage or I/O error\n",
    );
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("help", String::as_str);
    if matches!(name, "--help" | "-h" | "help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match COMMANDS.iter().find(|c| c.name == name) {
        Some(command) => (command.run)(&args[1..]),
        None => {
            eprintln!("unknown command `{name}`\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// Reads `--flag <value>` pairs: `set` stores a value under its flag and
/// returns `false` for a flag it does not know.
fn parse_options(
    command: &str,
    args: &[String],
    mut set: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<(), ExitCode> {
    let usage_error = |message: String| {
        eprintln!("{message}");
        ExitCode::from(2)
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return Err(usage_error(format!("{flag} requires a value")));
        };
        match set(flag, value) {
            Ok(true) => {}
            Ok(false) => return Err(usage_error(format!("unknown {command} option `{flag}`"))),
            Err(message) => return Err(usage_error(message)),
        }
    }
    Ok(())
}

/// The one handler behind `lint` / `conc` / `flow` / `alloc`: parse
/// `--root` / `--baseline`, load the workspace and the baseline (default
/// `<root>/<name>-baseline.toml`), run the gate, print findings, stale
/// waivers and the summary line (`stats` renders the gate's own part).
fn static_gate<S>(
    name: &str,
    args: &[String],
    run: fn(&Workspace, &Baseline) -> Outcome<S>,
    stats: fn(&S) -> String,
) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut explicit_baseline: Option<PathBuf> = None;
    let parsed = parse_options(name, args, |flag, value| {
        match flag {
            "--baseline" => explicit_baseline = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }
    let fail = |message: String| {
        eprintln!("{name}: {message}");
        ExitCode::from(2)
    };
    if !root.is_dir() {
        return fail(format!("root `{}` is not a directory", root.display()));
    }
    // A tree without the default file simply has no waivers; a path the
    // user typed must exist, or a typo would silently waive nothing.
    let baseline_path = match explicit_baseline {
        Some(path) if !path.exists() => {
            return fail(format!("baseline `{}` does not exist", path.display()));
        }
        Some(path) => path,
        None => root.join(format!("{name}-baseline.toml")),
    };
    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => return fail(format!("bad baseline: {e}")),
    };
    let ws = match workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => return fail(e),
    };
    let outcome = run(&ws, &baseline);
    for f in &outcome.findings {
        println!("{f}");
        println!("    {}", f.rule.explain());
    }
    for w in &outcome.unused_waivers {
        println!("unused waiver: {w}");
    }
    println!(
        "{name}: {} file(s), {}{} finding(s), {} waived, {} unused waiver(s)",
        outcome.files_scanned,
        stats(&outcome.stats),
        outcome.findings.len(),
        outcome.waived.len(),
        outcome.unused_waivers.len()
    );
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The one handler behind the scenario gates: parse `--out` (default
/// `results/<name>`) and `--seed` (default 42), run the scenario, print
/// the report it filed as `BENCH_<name>.json` through the benchmark's
/// table, followed by the output directory.
fn scenario(
    name: &str,
    args: &[String],
    run: fn(&Path, u64) -> Result<Report, String>,
) -> ExitCode {
    let mut out_dir = PathBuf::from("results").join(name);
    let mut seed = 42u64;
    let parsed = parse_options(name, args, |flag, value| {
        match flag {
            "--out" => out_dir = PathBuf::from(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed requires an integer")?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }
    match run(&out_dir, seed) {
        Ok(report) => {
            print!("{}", mqa_benchmark::report::table(&report));
            println!("-> {}", out_dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_counts(args: &[String]) -> ExitCode {
    let write = match args {
        [] => false,
        [flag] if flag == "--write" => true,
        _ => {
            eprintln!("counts takes no option but --write");
            return ExitCode::from(2);
        }
    };
    match counts::run(Path::new("."), write) {
        Ok(summary) => {
            println!("{summary} -> {}", counts::FILE);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_rules() -> ExitCode {
    for rule in lint::Rule::ALL {
        println!("{:<22} {}", rule.name(), rule.explain());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage text and the dispatch table cannot drift: every command
    /// heading in `usage()` names a table entry and every table entry has
    /// a heading.
    #[test]
    fn usage_lists_exactly_the_dispatched_commands() {
        let text = usage();
        let commands = text
            .split("COMMANDS:\n")
            .nth(1)
            .and_then(|rest| rest.split("EXIT CODES:").next())
            .expect("usage has a COMMANDS section");
        // Command headings are indented four spaces, help text eight.
        let headings: Vec<&str> = commands
            .lines()
            .filter(|l| l.starts_with("    ") && !l.starts_with("     "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let dispatched: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(headings, dispatched);
        let mut unique = dispatched.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), dispatched.len(), "duplicate command name");
    }
}
