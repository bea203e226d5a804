//! `mqa-xtask` — the workspace correctness gate.
//!
//! ```text
//! cargo run -p mqa-xtask -- lint   # static source rules + waiver baseline
//! cargo run -p mqa-xtask -- audit  # structural invariant validation
//! ```
//!
//! Both commands exit 0 only when clean, so `ci.sh` can chain them.

use mqa_xtask::baseline::Baseline;
use mqa_xtask::{alloc, audit, conc, engine, flow, lint, mutate, obs, sched, trace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
mqa-xtask — workspace correctness gate

USAGE:
    cargo run -p mqa-xtask -- <COMMAND>

COMMANDS:
    lint [--baseline <path>] [--root <dir>]
        Walk the workspace sources and enforce the lint rules. Findings
        must be fixed or waived in lint-baseline.toml; unused waivers
        also fail the gate.

    conc [--baseline <path>] [--root <dir>]
        Static concurrency analysis: build the global lock-order graph
        from every Mutex/RwLock/TracedMutex acquisition and fail on
        order cycles, non-looped Condvar waits, and guards held across
        blocking calls. Waivers live in conc-baseline.toml.

    flow [--baseline <path>] [--root <dir>]
        Panic-freedom analysis: inventory every function and
        panic-capable construct (unwrap/expect/panic!/assert!, direct
        indexing, raw integer division), build the workspace call graph,
        and fail on any site reachable from a serving entry point.
        Waivers live in flow-baseline.toml.

    alloc [--baseline <path>] [--root <dir>]
        Allocation-freedom analysis: inventory every allocation-capable
        site (container ctors, vec!/format!, to_owned/collect, heap
        clones, map inserts), build the workspace call graph, and fail
        on any site reachable from a steady-state serving entry point
        without an // ALLOC: discharge. Waivers live in
        alloc-baseline.toml.

    audit
        Build every index variant over a synthetic corpus and run the
        structural validators (HNSW, IVF, NavGraph, Dag, MultiVectorStore).

    rules
        List the lint rules with their rationales.

    obs [--out <dir>] [--seed <n>]
        Run a seeded multi-turn dialogue scenario with the mqa-obs journal
        enabled, write journal.jsonl + metrics.json + report.txt into
        <dir> (default results/obs), and fail unless every instrumented
        pipeline layer appears in the snapshot.

    engine [--out <dir>] [--seed <n>]
        Concurrency smoke gate: verify worker-pool answers are identical
        to the serial query path, that paged-search QPS scales with
        workers, and that every engine instrument recorded. Writes
        metrics.json into <dir> (default results/engine).

    mutate [--out <dir>] [--seed <n>]
        Online-mutation gate: run a scripted insert/delete/query mix on a
        2-worker engine. Fails if a tombstoned object surfaces, the
        result-cache generation misses a bump, the delete volume never
        triggers compaction, or a graph.mutate.* instrument stays empty.
        Writes BENCH_mutate.json (insert/delete throughput, search
        p50/p99 during mutation vs quiesced) and metrics.json into <dir>
        (default results/mutate).

    trace [--out <dir>] [--seed <n>]
        Per-query tracing gate: run a seeded dialogue through the
        concurrent engine with tracing enabled; every turn must yield
        exactly one milestone-complete trace with queue-wait / service
        attribution that adds up, deterministic tail sampling, and a
        valid /metrics exposition. Writes traces.jsonl,
        slow_queries.txt, metrics.txt and BENCH_trace.json into <dir>
        (default results/trace).

    sched [--out <dir>] [--seed <n>]
        Admission-control gate: open-loop arrivals at 2x the engine's
        saturation rate, every query under a fixed latency budget, one
        queue sized to the watermark. Fails unless every submission
        resolves to exactly one typed outcome, the engine.sched.shed_*
        counters equal the observed outcomes exactly, the shed fraction
        is strictly between 0 and 1, and served queue-wait p99 stays
        within the budget. Writes BENCH_sched.json and metrics.json
        into <dir> (default results/sched).

EXIT CODES:
    0  clean
    1  findings / violations
    2  usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("conc") => cmd_conc(&args[1..]),
        Some("flow") => cmd_flow(&args[1..]),
        Some("alloc") => cmd_alloc(&args[1..]),
        Some("audit") => cmd_audit(),
        Some("rules") => cmd_rules(),
        Some("obs") => cmd_obs(&args[1..]),
        Some("engine") => cmd_engine(&args[1..]),
        Some("mutate") => cmd_mutate(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("sched") => cmd_sched(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown lint option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if !root.is_dir() {
        eprintln!("lint: root `{}` is not a directory", root.display());
        return ExitCode::from(2);
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.toml"));
    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("lint: bad baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match lint::run(&root, &baseline) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &outcome.findings {
        println!("{f}");
        println!("    {}", f.rule.explain());
    }
    for w in &outcome.unused_waivers {
        println!("unused waiver: {w}");
    }
    println!(
        "lint: {} file(s), {} finding(s), {} waived, {} unused waiver(s)",
        outcome.files_scanned,
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

fn cmd_conc(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown conc option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if !root.is_dir() {
        eprintln!("conc: root `{}` is not a directory", root.display());
        return ExitCode::from(2);
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("conc-baseline.toml"));
    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("conc: bad baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match conc::run(&root, &baseline) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("conc: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &outcome.findings {
        println!("{f}");
        println!("    {}", f.rule.explain());
    }
    for w in &outcome.unused_waivers {
        println!("unused waiver: {w}");
    }
    println!(
        "conc: {} file(s), {} lock(s), {} order edge(s), {} finding(s), {} waived, {} unused waiver(s)",
        outcome.files_scanned,
        outcome.analysis.lock_names.len(),
        outcome.analysis.edges.len(),
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

fn cmd_flow(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flow option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if !root.is_dir() {
        eprintln!("flow: root `{}` is not a directory", root.display());
        return ExitCode::from(2);
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("flow-baseline.toml"));
    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("flow: bad baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match flow::run(&root, &baseline) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("flow: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &outcome.findings {
        println!("{f}");
        println!("    {}", f.rule.explain());
    }
    for w in &outcome.unused_waivers {
        println!("unused waiver: {w}");
    }
    println!(
        "flow: {} file(s), {} fn(s), {} edge(s), {} entry fn(s), {} reachable, \
         {} cone site(s), {} finding(s), {} waived, {} unused waiver(s)",
        outcome.files_scanned,
        outcome.stats.fns,
        outcome.stats.edges,
        outcome.stats.entry_fns,
        outcome.stats.reachable_fns,
        outcome.stats.cone_sites,
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

fn cmd_alloc(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown alloc option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if !root.is_dir() {
        eprintln!("alloc: root `{}` is not a directory", root.display());
        return ExitCode::from(2);
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("alloc-baseline.toml"));
    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("alloc: bad baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match alloc::run(&root, &baseline) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("alloc: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &outcome.findings {
        println!("{f}");
        println!("    {}", f.rule.explain());
    }
    for w in &outcome.unused_waivers {
        println!("unused waiver: {w}");
    }
    println!(
        "alloc: {} file(s), {} fn(s), {} edge(s), {} entry fn(s), {} reachable, \
         {} site(s) total, {} cone site(s), {} finding(s), {} waived, {} unused waiver(s)",
        outcome.files_scanned,
        outcome.stats.fns,
        outcome.stats.edges,
        outcome.stats.entry_fns,
        outcome.stats.reachable_fns,
        outcome.stats.total_sites,
        outcome.stats.cone_sites,
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

fn cmd_audit() -> ExitCode {
    let report = audit::run(std::path::Path::new("."));
    for entry in &report.entries {
        if entry.violations.is_empty() {
            println!("audit: {:<28} ok", entry.subject);
        } else {
            println!(
                "audit: {:<28} {} violation(s)",
                entry.subject,
                entry.violations.len()
            );
            for v in &entry.violations {
                println!("    {v}");
            }
        }
    }
    println!(
        "audit: {} structure(s), {} violation(s)",
        report.entries.len(),
        report.violation_count()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_rules() -> ExitCode {
    for rule in lint::Rule::ALL {
        println!("{:<22} {}", rule.name(), rule.explain());
    }
    ExitCode::SUCCESS
}

fn cmd_engine(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("results/engine");
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_dir = PathBuf::from(p),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown engine option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match engine::run(&out_dir, seed) {
        Ok(outcome) => {
            let alloc_phase = match outcome.alloc_witness {
                Some((queries, allocs)) => {
                    format!("alloc witness {allocs} alloc(s) over {queries} warmed search(es)")
                }
                None => "alloc witness off (build with --features alloc-witness)".to_string(),
            };
            println!(
                "engine: {} answer(s) identical to serial, paged QPS {:.0} -> {:.0} \
                 ({:.2}x at 4 workers), {} pool job(s), {} witness pair(s), \
                 page cache {} -> {} read(s) ({:.1}x), {} -> {}",
                outcome.identical_answers,
                outcome.serial_qps,
                outcome.concurrent_qps,
                outcome.speedup,
                outcome.jobs_executed,
                outcome.witness_pairs,
                outcome.cold_page_reads,
                outcome.warm_page_reads,
                outcome.cache_read_reduction,
                alloc_phase,
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_mutate(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("results/mutate");
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_dir = PathBuf::from(p),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown mutate option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match mutate::run(&out_dir, seed) {
        Ok(outcome) => {
            println!(
                "mutate: {} insert(s) at {:.0}/s, {} delete(s) at {:.0}/s, \
                 {} compaction(s), epoch {}, {} cache bump(s), \
                 {} quer(ies) clean of dead objects, search p50/p99 \
                 {}/{} us quiesced vs {}/{} us mutating -> {}",
                outcome.inserted,
                outcome.insert_per_sec,
                outcome.removed,
                outcome.delete_per_sec,
                outcome.compactions,
                outcome.final_epoch,
                outcome.generation_bumps,
                outcome.queries_checked,
                outcome.quiesced_p50_us,
                outcome.quiesced_p99_us,
                outcome.mutating_p50_us,
                outcome.mutating_p99_us,
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("results/trace");
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_dir = PathBuf::from(p),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown trace option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match trace::run(&out_dir, seed) {
        Ok(outcome) => {
            println!(
                "trace: {} trace(s) ({} engine-served, {} cache hit(s)), \
                 p50 {} us / p99 {} us end-to-end, {:.1}% queue wait, \
                 {} exposition sample(s) with {} exemplar(s) -> {}",
                outcome.traces,
                outcome.engine_served,
                outcome.cache_hits,
                outcome.p50_total_us,
                outcome.p99_total_us,
                outcome.queue_wait_share * 100.0,
                outcome.exposition_samples,
                outcome.exposition_exemplars,
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_sched(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("results/sched");
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_dir = PathBuf::from(p),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown sched option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match sched::run(&out_dir, seed) {
        Ok(outcome) => {
            println!(
                "sched: {} submitted at 2x saturation -> {} served, \
                 {} rejected + {} expired ({:.0}% shed, all typed), \
                 queue-wait p99 {} us within budget -> {}",
                outcome.submitted,
                outcome.served,
                outcome.shed_rejected,
                outcome.shed_expired,
                outcome.shed_fraction * 100.0,
                outcome.p99_queue_wait_us,
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_obs(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("results/obs");
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_dir = PathBuf::from(p),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown obs option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match obs::run(&out_dir, seed) {
        Ok(outcome) => {
            print!("{}", outcome.status_panel);
            println!(
                "obs: {} journal line(s), {} span(s), {} counter(s), {} histogram(s) -> {}",
                outcome.journal_lines,
                outcome.snapshot.spans.len(),
                outcome.snapshot.counters.len(),
                outcome.snapshot.histograms.len(),
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
