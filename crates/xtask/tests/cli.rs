//! End-to-end checks of the `mqa-xtask` binary: its argument handling and
//! what a gate prints.

use std::process::Command;

/// `--baseline` naming a file that does not exist is a usage error (exit
/// 2, path in the message), not a silent run with no waivers; without the
/// flag a tree that has no default baseline file is simply unwaived.
#[test]
fn explicit_missing_baseline_is_a_usage_error() {
    let root = std::env::temp_dir().join(format!("mqa-xtask-cli-{}", std::process::id()));
    std::fs::create_dir_all(root.join("src")).unwrap();
    std::fs::write(root.join("src").join("clean.rs"), "pub fn f() {}\n").unwrap();
    let conc = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mqa-xtask"))
            .arg("conc")
            .arg("--root")
            .arg(&root)
            .args(extra)
            .output()
            .expect("mqa-xtask runs")
    };

    let default = conc(&[]);
    assert_eq!(default.status.code(), Some(0), "{default:?}");

    let typo = root.join("typo.toml");
    let explicit = conc(&["--baseline", typo.to_str().unwrap()]);
    assert_eq!(explicit.status.code(), Some(2), "{explicit:?}");
    let stderr = String::from_utf8_lossy(&explicit.stderr);
    assert!(stderr.contains("typo.toml"), "{stderr}");

    std::fs::remove_dir_all(&root).ok();
}

/// A scenario gate prints the report it filed, through the benchmark's
/// table: its heading, one row per metric and the operation tally.
#[test]
fn trace_prints_its_report_table() {
    let out = std::env::temp_dir().join(format!("mqa-xtask-cli-trace-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_mqa-xtask"))
        .arg("trace")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("mqa-xtask runs");
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.contains("workload trace (untraced, 1 cycles)"),
        "{stdout}"
    );
    let turns = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("turns "));
    assert_eq!(
        turns.and_then(|row| row.split_whitespace().next()),
        Some("5.0000"),
        "{stdout}"
    );
    assert!(stdout.contains("correct=true"), "{stdout}");
    std::fs::remove_dir_all(&out).ok();
}
