//! End-to-end checks of the `mqa-xtask` binary's argument handling.

use std::process::Command;

/// `--baseline` naming a file that does not exist is a usage error (exit
/// 2, path in the message), not a silent run with no waivers; without the
/// flag a tree that has no default baseline file is simply unwaived.
#[test]
fn explicit_missing_baseline_is_a_usage_error() {
    let root = std::env::temp_dir().join(format!("mqa-xtask-cli-{}", std::process::id()));
    std::fs::create_dir_all(root.join("src")).unwrap();
    std::fs::write(root.join("src").join("clean.rs"), "pub fn f() {}\n").unwrap();
    let lint = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mqa-xtask"))
            .arg("lint")
            .arg("--root")
            .arg(&root)
            .args(extra)
            .output()
            .expect("mqa-xtask runs")
    };

    let default = lint(&[]);
    assert_eq!(default.status.code(), Some(0), "{default:?}");

    let typo = root.join("typo.toml");
    let explicit = lint(&["--baseline", typo.to_str().unwrap()]);
    assert_eq!(explicit.status.code(), Some(2), "{explicit:?}");
    let stderr = String::from_utf8_lossy(&explicit.stderr);
    assert!(stderr.contains("typo.toml"), "{stderr}");

    std::fs::remove_dir_all(&root).ok();
}
