//! `reproduce` as a caller sees it: a failure exits 1 with nothing on
//! stdout and `Error: <message>` on stderr, before any work is done.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

/// Run a command line that must fail up front; return its stderr.
fn failure(args: &[&str]) -> String {
    let out = reproduce(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.is_empty(), "{stdout}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_unknown_target_prints_usage_and_exits_1() {
    let err = failure(&["bogus"]);
    let head = "Error: unknown target 'bogus'\nusage: reproduce <all|";
    assert!(err.starts_with(head), "{err}");
}

#[test]
fn an_unwritable_journal_fails_before_the_run() {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-missing-{}", std::process::id()));
    let path = dir.join("j.jsonl");
    let path = path.to_str().expect("temp path is UTF-8");
    let err = failure(&["table1", "--quick", "--journal", path]);
    assert!(err.starts_with("Error: "), "{err}");
    assert!(err.contains("--journal") && err.contains(path), "{err}");
}

#[test]
fn an_empty_fleet_fails_before_the_header() {
    let err = failure(&["serve", "--quick", "--nodes", "0"]);
    let head = "Error: invalid service configuration: nodes must be at least 1\n";
    assert!(err.starts_with(head), "{err}");
}

#[test]
fn a_journal_may_go_into_the_insitu_output_directory() {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-insitu-{}", std::process::id()));
    let journal = dir.join("insitu.jsonl");
    let (out, journal) = (dir.to_str().unwrap(), journal.to_str().unwrap());
    let actions = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/ascent_actions.json"
    );
    let run = reproduce(&[
        "insitu",
        "--quick",
        "--actions",
        actions,
        "--out",
        out,
        "--journal",
        journal,
    ]);
    let written = std::fs::metadata(journal).map(|m| m.len());
    std::fs::remove_dir_all(&dir).expect("the run made its output directory");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert!(written.expect("journal written") > 0);
}
