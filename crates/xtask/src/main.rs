//! CLI for the workspace automation tasks.
//!
//! ```text
//! cargo xtask lint [--strict] [--root DIR]   # repo-specific static analysis
//! cargo xtask analyze [--json] [--ratchet] [--write-baseline] [--root DIR]
//!                                            # hot-path analyzer + findings ratchet
//! cargo xtask count [--root DIR]             # non-test lines and `pub` items, per package and total
//! cargo xtask ci   [--root DIR]              # full local CI: fmt, clippy, lint, analyze, count, build, test, doc, benchmark selftest
//! ```
//!
//! Exit codes: 0 clean, 1 policy violations / ratchet regression, 2 usage
//! or environment error.

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::{analyze, count, lint_workspace, Options};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut strict = false;
    let mut json = false;
    let mut do_ratchet = false;
    let mut write_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--strict" => strict = true,
            "--json" => json = true,
            "--ratchet" => do_ratchet = true,
            "--write-baseline" => write_baseline = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => return ExitCode::from(usage("--root requires a directory argument")),
                }
            }
            "lint" | "analyze" | "count" | "ci" | "help" if cmd.is_none() => {
                cmd = Some(args[i].clone())
            }
            other => return ExitCode::from(usage(&format!("unrecognized argument `{other}`"))),
        }
        i += 1;
    }

    let root = match root.map_or_else(find_workspace_root, Ok) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };

    let code = match cmd.as_deref() {
        Some("lint") => run_lint(&root, strict),
        Some("analyze") => run_analyze(&root, json, do_ratchet, write_baseline),
        Some("count") => run_count(&root),
        Some("ci") => run_ci(&root, strict),
        _ => usage(""),
    };
    ExitCode::from(code)
}

fn usage(error: &str) -> u8 {
    if !error.is_empty() {
        eprintln!("xtask: {error}");
    }
    eprintln!(
        "usage: cargo xtask <lint [--strict] | analyze [--json] [--ratchet] [--write-baseline] | count | ci> [--root DIR]"
    );
    2
}

/// `xtask analyze`: run the hot-path passes. Plain runs print the
/// worklist and always exit 0 (findings are work, not violations);
/// `--ratchet` gates on the committed baseline; `--write-baseline`
/// (re-)pins it.
fn run_analyze(root: &Path, json: bool, do_ratchet: bool, write_baseline: bool) -> u8 {
    let analysis = match analyze::analyze_workspace(root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: i/o error walking {}: {e}", root.display());
            return 2;
        }
    };
    if json {
        print!("{}", analyze::to_json(&analysis));
    } else {
        for f in &analysis.findings {
            println!("{f}");
        }
        eprintln!(
            "xtask analyze: {} finding(s) in {} hot-path files",
            analysis.findings.len(),
            analysis.files_scanned
        );
    }
    let counts = analysis.counts();
    if write_baseline {
        if let Err(e) = analyze::write_baseline(root, &counts) {
            eprintln!(
                "xtask analyze: cannot write {}: {e}",
                analyze::ANALYSIS_BASELINE
            );
            return 2;
        }
        eprintln!(
            "xtask analyze: baseline written to {}; commit it",
            analyze::ANALYSIS_BASELINE
        );
        return 0;
    }
    if !do_ratchet {
        return 0;
    }
    let Some(baseline) = analyze::load_baseline(root) else {
        eprintln!(
            "xtask analyze: no {} found; pin one with `cargo xtask analyze --write-baseline`",
            analyze::ANALYSIS_BASELINE
        );
        return 1;
    };
    match analyze::ratchet(&baseline, &counts) {
        analyze::Ratchet::Clean => {
            eprintln!("xtask analyze: ratchet clean (all counts at baseline)");
            0
        }
        analyze::Ratchet::Tightened(improved) => {
            // Self-pruning: fixed findings shrink the committed baseline,
            // the same only-shrinks semantics as the lint allowlists.
            for (pass, base, now) in &improved {
                eprintln!("xtask analyze: {pass} improved {base} -> {now}");
            }
            if let Err(e) = analyze::write_baseline(root, &counts) {
                eprintln!(
                    "xtask analyze: cannot rewrite {}: {e}",
                    analyze::ANALYSIS_BASELINE
                );
                return 2;
            }
            eprintln!(
                "xtask analyze: baseline tightened in {}; commit the shrink",
                analyze::ANALYSIS_BASELINE
            );
            0
        }
        analyze::Ratchet::Regressed(worse) => {
            for (pass, base, now) in &worse {
                eprintln!(
                    "xtask analyze: ratchet FAIL: {pass} rose {base} -> {now}; fix the new \
                     finding(s) or justify a re-pin with --write-baseline (see docs/ANALYZE.md)"
                );
            }
            1
        }
    }
}

fn run_lint(root: &Path, strict: bool) -> u8 {
    let report = match lint_workspace(root, &Options { strict }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xtask lint: i/o error walking {}: {e}", root.display());
            return 2;
        }
    };
    for d in &report.diagnostics {
        println!("{d}");
    }
    if report.is_clean() {
        eprintln!("xtask lint: {} files clean", report.files_scanned);
        0
    } else {
        eprintln!(
            "xtask lint: {} violation(s) in {} files scanned",
            report.diagnostics.len(),
            report.files_scanned
        );
        1
    }
}

/// `xtask count`: print the workspace size table (informational; exits
/// nonzero only when the tree cannot be read).
fn run_count(root: &Path) -> u8 {
    match count::count_workspace(root) {
        Ok(counts) => {
            print!("{}", count::render(&counts));
            0
        }
        Err(e) => {
            eprintln!("xtask count: i/o error walking {}: {e}", root.display());
            2
        }
    }
}

/// The local CI umbrella, mirroring .github/workflows/ci.yml.
fn run_ci(root: &Path, strict: bool) -> u8 {
    let steps: &[(&str, &[&str], &[(&str, &str)])] = &[
        ("cargo fmt --check", &["fmt", "--all", "--check"], &[]),
        (
            "cargo clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
            &[],
        ),
    ];
    for (label, argv, envs) in steps {
        if let Some(code) = run_step(root, label, "cargo", argv, envs) {
            return code;
        }
    }
    let lint = run_lint(root, strict);
    if lint != 0 {
        return lint;
    }
    eprintln!("xtask ci: running cargo xtask analyze --ratchet");
    let ratchet = run_analyze(root, false, true, false);
    if ratchet != 0 {
        return ratchet;
    }
    eprintln!("xtask ci: running cargo xtask count (informational)");
    let counted = run_count(root);
    if counted != 0 {
        return counted;
    }
    let tier1: &[(&str, &[&str], &[(&str, &str)])] = &[
        ("cargo build --release", &["build", "--release"], &[]),
        (
            "cargo test --workspace -q",
            &["test", "--workspace", "-q"],
            &[],
        ),
        (
            "reproduce conformance --quick",
            &[
                "run",
                "--release",
                "--bin",
                "reproduce",
                "--",
                "conformance",
                "--quick",
            ],
            &[],
        ),
        (
            "reproduce conformance --quick --backend dpp",
            &[
                "run",
                "--release",
                "--bin",
                "reproduce",
                "--",
                "conformance",
                "--quick",
                "--backend",
                "dpp",
            ],
            &[],
        ),
        (
            "reproduce fig2b --quick --backend dpp (traditional-vs-DPP IPC contrast)",
            &[
                "run",
                "--release",
                "--bin",
                "reproduce",
                "--",
                "fig2b",
                "--quick",
                "--backend",
                "dpp",
            ],
            &[],
        ),
        (
            "reproduce serve --quick (study service smoke)",
            &[
                "run",
                "--release",
                "--bin",
                "reproduce",
                "--",
                "serve",
                "--quick",
            ],
            &[],
        ),
        (
            "reproduce advect --quick (time-varying scenario sweep)",
            &[
                "run",
                "--release",
                "--bin",
                "reproduce",
                "--",
                "advect",
                "--quick",
            ],
            &[],
        ),
        (
            "cargo doc --no-deps (RUSTDOCFLAGS='-D warnings')",
            &["doc", "--no-deps", "--workspace"],
            &[("RUSTDOCFLAGS", "-D warnings")],
        ),
    ];
    for (label, argv, envs) in tier1 {
        if let Some(code) = run_step(root, label, "cargo", argv, envs) {
            return code;
        }
    }
    // The benchmark harness is its own package outside the workspace: an
    // API change that breaks its imports must fail here, not in the
    // benchmark driver.
    let selftest = ["benchmarks/run.sh", "--selftest"];
    if let Some(code) = run_step(root, "benchmarks/run.sh --selftest", "bash", &selftest, &[]) {
        return code;
    }
    eprintln!("xtask ci: all steps passed");
    0
}

/// Run one step (`program argv...`) with extra environment variables;
/// `Some(code)` means it failed and CI should stop.
fn run_step(
    root: &Path,
    label: &str,
    program: &str,
    argv: &[&str],
    envs: &[(&str, &str)],
) -> Option<u8> {
    eprintln!("xtask ci: running {label}");
    match Command::new(program)
        .args(argv)
        // The workspace has no registry dependencies: the gate must pass
        // with the network unplugged (same switch as `--offline`).
        .env("CARGO_NET_OFFLINE", "true")
        .envs(envs.iter().copied())
        .current_dir(root)
        .status()
    {
        Ok(status) if status.success() => None,
        Ok(_) => {
            eprintln!("xtask ci: step failed: {label}");
            Some(1)
        }
        Err(e) => {
            eprintln!("xtask ci: could not spawn {program} for {label}: {e}");
            Some(2)
        }
    }
}

/// Walk upward from the current directory to the workspace root (the
/// first Cargo.toml declaring `[workspace]`).
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory; pass --root".into());
        }
    }
}
