//! CLI for the workspace automation tasks.
//!
//! ```text
//! cargo xtask lint  [--root DIR]   # repo-specific static analysis
//! cargo xtask count [--root DIR]   # non-test lines and `pub` items, per package and total
//! cargo xtask ci    [--root DIR]   # full local CI: the steps of .github/workflows/ci.yml, in order
//! ```
//!
//! Exit codes: 0 clean, 1 policy violations or a failed CI step, 2 usage
//! or environment error.

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::{count, lint_workspace};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => return ExitCode::from(usage("--root requires a directory argument")),
                }
            }
            "lint" | "count" | "ci" | "help" if cmd.is_none() => cmd = Some(args[i].clone()),
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

    ExitCode::from(match cmd.as_deref() {
        Some("lint") => run_lint(&root),
        Some("count") => run_count(&root),
        Some("ci") => run_ci(&root),
        _ => usage(""),
    })
}

fn usage(error: &str) -> u8 {
    if !error.is_empty() {
        eprintln!("xtask: {error}");
    }
    eprintln!("usage: cargo xtask <lint | count | ci> [--root DIR]");
    2
}

fn run_lint(root: &Path) -> u8 {
    let report = match lint_workspace(root) {
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

/// The steps of .github/workflows/ci.yml, in its order (the unit test
/// below compares the two): the workflow's step name, the command line
/// (split on whitespace) and the step's one extra environment variable.
const CI_STEPS: &[(&str, &str, Option<(&str, &str)>)] = &[
    ("rustfmt", "cargo fmt --all --check", None),
    (
        "clippy",
        "cargo clippy --workspace --all-targets -- -D warnings",
        None,
    ),
    ("xtask lint", "cargo xtask lint", None),
    ("xtask count (informational)", "cargo xtask count", None),
    ("Build (release)", "cargo build --release", None),
    ("Test", "cargo test --workspace -q", None),
    (
        "Test the kernel crates single-threaded",
        "cargo test -q -p vizmesh -p vizalgo -p conformance -p cloverleaf -p insitu",
        Some(("VIZPOWER_THREADS", "1")),
    ),
    (
        "Test the mesh and kernel crates at sixteen threads",
        "cargo test -q -p vizmesh -p vizalgo",
        Some(("VIZPOWER_THREADS", "16")),
    ),
    (
        "Conformance (quick)",
        "cargo run --release --bin reproduce -- conformance --quick",
        None,
    ),
    (
        "Conformance, DPP backend differential (quick)",
        "cargo run --release --bin reproduce -- conformance --quick --backend dpp",
        None,
    ),
    (
        "Traditional-vs-DPP IPC contrast (quick)",
        "cargo run --release --bin reproduce -- fig2b --quick --backend dpp",
        None,
    ),
    (
        "Study service (quick)",
        "cargo run --release --bin reproduce -- serve --quick",
        None,
    ),
    (
        "Time-varying advection sweep (quick)",
        "cargo run --release --bin reproduce -- advect --quick",
        None,
    ),
    (
        "Rustdoc (deny warnings)",
        "cargo doc --no-deps --workspace",
        Some(("RUSTDOCFLAGS", "-D warnings")),
    ),
    // The benchmark harness is its own package outside the workspace: an
    // API change that breaks its imports must fail here, not in the
    // benchmark driver.
    (
        "Benchmark harness selftest",
        "bash benchmarks/run.sh --selftest",
        None,
    ),
];

/// The local CI umbrella: run [`CI_STEPS`] in `root`, stopping at the
/// first failure.
fn run_ci(root: &Path) -> u8 {
    for (label, command_line, env) in CI_STEPS {
        eprintln!("xtask ci: {label}: {command_line}");
        let mut argv = command_line.split_whitespace();
        let program = argv.next().unwrap_or_default();
        let status = Command::new(program)
            .args(argv)
            // The workspace has no registry dependencies: the gate must
            // pass with the network unplugged (same switch as `--offline`).
            .env("CARGO_NET_OFFLINE", "true")
            .envs(*env)
            .current_dir(root)
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(_) => {
                eprintln!("xtask ci: step failed: {label}");
                return 1;
            }
            Err(e) => {
                eprintln!("xtask ci: could not spawn {program} for {label}: {e}");
                return 2;
            }
        }
    }
    eprintln!("xtask ci: all steps passed");
    0
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

#[cfg(test)]
mod tests {
    use super::CI_STEPS;

    type Step = (String, String, Option<(String, String)>);

    /// Every `- name:` step of a workflow that has a `run:`, with the one
    /// `KEY: VALUE` pair of its `env:` block (quotes stripped), in order.
    fn workflow_steps(yaml: &str) -> Vec<Step> {
        let mut steps: Vec<Step> = Vec::new();
        let (mut name, mut in_env) = (None, false);
        for line in yaml.lines().map(str::trim) {
            if line.starts_with('#') {
                continue;
            }
            if let Some(n) = line.strip_prefix("- name: ") {
                (name, in_env) = (Some(n.to_string()), false);
            } else if line.starts_with("- ") {
                (name, in_env) = (None, false);
            } else if let (Some(run), Some(n)) = (line.strip_prefix("run: "), &name) {
                steps.push((n.clone(), run.to_string(), None));
            } else if line == "env:" {
                in_env = name.is_some();
            } else if let (true, Some((k, v)), Some(step)) =
                (in_env, line.split_once(": "), steps.last_mut())
            {
                step.2 = Some((k.to_string(), v.trim_matches('"').to_string()));
            }
        }
        steps
    }

    /// Where `yaml` and [`CI_STEPS`] disagree, one line per difference.
    fn drift(yaml: &str) -> Vec<String> {
        let rows: Vec<Step> = CI_STEPS
            .iter()
            .map(|(label, cmd, env)| {
                let env = env.map(|(k, v)| (k.to_string(), v.to_string()));
                (label.to_string(), cmd.to_string(), env)
            })
            .collect();
        let steps: Vec<Step> = workflow_steps(yaml)
            .into_iter()
            .filter(|(_, run, _)| !run.starts_with("rustup "))
            .collect();
        let mut out = Vec::new();
        for row in rows.iter().filter(|row| !steps.contains(row)) {
            out.push(format!("CI_STEPS row {row:?} is not a step of ci.yml"));
        }
        for step in steps.iter().filter(|step| !rows.contains(step)) {
            out.push(format!("ci.yml step {step:?} is not a CI_STEPS row"));
        }
        if out.is_empty() && rows != steps {
            out.push("CI_STEPS and ci.yml list the same steps in different orders".to_string());
        }
        out
    }

    #[test]
    fn ci_steps_and_the_workflow_file_list_the_same_steps() {
        let yaml = include_str!("../../../.github/workflows/ci.yml");
        assert_eq!(drift(yaml), Vec::<String>::new());
        // The check bites: drop one step from the workflow text.
        let cut = yaml.replace(
            "      - name: xtask lint\n        run: cargo xtask lint\n",
            "",
        );
        assert_eq!(
            drift(&cut),
            [r#"CI_STEPS row ("xtask lint", "cargo xtask lint", None) is not a step of ci.yml"#]
        );
    }
}
