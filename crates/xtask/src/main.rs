//! CLI for the workspace automation tasks.
//!
//! ```text
//! cargo xtask lint  [--root DIR]   # unit-safety: no watt/joule quantity in a raw f64
//! cargo xtask count [--root DIR]   # non-test lines and `pub` items, per package and total
//! cargo xtask ci    [--root DIR]   # the whole CI gate; .github/workflows/ci.yml runs exactly this
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

    // Every verb reads or builds the workspace under `root`.
    let root = match root {
        Some(dir) if !dir.join("Cargo.toml").is_file() => Err(format!(
            "{} is not a workspace root (no Cargo.toml)",
            dir.display()
        )),
        Some(dir) => Ok(dir),
        None => find_workspace_root(),
    };
    let root = match root {
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

/// The CI gate, the only list of its steps (.github/workflows/ci.yml is
/// one job that runs `cargo xtask ci`): the command line (split on
/// whitespace) and the step's one extra environment variable.
const CI_STEPS: &[(&str, Option<(&str, &str)>)] = &[
    ("cargo fmt --all --check", None),
    (
        "cargo clippy --workspace --all-targets -- -D warnings",
        None,
    ),
    ("cargo xtask lint", None),
    // Informational: the size table of the ROADMAP's counting rule.
    ("cargo xtask count", None),
    ("cargo build --release", None),
    // The tests a debug build skips: the 64³ hydro solve behind
    // `store::tests::an_upsampled_size_journals_its_base_solve_once`, and
    // `reproduce all` against the committed `reproduce_output.txt`.
    ("cargo test --release -q -p vizpower --lib", None),
    ("cargo test --release -q -p vizpower-bench", None),
    ("cargo test --workspace -q", None),
    // One thread: every `vizmesh::par` call takes its inline branch, so
    // the chunk forms' whole-range path is exercised as well as the cut
    // one (hosted runners have more than one core). An explicit
    // `par::with_threads` still wins: the service's worker pool keeps its
    // `ServiceConfig::workers`, while the dataset solves under it go inline.
    // `vizpower` adds the study's bad-value runs of every filter and
    // `AlgorithmRun::native`, and `vizpower-suite` (the root package) its
    // journal goldens, registry parity and service parity.
    (
        "cargo test -q -p vizmesh -p vizalgo -p conformance -p cloverleaf -p insitu -p service -p vizpower -p vizpower-suite",
        Some(("VIZPOWER_THREADS", "1")),
    ),
    // Sixteen threads on a 2-4 core runner: many more chunks than cores,
    // the cut a big node gives the parallel BVH build's task list, the
    // renderers' row-buffer fills (the rows `RayTracer::render` records
    // too), the hydro step's fused sweeps, and contour's isovalue and
    // slice's plane tasks, each on a thread of its own.
    (
        "cargo test -q -p vizmesh -p vizalgo -p cloverleaf -p insitu",
        Some(("VIZPOWER_THREADS", "16")),
    ),
    // `reproduce all`'s stdout against `reproduce_output.txt` again, at
    // sixteen threads: the study natives' isovalue and plane tasks then
    // each get a thread of their own.
    (
        "cargo test --release -q -p vizpower-bench",
        Some(("VIZPOWER_THREADS", "16")),
    ),
    // Both conformance suites, the canonical one and the DPP backend
    // differential, into one report.
    (
        "cargo run --release --bin reproduce -- conformance --quick --backend both",
        None,
    ),
    // Again at sixteen threads: the differential checks compare each
    // kernel with a sequential full-grid reference while the marching
    // cubes segment index and its selection are cut into many chunks.
    (
        "cargo run --release --bin reproduce -- conformance --quick --backend both",
        Some(("VIZPOWER_THREADS", "16")),
    ),
    // The traditional-vs-DPP IPC contrast.
    (
        "cargo run --release --bin reproduce -- fig2b --quick --backend dpp",
        None,
    ),
    // The closed-loop governor: the one verb that steps `RunState` in
    // 100 ms windows and reprograms caps mid-run. It, `serve` and
    // `advect` write their journals into target/ci, so every journal
    // emitter's builder runs in a release build.
    (
        "cargo run --release --bin reproduce -- governor --quick --journal target/ci/governor.jsonl --trace target/ci/governor.trace.json",
        None,
    ),
    (
        "cargo run --release --bin reproduce -- serve --quick --journal target/ci/serve.jsonl --trace target/ci/serve.trace.json",
        None,
    ),
    (
        "cargo run --release --bin reproduce -- advect --quick --journal target/ci/advect.jsonl --trace target/ci/advect.trace.json",
        None,
    ),
    // The shipped action file, decoded and run the way the README says,
    // with its run journal written.
    (
        "cargo run --release --bin reproduce -- insitu --quick --out target/insitu_ci --journal target/insitu_ci/insitu.jsonl",
        None,
    ),
    // Every example, run (clippy only compiles them). `render_gallery`
    // writes its images to `target/gallery`.
    ("cargo run --release --example quickstart", None),
    ("cargo run --release --example power_sweep", None),
    ("cargo run --release --example classify_new_algorithm", None),
    ("cargo run --release --example insitu_pipeline", None),
    ("cargo run --release --example render_gallery", None),
    (
        "cargo doc --no-deps --workspace",
        Some(("RUSTDOCFLAGS", "-D warnings")),
    ),
    // The benchmark harness is its own package outside the workspace: an
    // API change that breaks its imports must fail here, not in the
    // benchmark driver.
    ("bash benchmarks/run.sh --selftest", None),
];

/// The local CI umbrella: make `target/ci` for the journaled rows, then
/// run [`CI_STEPS`] in `root`, stopping at the first failure.
fn run_ci(root: &Path) -> u8 {
    if let Err(e) = std::fs::create_dir_all(root.join("target/ci")) {
        eprintln!("xtask ci: cannot create target/ci: {e}");
        return 2;
    }
    for (command_line, env) in CI_STEPS {
        eprintln!("xtask ci: {command_line}");
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
                eprintln!("xtask ci: step failed: {command_line}");
                return 1;
            }
            Err(e) => {
                eprintln!("xtask ci: could not spawn {program}: {e}");
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
