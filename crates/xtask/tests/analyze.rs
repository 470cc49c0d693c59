//! Goldens for `cargo xtask analyze`: one fixture per pass with exact
//! findings, the JSON report shape, and the baseline ratchet end-to-end
//! against the real binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use xtask::analyze::{self, analyze_source, Analysis};

const HOT_LOOP: &str = include_str!("fixtures/analyze_hot_loop.rs");
const SPAN: &str = include_str!("fixtures/analyze_span.rs");

fn rendered(rel_path: &str, text: &str) -> Vec<String> {
    analyze_source(rel_path, text)
        .iter()
        .map(|f| f.to_string())
        .collect()
}

const ALLOC_HELP: &str =
    "inside a loop body; hoist the allocation out of the hot loop or pre-size it \
     with `with_capacity`";
const PUSH_MSG: &str =
    "`.push` grows a collection inside a loop and the enclosing function never calls \
     `with_capacity`; reserve up front to avoid repeated reallocation on the hot path";

#[test]
fn hot_loop_alloc_flags_allocations_ranked_by_token_depth() {
    let diags = rendered("crates/vizalgo/src/fixture.rs", HOT_LOOP);
    assert_eq!(
        diags,
        vec![
            // Deepest nesting first: the collect inside the double loop.
            format!(
                "crates/vizalgo/src/fixture.rs:22: [hot-loop-alloc] `.collect` allocates a \
                 fresh collection via collect {ALLOC_HELP} (in `nested`, loop depth 2)"
            ),
            format!(
                "crates/vizalgo/src/fixture.rs:8: [hot-loop-alloc] `format!` allocates a \
                 String via format! {ALLOC_HELP} (in `flagged`, loop depth 1)"
            ),
            format!(
                "crates/vizalgo/src/fixture.rs:9: [hot-loop-alloc] {PUSH_MSG} (in `flagged`, \
                 loop depth 1)"
            ),
            format!(
                "crates/vizalgo/src/fixture.rs:10: [hot-loop-alloc] `.to_vec` copies into a \
                 new Vec {ALLOC_HELP} (in `flagged`, loop depth 1)"
            ),
            format!(
                "crates/vizalgo/src/fixture.rs:12: [hot-loop-alloc] `Box::new` heap-allocates \
                 via Box {ALLOC_HELP} (in `flagged`, loop depth 1)"
            ),
        ]
    );
}

#[test]
fn hot_loop_alloc_spares_presized_pushes_and_chain_top_collects() {
    // `presized` pushes under with_capacity; `outside_loops` collects a
    // single-statement adapter chain whose collect runs once. Neither
    // may fire — check by asserting the full fixture finding set above
    // names only `flagged` and `nested`.
    for f in analyze_source("crates/vizalgo/src/fixture.rs", HOT_LOOP) {
        let name = f.fn_name.as_deref().unwrap_or("");
        assert!(
            name == "flagged" || name == "nested",
            "unexpected finding in `{name}`: {f}"
        );
    }
}

#[test]
fn span_discipline_flags_leaks_and_early_returns_only() {
    let diags = rendered("crates/powersim/src/fixture.rs", SPAN);
    assert_eq!(
        diags,
        vec![
            "crates/powersim/src/fixture.rs:20: [span-discipline] journal span opened here \
             (`t0` = ….now()) is never closed by a `push_span` referencing it in the same \
             function; every open must reach a close or RAII guard on all paths (in `leaked`)"
                .to_string(),
            "crates/powersim/src/fixture.rs:29: [span-discipline] early `return` between the \
             open of journal span `t0` (line 27) and its close (line 31); the span leaks on \
             this path (in `leaked_on_early_return`)"
                .to_string(),
        ]
    );
}

#[test]
fn analyze_passes_only_apply_to_hot_path_library_code() {
    // Same content outside HOT_PATH_CRATES or under src/bin/ is ignored
    // at the workspace level; analyze_source has no crate filter, so
    // check via the workspace entry below (e2e) and here confirm the
    // fixture content itself is pass-clean when empty.
    assert_eq!(
        rendered("crates/vizalgo/src/fixture.rs", ""),
        Vec::<String>::new()
    );
}

#[test]
fn json_report_carries_schema_counts_and_sorted_findings() {
    let findings = analyze_source("crates/vizalgo/src/fixture.rs", HOT_LOOP);
    let analysis = Analysis {
        findings,
        files_scanned: 1,
    };
    let json = analyze::to_json(&analysis);
    assert!(json.starts_with("{\n  \"schema\": 1,\n  \"tool\": \"xtask-analyze\",\n"));
    assert!(json.contains("\"files_scanned\": 1,"));
    assert!(json.contains("\"counts\": {\"hot-loop-alloc\": 5, \"span-discipline\": 0}"));
    assert!(json.contains(
        "\"pass\": \"hot-loop-alloc\", \"path\": \"crates/vizalgo/src/fixture.rs\", \
         \"line\": 22, \"fn\": \"nested\", \"loop_depth\": 2,"
    ));
    // Exactly one finding object per finding, comma-separated.
    assert_eq!(json.matches("\"pass\":").count(), analysis.findings.len());
}

// ---------------------------------------------------------------------------
// End-to-end: the real binary, the baseline file, and the ratchet.
// ---------------------------------------------------------------------------

struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(case: &str) -> TempTree {
        let root =
            std::env::temp_dir().join(format!("xtask-analyze-{}-{case}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp tree");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
        TempTree { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel path has a parent")).expect("mkdir");
        fs::write(path, text).expect("write fixture");
    }

    fn remove(&self, rel: &str) {
        fs::remove_file(self.root.join(rel)).expect("remove fixture");
    }

    fn run(&self, extra: &[&str]) -> (i32, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .arg("analyze")
            .args(extra)
            .arg("--root")
            .arg(&self.root)
            .output()
            .expect("run xtask binary");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            String::from_utf8(out.stderr).expect("utf-8 stderr"),
        )
    }

    fn baseline(&self) -> String {
        fs::read_to_string(self.root.join(analyze::ANALYSIS_BASELINE)).expect("read baseline")
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn plain_analyze_lists_findings_but_exits_zero() {
    let tree = TempTree::new("plain");
    tree.write("crates/vizalgo/src/hot.rs", HOT_LOOP);
    let (code, stdout, _) = tree.run(&[]);
    assert_eq!(code, 0, "findings are a worklist, not a gate");
    assert_eq!(stdout.lines().count(), 5, "stdout:\n{stdout}");
    assert!(stdout.contains("crates/vizalgo/src/hot.rs:22: [hot-loop-alloc]"));
}

#[test]
fn analyze_skips_non_hot_path_crates_and_binaries() {
    let tree = TempTree::new("scope");
    tree.write("crates/insitu/src/hot.rs", HOT_LOOP);
    tree.write("crates/vizalgo/src/bin/tool.rs", HOT_LOOP);
    let (code, stdout, _) = tree.run(&[]);
    assert_eq!(code, 0);
    assert_eq!(stdout, "", "non-hot-path code must produce no findings");
}

#[test]
fn ratchet_without_a_baseline_fails_with_guidance() {
    let tree = TempTree::new("nobase");
    tree.write("crates/vizalgo/src/hot.rs", HOT_LOOP);
    let (code, _, stderr) = tree.run(&["--ratchet"]);
    assert_eq!(code, 1);
    assert!(
        stderr.contains("--write-baseline"),
        "stderr should point at the pin command:\n{stderr}"
    );
}

#[test]
fn ratchet_pins_regresses_and_self_prunes() {
    let tree = TempTree::new("ratchet");
    tree.write("crates/vizalgo/src/hot.rs", HOT_LOOP);

    let (code, _, _) = tree.run(&["--write-baseline"]);
    assert_eq!(code, 0);
    assert!(tree.baseline().contains("\"hot-loop-alloc\": 5"));

    // At the pinned counts the ratchet is clean.
    let (code, _, stderr) = tree.run(&["--ratchet"]);
    assert_eq!(code, 0, "clean ratchet must pass; stderr:\n{stderr}");

    // A new finding raises the count past the baseline: fail.
    tree.write("crates/cloverleaf/src/more.rs", HOT_LOOP);
    let (code, _, stderr) = tree.run(&["--ratchet"]);
    assert_eq!(code, 1, "rise must fail");
    assert!(
        stderr.contains("hot-loop-alloc rose 5 -> 10"),
        "stderr should name the regressed pass:\n{stderr}"
    );

    // Fixing findings shrinks the committed baseline automatically.
    tree.remove("crates/cloverleaf/src/more.rs");
    tree.remove("crates/vizalgo/src/hot.rs");
    let (code, _, stderr) = tree.run(&["--ratchet"]);
    assert_eq!(code, 0, "improvement must pass; stderr:\n{stderr}");
    assert!(
        stderr.contains("baseline tightened"),
        "stderr should report the shrink:\n{stderr}"
    );
    assert!(tree.baseline().contains("\"hot-loop-alloc\": 0"));
}

#[test]
fn json_flag_emits_the_report_on_stdout() {
    let tree = TempTree::new("json");
    tree.write("crates/powersim/src/spans.rs", SPAN);
    let (code, stdout, _) = tree.run(&["--json"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("{\n  \"schema\": 1,"));
    assert!(stdout.contains("\"span-discipline\": 2"));
    assert!(stdout.contains("\"fn\": \"leaked\""));
}
