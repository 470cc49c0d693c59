//! Golden tests for `cargo xtask lint`: one good/bad fixture pair per
//! lint, asserting the exact diagnostics, file:line anchors, and exit
//! codes, plus the allowlist/justification round trip. (The
//! hot-loop-alloc fixture goldens live in `analyze.rs`.)

mod common;

use std::fs;
use std::process::Command;

use common::{rendered, TempTree};

const PANIC_BAD: &str = include_str!("fixtures/panic_bad.rs");
const PANIC_GOOD: &str = include_str!("fixtures/panic_good.rs");
const UNITS_BAD: &str = include_str!("fixtures/units_bad.rs");
const UNITS_GOOD: &str = include_str!("fixtures/units_good.rs");
const HOT_LOOP: &str = include_str!("fixtures/hot_loop.rs");

const PANIC_HELP: &str = "return Result/Option, or justify with `// lint: infallible \
                          because ...` and register the site in crates/xtask/allowlists/panics.allow";

#[test]
fn panic_policy_bad_fixture_flags_each_site() {
    let diags = rendered("crates/vizalgo/src/fixture.rs", PANIC_BAD);
    assert_eq!(
        diags,
        vec![
            format!(
                "crates/vizalgo/src/fixture.rs:4: [panic-policy] `.unwrap` in hot-path \
                 library code; {PANIC_HELP}"
            ),
            format!(
                "crates/vizalgo/src/fixture.rs:5: [panic-policy] `.expect` in hot-path \
                 library code; {PANIC_HELP}"
            ),
            format!(
                "crates/vizalgo/src/fixture.rs:7: [panic-policy] `panic!` in hot-path \
                 library code; {PANIC_HELP}"
            ),
            "crates/vizalgo/src/fixture.rs:14: [panic-policy] `.unwrap` is justified inline \
             but not registered in crates/xtask/allowlists/panics.allow"
                .to_string(),
        ]
    );
}

#[test]
fn panic_policy_good_fixture_is_clean() {
    assert_eq!(
        rendered("crates/vizalgo/src/fixture.rs", PANIC_GOOD),
        Vec::<String>::new()
    );
}

#[test]
fn panic_policy_ignores_non_hot_path_crates() {
    assert_eq!(
        rendered("crates/insitu/src/fixture.rs", PANIC_BAD),
        Vec::<String>::new()
    );
}

#[test]
fn unit_safety_bad_fixture_flags_each_raw_f64_declaration() {
    // A field, a return type, a parameter, a return type at the end of
    // a multi-line signature, and a `let` binding.
    let raw = |line: usize, name: &str, family: &str, ty: &str| -> String {
        format!(
            "crates/core/src/study.rs:{line}: [unit-safety] `{name}` carries a {family} \
             quantity as a raw `f64`; use the `{ty}` newtype from powersim::units"
        )
    };
    assert_eq!(
        rendered("crates/core/src/study.rs", UNITS_BAD),
        vec![
            raw(4, "cap_watts", "watts", "Watts"),
            raw(8, "peak_power_watts", "watts", "Watts"),
            raw(12, "energy_joules", "joules", "Joules"),
            raw(18, "total_energy_joules", "joules", "Joules"),
            raw(19, "sum_joules", "joules", "Joules"),
        ]
    );
}

#[test]
fn unit_safety_good_fixture_is_clean() {
    assert_eq!(
        rendered("crates/core/src/study.rs", UNITS_GOOD),
        Vec::<String>::new()
    );
}

#[test]
fn unit_safety_applies_everywhere_but_the_newtype_definitions() {
    // No boundary-file list: a crate that never touched the power API
    // is held to the same rule.
    assert_eq!(
        rendered("crates/insitu/src/runtime.rs", UNITS_BAD).len(),
        5,
        "every declaration is flagged outside the power crates too"
    );
    assert_eq!(
        rendered("crates/powersim/src/units.rs", UNITS_BAD),
        Vec::<String>::new()
    );
}

// ---------------------------------------------------------------------------
// End-to-end: the real binary against a temporary workspace tree.
// ---------------------------------------------------------------------------

#[test]
fn binary_exits_nonzero_with_exact_diagnostics_on_violations() {
    let tree = TempTree::new("bad");
    tree.write("crates/vizalgo/src/bad.rs", PANIC_BAD);
    tree.write("crates/core/src/study.rs", UNITS_BAD);
    // Five in-loop allocations, one of them registered: the other four
    // are diagnostics, not a worklist.
    tree.write("crates/vizalgo/src/hot.rs", HOT_LOOP);
    tree.write(
        "crates/xtask/allowlists/allocs.allow",
        "crates/vizalgo/src/hot.rs :: let boxed = Box::new(*p);\n",
    );
    let (code, stdout) = tree.lint();
    assert_eq!(code, 1, "violations must exit 1");

    let mut expected = rendered("crates/core/src/study.rs", UNITS_BAD);
    expected.extend(rendered("crates/vizalgo/src/bad.rs", PANIC_BAD));
    let hot = rendered("crates/vizalgo/src/hot.rs", HOT_LOOP);
    assert_eq!(hot.len(), 5);
    expected.extend(hot.into_iter().filter(|d| !d.contains("`Box::new`")));
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    assert_eq!(lines, expected);
}

#[test]
fn binary_exits_zero_on_a_clean_tree() {
    let tree = TempTree::new("good");
    tree.write("crates/vizalgo/src/good.rs", PANIC_GOOD);
    tree.write("crates/core/src/study.rs", UNITS_GOOD);
    let (code, stdout) = tree.lint();
    assert_eq!(code, 0, "clean tree must exit 0; stdout:\n{stdout}");
    assert_eq!(stdout, "");
}

#[test]
fn binary_accepts_justified_and_registered_panic_sites() {
    let allowed = "pub fn tail(xs: &[f64]) -> f64 {\n    \
                   *xs.last().unwrap() // lint: infallible because callers pass a non-empty slice\n\
                   }\n";
    let tree = TempTree::new("allow");
    tree.write("crates/vizalgo/src/allowed.rs", allowed);
    tree.write(
        "crates/xtask/allowlists/panics.allow",
        "# callers validate non-emptiness before the kernel runs\n\
         crates/vizalgo/src/allowed.rs :: *xs.last().unwrap()\n",
    );
    let (code, stdout) = tree.lint();
    assert_eq!(
        code, 0,
        "registered+justified site must pass; stdout:\n{stdout}"
    );
}

#[test]
fn justification_comment_may_sit_above_a_chained_site() {
    // rustfmt puts `.expect(...)` on its own chain line; the justification
    // then lives on a comment-only line directly above the site.
    let text = "pub fn grid(input: &Input) -> &Grid {\n    \
                input\n        \
                .as_uniform()\n        \
                // lint: infallible because harness inputs are uniform grids\n        \
                .expect(\"structured input\")\n\
                }\n";
    let diags = rendered("crates/vizalgo/src/fixture.rs", text);
    assert_eq!(
        diags,
        vec![
            "crates/vizalgo/src/fixture.rs:5: [panic-policy] `.expect` is justified inline \
             but not registered in crates/xtask/allowlists/panics.allow"
                .to_string(),
        ]
    );

    let tree = TempTree::new("above");
    tree.write("crates/vizalgo/src/fixture.rs", text);
    tree.write(
        "crates/xtask/allowlists/panics.allow",
        "crates/vizalgo/src/fixture.rs :: .expect(\"structured input\")\n",
    );
    let (code, stdout) = tree.lint();
    assert_eq!(
        code, 0,
        "comment-above justification must pass; stdout:\n{stdout}"
    );
}

#[test]
fn binary_reports_stale_allowlist_entries() {
    let tree = TempTree::new("stale");
    tree.write("crates/vizalgo/src/ok.rs", PANIC_GOOD);
    tree.write(
        "crates/xtask/allowlists/panics.allow",
        "# left over from a removed kernel\n\
         crates/vizalgo/src/removed.rs :: .unwrap()\n",
    );
    tree.write(
        "crates/xtask/allowlists/allocs.allow",
        "crates/vizalgo/src/ok.rs :: scratch.push(x);\n",
    );
    let (code, stdout) = tree.lint();
    assert_eq!(code, 1);
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec![
            "crates/xtask/allowlists/allocs.allow:1: [allowlist] stale entry \
             `crates/vizalgo/src/ok.rs :: scratch.push(x);` matches no flagged site; remove it",
            "crates/xtask/allowlists/panics.allow:2: [allowlist] stale entry \
             `crates/vizalgo/src/removed.rs :: .unwrap()` matches no flagged site; remove it",
        ]
    );
}

#[test]
fn binary_rejects_a_root_that_is_not_a_workspace() {
    let missing = std::env::temp_dir().join(format!("xtask-golden-missing-{}", std::process::id()));
    let _ = fs::remove_dir_all(&missing);
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(&missing)
        .output()
        .expect("run xtask binary");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("not a workspace root"),
        "stderr should explain the bad root:\n{stderr}"
    );
}
