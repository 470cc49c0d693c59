//! Golden tests for `cargo xtask lint`: the unit-safety good/bad
//! fixture pair, asserting the exact diagnostics, file:line anchors, and
//! exit codes.

mod common;

use std::fs;
use std::process::Command;

use common::{rendered, TempTree};

const UNITS_BAD: &str = include_str!("fixtures/units_bad.rs");
const UNITS_GOOD: &str = include_str!("fixtures/units_good.rs");

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
    tree.write("crates/core/src/study.rs", UNITS_BAD);
    tree.write("crates/powersim/src/units.rs", UNITS_BAD);
    let (code, stdout) = tree.lint();
    assert_eq!(code, 1, "violations must exit 1");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    assert_eq!(lines, rendered("crates/core/src/study.rs", UNITS_BAD));
}

#[test]
fn binary_exits_zero_on_a_clean_tree() {
    let tree = TempTree::new("good");
    tree.write("crates/core/src/study.rs", UNITS_GOOD);
    let (code, stdout) = tree.lint();
    assert_eq!(code, 0, "clean tree must exit 0; stdout:\n{stdout}");
    assert_eq!(stdout, "");
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
