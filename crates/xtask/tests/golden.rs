//! Golden tests for `cargo xtask lint`: the unit-safety good/bad
//! fixture pair, asserting the exact diagnostics, file:line anchors, and
//! exit codes; and for `cargo xtask count`: the exact table of a tree
//! whose files hold the scanner's hard cases.

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
    let (code, stdout, _) = tree.run("lint");
    assert_eq!(code, 1, "violations must exit 1");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    assert_eq!(lines, rendered("crates/core/src/study.rs", UNITS_BAD));
}

#[test]
fn binary_exits_zero_on_a_clean_tree() {
    let tree = TempTree::new("good");
    tree.write("crates/core/src/study.rs", UNITS_GOOD);
    let (code, stdout, _) = tree.run("lint");
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

#[test]
fn count_rejects_a_root_that_is_not_a_workspace() {
    let tree = TempTree::new("no-manifest");
    fs::remove_file(tree.root.join("Cargo.toml")).expect("remove manifest");
    tree.write("crates/core/src/lib.rs", "pub fn f() {}\n");
    let (code, stdout, stderr) = tree.run("count");
    assert_eq!(code, 2, "stdout:\n{stdout}");
    assert_eq!(stdout, "");
    assert!(
        stderr.contains("not a workspace root"),
        "stderr should explain the bad root:\n{stderr}"
    );
}

/// A mid-file `#[cfg(test)]` fn inside an `impl`, `'"'` and `'\''`, a `//`
/// inside a string, and a string with an escaped quote spanning lines.
const COUNT_ALPHA: &str = r#"//! Alpha.

pub struct Store;

impl Store {
    pub fn get(&self) -> u8 {
        1
    }

    #[cfg(test)]
    pub fn peek(&self) -> u8 {
        2 // }
    }

    pub fn put(&self) {}
}

pub const QUOTE: char = '"';
pub const TICK: char = '\'';
pub const URL: &str = "http://example.com/{";
pub const TWO: &str = "first \" quote
pub fn inside_a_string() {}
pub fn still_inside() {}";
pub fn last() {}
"#;

/// A raw string in a test module that holds a `}` at column 0.
const COUNT_BETA: &str = r##"pub fn beta() {}

#[cfg(test)]
mod tests {
    const RAW: &str = r#"
"
}
pub fn inside_a_raw_string() {}
"#;

    pub fn helper() {}
}
pub(crate) fn hidden() {}
"##;

#[test]
fn count_prints_the_exact_table() {
    let tree = TempTree::new("count");
    tree.write("crates/alpha/src/lib.rs", COUNT_ALPHA);
    tree.write("crates/beta/src/lib.rs", COUNT_BETA);
    tree.write("crates/beta/tests/t.rs", "pub fn not_counted() {}\n");
    let (code, stdout, _) = tree.run("count");
    assert_eq!(code, 0);
    let row = |package: &str, lines: usize, pub_items: usize| {
        format!("{package:<14} {lines:>14} {pub_items:>10}\n")
    };
    let table = [
        "package        non-test lines  pub items\n".to_string(),
        row("alpha", 20, 8),
        row("beta", 3, 1),
        row("total", 23, 9),
    ];
    assert_eq!(stdout, table.concat());
}
