//! Golden tests for `cargo xtask lint`: one good/bad fixture pair per
//! lint, asserting the exact diagnostics, file:line anchors, and exit
//! codes, plus the allowlist/justification round trip.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use xtask::{lint_source, Options};

const PANIC_BAD: &str = include_str!("fixtures/panic_bad.rs");
const PANIC_GOOD: &str = include_str!("fixtures/panic_good.rs");
const UNITS_BAD: &str = include_str!("fixtures/units_bad.rs");
const UNITS_GOOD: &str = include_str!("fixtures/units_good.rs");
const SCHEMA_TRACE: &str = include_str!("fixtures/schema_trace.rs");
const REGISTRY_BAD: &str = include_str!("fixtures/registry_bad.rs");
const REGISTRY_GOOD: &str = include_str!("fixtures/registry_good.rs");
const REGISTRY_STRINGS: &str = include_str!("fixtures/registry_strings.rs");

fn rendered(rel_path: &str, text: &str, strict: bool) -> Vec<String> {
    lint_source(rel_path, text, &Options { strict })
        .iter()
        .map(|d| d.to_string())
        .collect()
}

const PANIC_HELP: &str = "return Result/Option, or justify with `// lint: infallible \
                          because ...` and register the site in crates/xtask/allowlists/panics.allow";

#[test]
fn panic_policy_bad_fixture_flags_each_site() {
    let diags = rendered("crates/vizalgo/src/fixture.rs", PANIC_BAD, false);
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
        rendered("crates/vizalgo/src/fixture.rs", PANIC_GOOD, false),
        Vec::<String>::new()
    );
}

#[test]
fn panic_policy_ignores_non_hot_path_crates() {
    assert_eq!(
        rendered("crates/insitu/src/fixture.rs", PANIC_BAD, false),
        Vec::<String>::new()
    );
}

#[test]
fn strict_mode_flags_indexing_without_justification() {
    let text = "pub fn first(xs: &[f64]) -> f64 {\n    xs[0]\n}\n";
    let diags = rendered("crates/vizalgo/src/fixture.rs", text, true);
    assert_eq!(
        diags,
        vec![
            "crates/vizalgo/src/fixture.rs:2: [panic-policy] indexing can panic in hot-path \
             library code (strict mode); prefer `get`/iterators or add a `// lint: \
             infallible because ...` note"
                .to_string(),
        ]
    );
    // The same site is accepted with an inline justification, and strict
    // mode is opt-in: the default pass does not flag indexing.
    let justified =
        "pub fn first(xs: &[f64]) -> f64 {\n    xs[0] // lint: infallible because callers check\n}\n";
    assert_eq!(
        rendered("crates/vizalgo/src/fixture.rs", justified, true),
        Vec::<String>::new()
    );
    assert_eq!(
        rendered("crates/vizalgo/src/fixture.rs", text, false),
        Vec::<String>::new()
    );
}

const UNIT_HELP: &str = "convert explicitly through the `Watts`/`Joules` newtypes \
                         (vizpower::energy)";

#[test]
fn unit_safety_bad_fixture_flags_mixed_units_and_raw_f64() {
    let diags = rendered("crates/core/src/study.rs", UNITS_BAD, false);
    let raw = |family: &str, ty: &str| -> String {
        format!(
            "raw `f64` carries a {family} quantity across the power API boundary; use \
                 the `{ty}` newtype from powersim::units"
        )
    };
    assert_eq!(
        diags,
        vec![
            format!(
                "crates/core/src/study.rs:4: [unit-safety] {}",
                raw("watts", "Watts")
            ),
            format!(
                "crates/core/src/study.rs:8: [unit-safety] {}",
                raw("watts", "Watts")
            ),
            format!(
                "crates/core/src/study.rs:12: [unit-safety] {}",
                raw("joules", "Joules")
            ),
            format!(
                "crates/core/src/study.rs:13: [unit-safety] mixed-unit arithmetic: \
                 `energy_joules + seconds` combines joules with seconds; {UNIT_HELP}"
            ),
            format!(
                "crates/core/src/study.rs:16: [unit-safety] {}",
                raw("watts", "Watts")
            ),
            format!(
                "crates/core/src/study.rs:17: [unit-safety] mixed-unit arithmetic: \
                 `cap_watts < freq_ghz` combines watts with hertz; {UNIT_HELP}"
            ),
        ]
    );
}

#[test]
fn unit_safety_good_fixture_is_clean() {
    assert_eq!(
        rendered("crates/core/src/study.rs", UNITS_GOOD, false),
        Vec::<String>::new()
    );
}

#[test]
fn unit_safety_raw_f64_rule_only_applies_to_boundary_files() {
    // Outside the boundary list only the mixed-arithmetic rule applies.
    let diags = rendered("crates/insitu/src/fixture.rs", UNITS_BAD, false);
    assert_eq!(
        diags,
        vec![
            format!(
                "crates/insitu/src/fixture.rs:13: [unit-safety] mixed-unit arithmetic: \
                 `energy_joules + seconds` combines joules with seconds; {UNIT_HELP}"
            ),
            format!(
                "crates/insitu/src/fixture.rs:17: [unit-safety] mixed-unit arithmetic: \
                 `cap_watts < freq_ghz` combines watts with hertz; {UNIT_HELP}"
            ),
        ]
    );
}

fn registry_msg(display: &str) -> String {
    format!(
        "direct `{display}` construction bypasses the algorithm registry; build the \
         filter from an `AlgorithmSpec` (vizalgo::spec) so the run carries a canonical, \
         fingerprintable parameterization"
    )
}

#[test]
fn registry_dispatch_bad_fixture_flags_each_construction() {
    let diags = rendered("crates/core/src/fixture.rs", REGISTRY_BAD, false);
    assert_eq!(
        diags,
        vec![
            format!(
                "crates/core/src/fixture.rs:4: [registry-dispatch] {}",
                registry_msg("Contour::spanning")
            ),
            format!(
                "crates/core/src/fixture.rs:8: [registry-dispatch] {}",
                registry_msg("Threshold::upper_fraction")
            ),
            format!(
                "crates/core/src/fixture.rs:12: [registry-dispatch] {}",
                registry_msg("RayTracer::new")
            ),
        ]
    );
}

#[test]
fn registry_dispatch_good_fixture_is_clean() {
    assert_eq!(
        rendered("crates/core/src/fixture.rs", REGISTRY_GOOD, false),
        Vec::<String>::new()
    );
}

#[test]
fn registry_dispatch_ignores_constructors_in_strings_and_doc_comments() {
    // Constructor tokens inside string literals (cooked, raw, raw byte)
    // and doc/line comments are text, not construction sites.
    assert_eq!(
        rendered("crates/core/src/fixture.rs", REGISTRY_STRINGS, false),
        Vec::<String>::new()
    );
}

#[test]
fn registry_dispatch_exempts_the_registry_crate_and_reference_impls() {
    assert_eq!(
        rendered("crates/vizalgo/src/fixture.rs", REGISTRY_BAD, false),
        Vec::<String>::new()
    );
    assert_eq!(
        rendered("crates/conformance/src/reference.rs", REGISTRY_BAD, false),
        Vec::<String>::new()
    );
}

const SCHEMA_DOC_GOOD: &str = "\
# Observability\n\
\n\
<!-- xtask:schema-table:begin -->\n\
| Variant | Kind |\n\
| --- | --- |\n\
| `Counter` | kind |\n\
| `CapChange` | kind |\n\
| `Study` | scope |\n\
| `Kernel` | scope |\n\
<!-- xtask:schema-table:end -->\n";

const SCHEMA_DOC_BAD: &str = "\
# Observability\n\
\n\
<!-- xtask:schema-table:begin -->\n\
| Variant | Kind |\n\
| --- | --- |\n\
| `Counter` | kind |\n\
| `Study` | scope |\n\
| `Timestep` | scope |\n\
| `Kernel` | scope |\n\
<!-- xtask:schema-table:end -->\n";

fn rendered_schema(doc: &str) -> Vec<String> {
    xtask::lint_schema_source(SCHEMA_TRACE, doc)
        .iter()
        .map(|d| d.to_string())
        .collect()
}

#[test]
fn schema_docs_complete_table_is_clean() {
    assert_eq!(rendered_schema(SCHEMA_DOC_GOOD), Vec::<String>::new());
}

#[test]
fn schema_docs_flags_undocumented_variant_and_stale_row() {
    assert_eq!(
        rendered_schema(SCHEMA_DOC_BAD),
        vec![
            "crates/powersim/src/trace.rs:9: [schema-docs] public event variant \
             `Kind::CapChange` is not documented in the docs/OBSERVABILITY.md schema table; \
             add a row between the markers"
                .to_string(),
            "docs/OBSERVABILITY.md:8: [schema-docs] stale schema row `Timestep` matches no \
             public variant of Kind/Scope in crates/powersim/src/trace.rs; remove it"
                .to_string(),
        ]
    );
}

#[test]
fn schema_docs_requires_table_markers() {
    assert_eq!(
        rendered_schema("# Observability\n\n| `Counter` | kind |\n"),
        vec![
            "docs/OBSERVABILITY.md:1: [schema-docs] missing `<!-- xtask:schema-table:begin -->`\
             /`<!-- xtask:schema-table:end -->` markers around the event schema table"
                .to_string(),
        ]
    );
}

// ---------------------------------------------------------------------------
// End-to-end: the real binary against a temporary workspace tree.
// ---------------------------------------------------------------------------

struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(case: &str) -> TempTree {
        let root = std::env::temp_dir().join(format!("xtask-golden-{}-{case}", std::process::id()));
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

    fn lint(&self) -> (i32, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", "--root"])
            .arg(&self.root)
            .output()
            .expect("run xtask binary");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
        )
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn relocate(diags: Vec<String>, from: &str, to: &str) -> Vec<String> {
    diags.into_iter().map(|d| d.replace(from, to)).collect()
}

#[test]
fn binary_exits_nonzero_with_exact_diagnostics_on_violations() {
    let tree = TempTree::new("bad");
    tree.write("crates/vizalgo/src/bad.rs", PANIC_BAD);
    tree.write("crates/core/src/study.rs", UNITS_BAD);
    let (code, stdout) = tree.lint();
    assert_eq!(code, 1, "violations must exit 1");

    let mut expected = Vec::new();
    expected.extend(rendered("crates/core/src/study.rs", UNITS_BAD, false));
    expected.extend(relocate(
        rendered("crates/vizalgo/src/fixture.rs", PANIC_BAD, false),
        "crates/vizalgo/src/fixture.rs",
        "crates/vizalgo/src/bad.rs",
    ));
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
    let diags = rendered("crates/vizalgo/src/fixture.rs", text, false);
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
    let (code, stdout) = tree.lint();
    assert_eq!(code, 1);
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec![
            "crates/xtask/allowlists/panics.allow:2: [allowlist] stale entry \
             `crates/vizalgo/src/removed.rs :: .unwrap()` matches no flagged site; remove it",
        ]
    );
}

#[test]
fn binary_checks_the_schema_table_when_the_trace_source_exists() {
    // With the trace source present and the doc complete, the tree is
    // clean; delete the doc and the schema-docs pass fires.
    let tree = TempTree::new("schema");
    tree.write("crates/powersim/src/trace.rs", SCHEMA_TRACE);
    tree.write("docs/OBSERVABILITY.md", SCHEMA_DOC_GOOD);
    let (code, stdout) = tree.lint();
    assert_eq!(code, 0, "documented schema must pass; stdout:\n{stdout}");

    let missing = TempTree::new("schema-missing-doc");
    missing.write("crates/powersim/src/trace.rs", SCHEMA_TRACE);
    let (code, stdout) = missing.lint();
    assert_eq!(code, 1, "missing doc must fail");
    assert!(
        stdout.contains("[schema-docs] missing"),
        "stdout should report the missing markers:\n{stdout}"
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
