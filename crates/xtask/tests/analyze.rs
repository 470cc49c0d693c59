//! Goldens for the hot-loop-alloc pass of `cargo xtask lint`: the exact
//! findings of its fixture and the pass's path scoping.

mod common;

use common::{rendered, TempTree};

const HOT_LOOP: &str = include_str!("fixtures/hot_loop.rs");

const ALLOC_HELP: &str =
    "inside a loop body; hoist the allocation out of the hot loop, pre-size it \
     with `with_capacity`, or register the site in crates/xtask/allowlists/allocs.allow";
const PUSH_MSG: &str =
    "`.push` grows a collection inside a loop and the enclosing function never calls \
     `with_capacity`; reserve up front, or register the site in \
     crates/xtask/allowlists/allocs.allow";

#[test]
fn hot_loop_alloc_flags_allocations_ranked_by_token_depth() {
    // In line order; each site reports the loop depth of its own anchor
    // token (the collect on line 22 sits inside the double loop).
    let diags = rendered("crates/vizalgo/src/fixture.rs", HOT_LOOP);
    assert_eq!(
        diags,
        vec![
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
            format!(
                "crates/vizalgo/src/fixture.rs:22: [hot-loop-alloc] `.collect` allocates a \
                 fresh collection via collect {ALLOC_HELP} (in `nested`, loop depth 2)"
            ),
        ]
    );
}

#[test]
fn hot_loop_alloc_spares_presized_pushes_and_chain_top_collects() {
    // `presized` pushes under with_capacity; `outside_loops` collects a
    // single-statement adapter chain whose collect runs once; the test
    // module is exempt. None may fire: every finding names `flagged` or
    // `nested`.
    for d in rendered("crates/vizalgo/src/fixture.rs", HOT_LOOP) {
        assert!(
            d.contains("(in `flagged`, ") || d.contains("(in `nested`, "),
            "unexpected finding: {d}"
        );
    }
}

#[test]
fn analyze_passes_only_apply_to_hot_path_library_code() {
    // Outside HOT_PATH_CRATES, under src/bin/, and in the exempt JSON
    // codec the same content is not hot path.
    for rel in [
        "crates/insitu/src/fixture.rs",
        "crates/vizalgo/src/bin/tool.rs",
        "crates/vizmesh/src/json.rs",
    ] {
        assert_eq!(rendered(rel, HOT_LOOP), Vec::<String>::new(), "{rel}");
    }
}

#[test]
fn analyze_skips_non_hot_path_crates_and_binaries() {
    let tree = TempTree::new("scope");
    tree.write("crates/insitu/src/hot.rs", HOT_LOOP);
    tree.write("crates/vizalgo/src/bin/tool.rs", HOT_LOOP);
    let (code, stdout) = tree.lint();
    assert_eq!(code, 0);
    assert_eq!(stdout, "", "non-hot-path code must produce no findings");
}
