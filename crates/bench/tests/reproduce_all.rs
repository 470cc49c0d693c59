//! The paper's whole output, pinned: `reproduce all` (Tables I–III,
//! Figs 2–6 and the energy, architecture and ablation extensions at
//! paper fidelity) must print `reproduce_output.txt` byte for byte.
//!
//! A difference is a change in a modeled table or figure. Regenerate the
//! file only for a change that means to move one:
//! `cargo run --release --bin reproduce -- all > reproduce_output.txt`.

use std::process::Command;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper fidelity takes minutes unoptimized; runs under `cargo test --release`"
)]
fn reproduce_all_prints_the_committed_output() {
    let pinned = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reproduce_output.txt");
    let expected = std::fs::read_to_string(pinned).expect("reproduce_output.txt is committed");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("all")
        .output()
        .expect("reproduce runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let mut lines = got.lines().zip(expected.lines()).enumerate();
    if let Some((i, (a, b))) = lines.find(|(_, (a, b))| a != b) {
        panic!("line {}: printed {a:?}, pinned {b:?}", i + 1);
    }
    assert_eq!(got, expected, "same lines, different length or ending");
}
