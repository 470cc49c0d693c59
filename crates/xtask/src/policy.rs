//! The repo-specific policy: which files each lint watches.

/// Crates whose library code sits on the measurement hot path. The
/// panic-policy and hot-loop-alloc lints only apply here.
/// `conformance` is included so the correctness checks themselves report
/// setup failures as failed checks instead of panicking mid-suite.
/// `vizmesh` joined when the time-varying `FieldSeries` ring put mesh
/// code inside the per-step recording loop. The DPP backend
/// (`crates/vizalgo/src/dpp/`) is covered automatically: it is library
/// code of `vizalgo`.
pub(crate) const HOT_PATH_CRATES: &[&str] = &[
    "vizmesh",
    "vizalgo",
    "cloverleaf",
    "powersim",
    "governor",
    "conformance",
];

/// Files exempt from the unit-safety lint: the newtype definitions
/// themselves, whose internals are raw `f64` by construction.
pub(crate) const UNIT_EXEMPT_FILES: &[&str] = &["crates/powersim/src/units.rs"];

/// Library files of a hot-path crate that hot-loop-alloc skips: the JSON
/// document codec parses and renders an action list once per run, so its
/// push loops are not measurement hot path (panic-policy still applies —
/// it reads input from outside the program).
pub(crate) const ALLOC_EXEMPT_FILES: &[&str] = &["crates/vizmesh/src/json.rs"];

/// Returns the crate name (directory under `crates/`) for a
/// workspace-relative path, or `None` for the root package.
pub(crate) fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// True when the path is library code of one of `crates` — under `src/`
/// but not under `src/bin/` (binaries are user-facing entry points, held
/// to the CLI error-handling policy instead).
pub(crate) fn is_lib_code_of(rel_path: &str, crates: &[&str]) -> bool {
    let Some(name) = crate_of(rel_path) else {
        return false;
    };
    crates.contains(&name) && rel_path.contains("/src/") && !rel_path.contains("/src/bin/")
}
