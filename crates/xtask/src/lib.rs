//! `xtask` — workspace automation for the vizpower reproduction.
//!
//! The library half hosts the static analyzer behind `cargo xtask lint`:
//! the three repo-specific policies neither the compiler, clippy nor a
//! test can express (panic-policy, unit-safety, hot-loop-alloc), all
//! reading one lexical source model ([`lex`]), reporting one
//! [`Diagnostic`] type and suppressed only through the `allow` lists,
//! plus the size metric behind `cargo xtask count`.
//! The crate stays dependency-free (it must compile before anything
//! else does). See DESIGN.md "Static analysis & correctness policy" for
//! the rationale of each lint.

mod allow;
pub mod count;
pub mod diag;
pub mod lex;
mod lints;
mod policy;

use std::io;
use std::path::Path;

use allow::{Allowlist, ALLOCS_ALLOW, PANICS_ALLOW};
use diag::Diagnostic;
use lex::SourceFile;
use policy::{is_lib_code_of, ALLOC_EXEMPT_FILES, HOT_PATH_CRATES, UNIT_EXEMPT_FILES};

/// Result of a full workspace lint.
#[derive(Debug)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lint every library source file under `root` (the workspace root).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "not a workspace root (no Cargo.toml)",
        ));
    }
    let mut panics = Allowlist::load(root, PANICS_ALLOW);
    let mut allocs = Allowlist::load(root, ALLOCS_ALLOW);
    let rels = lex::workspace_sources(root)?;
    let mut diagnostics = Vec::new();
    for rel in &rels {
        let file = SourceFile::load(root, rel)?;
        lint_file(&file, &mut panics, &mut allocs, &mut diagnostics);
    }
    panics.report_stale(&mut diagnostics);
    allocs.report_stale(&mut diagnostics);
    diag::sort(&mut diagnostics);
    Ok(Report {
        diagnostics,
        files_scanned: rels.len(),
    })
}

/// Run every applicable pass over one cleaned file.
fn lint_file(
    file: &SourceFile,
    panics: &mut Allowlist,
    allocs: &mut Allowlist,
    out: &mut Vec<Diagnostic>,
) {
    let path = file.rel_path.as_str();
    if is_lib_code_of(path, HOT_PATH_CRATES) {
        lints::panic_policy(file, panics, out);
        if !ALLOC_EXEMPT_FILES.contains(&path) {
            lints::hot_loop_alloc(file, allocs, out);
        }
    }
    if !UNIT_EXEMPT_FILES.contains(&path) {
        lints::unit_safety(file, out);
    }
}

/// Lint a single source text under a virtual workspace-relative path,
/// with empty allowlists. This is the fixture-test entry point.
pub fn lint_source(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, text);
    let mut out = Vec::new();
    lint_file(
        &file,
        &mut Allowlist::default(),
        &mut Allowlist::default(),
        &mut out,
    );
    diag::sort(&mut out);
    out
}
