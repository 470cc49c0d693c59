//! `xtask` — workspace automation for the vizpower reproduction.
//!
//! The library half hosts the one repo-specific policy behind
//! `cargo xtask lint` that neither the compiler, clippy nor a test can
//! express, unit-safety, reading a lexical source model ([`lex`]) and
//! reporting [`Diagnostic`]s, plus the size metric behind
//! `cargo xtask count`. The crate stays dependency-free (it must compile
//! before anything else does). See DESIGN.md "Static analysis &
//! correctness policy" for the rationale.

pub mod count;
pub mod diag;
pub mod lex;
mod lints;

use std::io;
use std::path::Path;

use diag::Diagnostic;
use lex::SourceFile;

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
    let rels = lex::workspace_sources(root)?;
    let mut diagnostics = Vec::new();
    for rel in &rels {
        lints::unit_safety(&SourceFile::load(root, rel)?, &mut diagnostics);
    }
    diag::sort(&mut diagnostics);
    Ok(Report {
        diagnostics,
        files_scanned: rels.len(),
    })
}

/// Lint a single source text under a virtual workspace-relative path.
/// This is the fixture-test entry point.
pub fn lint_source(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lints::unit_safety(&SourceFile::parse(rel_path, text), &mut out);
    diag::sort(&mut out);
    out
}
