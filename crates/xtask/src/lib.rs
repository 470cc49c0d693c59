//! `xtask` — workspace automation for the vizpower reproduction.
//!
//! The library half hosts the one repo-specific policy behind
//! `cargo xtask lint` that neither the compiler, clippy nor a test can
//! express, unit-safety, reporting [`Diagnostic`]s, plus the size metric
//! behind `cargo xtask count`. Both read the same files through one line
//! scanner (`scan.rs`: each physical line cleaned of comments and literal
//! contents, and marked when it sits inside a `#[cfg(test)]` item). The
//! crate stays dependency-free (it must compile before anything else
//! does). See DESIGN.md "Static analysis & correctness policy" for the
//! rationale.

pub mod count;
pub mod diag;
mod lints;
mod scan;

use std::io;
use std::path::Path;

use diag::Diagnostic;
use scan::SourceFile;

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
    let rels = scan::sources(root)?;
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
