//! `xtask` — workspace automation for the vizpower reproduction.
//!
//! The library half hosts the static analyzer behind `cargo xtask lint`:
//! repo-specific policies that clippy cannot express (panic-policy,
//! unit-safety, schema-docs, registry-dispatch),
//! built on a lexical scanner so the crate stays dependency-free (it must
//! compile before anything else does). See DESIGN.md "Static analysis &
//! correctness policy" for the rationale of each lint.

pub mod allow;
pub mod analyze;
pub mod count;
pub mod diag;
pub mod lex;
pub mod lints;
pub mod policy;
pub mod scan;

use std::io;
use std::path::Path;

use allow::{Allowlist, PANICS_ALLOW};
use diag::{Diagnostic, ALLOWLIST};
use policy::{
    is_lib_code_of, HOT_PATH_CRATES, OBSERVABILITY_DOC, REGISTRY_CRATE,
    REGISTRY_DISPATCH_EXEMPT_FILES, TRACE_SOURCE, UNIT_EXEMPT_FILES,
};
use scan::SourceFile;

/// Analyzer options.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Also run the strict panic-policy checks (indexing heuristics).
    pub strict: bool,
}

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
pub fn lint_workspace(root: &Path, opts: &Options) -> io::Result<Report> {
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "not a workspace root (no Cargo.toml)",
        ));
    }
    let panics_allow = Allowlist::load(root, PANICS_ALLOW);
    let mut panics_used = vec![false; panics_allow.entries.len()];

    let rels = scan::workspace_sources(root)?;
    let mut diagnostics = Vec::new();
    let mut files_scanned = 0;
    for rel in &rels {
        let file = SourceFile::load(root, rel)?;
        files_scanned += 1;
        lint_file(
            &file,
            &panics_allow,
            &mut panics_used,
            opts,
            &mut diagnostics,
        );
    }
    // Workspace-level pass: the journal event schema must stay documented.
    // Gated on the trace source existing so fixture trees without it
    // (and repos predating the journal) lint clean.
    if root.join(TRACE_SOURCE).is_file() {
        let trace = SourceFile::load(root, TRACE_SOURCE)?;
        let doc_text = std::fs::read_to_string(root.join(OBSERVABILITY_DOC)).unwrap_or_default();
        lints::schema_docs(&trace, &doc_text, &mut diagnostics);
    }
    report_stale(&panics_allow, &panics_used, &mut diagnostics);
    diag::sort(&mut diagnostics);
    Ok(Report {
        diagnostics,
        files_scanned,
    })
}

/// Run every applicable pass over one cleaned file. Exposed (with
/// [`lint_source`]) so the golden tests can drive fixtures directly.
pub fn lint_file(
    file: &SourceFile,
    panics_allow: &Allowlist,
    panics_used: &mut [bool],
    opts: &Options,
    out: &mut Vec<Diagnostic>,
) {
    if is_lib_code_of(&file.rel_path, HOT_PATH_CRATES) {
        lints::panic_policy(file, panics_allow, panics_used, opts.strict, out);
    }
    if !UNIT_EXEMPT_FILES.contains(&file.rel_path.as_str()) {
        lints::unit_safety(file, out);
    }
    if policy::crate_of(&file.rel_path) != Some(REGISTRY_CRATE)
        && !REGISTRY_DISPATCH_EXEMPT_FILES.contains(&file.rel_path.as_str())
    {
        lints::registry_dispatch(file, out);
    }
}

/// Lint a single source text under a virtual workspace-relative path,
/// with an empty allowlist. This is the fixture-test entry point.
pub fn lint_source(rel_path: &str, text: &str, opts: &Options) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, text);
    let mut out = Vec::new();
    lint_file(&file, &Allowlist::default(), &mut [], opts, &mut out);
    diag::sort(&mut out);
    out
}

/// Run only the schema-docs pass over in-memory trace source and doc
/// texts. This is the fixture-test entry point for that lint.
pub fn lint_schema_source(trace_text: &str, doc_text: &str) -> Vec<Diagnostic> {
    let trace = SourceFile::parse(TRACE_SOURCE, trace_text);
    let mut out = Vec::new();
    lints::schema_docs(&trace, doc_text, &mut out);
    diag::sort(&mut out);
    out
}

fn report_stale(list: &Allowlist, used: &[bool], out: &mut Vec<Diagnostic>) {
    for entry in list.stale(used) {
        out.push(Diagnostic::new(
            &list.source,
            entry.list_line,
            ALLOWLIST,
            format!(
                "stale entry `{} :: {}` matches no flagged site; remove it",
                entry.rel_path, entry.needle
            ),
        ));
    }
}
