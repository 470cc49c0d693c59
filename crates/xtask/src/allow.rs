//! Allowlist handling: the one suppression mechanism of `xtask lint`.
//!
//! One entry per line,
//!
//! ```text
//! <workspace-relative-path> :: <verbatim substring of the allowed line>
//! ```
//!
//! `#`-prefixed lines are comments — use them to justify each entry.
//! Entries are checked for staleness: an entry that matches no flagged
//! site in the current tree is itself reported, so the lists can only
//! shrink as the code improves.

use std::fs;
use std::path::Path;

use crate::diag::{Diagnostic, ALLOWLIST};

/// Registered panic sites (panic-policy).
pub(crate) const PANICS_ALLOW: &str = "crates/xtask/allowlists/panics.allow";

/// Accepted in-loop allocations (hot-loop-alloc).
pub(crate) const ALLOCS_ALLOW: &str = "crates/xtask/allowlists/allocs.allow";

/// The inline justification a panic-policy allowlist site must carry.
pub(crate) const INFALLIBLE_MARKER: &str = "lint: infallible because";

#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// Line number inside the allowlist file, for staleness diagnostics.
    pub list_line: usize,
    pub rel_path: String,
    pub needle: String,
    /// Set once the entry has covered a flagged site.
    pub used: bool,
}

#[derive(Debug, Default)]
pub(crate) struct Allowlist {
    /// Workspace-relative path of the list file itself.
    pub source: String,
    pub entries: Vec<Entry>,
}

impl Allowlist {
    /// Load a list, tolerating a missing file (empty list).
    pub(crate) fn load(root: &Path, source: &str) -> Allowlist {
        let text = fs::read_to_string(root.join(source)).unwrap_or_default();
        Allowlist::parse(source, &text)
    }

    pub(crate) fn parse(source: &str, text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((path, needle)) = line.split_once(" :: ") {
                entries.push(Entry {
                    list_line: i + 1,
                    rel_path: path.trim().to_string(),
                    needle: needle.to_string(),
                    used: false,
                });
            }
        }
        Allowlist {
            source: source.to_string(),
            entries,
        }
    }

    /// Does any entry cover `(rel_path, raw_line)`? Marks those used.
    pub(crate) fn covers(&mut self, rel_path: &str, raw_line: &str) -> bool {
        let mut hit = false;
        for e in &mut self.entries {
            if e.rel_path == rel_path && raw_line.contains(&e.needle) {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Report every entry that covered nothing: stale, and a violation.
    pub(crate) fn report_stale(&self, out: &mut Vec<Diagnostic>) {
        for e in self.entries.iter().filter(|e| !e.used) {
            out.push(Diagnostic::new(
                &self.source,
                e.list_line,
                ALLOWLIST,
                format!(
                    "stale entry `{} :: {}` matches no flagged site; remove it",
                    e.rel_path, e.needle
                ),
            ));
        }
    }
}
