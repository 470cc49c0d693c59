//! Allowlist handling.
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

/// Workspace-relative location of the list.
pub const PANICS_ALLOW: &str = "crates/xtask/allowlists/panics.allow";

/// The inline justification a panic-policy allowlist site must carry.
pub const INFALLIBLE_MARKER: &str = "lint: infallible because";

#[derive(Debug, Clone)]
pub struct Entry {
    /// Line number inside the allowlist file, for staleness diagnostics.
    pub list_line: usize,
    pub rel_path: String,
    pub needle: String,
}

#[derive(Debug, Default)]
pub struct Allowlist {
    /// Workspace-relative path of the list file itself.
    pub source: String,
    pub entries: Vec<Entry>,
}

impl Allowlist {
    /// Load a list, tolerating a missing file (empty list).
    pub fn load(root: &Path, source: &str) -> Allowlist {
        let text = fs::read_to_string(root.join(source)).unwrap_or_default();
        Allowlist::parse(source, &text)
    }

    pub fn parse(source: &str, text: &str) -> Allowlist {
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
                });
            }
        }
        Allowlist {
            source: source.to_string(),
            entries,
        }
    }

    /// Does any entry cover `(rel_path, raw_line)`? Marks the entry used.
    pub fn covers(&self, used: &mut [bool], rel_path: &str, raw_line: &str) -> bool {
        let mut hit = false;
        for (i, e) in self.entries.iter().enumerate() {
            if e.rel_path == rel_path && raw_line.contains(&e.needle) {
                used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Entries never marked used — stale, and reported as violations.
    pub fn stale<'a>(&'a self, used: &[bool]) -> Vec<&'a Entry> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .map(|(_, e)| e)
            .collect()
    }
}
