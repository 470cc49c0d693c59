//! Diagnostics: what a lint pass reports and how it renders.

use std::fmt;

/// Name of the lint pass, used in diagnostic output and golden tests.
pub const UNIT_SAFETY: &str = "unit-safety";

/// One finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rel_path: String,
    pub line: usize,
    pub lint: &'static str,
    pub message: String,
}

impl Diagnostic {
    pub fn new(rel_path: &str, line: usize, lint: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            rel_path: rel_path.to_string(),
            line,
            lint,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel_path, self.line, self.lint, self.message
        )
    }
}

/// Order diagnostics for stable output: by path, then line, then lint.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.rel_path.as_str(), a.line, a.lint).cmp(&(b.rel_path.as_str(), b.line, b.lint))
    });
}
