//! # vizpower-bench — reproduction harness
//!
//! The `reproduce` binary regenerates **every table and figure** of the
//! paper (`reproduce all`, or one of `table1 table2 table3 fig2a fig2b
//! fig2c fig3 fig4 fig5 fig6`), printing the same rows/series the paper
//! reports; `--quick` shrinks sizes for a fast smoke run. Everything it
//! prints is modeled and deterministic. Wall-clock measurement is a
//! separate program: `benchmarks/run.sh` (see `docs/PERFORMANCE.md`).
//!
//! The library part hosts the harness configuration the binaries share.

use vizalgo::Backend;
use vizpower::study::{StudyConfig, PAPER_SIZES};

/// Ring-buffer capacity (events) used when `reproduce` enables the run
/// journal: large enough for `reproduce all` at paper fidelity, small
/// enough (~100 MB worst case) to stay harmless on a laptop. Drops are
/// counted and reported, never silent.
pub const JOURNAL_CAPACITY: usize = 1 << 20;

/// Sizes used by the reproduction at each fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Paper-faithful sizes: 32³–256³ cells, 128² images × 50 cameras.
    Paper,
    /// Scaled-down smoke run (about 100× cheaper, same structure).
    Quick,
}

impl Fidelity {
    pub fn sizes(self) -> Vec<usize> {
        match self {
            Fidelity::Paper => PAPER_SIZES.to_vec(),
            Fidelity::Quick => vec![8, 12, 16, 24],
        }
    }

    /// The size playing the role of the paper's 128³ (Tables I–II).
    pub fn table2_size(self) -> usize {
        match self {
            Fidelity::Paper => 128,
            Fidelity::Quick => 16,
        }
    }

    /// The size playing the role of the paper's 256³ (Table III).
    pub fn table3_size(self) -> usize {
        match self {
            Fidelity::Paper => 256,
            Fidelity::Quick => 24,
        }
    }

    pub fn study_config(self) -> StudyConfig {
        match self {
            Fidelity::Paper => StudyConfig::paper(),
            Fidelity::Quick => StudyConfig::quick(),
        }
    }
}

/// Error type for the workspace's CLI mains. `Debug` renders like
/// `Display`, so `fn main() -> Result<(), CliError>` exits nonzero with
/// just the message instead of the quoted `Debug` dump.
pub struct CliError(String);

impl CliError {
    pub fn new(msg: impl Into<String>) -> CliError {
        CliError(msg.into())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::fmt::Debug for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError(msg.to_string())
    }
}

/// Parse a `--backend` argument into the backend list to run. Accepts
/// every [`Backend::parse`] alias plus `both`/`all`; anything else is an
/// actionable error naming the accepted values.
pub fn parse_backends(s: &str) -> Result<Vec<Backend>, CliError> {
    if s.eq_ignore_ascii_case("both") || s.eq_ignore_ascii_case("all") {
        return Ok(Backend::ALL.to_vec());
    }
    match Backend::parse(s) {
        Some(b) => Ok(vec![b]),
        None => Err(CliError::new(format!(
            "unknown backend '{s}': expected 'traditional', 'dpp', or 'both'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fidelity_matches_study_constants() {
        assert_eq!(Fidelity::Paper.sizes(), vec![32, 64, 128, 256]);
        assert_eq!(Fidelity::Paper.table2_size(), 128);
        assert_eq!(Fidelity::Paper.table3_size(), 256);
        assert_eq!(Fidelity::Paper.study_config().cameras, 50);
        assert_eq!(Fidelity::Paper.study_config().isovalues, 10);
    }

    #[test]
    fn quick_fidelity_preserves_structure() {
        let q = Fidelity::Quick;
        assert_eq!(q.sizes().len(), 4);
        assert!(q.table3_size() > q.table2_size());
        assert_eq!(q.study_config().caps.len(), 9);
    }

    #[test]
    fn parse_backends_accepts_aliases_and_both() {
        assert_eq!(parse_backends("dpp").unwrap(), vec![Backend::Dpp]);
        assert_eq!(
            parse_backends("traditional").unwrap(),
            vec![Backend::Traditional]
        );
        assert_eq!(parse_backends("BOTH").unwrap(), Backend::ALL.to_vec());
        let err = parse_backends("gpu").unwrap_err().to_string();
        assert!(err.contains("unknown backend 'gpu'"), "{err}");
        assert!(err.contains("'traditional', 'dpp', or 'both'"), "{err}");
    }
}
