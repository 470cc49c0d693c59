//! The data-parallel-primitives (DPP) execution backend.
//!
//! Bethel et al. (arXiv:2010.02361) show that re-expressing
//! visualization kernels over a small primitive vocabulary changes both
//! their runtime and their hardware-counter profile. This module is that
//! second backend for this reproduction: the vocabulary
//! ([`primitives`]), a shared DPP marching-cubes pipeline (`mc`), and
//! the primitive pipelines of four kernels — contour, threshold,
//! isovolume, and slice — selectable per-spec via [`Backend`] through
//! [`AlgorithmSpec::build_with`](crate::AlgorithmSpec::build_with).
//!
//! A DPP filter *is* the traditional filter's resolved parameter struct
//! ([`crate::Contour`], [`crate::Threshold`], [`crate::Isovolume`],
//! [`crate::ThreeSlice`]) behind the private `Dpp` wrapper: the files here
//! hold only each kernel's `dpp_execute` — the map / scan / compact /
//! sort pipeline and its trace records. The per-cell arithmetic
//! (marching-cubes case emission, the threshold keep predicate, the
//! isovolume side predicate, the hex-subdivision walk) lives with the
//! traditional filter and both pipelines call it.
//!
//! Conformance posture (details and the exactness table in docs/DPP.md):
//! contour, isovolume, and slice are **bit-identical** to the
//! traditional filters; threshold keeps the identical cell set and cell
//! payloads but numbers its welded points in grid order instead of
//! first-use order, so order-sensitive float checksums over its points
//! carry a documented tolerance.

pub(crate) mod mc;
pub mod primitives;

mod contour;
mod isovolume;
mod slice;
mod threshold;

pub use primitives::{DppTrace, PrimitiveCounters, PrimitiveOp, PrimitiveReport};

use crate::filter::{concat_surfaces, Algorithm, Filter, FilterOutput, Surface};
use vizmesh::DataSet;

/// How a filter's resolved parameters run through the primitive
/// pipeline; implemented next to each pipeline in this module.
pub(crate) trait DppExecute: Filter {
    fn dpp_execute(&self, input: &DataSet) -> FilterOutput;
}

/// The DPP formulation of `F`: the same resolved parameters, executed
/// by [`DppExecute::dpp_execute`] instead of [`Filter::execute`].
pub(crate) struct Dpp<F>(pub(crate) F);

impl<F: DppExecute> Filter for Dpp<F> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        self.0.dpp_execute(input)
    }
}

/// The surfaces of per-isovalue or per-plane tasks, joined in task
/// order, with the tasks' traces summed.
fn join_surfaces(field: &str, tasks: Vec<(DppTrace, Surface)>) -> FilterOutput {
    let mut trace = DppTrace::new();
    let surfaces = tasks.into_iter().map(|(task, surface)| {
        trace += task;
        surface
    });
    let ds = concat_surfaces(field, surfaces.collect());
    FilterOutput::data_with_primitives(ds, trace.kernel_reports(), trace.reports())
}

/// Which execution backend a spec is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// The fused-loop formulations the paper measured.
    Traditional,
    /// The data-parallel-primitives formulations in this module.
    Dpp,
}

impl Backend {
    /// Both backends, traditional first (the default/baseline).
    pub const ALL: [Backend; 2] = [Backend::Traditional, Backend::Dpp];

    /// Wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Traditional => "traditional",
            Backend::Dpp => "dpp",
        }
    }

    /// Parse a CLI-style name (case-insensitive, with aliases).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "traditional" | "trad" | "baseline" => Some(Backend::Traditional),
            "dpp" | "primitives" | "data-parallel" => Some(Backend::Dpp),
            _ => None,
        }
    }

    /// Whether this backend has a formulation of `alg`. Traditional
    /// covers all eight; DPP covers the four geometry-extraction kernels
    /// built on the flag/scan/compact + sort/reduce machinery.
    pub fn supports(self, alg: Algorithm) -> bool {
        match self {
            Backend::Traditional => true,
            Backend::Dpp => matches!(
                alg,
                Algorithm::Contour | Algorithm::Threshold | Algorithm::Isovolume | Algorithm::Slice
            ),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The algorithms the DPP backend formulates, in registry order.
pub fn dpp_algorithms() -> impl Iterator<Item = Algorithm> {
    Algorithm::ALL
        .into_iter()
        .filter(|&a| Backend::Dpp.supports(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("TRAD"), Some(Backend::Traditional));
        assert_eq!(Backend::parse("primitives"), Some(Backend::Dpp));
        assert_eq!(Backend::parse("gpu"), None);
    }

    #[test]
    fn dpp_supports_exactly_four_kernels() {
        assert_eq!(dpp_algorithms().count(), 4);
        assert!(Backend::Dpp.supports(Algorithm::Contour));
        assert!(!Backend::Dpp.supports(Algorithm::RayTracing));
        for a in Algorithm::ALL {
            assert!(Backend::Traditional.supports(a));
        }
    }
}
