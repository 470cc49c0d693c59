//! # vizpower — the power/performance study
//!
//! This crate is the reproduction of the paper's contribution proper: the
//! methodology that takes the eight instrumented visualization algorithms
//! (`vizalgo`), runs them against CloverLeaf data (`cloverleaf`) on the
//! simulated RAPL-capped Broadwell package (`powersim`), and produces the
//! analyses of §V–§VII:
//!
//! * [`mod@characterize`] — the bridge from measured kernel work counts to
//!   processor workloads: per-kernel-class microarchitectural signatures
//!   (core CPI, power activity, cache locality) applied to real counts.
//! * [`study`] — the three experiment phases: Phase 1 (contour × 9 power
//!   caps), Phase 2 (8 algorithms × 9 caps), Phase 3 (× 4 data sizes),
//!   288 configurations in total.
//! * `metrics` — the derived ratios of §V-A (`Pratio`, `Tratio`,
//!   `Fratio`) and the first-10 %-slowdown rule of §VI.
//! * [`mod@classify`] — the paper's two algorithm classes: *power
//!   opportunity* vs *power sensitive*.
//! * `efficiency` — the Moreland–Oldfield elements-per-second rate used
//!   for Fig. 3.
//! * [`advisor`] — the motivating use case (§VII): split a node power
//!   budget between a simulation and a visualization workload to
//!   minimize time-to-solution.
//! * [`report`] — paper-style table and figure-series rendering.
//! * [`experiments`] — one entry point per table/figure of the paper.
//!
//! Extensions beyond the paper (its §VIII future work): [`energy`]
//! (energy/EDP view of the §V-A tradeoff), [`arch`] (the same study on
//! Skylake-SP-class and Xeon-D-class packages), [`ablation`]
//! (switching off model mechanisms to show each one earns its place),
//! and [`advect`] (the time-varying flow pipeline: a hydro snapshot
//! ring driving a pathline/streamline scenario sweep).
//!
//! Every layer can record into the run journal ([`powersim::trace`]):
//! enable it with [`study::StudyContext::enable_journal`] and serialize
//! with [`powersim::Journal::to_jsonl`] /
//! [`powersim::Journal::to_chrome_trace`].
//! The event schema is documented in `docs/OBSERVABILITY.md`.

pub mod ablation;
pub mod advect;
pub mod advisor;
pub mod arch;
pub mod characterize;
pub mod classify;
mod efficiency;
pub mod energy;
pub mod experiments;
mod metrics;
pub mod report;
pub mod store;
pub mod study;

pub use characterize::characterize;
pub use classify::{classify, PowerClass};
pub use metrics::{first_slowdown_cap, Ratios};
pub use store::DatasetStore;
pub use study::{AlgorithmRun, CapSweep, StudyConfig, PAPER_CAPS, PAPER_SIZES};
