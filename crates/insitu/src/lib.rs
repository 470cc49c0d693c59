//! # insitu — the tightly-coupled simulation/visualization runtime
//!
//! An Ascent-flavoured in situ framework: JSON-describable **actions**
//! declare pipelines (chains of visualization filters) and scenes
//! (renderers producing image databases); the **runtime** alternates the
//! CloverLeaf proxy simulation with the declared visualization on the
//! same resources — the paper's "tightly coupled" configuration (§IV-A).
//!
//! The runtime records, per visualization cycle, the instrumented work of
//! both the simulation step batch and every visualization kernel. The
//! `vizpower` crate turns those records into the power/performance
//! experiments; the examples render the image databases.

mod actions;
mod runtime;
mod scene;
mod trigger;

pub use actions::{Action, ActionList};
pub use runtime::{CoupledRun, CycleRecord, InSituRuntime, RuntimeConfig};
pub use scene::Scene;
pub use trigger::Trigger;
