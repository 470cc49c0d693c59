//! # cloverleaf — hydrodynamics proxy application
//!
//! A from-scratch, 3-D, explicit, compressible Eulerian hydrodynamics
//! proxy in the spirit of the CloverLeaf mini-app the paper couples with
//! its visualization pipelines. It solves the compressible Euler
//! equations for an ideal gas on a staggered uniform grid:
//!
//! * **cell-centered**: density `ρ`, specific internal energy `e`,
//!   pressure `p` (from the ideal-gas EOS), artificial viscosity `q`;
//! * **node-centered**: velocity `u`.
//!
//! Each step performs the classic staggered-grid sequence:
//! EOS → artificial viscosity → nodal acceleration → PdV internal-energy
//! update → conservative donor-cell advection of mass and energy →
//! CFL time-step control. The standard problem is CloverLeaf's two-state
//! "small energy source in a cold box" configuration, which drives a
//! shock/energy front through the domain — the field rendered in Fig. 1
//! of the paper at time step 200.
//!
//! The solver is instrumented: every kernel tallies a
//! [`vizmesh::WorkCounters`] so the in situ power experiments can model
//! the *simulation's* power draw alongside the visualization's.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod driver;
mod eos;
pub mod kernels;
mod problems;
mod rows;
mod state;

pub use driver::{SimConfig, Simulation, StepReport};
pub use problems::Problem;
pub use state::State;
