//! # governor — the closed-loop online power governor
//!
//! The paper's motivating use case (§VII) asks for "a runtime system
//! that assigns power between a simulation and visualization application
//! running concurrently under a power budget". `vizpower::advisor` does
//! this *offline*, from pre-characterized workloads; this crate closes
//! the loop *online*: it runs the pair on two simulated RAPL-capped
//! packages, observes each 100 ms counter sample (IPC, LLC miss ratio,
//! power from the energy MSR), classifies the current phase with the
//! thresholds of [`mod@vizpower::classify`], and reassigns the per-package
//! caps between windows — never letting the caps of active packages
//! exceed the node budget.
//!
//! * `policy` — the [`Policy`] trait and its implementations:
//!   [`Uniform`] (naïve half/half), [`StaticAdvisor`] (the offline plan,
//!   applied once), [`Reactive`] (a hysteresis hill-climb stealing
//!   headroom from power-opportunity phases), and `Oracle` (holds the
//!   split the study's exhaustive search found).
//! * `pair` — builds the governed workload pair by instrumenting a
//!   tightly-coupled CloverLeaf + visualization run.
//! * `control` — the control loop itself: [`govern`] steps two
//!   resumable executions window by window, journaling every
//!   `policy_decision` and `cap_change` record.
//! * `study` — the `reproduce governor [--quick]` study: every
//!   policy at node budgets from 80 W to 240 W, plus an oracle found by
//!   exhaustive search over `vizpower::advisor::splits`. Its rows are
//!   the governed runs themselves ([`GovernorResult`]); [`render_table`]
//!   derives the table's columns from them.
//!
//! Everything downstream of a characterized pair is deterministic:
//! identical inputs produce byte-identical journals regardless of thread
//! count or wall-clock (see `docs/GOVERNOR.md`).

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod control;
mod pair;
mod policy;
mod study;

pub use control::{govern, GovernorResult};
pub use pair::{coupled_pair, WorkloadPair};
pub use policy::{CapSplit, Observation, Policy, Reactive, SideObs, StaticAdvisor, Uniform};
pub use study::{budget_sweep, budgets, render_table, sweep_pair, BudgetSweep};
