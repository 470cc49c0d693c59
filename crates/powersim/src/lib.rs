//! # powersim — the simulated power-capped processor
//!
//! The paper measures its 288 configurations on a dual-socket Intel Xeon
//! E5-2695 v4 (Broadwell) node whose processors are power-capped through
//! Intel RAPL via LLNL's `msr-safe` driver, sampling energy and
//! performance counters every 100 ms. None of that hardware is available
//! here, so this crate implements the machine:
//!
//! * [`cpu`] — the package model: V/f curve, DVFS ladder, turbo, the
//!   analytic power model `P = P_uncore + P_leak(V) + Σcores c·V²f·α`,
//!   and the RAPL firmware's choice of the highest frequency whose
//!   predicted power fits under the cap (this is the mechanism that
//!   makes compute-bound workloads slow down under a cap while
//!   memory-bound ones don't).
//! * [`timing`] — a roofline-style execution-time model: core time
//!   scales with 1/f, memory time does not.
//! * `workload` — the input format: phases with measured instruction /
//!   flop / cache-traffic counts (produced by instrumenting the *real*
//!   algorithm executions in `vizalgo`).
//! * `counters` — APERF/MPERF, fixed and programmable counters as a
//!   plain `counters::CounterBank` the sampler differences directly,
//!   with the paper's derived metrics (§V-B).
//! * [`exec`] — the executor: advances virtual time through a workload
//!   under a cap, updating the energy counter and the counter bank, and
//!   the 100 ms sampler. Of the RAPL registers the paper reads through
//!   msr-safe, a `Package` keeps two plain fields: the programmed cap, a
//!   whole number of 1/8 W, and the 32-bit energy-status counter in
//!   2⁻¹⁴ J ticks, which wraps.
//! * [`trace`] — the run journal: `Span` intervals and `Record` points
//!   (counter samples, cap changes, ...) in a ring buffer, serialized to
//!   JSONL and chrome://tracing files (schema in `docs/OBSERVABILITY.md`).
//!
//! Everything is deterministic; the only "measurement" the rest of the
//! workspace performs is reading these simulated counters exactly the way
//! the paper reads the real ones.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod counters;
pub mod cpu;
pub mod exec;
pub mod timing;
pub mod trace;
pub mod units;
mod workload;

pub use cpu::CpuSpec;
pub use exec::{ExecResult, Package, RunState, Sample};
pub use trace::{Event, Journal, Kind, Record, Scope, Span, Value};
pub use units::{Joules, Watts};
pub use workload::{KernelPhase, Workload};
