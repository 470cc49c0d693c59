//! Build the coupled workload pair the governor runs: CloverLeaf on one
//! package, its in-situ visualization on the other.
//!
//! The pair comes from an instrumented [`insitu::InSituRuntime`] run —
//! the simulation side characterized from the per-hydro-kernel phase
//! breakdown ([`insitu::CycleRecord::sim_phases`]), the visualization
//! side from the per-kernel viz reports — then scaled up to study-length
//! durations so the 100 ms control loop sees enough windows to act on.
//! Scaling multiplies each phase's *counts* (instructions, LLC refs,
//! DRAM bytes) by a common integer, which preserves every per-phase
//! ratio (CPI, activity, miss rate) the classifier keys on.

use cloverleaf::Problem;
use insitu::{Action, ActionList, InSituRuntime, RuntimeConfig, Trigger};
#[cfg(test)]
use powersim::KernelPhase;
use powersim::{CpuSpec, Workload};
use vizalgo::{AlgorithmSpec, IsoValues, KernelReport};
use vizpower::advisor::predict_seconds;
use vizpower::characterize::characterize;

/// Uncapped duration the simulation side is scaled to (seconds).
pub(crate) const TARGET_SIM_SECONDS: f64 = 6.0;

/// Uncapped duration the visualization side is scaled to (seconds). The
/// viz finishing first is the paper's concurrent-pair shape and is what
/// gives a closed-loop policy its retirement-reassignment win.
pub(crate) const TARGET_VIZ_SECONDS: f64 = 2.4;

/// The two characterized workloads the governor splits a budget across.
#[derive(Debug, Clone)]
pub struct WorkloadPair {
    /// The CloverLeaf hydro simulation (compute-bound, power-hungry).
    pub sim: Workload,
    /// The in-situ visualization (mostly data-bound).
    pub viz: Workload,
}

impl WorkloadPair {
    /// A hand-built pair for unit tests: a compute-bound simulation and
    /// a memory-bound visualization with the same target durations as
    /// the real pair, but no simulation run behind it.
    #[cfg(test)]
    pub(crate) fn synthetic_for_tests() -> WorkloadPair {
        // ~6 s of compute at TDP (2.6 GHz × 18 cores × IPC 2.5 ≈ 117 G
        // instructions/s) and ~2.4 s of DRAM-bound streaming (160 GB at
        // the 68 GB/s sustained bandwidth; core time is ~1 s, so the
        // roofline takes the memory side).
        let sim = Workload::new("synthetic-sim")
            .with_phase(KernelPhase::compute("hydro-a", 350_000_000_000))
            .with_phase(KernelPhase::compute("hydro-b", 350_000_000_000));
        let viz = Workload::new("synthetic-viz").with_phase(KernelPhase::memory(
            "contour",
            60_000_000_000,
            160_000_000_000,
        ));
        WorkloadPair { sim, viz }
    }
}

/// Multiply every phase's event counts by `k`, stretching duration
/// without changing any rate or ratio.
fn scale_counts(workload: &mut Workload, k: u64) {
    for phase in &mut workload.phases {
        phase.instructions *= k;
        phase.llc_refs *= k;
        phase.dram_bytes *= k;
    }
}

/// Smallest integer count multiplier bringing `workload` to at least
/// `target_seconds` uncapped.
fn scale_to_target(workload: &mut Workload, target_seconds: f64, spec: &CpuSpec) {
    let base = predict_seconds(workload, spec.tdp_watts, spec);
    if base <= 0.0 {
        return;
    }
    let k = (target_seconds / base).ceil().max(1.0) as u64;
    scale_counts(workload, k);
}

/// Characterize the coupled CloverLeaf + visualization pair on an
/// `grid_cells`³ grid and scale both sides to study length.
///
/// The instrumentation run is a short tightly-coupled loop (9 steps,
/// visualizing every 3rd) with the paper's contour pipeline and a
/// volume-rendering scene; its counters are deterministic, so the
/// resulting pair — and every journal downstream of it — is too.
pub fn coupled_pair(grid_cells: usize, spec: &CpuSpec) -> WorkloadPair {
    let config = RuntimeConfig {
        grid_cells,
        total_steps: 9,
        trigger: Trigger::EveryN { n: 3 },
    };
    let actions = ActionList(vec![
        Action::AddPipeline {
            name: "contour".into(),
            filters: vec![AlgorithmSpec::Contour {
                field: "energy".into(),
                isovalues: IsoValues::Spanning(3),
            }],
        },
        Action::AddScene {
            name: "volren".into(),
            renderer: AlgorithmSpec::VolumeRendering {
                field: "energy".into(),
                width: 16,
                height: 16,
                images: 2,
            },
        },
    ]);
    let mut rt = InSituRuntime::new(Problem::TwoState, config, actions);
    let run = rt.run();

    let sim_reports: Vec<KernelReport> = run
        .cycles
        .iter()
        .flat_map(|c| c.sim_phases.iter().cloned())
        .collect();
    let viz_reports: Vec<KernelReport> = run
        .cycles
        .iter()
        .flat_map(|c| c.viz_kernels.iter().cloned())
        .collect();

    let mut sim = characterize("cloverleaf", &sim_reports, spec);
    let mut viz = characterize("insitu-viz", &viz_reports, spec);
    scale_to_target(&mut sim, TARGET_SIM_SECONDS, spec);
    scale_to_target(&mut viz, TARGET_VIZ_SECONDS, spec);
    WorkloadPair { sim, viz }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CpuSpec {
        CpuSpec::broadwell_e5_2695v4()
    }

    fn tdp_seconds(workload: &Workload) -> f64 {
        predict_seconds(workload, spec().tdp_watts, &spec())
    }

    #[test]
    fn coupled_pair_hits_its_targets() {
        let pair = coupled_pair(8, &spec());
        assert!(!pair.sim.is_empty());
        assert!(!pair.viz.is_empty());
        let ts = tdp_seconds(&pair.sim);
        let tv = tdp_seconds(&pair.viz);
        // Integer scaling overshoots by at most one base run.
        assert!(
            (TARGET_SIM_SECONDS..TARGET_SIM_SECONDS * 2.2).contains(&ts),
            "sim uncapped {ts} s"
        );
        assert!(
            (TARGET_VIZ_SECONDS..TARGET_VIZ_SECONDS * 2.2).contains(&tv),
            "viz uncapped {tv} s"
        );
        assert!(tv < ts, "viz should retire first ({tv} !< {ts})");
    }

    #[test]
    fn coupled_pair_phases_are_valid_and_deterministic() {
        let a = coupled_pair(8, &spec());
        let b = coupled_pair(8, &spec());
        assert!(a.sim.phases.iter().all(|p| p.is_valid()));
        assert!(a.viz.phases.iter().all(|p| p.is_valid()));
        assert_eq!(a.sim.total_instructions(), b.sim.total_instructions());
        assert_eq!(a.viz.total_instructions(), b.viz.total_instructions());
        assert_eq!(a.sim.phases.len(), b.sim.phases.len());
    }

    #[test]
    fn scaling_preserves_ratios() {
        let mut w = Workload::new("w").with_phase(KernelPhase::memory("m", 1_000, 64_000));
        let miss = w.phases[0].llc_miss_rate;
        let refs_per_inst = w.phases[0].llc_refs as f64 / w.phases[0].instructions as f64;
        scale_counts(&mut w, 7);
        assert_eq!(w.phases[0].instructions, 7_000);
        assert_eq!(w.phases[0].llc_miss_rate, miss);
        let refs_per_inst_after = w.phases[0].llc_refs as f64 / w.phases[0].instructions as f64;
        assert!((refs_per_inst - refs_per_inst_after).abs() < 1e-12);
    }

    #[test]
    fn synthetic_pair_matches_the_real_shape() {
        let pair = WorkloadPair::synthetic_for_tests();
        let ts = tdp_seconds(&pair.sim);
        let tv = tdp_seconds(&pair.viz);
        assert!(tv < ts, "viz retires first ({tv} !< {ts})");
        assert!(ts > 1.0, "sim long enough for many control windows");
    }
}
