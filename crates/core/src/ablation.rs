//! Ablation studies of the model's design choices (DESIGN.md §5).
//!
//! Each ablation switches one mechanism off, re-runs a representative
//! sweep, and reports what breaks — demonstrating that every modelled
//! mechanism earns its place:
//!
//! * **traffic power** (`mem_power_watts = 0`): without it, the
//!   cell-centered algorithms never draw enough power to throttle before
//!   the very lowest caps and Table III loses its upward marker shift;
//! * **memory cushion** (`dram_bytes = 0`): every algorithm becomes
//!   compute-coupled and the power-opportunity class disappears —
//!   Tratio tracks Fratio exactly;
//! * **turbo headroom** (`turbo = base`): the uncapped frequency column
//!   of Fig. 2a flattens to the base clock and the knee structure moves.

use crate::characterize::characterize;
use crate::metrics::Ratios;
use crate::study::{self, AlgorithmRun};
use powersim::trace::Journal;
use powersim::{CpuSpec, Watts};

/// One mechanism that can be switched off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Zero the DRAM-traffic power term.
    NoTrafficPower,
    /// Zero all DRAM traffic, removing the memory-time cushion.
    NoMemoryCushion,
    /// Clamp turbo to the base clock.
    NoTurbo,
}

impl Ablation {
    pub const ALL: [Ablation; 3] = [
        Ablation::NoTrafficPower,
        Ablation::NoMemoryCushion,
        Ablation::NoTurbo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Ablation::NoTrafficPower => "no traffic power",
            Ablation::NoMemoryCushion => "no memory cushion",
            Ablation::NoTurbo => "no turbo",
        }
    }

    /// The modified package spec.
    pub(crate) fn spec(self) -> CpuSpec {
        let mut spec = CpuSpec::broadwell_e5_2695v4();
        match self {
            Ablation::NoTrafficPower => spec.mem_power_watts = Watts::ZERO,
            Ablation::NoMemoryCushion => {} // applied to the workload below
            Ablation::NoTurbo => spec.turbo_ghz = spec.base_ghz,
        }
        spec
    }
}

/// Result of one ablated sweep next to the reference.
#[derive(Debug, Clone)]
pub struct AblationResult {
    pub reference: Vec<Ratios>,
    pub ablated: Vec<Ratios>,
}

impl AblationResult {
    /// Largest absolute Tratio difference across caps.
    pub fn max_tratio_delta(&self) -> f64 {
        self.reference
            .iter()
            .zip(&self.ablated)
            .map(|(a, b)| (a.tratio - b.tratio).abs())
            .fold(0.0, f64::max)
    }
}

/// Run one ablation against a measured native run.
pub fn run_ablation(run: &AlgorithmRun, caps: &[Watts], ablation: Ablation) -> AblationResult {
    let reference_spec = CpuSpec::broadwell_e5_2695v4();
    let reference = study::sweep(run, caps, &reference_spec).ratios();

    let spec = ablation.spec();
    let ablated = if ablation == Ablation::NoMemoryCushion {
        // Rebuild the workload with memory traffic zeroed.
        let mut workload = characterize(run.algorithm.name(), &run.reports, &spec);
        for phase in &mut workload.phases {
            phase.dram_bytes = 0;
            phase.llc_miss_rate = 0.0;
        }
        let fp = run.spec.fingerprint();
        study::sweep_tagged(run, &workload, fp, caps, &spec, &mut Journal::off()).ratios()
    } else {
        study::sweep(run, caps, &spec).ratios()
    };

    AblationResult { reference, ablated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{StudyConfig, StudyContext, PAPER_CAPS};
    use std::sync::Arc;
    use vizalgo::Algorithm;

    fn contour_run() -> Arc<AlgorithmRun> {
        let config = StudyConfig {
            caps: PAPER_CAPS.to_vec(),
            isovalues: 4,
            render_px: 8,
            cameras: 1,
            particles: 10,
            advect_steps: 10,
        };
        StudyContext::new(config).run(Algorithm::Contour, 12)
    }

    #[test]
    fn no_memory_cushion_couples_time_to_frequency() {
        let run = contour_run();
        let result = run_ablation(&run, &PAPER_CAPS, Ablation::NoMemoryCushion);
        // Without the cushion, Tratio ≈ Fratio at the lowest cap.
        let last = result.ablated.last().unwrap();
        assert!(
            (last.tratio - last.fratio).abs() < 0.05,
            "T {} vs F {}",
            last.tratio,
            last.fratio
        );
        // With the cushion, the reference keeps T below F.
        let ref_last = result.reference.last().unwrap();
        assert!(ref_last.tratio <= ref_last.fratio + 1e-9);
    }

    #[test]
    fn no_turbo_removes_the_headroom() {
        let run = contour_run();
        let result = run_ablation(&run, &PAPER_CAPS, Ablation::NoTurbo);
        // Uncapped frequency is the base clock, so even the severest cap
        // has less room to cut: the 40 W Fratio shrinks.
        let f_ref = result.reference.last().unwrap().fratio;
        let f_abl = result.ablated.last().unwrap().fratio;
        assert!(f_abl < f_ref, "Fratio {f_ref} -> {f_abl}");
    }

    #[test]
    fn no_traffic_power_weakens_throttling() {
        let run = contour_run();
        let result = run_ablation(&run, &PAPER_CAPS, Ablation::NoTrafficPower);
        // Contour's 40 W slowdown relies partly on traffic power; without
        // it the slowdown cannot grow.
        let t_ref = result.reference.last().unwrap().tratio;
        let t_abl = result.ablated.last().unwrap().tratio;
        assert!(t_abl <= t_ref + 1e-9, "T {t_ref} -> {t_abl}");
        assert!(result.max_tratio_delta() >= 0.0);
    }

    #[test]
    fn every_ablation_runs() {
        let run = contour_run();
        for ab in Ablation::ALL {
            let r = run_ablation(&run, &[Watts(120.0), Watts(40.0)], ab);
            assert_eq!(r.reference.len(), 2);
            assert_eq!(r.ablated.len(), 2);
            assert!(!ab.name().is_empty());
        }
    }
}
