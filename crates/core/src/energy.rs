//! Energy analysis — the other side of the §V-A tradeoff.
//!
//! The paper frames capping as "users can make a tradeoff between running
//! their algorithm Tratio times slower and using Pratio less power". This
//! module quantifies what that means in energy terms. A cap above an
//! algorithm's natural draw changes nothing (`eratio = 1`): the benefit
//! of capping a power-opportunity algorithm is the *headroom freed for
//! other applications*, not joules saved on the algorithm itself. Once
//! the cap bites, static power burning over the stretched runtime makes
//! energy-to-solution rise — mildly for data-bound algorithms, and
//! painfully in energy-delay terms for the compute-bound ones.

use crate::study::CapSweep;
use powersim::Watts;

/// Energy metrics of one cap relative to the default-power run.
#[derive(Debug, Clone, Copy)]
pub struct EnergyRow {
    pub cap_watts: Watts,
    /// `E_R / E_D`: below 1 means the cap saves energy.
    pub eratio: f64,
    /// Energy-delay product `E·T`, normalized to the default run.
    pub edp_ratio: f64,
}

/// Per-cap energy metrics for a sweep. An empty sweep has no baseline
/// to normalize against and yields no rows.
pub fn energy_rows(sweep: &CapSweep) -> Vec<EnergyRow> {
    let Some(base) = sweep.baseline() else {
        return Vec::new();
    };
    assert!(base.energy_joules > 0.0 && base.seconds > 0.0);
    let base_edp = base.energy_joules.value() * base.seconds;
    sweep
        .rows
        .iter()
        .map(|r| EnergyRow {
            cap_watts: r.cap_watts,
            eratio: r.energy_joules / base.energy_joules,
            edp_ratio: r.energy_joules.value() * r.seconds / base_edp,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{StudyConfig, StudyContext, PAPER_CAPS};
    use vizalgo::Algorithm;

    fn ctx() -> StudyContext {
        StudyContext::new(StudyConfig {
            caps: PAPER_CAPS.to_vec(),
            isovalues: 4,
            render_px: 16,
            cameras: 2,
            particles: 60,
            advect_steps: 80,
        })
    }

    #[test]
    fn energy_rows_are_normalized_to_default() {
        let mut ctx = ctx();
        let sweep = ctx.sweep(Algorithm::Threshold, 12);
        let rows = energy_rows(&sweep);
        assert_eq!(rows.len(), PAPER_CAPS.len());
        assert!((rows[0].eratio - 1.0).abs() < 1e-12);
        assert!((rows[0].edp_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn caps_above_the_natural_draw_leave_energy_unchanged() {
        // Threshold draws ~50 W; every cap at or above 60 W neither slows
        // it nor lowers its power, so the energy is bitwise identical —
        // the freed headroom is the whole benefit (paper §VI-A).
        let mut ctx = ctx();
        let sweep = ctx.sweep(Algorithm::Threshold, 12);
        let rows = energy_rows(&sweep);
        for r in &rows {
            if r.cap_watts >= 60.0 {
                assert!(
                    (r.eratio - 1.0).abs() < 0.02,
                    "{} W eratio {}",
                    r.cap_watts,
                    r.eratio
                );
            }
        }
        // Severe caps cost energy: static power over a longer runtime.
        let best = rows.iter().map(|r| r.eratio).fold(f64::INFINITY, f64::min);
        assert!((1.0 - best).abs() < 0.05, "best energy ratio {best}");
    }

    #[test]
    fn sensitive_algorithms_save_less_energy_and_lose_edp() {
        let mut ctx = ctx();
        let adv = ctx.sweep(Algorithm::ParticleAdvection, 12);
        let thr = ctx.sweep(Algorithm::Threshold, 12);
        let adv_rows = energy_rows(&adv);
        let thr_rows = energy_rows(&thr);
        let last = adv_rows.last().unwrap();
        // Advection's EDP degrades badly at 40 W (paper: 2.6x slower).
        assert!(
            last.edp_ratio > 1.3,
            "advection EDP ratio {}",
            last.edp_ratio
        );
        // Threshold keeps its EDP near or below par at the same cap.
        let thr_last = thr_rows.last().unwrap();
        assert!(
            thr_last.edp_ratio < last.edp_ratio,
            "threshold {} !< advection {}",
            thr_last.edp_ratio,
            last.edp_ratio
        );
    }
}
