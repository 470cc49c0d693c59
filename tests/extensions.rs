//! Integration tests for the beyond-the-paper extensions: the ninth
//! algorithm, the cross-architecture study, the energy view, and the
//! model ablations.

use powersim::trace::Journal;
use powersim::{CpuSpec, Package};
use vizalgo::{Algorithm, Filter, Gradient};
use vizpower::characterize::characterize;
use vizpower::study::{dataset_for, CapSweep, StudyConfig, StudyContext, PAPER_CAPS};
use vizpower::{ablation, arch, classify, energy, PowerClass};

fn study_config() -> StudyConfig {
    StudyConfig {
        caps: PAPER_CAPS.to_vec(),
        isovalues: 4,
        render_px: 24,
        cameras: 3,
        particles: 150,
        advect_steps: 150,
    }
}

#[test]
fn gradient_classifies_as_power_opportunity() {
    let data = dataset_for(16);
    let out = Gradient::new("energy").execute(&data);
    let spec = CpuSpec::broadwell_e5_2695v4();
    let workload = characterize("gradient", &out.kernels, &spec);
    let rows = PAPER_CAPS
        .iter()
        .map(|&cap| Package::new(spec.clone()).run_capped(&workload, cap, &mut Journal::off()))
        .collect();
    let sweep = CapSweep {
        algorithm: Algorithm::Slice,
        size: 16,
        input_cells: data.num_cells(),
        rows,
    };
    assert_eq!(classify(&sweep.ratios()), PowerClass::PowerOpportunity);
    // Its stencil really computed something: output field exists.
    let result = out.dataset.unwrap();
    assert!(result.point_scalars("energy_gradmag").is_some());
}

#[test]
fn arch_study_keeps_the_class_split() {
    let mut ctx = StudyContext::new(study_config());
    let adv = ctx.run(Algorithm::ParticleAdvection, 12);
    let thr = ctx.run(Algorithm::Threshold, 12);
    for row in arch::compare_architectures(&adv) {
        assert_eq!(row.class, PowerClass::PowerSensitive, "{}", row.arch);
    }
    let broadwell_thr = &arch::compare_architectures(&thr)[0];
    assert_eq!(broadwell_thr.class, PowerClass::PowerOpportunity);
}

#[test]
fn ablations_change_the_expected_quantities() {
    let run = StudyContext::new(study_config()).run(Algorithm::Contour, 12);
    // No memory cushion → T couples to F at the floor.
    let r = ablation::run_ablation(&run, &PAPER_CAPS, ablation::Ablation::NoMemoryCushion);
    let last = r.ablated.last().unwrap();
    assert!((last.tratio - last.fratio).abs() < 0.05);
    // No turbo → less frequency headroom to lose.
    let r = ablation::run_ablation(&run, &PAPER_CAPS, ablation::Ablation::NoTurbo);
    assert!(r.ablated.last().unwrap().fratio <= r.reference.last().unwrap().fratio);
}

#[test]
fn energy_view_is_consistent_with_ratios() {
    let run = StudyContext::new(study_config()).run(Algorithm::ParticleAdvection, 12);
    let sweep = vizpower::study::sweep(&run, &PAPER_CAPS, &CpuSpec::broadwell_e5_2695v4());
    let rows = energy::energy_rows(&sweep);
    let ratios = sweep.ratios();
    for (e, r) in rows.iter().zip(&ratios) {
        // EDP ratio = eratio × tratio by definition.
        assert!(
            (e.edp_ratio - e.eratio * r.tratio).abs() < 1e-9,
            "EDP identity broken at {} W",
            e.cap_watts
        );
    }
}
