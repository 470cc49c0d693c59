//! Parity: registry-built filters reproduce the pre-refactor direct
//! constructions exactly. Each test inlines the construction code that
//! `vizpower::study::build_filter` / `conformance::build_filter` used
//! before the `AlgorithmSpec` registry existed, runs both filters on the
//! same input, and requires byte-identical Debug-formatted outputs —
//! geometry, fields, images, and instrumented work counters alike.
//!
//! The references resolve the paper's bands and sphere with their own
//! arithmetic, not through `ScalarBand` or `SphereSpec`, so the registry
//! is checked against an independent statement of the §IV
//! parameterization.
//!
//! ROADMAP tier-1 triage: any golden re-pin downstream of the registry
//! must be licensed by these tests staying green.

#![expect(
    clippy::disallowed_methods,
    reason = "the pre-registry constructions are what the registry is checked against"
)]

use conformance::{
    self, fields, ConformanceConfig, ISO_HI, ISO_LO, SPHERE_R, THRESH_HI, THRESH_LO,
};
use vizalgo::{
    Algorithm, Contour, Filter, Isovolume, ParticleAdvection, RayTracer, SphericalClip, ThreeSlice,
    Threshold, VolumeRenderer,
};
use vizmesh::{Association, DataSet, Field};
use vizpower::study::{dataset_for, StudyConfig};

fn study_config() -> StudyConfig {
    StudyConfig {
        caps: vec![],
        isovalues: 4,
        render_px: 12,
        cameras: 2,
        particles: 25,
        advect_steps: 30,
    }
}

/// `vizpower::study::build_filter` exactly as it read before the
/// registry refactor, with the band and sphere helpers it called
/// written out: the upper half of the energy range, the middle half of
/// the point-energy range, and a centered sphere of 0.3 diagonals.
fn pre_refactor_study_filter(
    config: &StudyConfig,
    algorithm: Algorithm,
    input: &DataSet,
) -> Box<dyn Filter> {
    let range = |field: Option<&Field>| field.and_then(Field::scalar_range).expect("energy range");
    match algorithm {
        Algorithm::Contour => Box::new(Contour::spanning("energy", input, config.isovalues)),
        Algorithm::Threshold => {
            let (lo, hi) = range(input.field("energy"));
            Box::new(Threshold::new("energy", hi - (hi - lo) * 0.5, hi))
        }
        Algorithm::SphericalClip => {
            let b = input.bounds();
            Box::new(SphericalClip::new(b.center(), b.diagonal() * 0.3))
        }
        Algorithm::Isovolume => {
            let (lo, hi) = range(input.field_with("energy", Association::Points));
            let (mid, half) = ((lo + hi) * 0.5, (hi - lo) * 0.5 * 0.5);
            Box::new(Isovolume::new("energy", mid - half, mid + half))
        }
        Algorithm::Slice => Box::new(ThreeSlice::centered(input, "energy")),
        Algorithm::ParticleAdvection => Box::new(ParticleAdvection::new(
            "velocity",
            config.particles,
            config.advect_steps,
            5e-4,
            0x5eed_1234,
        )),
        Algorithm::RayTracing => Box::new(RayTracer::new(
            "energy",
            config.render_px,
            config.render_px,
            config.cameras,
        )),
        Algorithm::VolumeRendering => Box::new(VolumeRenderer::new(
            "energy",
            config.render_px,
            config.render_px,
            config.cameras,
        )),
    }
}

/// `conformance::build_filter` exactly as it read before the registry
/// refactor.
fn pre_refactor_conformance_filter(
    alg: Algorithm,
    cfg: &ConformanceConfig,
    input: &DataSet,
) -> Box<dyn Filter> {
    let px = cfg.render_px;
    match alg {
        Algorithm::Contour => Box::new(Contour::new(fields::FIELD, vec![SPHERE_R])),
        Algorithm::Threshold => Box::new(Threshold::new(fields::FIELD, THRESH_LO, THRESH_HI)),
        Algorithm::SphericalClip => Box::new(SphericalClip::new(fields::CENTER, SPHERE_R)),
        Algorithm::Isovolume => Box::new(Isovolume::new(fields::FIELD, ISO_LO, ISO_HI)),
        Algorithm::Slice => Box::new(ThreeSlice::centered(input, fields::FIELD)),
        Algorithm::ParticleAdvection => Box::new(ParticleAdvection::new(
            fields::VELOCITY,
            cfg.particles,
            cfg.advect_steps,
            1e-3,
            0x00C0_FFEE,
        )),
        Algorithm::RayTracing => Box::new(RayTracer::new(fields::FIELD, px, px, cfg.cameras)),
        Algorithm::VolumeRendering => {
            Box::new(VolumeRenderer::new(fields::FIELD, px, px, cfg.cameras))
        }
    }
}

fn assert_outputs_identical(a: Box<dyn Filter>, b: Box<dyn Filter>, input: &DataSet, label: &str) {
    let old = a.execute(input);
    let new = b.execute(input);
    assert_eq!(
        format!("{old:?}"),
        format!("{new:?}"),
        "{label}: registry-built output diverges from the pre-refactor construction"
    );
}

#[test]
fn study_specs_match_pre_refactor_build_filter() {
    let config = study_config();
    let input = dataset_for(8);
    for algorithm in Algorithm::ALL {
        let old = pre_refactor_study_filter(&config, algorithm, &input);
        let new = config.spec(algorithm).build(&input);
        assert_outputs_identical(old, new, &input, &format!("study/{algorithm}"));
    }
}

#[test]
fn conformance_specs_match_pre_refactor_build_filter() {
    let cfg = ConformanceConfig::quick();
    let n = cfg.grids[0];
    for algorithm in Algorithm::ALL {
        let input = match algorithm {
            Algorithm::Contour | Algorithm::SphericalClip => fields::sphere_dataset(n),
            Algorithm::ParticleAdvection => fields::rotation_dataset(n),
            _ => fields::xramp_dataset(n),
        };
        let old = pre_refactor_conformance_filter(algorithm, &cfg, &input);
        let new = conformance::spec_for(algorithm, &cfg).build(&input);
        assert_outputs_identical(old, new, &input, &format!("conformance/{algorithm}"));
    }
}
