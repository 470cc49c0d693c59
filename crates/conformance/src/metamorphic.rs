//! Metamorphic checks: cross-kernel laws that hold without any ground
//! truth.
//!
//! * **clip-complement** — the spherical clip keeps the outside of the
//!   ball, the `f ≤ r` isovolume of the distance field keeps the inside;
//!   both discretize the same piecewise-linear boundary, so their
//!   volumes must tile the unit cube.
//! * **interior-threshold** — an all-points threshold over a point field
//!   keeps exactly the cells the isovolume passes through whole.
//! * **isovalue-monotone** — larger isovalues of the distance field give
//!   strictly larger contour spheres.
//! * **refinement-order** — the contour area error against `4πr²` must
//!   shrink at second order as the grid refines.

use crate::fields::{self, CENTER, FIELD};
use crate::{
    count_shape, surface_area, CheckKind, CheckResult, Checks, ConformanceConfig, Group, ISO_HI,
    ISO_LO, SPHERE_R,
};
use std::f64::consts::PI;
use vizalgo::{Algorithm, AlgorithmSpec, IsoValues, ScalarBand, SphereSpec};
use vizmesh::{validate_cells, CellShape, DataSet};

/// All metamorphic check groups for one configuration, one check each.
pub(crate) fn groups(cfg: &ConformanceConfig) -> Vec<Group> {
    let n = cfg.grids.last().copied().unwrap_or(32);
    let at = |algorithm, grid| Checks {
        algorithm,
        kind: CheckKind::Metamorphic,
        grid,
    };
    let group = |c: CheckResult| Group::traditional(c.algorithm, c.grid as usize, vec![c]);
    vec![
        group(clip_complement(at(Algorithm::SphericalClip, n))),
        group(interior_threshold(at(Algorithm::Isovolume, n))),
        group(isovalue_monotone(at(Algorithm::Contour, n))),
        group(refinement_order(
            cfg,
            at(Algorithm::Contour, cfg.refinement[2]),
        )),
    ]
}

/// Total volume of an unstructured output (0 when there is none).
fn volume_of(out: &vizalgo::FilterOutput) -> Option<f64> {
    let ds = out.dataset.as_ref()?;
    let (points, cells) = ds.as_explicit()?;
    Some(validate_cells(points, cells, 0.0).total_volume)
}

/// vol(clip ∖ ball) + vol(ball) = 1: the clip on the constant-energy
/// cube plus the `f ∈ [−1, r]` isovolume of the distance field.
fn clip_complement(c: Checks) -> CheckResult {
    let check = "clip-complement";
    let clip_in = fields::energy_dataset(c.grid);
    let outside = AlgorithmSpec::SphericalClip {
        field: "energy".into(),
        sphere: SphereSpec::Explicit {
            center: CENTER,
            radius: SPHERE_R,
        },
    }
    .build(&clip_in)
    .execute(&clip_in);
    let ball_in = fields::sphere_dataset(c.grid);
    let inside = AlgorithmSpec::Isovolume {
        field: FIELD.into(),
        band: ScalarBand::Range {
            min: -1.0,
            max: SPHERE_R,
        },
    }
    .build(&ball_in)
    .execute(&ball_in);
    let (Some(v_out), Some(v_in)) = (volume_of(&outside), volume_of(&inside)) else {
        return c.failed(check);
    };
    c.check(check, v_out + v_in, 1.0, 1e-9)
}

/// All-points threshold of the point ramp keeps exactly the isovolume's
/// whole (hexahedral) cells.
fn interior_threshold(c: Checks) -> CheckResult {
    let check = "interior-threshold";
    let input = fields::xramp_dataset(c.grid);
    let band = ScalarBand::Range {
        min: ISO_LO,
        max: ISO_HI,
    };
    let thresh = AlgorithmSpec::Threshold {
        field: FIELD.into(),
        band: band.clone(),
    }
    .build(&input)
    .execute(&input);
    let iso = AlgorithmSpec::Isovolume {
        field: FIELD.into(),
        band,
    }
    .build(&input)
    .execute(&input);
    let count = |out: &vizalgo::FilterOutput| {
        out.dataset
            .as_ref()
            .and_then(DataSet::as_explicit)
            .map(|(_, cells)| count_shape(cells, CellShape::Hexahedron))
    };
    let (Some(a), Some(b)) = (count(&thresh), count(&iso)) else {
        return c.failed(check);
    };
    c.check(check, a as f64, b as f64, 0.0)
}

/// Contour area of the distance field at one isovalue.
fn sphere_area(n: usize, iso: f64) -> Option<f64> {
    let input = fields::sphere_dataset(n);
    let out = AlgorithmSpec::Contour {
        field: FIELD.into(),
        isovalues: IsoValues::Explicit(vec![iso]),
    }
    .build(&input)
    .execute(&input);
    let ds = out.dataset?;
    let (points, cells) = ds.as_explicit()?;
    Some(surface_area(points, cells))
}

/// Areas at isovalues 0.1 < 0.2 < 0.3 < 0.4 must strictly increase.
fn isovalue_monotone(c: Checks) -> CheckResult {
    let check = "isovalue-monotone";
    let mut areas = Vec::with_capacity(4);
    for iso in [0.1, 0.2, 0.3, 0.4] {
        match sphere_area(c.grid, iso) {
            Some(a) => areas.push(a),
            None => return c.failed(check),
        }
    }
    let violations = areas.windows(2).filter(|w| w[1] <= w[0]).count();
    c.check(check, violations as f64, 0.0, 0.0)
}

/// Observed convergence order of the contour area error across the three
/// refinement grids: `log(e_coarse/e_fine) / log(n_fine/n_coarse)`,
/// which must sit near 2 (chordal approximation of a curved surface).
fn refinement_order(cfg: &ConformanceConfig, c: Checks) -> CheckResult {
    let check = "refinement-order";
    let exact = 4.0 * PI * SPHERE_R * SPHERE_R;
    let [n0, _, n2] = cfg.refinement;
    let (Some(a0), Some(a2)) = (sphere_area(n0, SPHERE_R), sphere_area(n2, SPHERE_R)) else {
        return c.failed(check);
    };
    let (e0, e2) = ((a0 - exact).abs(), (a2 - exact).abs());
    let order = if e0 > 0.0 && e2 > 0.0 {
        (e0 / e2).ln() / (n2 as f64 / n0 as f64).ln()
    } else {
        f64::NAN
    };
    c.check(check, order, 2.15, 0.45)
}
