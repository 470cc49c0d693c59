//! Closed-form oracle checks: each kernel runs on an analytic field and
//! its output is compared against the exact answer.
//!
//! Tolerances follow the discretization theory (docs/CONFORMANCE.md):
//! piecewise-linear interpolation of a curved surface converges at
//! second order, so curved-geometry checks carry an `O(1/n²)` tolerance;
//! everything linear (slabs, planes, counts, rigid rotations) is exact
//! up to `f64` rounding and carries a tiny or zero tolerance.

use crate::fields::CENTER;
use crate::{
    count_shape, surface_area, CheckKind, CheckResult, Checks, ConformanceConfig, ISO_HI, ISO_LO,
    SPHERE_R, STEP_FRACTION, THRESH_HI, THRESH_LO,
};
use std::f64::consts::PI;
use vizalgo::{Algorithm, FilterOutput};
use vizmesh::{validate_cells, validate_surface, Camera, CellShape, DataSet, UniformGrid, Vec3};

/// Oracle checks for `alg` at grid `n` over the output `out` of its
/// canonical filter ([`crate::spec_for`], built and run on `input`).
pub(crate) fn checks(
    alg: Algorithm,
    cfg: &ConformanceConfig,
    n: usize,
    input: &DataSet,
    out: &FilterOutput,
) -> Vec<CheckResult> {
    let c = Checks {
        algorithm: alg,
        kind: CheckKind::Oracle,
        grid: n,
    };
    match alg {
        Algorithm::Contour => contour(c, out),
        Algorithm::Threshold => threshold(c, out),
        Algorithm::SphericalClip => clip(c, out),
        Algorithm::Isovolume => isovolume(c, out),
        Algorithm::Slice => slice(c, input, out),
        Algorithm::ParticleAdvection => advection(c, input, out),
        Algorithm::RayTracing => raytrace(cfg, c, input, out),
        Algorithm::VolumeRendering => volren(cfg, c, input, out),
    }
}

fn mesh_of(out: &FilterOutput) -> Option<(&[Vec3], &vizmesh::CellSet)> {
    out.dataset.as_ref().and_then(DataSet::as_explicit)
}

/// Contoured sphere: area `4πr²`, watertight, consistently oriented,
/// genus 0.
fn contour(c: Checks, out: &FilterOutput) -> Vec<CheckResult> {
    let Some((points, cells)) = mesh_of(out) else {
        return vec![c.failed("sphere-area")];
    };
    let rep = validate_surface(points, cells, 0.0);
    let area = surface_area(points, cells);
    let exact = 4.0 * PI * SPHERE_R * SPHERE_R;
    // Marching cubes approximates the sphere by chords: second-order
    // convergent, so the relative error budget shrinks as 1/n².
    let area_tol = exact * 8.0 / (c.grid * c.grid) as f64;
    let genus = match rep.genus() {
        Some(g) => g as f64,
        None => f64::NAN,
    };
    let open_edges = rep.boundary_edges + rep.nonmanifold_edges;
    vec![
        c.check("sphere-area", area, exact, area_tol),
        c.check("sphere-watertight", open_edges as f64, 0.0, 0.0),
        c.check(
            "sphere-orientation",
            rep.orientation_conflicts as f64,
            0.0,
            0.0,
        ),
        c.check("sphere-genus", genus, 0.0, 0.0),
    ]
}

/// Thresholded cell ramp: the kept-cell and welded-point counts are
/// exactly countable (dyadic band bounds on power-of-two grids).
fn threshold(c: Checks, out: &FilterOutput) -> Vec<CheckResult> {
    let Some(ds) = out.dataset.as_ref() else {
        return vec![c.failed("kept-cells")];
    };
    let Some((_, cells)) = ds.as_explicit() else {
        return vec![c.failed("kept-cells")];
    };
    let n = c.grid;
    let nn = n as f64;
    let kept_cols = (0..n)
        .filter(|&i| {
            let x = (i as f64 + 0.5) / nn;
            (THRESH_LO..=THRESH_HI).contains(&x)
        })
        .count();
    let expected_cells = (kept_cols * n * n) as f64;
    // Kept columns are contiguous, so the welded points form
    // `kept_cols + 1` planes of `(n+1)²` points each.
    let expected_points = ((kept_cols + 1) * (n + 1) * (n + 1)) as f64;
    let kept = count_shape(cells, CellShape::Hexahedron);
    vec![
        c.check("kept-cells", kept as f64, expected_cells, 0.0),
        c.check(
            "welded-points",
            ds.num_points() as f64,
            expected_points,
            0.0,
        ),
    ]
}

/// Spherical clip: kept volume `1 − 4/3·πr³`, and no output point inside
/// the sphere (beyond the chord-sagitta depth of the linear cut).
fn clip(c: Checks, out: &FilterOutput) -> Vec<CheckResult> {
    let Some((points, cells)) = mesh_of(out) else {
        return vec![c.failed("kept-volume")];
    };
    let rep = validate_cells(points, cells, 0.0);
    let exact = 1.0 - 4.0 / 3.0 * PI * SPHERE_R.powi(3);
    let vol_tol = 4.0 / (c.grid * c.grid) as f64;
    let min_dist = points
        .iter()
        .map(|p| p.distance(CENTER))
        .fold(f64::INFINITY, f64::min);
    // Cut vertices sit on chords of the sphere. The tetrahedralization
    // cuts along cell diagonals up to `√3·h` long, so the deepest
    // sagitta is `3h²/(8r) ≈ 1.25h²` (measured ≈ 1.13h²).
    let depth_tol = 2.0 / (c.grid * c.grid) as f64;
    let depth = (SPHERE_R - min_dist).max(0.0);
    vec![
        c.check("kept-volume", rep.total_volume, exact, vol_tol),
        c.check("outside-sphere", depth, 0.0, depth_tol),
    ]
}

/// Isovolume of the linear ramp: tetrahedral clipping of a linear field
/// is exact, so the band volume is `hi − lo` to rounding, and the
/// interior hexahedron count is exactly countable.
fn isovolume(c: Checks, out: &FilterOutput) -> Vec<CheckResult> {
    let Some((points, cells)) = mesh_of(out) else {
        return vec![c.failed("band-volume")];
    };
    let n = c.grid;
    let rep = validate_cells(points, cells, 0.0);
    let grid = UniformGrid::cube_cells(n);
    // A cell is interior iff both its corner planes sit inside the band;
    // same f64 comparisons as the kernel's classification.
    let cols = (0..n)
        .filter(|&i| {
            let x0 = grid.point_coord(i, 0, 0).x;
            let x1 = grid.point_coord(i + 1, 0, 0).x;
            x0 >= ISO_LO && x1 <= ISO_HI
        })
        .count();
    let hexes = count_shape(cells, CellShape::Hexahedron);
    vec![
        c.check("band-volume", rep.total_volume, ISO_HI - ISO_LO, 1e-9),
        c.check("interior-hexes", hexes as f64, (cols * n * n) as f64, 0.0),
    ]
}

/// Three centered axis slices of the unit cube: cross-section area 3·1,
/// and every vertex exactly on one of the three planes.
fn slice(c: Checks, input: &DataSet, out: &FilterOutput) -> Vec<CheckResult> {
    let Some((points, cells)) = mesh_of(out) else {
        return vec![c.failed("slice-area")];
    };
    let area = surface_area(points, cells);
    let center = input.bounds().center();
    let max_off = points
        .iter()
        .map(|p| {
            let d = *p - center;
            d.x.abs().min(d.y.abs()).min(d.z.abs())
        })
        .fold(0.0, f64::max);
    vec![
        c.check("slice-area", area, 3.0, 1e-9),
        c.check("on-plane", max_off, 0.0, 1e-12),
    ]
}

/// Rigid-rotation advection: trilinear interpolation reproduces the
/// linear field exactly, so RK4 trajectories stay planar to the bit and
/// conserve radius and angular rate to integrator order (`h⁴` ≪ 1e-9).
fn advection(c: Checks, input: &DataSet, out: &FilterOutput) -> Vec<CheckResult> {
    let Some((points, cells)) = mesh_of(out) else {
        return vec![c.failed("radius-drift")];
    };
    let h = input.bounds().diagonal() * STEP_FRACTION;
    let (max_z, max_radius_drift, max_rate_err) = orbit_errors(points, cells, h, |t| t);
    vec![
        c.check("planar", max_z, 0.0, 0.0),
        c.check("radius-drift", max_radius_drift, 0.0, 1e-9),
        c.check("angular-rate", max_rate_err, 0.0, 1e-9),
    ]
}

/// How far the polylines in `cells` stray from rigid orbits about the
/// `CENTER` z-axis: the largest out-of-plane drift, the largest
/// relative radius drift, and the largest relative error of the
/// unwrapped turning angle against `expected(T)`, where
/// `T = (points − 1)·h` is the polyline's integrated time.
pub(crate) fn orbit_errors(
    points: &[Vec3],
    cells: &vizmesh::CellSet,
    h: f64,
    expected: impl Fn(f64) -> f64,
) -> (f64, f64, f64) {
    let mut max_z = 0.0f64;
    let mut max_radius_drift = 0.0f64;
    let mut max_angle_err = 0.0f64;
    let mut path: Vec<Vec3> = Vec::with_capacity(64);
    for (shape, conn) in cells.iter() {
        if shape != CellShape::PolyLine || conn.len() < 2 {
            continue;
        }
        path.clear();
        path.extend(conn.iter().map(|&i| points[i as usize]));
        let r0 = ((path[0].x - CENTER.x).powi(2) + (path[0].y - CENTER.y).powi(2)).sqrt();
        for p in &path {
            max_z = max_z.max((p.z - path[0].z).abs());
        }
        // Tight circular orbits amplify rounding; the macroscopic ones
        // carry the law.
        if r0 < 0.05 {
            continue;
        }
        let mut angle = 0.0f64;
        let mut prev = f64::atan2(path[0].y - CENTER.y, path[0].x - CENTER.x);
        for p in &path[1..] {
            let r = ((p.x - CENTER.x).powi(2) + (p.y - CENTER.y).powi(2)).sqrt();
            max_radius_drift = max_radius_drift.max((r - r0).abs() / r0);
            let th = f64::atan2(p.y - CENTER.y, p.x - CENTER.x);
            let mut d = th - prev;
            if d > PI {
                d -= 2.0 * PI;
            } else if d < -PI {
                d += 2.0 * PI;
            }
            angle += d;
            prev = th;
        }
        let expected = expected((path.len() - 1) as f64 * h);
        max_angle_err = max_angle_err.max((angle - expected).abs() / expected);
    }
    (max_z, max_radius_drift, max_angle_err)
}

/// Ray tracing the cube's external faces: hits must agree with the exact
/// ray/AABB slab test, hit depths must equal the slab entry distance,
/// and missed pixels must stay transparent black.
fn raytrace(
    cfg: &ConformanceConfig,
    c: Checks,
    input: &DataSet,
    out: &FilterOutput,
) -> Vec<CheckResult> {
    if out.images.is_empty() {
        return vec![c.failed("hit-mask")];
    }
    let bounds = input.bounds();
    let cameras = Camera::orbit(&bounds, cfg.cameras);
    let px = cfg.render_px;
    let mut mismatches = 0usize;
    let mut total = 0usize;
    let mut max_depth_err = 0.0f64;
    let mut bad_background = 0usize;
    for (img, cam) in out.images.iter().zip(&cameras) {
        let view = cam.view(px, px);
        for y in 0..px {
            for x in 0..px {
                total += 1;
                let ray = view.ray(x, y);
                let slab =
                    bounds.intersect_ray(ray.origin, ray.inv_direction(), 0.0, f64::INFINITY);
                let depth = img.depth_at(x, y);
                match (slab, depth.is_finite()) {
                    (Some((t0, _)), true) => {
                        max_depth_err = max_depth_err.max((f64::from(depth) - t0).abs());
                    }
                    (None, false) => {
                        if img.get(x, y) != [0.0; 4] {
                            bad_background += 1;
                        }
                    }
                    _ => mismatches += 1,
                }
            }
        }
    }
    let mismatched = mismatches as f64 / total.max(1) as f64;
    vec![
        c.check("hit-mask", mismatched, 0.0, 2e-3),
        c.check("hit-depth", max_depth_err, 0.0, 1e-4),
        c.check("background", bad_background as f64, 0.0, 0.0),
    ]
}

/// Volume rendering: missed pixels exactly transparent, compositing
/// keeps opacity in `[0, 1]`, and nearly every ray that crosses the
/// volume accumulates some opacity (the ramp transfer function is
/// positive almost everywhere).
fn volren(
    cfg: &ConformanceConfig,
    c: Checks,
    input: &DataSet,
    out: &FilterOutput,
) -> Vec<CheckResult> {
    if out.images.is_empty() {
        return vec![c.failed("background")];
    }
    let bounds = input.bounds();
    let cameras = Camera::orbit(&bounds, cfg.cameras);
    let px = cfg.render_px;
    let mut bad_background = 0usize;
    let mut bad_alpha = 0usize;
    let mut hit = 0usize;
    let mut hit_empty = 0usize;
    for (img, cam) in out.images.iter().zip(&cameras) {
        let view = cam.view(px, px);
        for y in 0..px {
            for x in 0..px {
                let rgba = img.get(x, y);
                if !(0.0..=1.0).contains(&rgba[3]) {
                    bad_alpha += 1;
                }
                let ray = view.ray(x, y);
                let slab =
                    bounds.intersect_ray(ray.origin, ray.inv_direction(), 0.0, f64::INFINITY);
                match slab {
                    None => {
                        if rgba != [0.0; 4] {
                            bad_background += 1;
                        }
                    }
                    Some(_) => {
                        hit += 1;
                        if rgba[3] == 0.0 {
                            hit_empty += 1;
                        }
                    }
                }
            }
        }
    }
    let empty = hit_empty as f64 / hit.max(1) as f64;
    // Silhouette-grazing rays whose chord is shorter than half a
    // step take no samples; that rim thins as the step shrinks
    // with the grid (measured 0.076 at 16³, 0.0085 at 32³).
    let coverage_tol = 2.0 / c.grid as f64;
    vec![
        c.check("background", bad_background as f64, 0.0, 0.0),
        c.check("alpha-range", bad_alpha as f64, 0.0, 0.0),
        c.check("coverage", empty, 0.0, coverage_tol),
    ]
}
