//! Differential checks: thread-count invariance and deliberately simple
//! sequential re-implementations.
//!
//! The references here trade every optimization for obviousness — plain
//! `for` loops over cells in raster order, a `HashMap` weld, a
//! brute-force ray/triangle loop — but replicate the kernels'
//! *arithmetic* exactly, so the comparison is bit-exact (tolerance 0).

use crate::fields::{CENTER, FIELD, VELOCITY};
use crate::{
    count_shape, CheckKind, CheckResult, Checks, ConformanceConfig, ISO_HI, ISO_LO, SEED, SPHERE_R,
    STEP_FRACTION, THRESH_HI, THRESH_LO,
};
use std::collections::HashMap;
use vizalgo::colormap::ColorMap;
use vizalgo::contour::{triangle_table, EDGES};
use vizalgo::raytrace::external_face_triangles;
use vizalgo::{Algorithm, Backend, FilterOutput, ThreeSlice};
use vizmesh::{par, Camera, CellShape, DataSet, UniformGrid, Vec3, XorShift};

/// Differential checks for `alg` at grid `n`: thread invariance plus the
/// sequential-reference comparison.
pub(crate) fn checks(
    alg: Algorithm,
    cfg: &ConformanceConfig,
    n: usize,
    input: &DataSet,
    out: &FilterOutput,
) -> Vec<CheckResult> {
    let c = Checks {
        algorithm: alg,
        kind: CheckKind::Differential,
        grid: n,
    };
    let mut checks = vec![thread_invariance(c, cfg, input)];
    match alg {
        Algorithm::Contour => checks.push(contour_reference(c, input, out)),
        Algorithm::Threshold => checks.push(threshold_reference(c, input, out)),
        Algorithm::SphericalClip => checks.push(clip_reference(c, input, out)),
        Algorithm::Isovolume => checks.push(isovolume_reference(c, input, out)),
        Algorithm::Slice => checks.push(slice_reference(c, input, out)),
        Algorithm::ParticleAdvection => checks.push(advection_reference(cfg, c, input, out)),
        // The brute-force ray loop is O(pixels × triangles); run it at
        // the smallest grid only.
        Algorithm::RayTracing => {
            if Some(&n) == cfg.grids.first() {
                checks.push(raytrace_reference(cfg, c, input, out));
            }
        }
        Algorithm::VolumeRendering => checks.push(volren_reference(cfg, c, input, out)),
    }
    checks
}

/// Execute the canonical plan on every backend that formulates it under
/// `par::with_threads(1)` and `(4)`; the whole outputs — data, images,
/// kernel work and primitive traffic — must be identical.
fn thread_invariance(c: Checks, cfg: &ConformanceConfig, input: &DataSet) -> CheckResult {
    let spec = crate::spec_for(c.algorithm, cfg);
    let equal = Backend::ALL
        .into_iter()
        .filter(|b| b.supports(c.algorithm))
        .all(|backend| {
            let filter = spec.build_with(backend, input);
            let [one, four] =
                [1, 4].map(|threads| par::with_threads(threads, || filter.execute(input)));
            one == four
        });
    c.check("threads", f64::from(u8::from(!equal)), 0.0, 0.0)
}

/// Sequential welded marching cubes, replicating the kernel's per-edge
/// arithmetic (same `t01`, same lerp, same weld keys, same degenerate
/// drop) in plain raster order.
fn sequential_marching_cubes(
    grid: &UniformGrid,
    values: &[f64],
    iso: f64,
) -> (Vec<Vec3>, Vec<[u32; 3]>) {
    let table = triangle_table();
    let mut weld: HashMap<u64, u32> = HashMap::new();
    let mut points: Vec<Vec3> = Vec::new();
    let mut tris: Vec<[u32; 3]> = Vec::new();
    for c in 0..grid.num_cells() {
        let cell = grid.cell_at(c);
        let ids = cell.point_ids();
        let mut config = 0u8;
        for (bit, &pid) in ids.iter().enumerate() {
            if values[pid] > iso {
                config |= 1 << bit;
            }
        }
        let case = &table[config as usize];
        if case.is_empty() {
            continue;
        }
        let corners = cell.corners();
        for t in case {
            let mut key = [0u64; 3];
            let mut pos = [Vec3::ZERO; 3];
            for (slot, &e) in t.iter().enumerate() {
                let (a, b) = EDGES[e as usize];
                let (pa, pb) = (ids[a], ids[b]);
                let (va, vb) = (values[pa], values[pb]);
                let t01 = ((iso - va) / (vb - va)).clamp(0.0, 1.0);
                pos[slot] = corners[a].lerp(corners[b], t01);
                let (lo, hi) = if pa < pb { (pa, pb) } else { (pb, pa) };
                key[slot] = (lo as u64) << 32 | hi as u64;
            }
            let mut tri = [0u32; 3];
            for s in 0..3 {
                tri[s] = match weld.get(&key[s]) {
                    Some(&id) => id,
                    None => {
                        let id = points.len() as u32;
                        weld.insert(key[s], id);
                        points.push(pos[s]);
                        id
                    }
                };
            }
            if tri[0] != tri[1] && tri[1] != tri[2] && tri[2] != tri[0] {
                tris.push(tri);
            }
        }
    }
    (points, tris)
}

/// Count the points and triangles where `ds` differs from the reference
/// mesh, bit for bit.
fn mesh_mismatches(ds: &DataSet, ref_points: &[Vec3], ref_tris: &[[u32; 3]]) -> f64 {
    let Some((points, cells)) = ds.as_explicit() else {
        return f64::NAN;
    };
    let mut mismatches = points.len().abs_diff(ref_points.len());
    for (p, q) in points.iter().zip(ref_points) {
        if p.x.to_bits() != q.x.to_bits()
            || p.y.to_bits() != q.y.to_bits()
            || p.z.to_bits() != q.z.to_bits()
        {
            mismatches += 1;
        }
    }
    let out_tris: Vec<&[u32]> = cells
        .iter()
        .filter(|(s, _)| *s == CellShape::Triangle)
        .map(|(_, conn)| conn)
        .collect();
    mismatches += out_tris.len().abs_diff(ref_tris.len());
    for (conn, tri) in out_tris.iter().zip(ref_tris) {
        if *conn != &tri[..] {
            mismatches += 1;
        }
    }
    mismatches as f64
}

fn contour_reference(c: Checks, input: &DataSet, out: &FilterOutput) -> CheckResult {
    let check = "mesh-exact";
    let (Some(grid), Some(values), Some(ds)) = (
        input.as_uniform(),
        input.point_scalars(FIELD),
        out.dataset.as_ref(),
    ) else {
        return c.failed(check);
    };
    let (ref_points, ref_tris) = sequential_marching_cubes(grid, values, SPHERE_R);
    c.check(check, mesh_mismatches(ds, &ref_points, &ref_tris), 0.0, 0.0)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the reference takes its planes from the filter, not the registry"
)]
fn slice_reference(c: Checks, input: &DataSet, out: &FilterOutput) -> CheckResult {
    let check = "mesh-exact";
    let (Some(grid), Some(ds)) = (input.as_uniform(), out.dataset.as_ref()) else {
        return c.failed(check);
    };
    let mut ref_points: Vec<Vec3> = Vec::new();
    let mut ref_tris: Vec<[u32; 3]> = Vec::new();
    let mut sdf = vec![0.0f64; grid.num_points()];
    for plane in &ThreeSlice::centered(input, FIELD).planes {
        for (p, s) in sdf.iter_mut().enumerate() {
            *s = plane.distance(grid.point_coord_id(p));
        }
        let (pts, tris) = sequential_marching_cubes(grid, &sdf, 0.0);
        let base = ref_points.len() as u32;
        ref_points.extend(pts);
        ref_tris.extend(tris.iter().map(|t| [t[0] + base, t[1] + base, t[2] + base]));
    }
    c.check(check, mesh_mismatches(ds, &ref_points, &ref_tris), 0.0, 0.0)
}

fn threshold_reference(c: Checks, input: &DataSet, out: &FilterOutput) -> CheckResult {
    let check = "kept-count";
    let (Some(vals), Some(ds)) = (input.cell_scalars(FIELD), out.dataset.as_ref()) else {
        return c.failed(check);
    };
    let expected = vals
        .iter()
        .filter(|v| (THRESH_LO..=THRESH_HI).contains(*v))
        .count();
    let measured = hex_count(ds);
    c.check(check, measured as f64, expected as f64, 0.0)
}

/// Hexahedra of an unstructured output (`usize::MAX` when there is none).
fn hex_count(ds: &DataSet) -> usize {
    ds.as_explicit().map_or(usize::MAX, |(_, cells)| {
        count_shape(cells, CellShape::Hexahedron)
    })
}

fn clip_reference(c: Checks, input: &DataSet, out: &FilterOutput) -> CheckResult {
    let check = "whole-cells";
    let (Some(grid), Some(ds)) = (input.as_uniform(), out.dataset.as_ref()) else {
        return c.failed(check);
    };
    // A cell passes through whole iff no corner is strictly inside the
    // sphere — the same signed distance the kernel computes.
    let expected = (0..grid.num_cells())
        .filter(|&c| {
            grid.cell_at(c)
                .point_ids()
                .iter()
                .all(|&p| grid.point_coord_id(p).distance(CENTER) - SPHERE_R >= 0.0)
        })
        .count();
    let measured = hex_count(ds);
    c.check(check, measured as f64, expected as f64, 0.0)
}

fn isovolume_reference(c: Checks, input: &DataSet, out: &FilterOutput) -> CheckResult {
    let check = "whole-cells";
    let (Some(grid), Some(vals), Some(ds)) = (
        input.as_uniform(),
        input.point_scalars(FIELD),
        out.dataset.as_ref(),
    ) else {
        return c.failed(check);
    };
    let expected = (0..grid.num_cells())
        .filter(|&c| {
            grid.cell_at(c)
                .point_ids()
                .iter()
                .all(|&p| vals[p] >= ISO_LO && vals[p] <= ISO_HI)
        })
        .count();
    let measured = hex_count(ds);
    c.check(check, measured as f64, expected as f64, 0.0)
}

/// Sequential RK4 re-integration with the kernel's exact seed order and
/// update arithmetic; streamlines must match bit for bit.
fn advection_reference(
    cfg: &ConformanceConfig,
    c: Checks,
    input: &DataSet,
    out: &FilterOutput,
) -> CheckResult {
    let check = "streamlines-exact";
    let (Some(grid), Some(vel), Some(ds)) = (
        input.as_uniform(),
        input.point_vectors(VELOCITY),
        out.dataset.as_ref(),
    ) else {
        return c.failed(check);
    };
    let Some((points, cells)) = ds.as_explicit() else {
        return c.failed(check);
    };
    let b = grid.bounds();
    let h = b.diagonal() * STEP_FRACTION;
    let mut rng = XorShift::from_seed(SEED);
    let mut ref_paths: Vec<Vec<Vec3>> = Vec::with_capacity(cfg.particles);
    for _ in 0..cfg.particles {
        let seed = Vec3::new(
            rng.range(b.min.x, b.max.x),
            rng.range(b.min.y, b.max.y),
            rng.range(b.min.z, b.max.z),
        );
        let mut path = Vec::with_capacity(cfg.advect_steps + 1);
        path.push(seed);
        let mut p = seed;
        for _ in 0..cfg.advect_steps {
            let step = (|| {
                let k1 = grid.sample_vector(vel, p)?;
                let k2 = grid.sample_vector(vel, p + k1 * (h * 0.5))?;
                let k3 = grid.sample_vector(vel, p + k2 * (h * 0.5))?;
                let k4 = grid.sample_vector(vel, p + k3 * h)?;
                Some(p + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0))
            })();
            match step {
                Some(next) => {
                    p = next;
                    path.push(p);
                }
                None => break,
            }
        }
        if path.len() >= 2 {
            ref_paths.push(path);
        }
    }
    let mut out_paths: Vec<Vec<Vec3>> = Vec::with_capacity(ref_paths.len());
    for (shape, conn) in cells.iter() {
        if shape != CellShape::PolyLine {
            continue;
        }
        let mut path = Vec::with_capacity(conn.len());
        path.extend(conn.iter().map(|&i| points[i as usize]));
        out_paths.push(path);
    }
    let mut mismatches = out_paths.len().abs_diff(ref_paths.len());
    for (a, b) in out_paths.iter().zip(&ref_paths) {
        if a.len() != b.len() {
            mismatches += 1;
            continue;
        }
        if a.iter().zip(b).any(|(p, q)| {
            p.x.to_bits() != q.x.to_bits()
                || p.y.to_bits() != q.y.to_bits()
                || p.z.to_bits() != q.z.to_bits()
        }) {
            mismatches += 1;
        }
    }
    c.check(check, mismatches as f64, 0.0, 0.0)
}

/// Brute-force nearest-hit over every external face triangle (first
/// camera only): the BVH must find the same entry depth everywhere.
fn raytrace_reference(
    cfg: &ConformanceConfig,
    c: Checks,
    input: &DataSet,
    out: &FilterOutput,
) -> CheckResult {
    let check = "depth-brute-force";
    let Some(img) = out.images.first() else {
        return c.failed(check);
    };
    let (tris, _) = external_face_triangles(input, FIELD, |_| {});
    let cameras = Camera::orbit(&input.bounds(), cfg.cameras);
    let Some(cam) = cameras.first() else {
        return c.failed(check);
    };
    let px = cfg.render_px;
    let mut mismatches = 0usize;
    let view = cam.view(px, px);
    for y in 0..px {
        for x in 0..px {
            let ray = view.ray(x, y);
            let mut best = f64::INFINITY;
            for tri in &tris {
                if let Some((t, _, _)) = tri.intersect(&ray) {
                    if t < best {
                        best = t;
                    }
                }
            }
            let expected = if best.is_finite() {
                best as f32
            } else {
                f32::INFINITY
            };
            if img.depth_at(x, y).to_bits() != expected.to_bits() {
                mismatches += 1;
            }
        }
    }
    c.check(check, mismatches as f64, 0.0, 0.0)
}

/// Sequential front-to-back ray march replicating the kernel's sampling
/// and compositing arithmetic; every pixel must match bit for bit.
fn volren_reference(
    cfg: &ConformanceConfig,
    c: Checks,
    input: &DataSet,
    out: &FilterOutput,
) -> CheckResult {
    let check = "pixels-exact";
    let (Some(grid), Some(values)) = (input.as_uniform(), input.point_scalars(FIELD)) else {
        return c.failed(check);
    };
    let (lo, hi) = input
        .field(FIELD)
        .and_then(|f| f.scalar_range())
        .unwrap_or((0.0, 1.0));
    let tf = ColorMap::volume_default();
    let bounds = grid.bounds();
    let step = grid.spacing().length() * 0.8;
    let opacity_scale = 0.35f64;
    let cameras = Camera::orbit(&bounds, cfg.cameras);
    let px = cfg.render_px;
    let mut mismatches = out.images.len().abs_diff(cameras.len());
    for (img, cam) in out.images.iter().zip(&cameras) {
        let view = cam.view(px, px);
        for y in 0..px {
            for x in 0..px {
                let ray = view.ray(x, y);
                let mut color = [0.0f32; 4];
                if let Some((t0, t1)) =
                    bounds.intersect_ray(ray.origin, ray.inv_direction(), 0.0, f64::INFINITY)
                {
                    let mut t = t0.max(0.0) + step * 0.5;
                    while t < t1 && color[3] < 0.99 {
                        if let Some(v) = grid.sample_scalar(values, ray.at(t)) {
                            let mut s = tf.sample_range(v, lo, hi);
                            s[3] = (s[3] * opacity_scale as f32).clamp(0.0, 1.0);
                            let w = s[3] * (1.0 - color[3]);
                            color[0] += s[0] * w;
                            color[1] += s[1] * w;
                            color[2] += s[2] * w;
                            color[3] += w;
                        }
                        t += step;
                    }
                }
                // The kernel only writes pixels that accumulated opacity.
                let expected = if color[3] > 0.0 { color } else { [0.0f32; 4] };
                let got = img.get(x, y);
                if got
                    .iter()
                    .zip(&expected)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    mismatches += 1;
                }
            }
        }
    }
    c.check(check, mismatches as f64, 0.0, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields;

    /// The sequential MC reference agrees with itself run twice, and the
    /// weld produces an indexed mesh (no duplicate point keys).
    #[test]
    fn sequential_mc_is_deterministic_and_welded() {
        let ds = fields::sphere_dataset(8);
        let grid = ds.as_uniform().unwrap();
        let vals = ds.point_scalars(FIELD).unwrap();
        let (p1, t1) = sequential_marching_cubes(grid, vals, SPHERE_R);
        let (p2, t2) = sequential_marching_cubes(grid, vals, SPHERE_R);
        assert_eq!(p1, p2);
        assert_eq!(t1, t2);
        assert!(!t1.is_empty());
        for t in &t1 {
            for &i in t {
                assert!((i as usize) < p1.len());
            }
        }
    }
}
