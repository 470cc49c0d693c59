//! Three-slice (§III-B5): cut the dataset on the x-y, y-z and x-z planes.
//!
//! As the paper describes, each slice first creates a new point-centered
//! field holding the **signed distance** from the plane (the
//! compute-intensive part), then runs the contour algorithm on that
//! field at isovalue 0, yielding a topologically 2-D plane.
//!
//! The work reports charge exactly that: a distance at every point and
//! a classify of every cell, per plane. The host computes less. The
//! distance is a sum of one term per axis, so three small tables give
//! each plane's [`SegmentIndex`] exactly, and a reused distance buffer
//! is filled only at the points of the segments it leaves live — the
//! only points marching cubes then reads. Both backends slice through
//! that one call ([`fill_distance`]), so the output is the same bits a
//! full distance map gives.
//!
//! Each plane is one [`par::map`] task on both backends ([`each_plane`]),
//! its surface and work joined in plane order, as contour's isovalues
//! are (the module note of `crate::contour`: a task's own `par` loops
//! run inline on its thread). Because a buffer never needs clearing
//! between planes, a task takes the buffer a finished task left, so
//! there are never more buffers than tasks running at once.

use crate::contour::{cuts, marching_cubes, SegmentIndex};
use crate::filter::{self, concat_surfaces, Filter, FilterOutput, KernelClass, KernelReport};
use std::sync::{Mutex, PoisonError};
use vizmesh::{par, DataSet, UniformGrid, Vec3, WorkCounters};

/// An oriented plane `dot(n, p) = dot(n, origin)`.
#[derive(Debug, Clone, Copy)]
pub struct Plane {
    pub(crate) origin: Vec3,
    pub(crate) normal: Vec3,
}

impl Plane {
    pub(crate) fn new(origin: Vec3, normal: Vec3) -> Self {
        let n = normal.normalized();
        assert!(n != Vec3::ZERO, "plane normal must be non-zero");
        Plane { origin, normal: n }
    }

    /// Signed distance from the plane.
    #[inline]
    pub fn distance(&self, p: Vec3) -> f64 {
        self.normal.dot(p - self.origin)
    }
}

/// Write `plane`'s signed distance into `sdf` at every point marching
/// cubes reads at isovalue 0, and return the plane's [`SegmentIndex`];
/// the other points keep what they held.
///
/// [`Plane::distance`] at point `(i, j, k)` is `(tx[i] + ty[j]) + tz[k]`
/// with `t_a[i] = n_a·(p_a(i) − o_a)`: the same operations in the same
/// order, so the same bits. Each table is monotone along its axis and
/// IEEE `+` is monotone in each operand, so over a segment's box of
/// points the sum of the terms' lowest values is exactly the lowest
/// distance, and likewise the highest: no margin. A non-finite term (a
/// NaN or infinite origin, or a difference that overflows) may make a
/// sum NaN and bounds nothing, so every segment is live then.
///
/// Live segments mark the point runs their corners lie on; chunks of
/// the buffer then run on `par`, each filling the marked runs of its
/// point rows, a point two marked runs share once.
fn fill_distance(grid: &UniformGrid, plane: &Plane, sdf: &mut [f64]) -> SegmentIndex {
    let [nx, ny, nz] = grid.point_dims();
    let (o, n) = (plane.origin, plane.normal);
    // Axis `a`'s coordinate of point `(i, j, k)` depends on its own index
    // alone, so `point_coord(i, i, i)` holds the `i`-th of each axis.
    let [tx, ty, tz]: [Vec<f64>; 3] = std::array::from_fn(|a| {
        let coords = (0..[nx, ny, nz][a]).map(|i| grid.point_coord(i, i, i)[a]);
        coords.map(|p| n[a] * (p - o[a])).collect()
    });
    let cuts = cuts(grid);
    let index = if tx.iter().chain(&ty).chain(&tz).all(|t| t.is_finite()) {
        let span = |t: &[f64], a: usize, b: usize| [t[a].min(t[b]), t[a].max(t[b])];
        let xs: Vec<[f64; 2]> = cuts.iter().map(|&[a, b]| span(&tx, a, b)).collect();
        SegmentIndex::from_rows(grid, |j, k, out| {
            let ([ylo, yhi], [zlo, zhi]) = (span(&ty, j, j + 1), span(&tz, k, k + 1));
            let sum = |[xlo, xhi]: [f64; 2]| [xlo + ylo + zlo, xhi + yhi + zhi];
            out.extend(xs.iter().copied().map(sum));
        })
    } else {
        SegmentIndex::everywhere(grid)
    };

    let cy = ny - 1;
    let per_row = cuts.len();
    let mut marked = vec![false; per_row * ny * nz];
    for s in index.live_segments(0.0) {
        let (row, x) = (s / per_row, s % per_row);
        let run = x + per_row * (row % cy + ny * (row / cy));
        for up in [0, per_row, per_row * ny, per_row * (ny + 1)] {
            marked[run + up] = true;
        }
    }
    par::for_each_chunk_zip(sdf, crate::CELL_MIN_LEN, |points, chunk| {
        for row in points.start / nx..points.end.div_ceil(nx) {
            let (j, k) = (row % ny, row / ny);
            let first = row * nx;
            // Point indices along x, clipped to the chunk.
            let (lo, hi) = (
                points.start.saturating_sub(first),
                (points.end - first).min(nx),
            );
            let mut filled = lo;
            let runs = cuts.iter().zip(&marked[row * per_row..(row + 1) * per_row]);
            for (&[a, b], _) in runs.filter(|&(_, &m)| m) {
                let (from, to) = (a.max(filled), (b + 1).min(hi));
                for i in from..to {
                    chunk[first + i - points.start] = tx[i] + ty[j] + tz[k];
                }
                filled = filled.max(to);
            }
        }
    });
    index
}

/// `task(sdf, index)` for every plane, one [`par::map`] task each, the
/// results in plane order: `sdf` holds the plane's distance wherever
/// [`fill_distance`] wrote it, `index` is the plane's segment index.
///
/// A task takes a buffer a finished task returned, or allocates one, so
/// a worker holds at most one (at 128³ a fresh zero-filled buffer costs
/// about 1.3 ms). A taken buffer holds another plane's distances at
/// points this plane's live segments do not reach, which nothing reads.
pub(crate) fn each_plane<T: Send>(
    grid: &UniformGrid,
    planes: &[Plane],
    task: impl Fn(&[f64], &SegmentIndex) -> T + Sync,
) -> Vec<T> {
    // Every push and pop leaves the pool valid, so a poisoned lock is
    // taken as it is.
    let pool: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
    let spare = || pool.lock().unwrap_or_else(PoisonError::into_inner);
    par::map(planes.len(), 1, |p| {
        let held = spare().pop();
        let mut sdf = held.unwrap_or_else(|| vec![0.0f64; grid.num_points()]);
        let index = fill_distance(grid, &planes[p], &mut sdf);
        let out = task(&sdf, &index);
        spare().push(sdf);
        out
    })
}

/// The three-slice filter: slices on the x-y, y-z, and x-z planes through
/// a common origin (the dataset center by default).
#[derive(Debug, Clone)]
pub struct ThreeSlice {
    pub planes: Vec<Plane>,
    /// Point field to interpolate onto the slices.
    pub(crate) field: String,
}

impl ThreeSlice {
    /// The paper's configuration: axis-aligned planes through the center
    /// of `input`.
    pub fn centered(input: &DataSet, field: impl Into<String>) -> Self {
        let c = input.bounds().center();
        ThreeSlice {
            planes: vec![
                Plane::new(c, Vec3::Z), // x-y plane
                Plane::new(c, Vec3::X), // y-z plane
                Plane::new(c, Vec3::Y), // x-z plane
            ],
            field: field.into(),
        }
    }

    /// The grid and the sampled point scalar, when the dataset has it.
    pub(crate) fn inputs<'a>(&self, input: &'a DataSet) -> (&'a UniformGrid, Option<&'a [f64]>) {
        (
            filter::structured(input, self.name()),
            input.point_scalars(&self.field),
        )
    }
}

/// The data field at slice vertex `p`; 0 without a field.
pub(crate) fn sample(grid: &UniformGrid, data: Option<&[f64]>, p: Vec3) -> f64 {
    data.and_then(|d| grid.sample_scalar(d, p)).unwrap_or(0.0)
}

impl Filter for ThreeSlice {
    fn name(&self) -> &'static str {
        "Slice"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        let (grid, data) = self.inputs(input);
        let num_points = grid.num_points();
        // Per plane, kernel 1 (the signed-distance field, which
        // `each_plane` fills), then kernels 2+3: contour it at zero, and
        // interpolate the data field onto the slice vertices.
        let runs = each_plane(grid, &self.planes, |sdf, index| {
            let mc = marching_cubes(grid, sdf, index, 0.0);
            let sampled: Vec<f64> = mc.points.iter().map(|&p| sample(grid, data, p)).collect();
            (mc, sampled)
        });

        let mut distance_work = WorkCounters::new();
        let mut classify = WorkCounters::new();
        let mut interp = WorkCounters::new();
        let surfaces = runs.into_iter().map(|(mc, sampled)| {
            // The distance is charged at every mesh point. The paper
            // notes this per-node computation is what makes slice more
            // compute-intensive than plain contour.
            distance_work.tally(num_points as u64, 30, 18, 24, 8);
            classify += mc.classify_work;
            interp += mc.interp_work;
            interp.tally(mc.points.len() as u64, 46, 22, 96, 8);
            (mc.points, sampled, mc.triangles)
        });
        let ds = concat_surfaces(&self.field, surfaces);
        distance_work.working_set_bytes = (num_points * 8 * 2) as u64;

        FilterOutput::data(
            ds,
            vec![
                KernelReport::new("slice-distance", KernelClass::SignedDistance, distance_work),
                KernelReport::new("slice-classify", KernelClass::CaseTable, classify),
                KernelReport::new("slice-interpolate", KernelClass::Interpolate, interp),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizmesh::{Association, Field};

    fn dataset(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).x)
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

    fn one_plane(plane: Plane) -> ThreeSlice {
        ThreeSlice {
            planes: vec![plane],
            field: "f".into(),
        }
    }

    /// A mesh's points, cells and `f` values, floats as bits.
    fn bits(ds: &DataSet) -> (Vec<[u64; 3]>, vizmesh::CellSet, Vec<u64>) {
        let (points, cells) = ds.as_explicit().unwrap();
        let f = ds.point_scalars("f").unwrap();
        (
            points
                .iter()
                .map(|p| [p.x, p.y, p.z].map(f64::to_bits))
                .collect(),
            cells.clone(),
            f.iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// The slice of `plane` as the paper defines it: the distance at
    /// every point, and marching cubes reading every cell.
    fn full_distance_slice(grid: &UniformGrid, plane: Plane) -> crate::contour::McOutput {
        let sdf: Vec<f64> = (0..grid.num_points())
            .map(|p| plane.distance(grid.point_coord_id(p)))
            .collect();
        marching_cubes(grid, &sdf, &SegmentIndex::everywhere(grid), 0.0)
    }

    /// Slice on both backends is the full-distance slice, bit for bit,
    /// its field sampled at those points: center planes through grid
    /// points (d = 0 exactly there), oblique normals, planes tangent to
    /// a face, a plane outside the domain, a NaN origin, a 37-cell
    /// x-row that crosses segment boundaries (its points cut into chunks
    /// at 4 and 16 threads), an offset, non-dyadic 12 × 9 × 7 grid, and
    /// a grid ±0.85e308 wide on which the last plane's distance terms
    /// overflow to ±∞ and meet as NaN.
    #[test]
    fn slice_equals_marching_cubes_over_a_distance_at_every_point() {
        use crate::dpp::Dpp;
        let grids = [
            UniformGrid::cube_cells(32),
            UniformGrid::new(
                [38, 30, 24],
                Vec3::new(0.3, -0.2, 0.1),
                Vec3::new(0.03, 0.04, 0.05),
            ),
            UniformGrid::new(
                [13, 10, 8],
                Vec3::new(-0.7, 0.3, 1.1),
                Vec3::new(0.1, 0.3, 0.7),
            ),
            UniformGrid::new(
                [7, 6, 3],
                Vec3::new(-0.85e308, -0.85e308, 0.0),
                Vec3::new(2.8e307, 3.3e307, 1.0),
            ),
        ];
        let mut surfaces = 0;
        for grid in grids {
            let b = grid.bounds();
            let c = b.center();
            let far = Vec3::new(b.max.x, c.y, c.z);
            let planes = [
                Plane::new(c, Vec3::Z),
                Plane::new(c, Vec3::X),
                Plane::new(c, Vec3::Y),
                Plane::new(c, Vec3::new(1.0, 1.0, 0.0)),
                Plane::new(
                    c + Vec3::new(0.013, -0.021, 0.007),
                    Vec3::new(1.0, 2.0, 3.0),
                ),
                Plane::new(c, Vec3::new(-0.3, 0.7, 0.2)),
                Plane::new(b.min, Vec3::X),
                Plane::new(b.min, -Vec3::Z),
                Plane::new(far, Vec3::X),
                Plane::new(Vec3::splat(10.0), Vec3::X),
                Plane::new(Vec3::new(f64::NAN, c.y, c.z), Vec3::Z),
                Plane::new(Vec3::new(-1e308, 1e308, c.z), Vec3::new(1.0, 1.0, 0.0)),
            ];
            let data: Vec<f64> = (0..grid.num_points())
                .map(|p| grid.point_coord_id(p).dot(Vec3::new(1.0, -2.0, 0.5)))
                .collect();
            let ds = DataSet::uniform(grid.clone()).with_field(Field::scalar(
                "f",
                Association::Points,
                data.clone(),
            ));
            // Each plane alone, then all in one filter, whose planes
            // take each other's distance buffers.
            let runs = planes.iter().map(|&p| vec![p]).chain([planes.to_vec()]);
            for planes in runs {
                let expect = concat_surfaces(
                    "f",
                    planes.iter().map(|&plane| {
                        let mc = full_distance_slice(&grid, plane);
                        let sampled = mc.points.iter().map(|&p| sample(&grid, Some(&data), p));
                        (mc.points.clone(), sampled.collect(), mc.triangles)
                    }),
                );
                surfaces += usize::from(expect.num_cells() > 0);
                let slice = ThreeSlice {
                    planes,
                    field: "f".into(),
                };
                let filters: [&dyn Filter; 2] = [&slice, &Dpp(slice.clone())];
                for (filter, threads) in filters.iter().flat_map(|f| [1, 4, 16].map(|t| (f, t))) {
                    let out = par::with_threads(threads, || filter.execute(&ds));
                    let at = format!("{:?} at {threads} threads", slice.planes);
                    assert_eq!(bits(&out.dataset.unwrap()), bits(&expect), "{at}");
                }
            }
        }
        assert!(
            surfaces >= 20,
            "only {surfaces} of the planes cut their grid"
        );
    }

    /// Each segment's range is exactly the lowest and the highest
    /// distance at its points, so a skipped segment holds no cut cell
    /// and no live one is kept by a margin, and the buffer holds the
    /// distance at every point of a live segment: random normals,
    /// origins far off the grid, offset grids with uneven spacing.
    #[test]
    fn every_distance_lies_in_its_segments_closed_form_range() {
        let mut rng = vizmesh::XorShift::from_seed(47);
        let mut live = 0;
        for case in 0..40 {
            let scale = [1.0, 1e3, 1e8][case % 3];
            let cells = [1 + rng.below(40), 1 + rng.below(6), 1 + rng.below(6)];
            let grid = UniformGrid::new(
                cells.map(|c| c + 1),
                Vec3::new(
                    rng.range(-1.0, 1.0),
                    rng.range(-1.0, 1.0),
                    rng.range(-1.0, 1.0),
                ) * scale,
                Vec3::new(
                    rng.range(0.01, 1.0),
                    rng.range(0.01, 1.0),
                    rng.range(0.01, 1.0),
                ),
            );
            let normal = Vec3::new(
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            );
            let plane = Plane::new(
                grid.bounds().center() + normal * rng.range(-3.0, 3.0),
                normal,
            );
            let mut sdf = vec![f64::NAN; grid.num_points()];
            let index = fill_distance(&grid, &plane, &mut sdf);
            let ranges = index.ranges();
            let per_row = ranges.len() / (cells[1] * cells[2]);
            for (s, &[lo, hi]) in ranges.iter().enumerate() {
                let (row, x) = (s / per_row, s % per_row);
                let (j, k) = (row % cells[1], row / cells[1]);
                let [a, b] = cuts(&grid)[x];
                let points: Vec<[usize; 3]> = (a..=b)
                    .flat_map(|i| [[i, j, k], [i, j + 1, k], [i, j, k + 1], [i, j + 1, k + 1]])
                    .collect();
                let d = |[i, j, k]: [usize; 3]| plane.distance(grid.point_coord(i, j, k));
                let min = points.iter().map(|&p| d(p)).fold(f64::INFINITY, f64::min);
                let max = points
                    .iter()
                    .map(|&p| d(p))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!(
                    lo == min && hi == max,
                    "case {case}: range [{lo}, {hi}], distances [{min}, {max}]"
                );
                if hi > 0.0 && lo <= 0.0 {
                    live += 1;
                    for p in points {
                        let at = sdf[grid.point_id(p[0], p[1], p[2])];
                        assert_eq!(at.to_bits(), d(p).to_bits(), "case {case}: {p:?}");
                    }
                }
            }
        }
        assert!(live > 0, "no plane cut its grid");
    }

    #[test]
    fn plane_distance_signs() {
        let p = Plane::new(Vec3::splat(0.5), Vec3::Z);
        assert!(p.distance(Vec3::new(0.0, 0.0, 0.9)) > 0.0);
        assert!(p.distance(Vec3::new(0.0, 0.0, 0.1)) < 0.0);
        assert_eq!(p.distance(Vec3::new(7.0, -2.0, 0.5)), 0.0);
    }

    #[test]
    fn centered_slice_produces_three_planes_of_triangles() {
        let ds = dataset(8);
        let out = ThreeSlice::centered(&ds, "f").execute(&ds);
        let result = out.dataset.unwrap();
        assert!(result.num_cells() > 0);
        // Each output vertex must lie on one of the three center planes.
        let (points, _) = result.as_explicit().unwrap();
        for p in points {
            let on_plane =
                (p.z - 0.5).abs() < 1e-9 || (p.x - 0.5).abs() < 1e-9 || (p.y - 0.5).abs() < 1e-9;
            assert!(on_plane, "vertex {p:?} is on no slice plane");
        }
    }

    #[test]
    fn slice_area_matches_plane_cross_sections() {
        // Each axis plane cuts the unit cube with area 1; three slices
        // total about 3 (triangle tessellation is exact for planes).
        let ds = dataset(6);
        let out = ThreeSlice::centered(&ds, "f").execute(&ds);
        let result = out.dataset.unwrap();
        let (points, cells) = result.as_explicit().unwrap();
        let mut area = 0.0;
        for (_, t) in cells.iter() {
            let (a, b, c) = (
                points[t[0] as usize],
                points[t[1] as usize],
                points[t[2] as usize],
            );
            area += 0.5 * (b - a).cross(c - a).length();
        }
        assert!((area - 3.0).abs() < 1e-6, "area = {area}");
    }

    #[test]
    fn interpolated_field_matches_geometry() {
        // Field is x; on the y-z plane (x = 0.5) every vertex value is 0.5.
        let ds = dataset(6);
        let c = ds.bounds().center();
        let slice = one_plane(Plane::new(c, Vec3::X));
        let out = slice.execute(&ds);
        let result = out.dataset.unwrap();
        for &v in result.point_scalars("f").unwrap() {
            assert!((v - 0.5).abs() < 1e-9, "value {v}");
        }
    }

    #[test]
    fn slice_outside_domain_is_empty() {
        let ds = dataset(4);
        let slice = one_plane(Plane::new(Vec3::splat(10.0), Vec3::X));
        let out = slice.execute(&ds);
        assert_eq!(out.dataset.unwrap().num_cells(), 0);
    }

    #[test]
    fn kernels_include_signed_distance() {
        let ds = dataset(4);
        let out = ThreeSlice::centered(&ds, "f").execute(&ds);
        assert_eq!(out.kernels[0].class, KernelClass::SignedDistance);
        // Distance evaluated at every point for each of 3 planes.
        assert_eq!(out.kernels[0].work.items, 3 * 125);
        // Slice does a contour per plane: classification visits every cell
        // three times.
        assert_eq!(out.kernels[1].work.items, 3 * 64);
    }
}
