//! Three-slice (§III-B5): cut the dataset on the x-y, y-z and x-z planes.
//!
//! As the paper describes, each slice first creates a new point-centered
//! field holding the **signed distance** from the plane (the
//! compute-intensive part), then runs the contour algorithm on that
//! field at isovalue 0, yielding a topologically 2-D plane.
//!
//! The work reports charge exactly that: a distance at every point and
//! a classify of every cell, per plane. The host computes less. Each
//! plane's [`SegmentIndex`] comes in closed form
//! ([`Plane::segment_index`]), and the one reused distance buffer is
//! filled only at the points of the segments it leaves live
//! ([`fill_distance`]) — the only points marching cubes then reads.
//! Both backends slice through these two functions, so the output is
//! the same bits a full distance map gives.

use crate::contour::{cuts, marching_cubes, SegmentIndex};
use crate::filter::{self, concat_surfaces, Filter, FilterOutput, KernelClass, KernelReport};
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

    /// The [`SegmentIndex`] of this plane's signed distance over `grid`,
    /// in closed form: no distance is computed at a point.
    ///
    /// The exact distance is affine, with one term `n_a·(p_a − o_a)` per
    /// axis, each monotone along its axis; so over a segment's box of
    /// points its extremes are the sums of each term's lower and higher
    /// value at the box's two ends on that axis. [`Self::distance`]
    /// rounds, and so do these terms and sums. To first order in the
    /// unit roundoff `u`, each strays from the exact value by at most
    /// `6u·scale`, where `scale = Σ_a |n_a|·(max |p_a| + |o_a|)`: `4u` for
    /// a term (the coordinate's multiply and add, the subtraction, the
    /// product) and `2u` for the two sums. Every range is widened by
    /// `16·EPSILON·scale = 32u·scale` — more than twice the `13u·scale`
    /// the two errors and the widening's own rounding can add up to —
    /// plus `MIN_POSITIVE` for the absolute error of a subnormal
    /// product. So every computed distance lies in its segment's range,
    /// and a skipped segment holds no cut cell. A non-finite `scale`
    /// (a NaN or infinite origin or normal, or coordinates near
    /// overflow) bounds nothing: every segment is live then.
    pub(crate) fn segment_index(&self, grid: &UniformGrid) -> SegmentIndex {
        let dims = grid.point_dims();
        let (o, n) = (self.origin, self.normal);
        let mut scale = 0.0;
        // Per axis, the term at each point index along it.
        let terms: [Vec<f64>; 3] = std::array::from_fn(|a| {
            let coord = |i: usize| {
                let mut ijk = [0; 3];
                ijk[a] = i;
                grid.point_coord(ijk[0], ijk[1], ijk[2])[a]
            };
            // |p_a| is largest at an end of the axis.
            let reach = coord(0).abs().max(coord(dims[a] - 1).abs());
            scale += n[a].abs() * (reach + o[a].abs());
            (0..dims[a]).map(|i| n[a] * (coord(i) - o[a])).collect()
        });
        if scale.is_nan() || scale > f64::MAX / 4.0 {
            return SegmentIndex::everywhere(grid);
        }
        let margin = 16.0 * f64::EPSILON * scale + f64::MIN_POSITIVE;
        let span = |t: &[f64], a: usize, b: usize| [t[a].min(t[b]), t[a].max(t[b])];
        let [tx, ty, tz] = &terms;
        let xs: Vec<[f64; 2]> = cuts(grid).iter().map(|&[a, b]| span(tx, a, b)).collect();
        SegmentIndex::from_rows(grid, |j, k, out| {
            let ([ylo, yhi], [zlo, zhi]) = (span(ty, j, j + 1), span(tz, k, k + 1));
            out.extend(
                xs.iter()
                    .map(|&[xlo, xhi]| [xlo + ylo + zlo - margin, xhi + yhi + zhi + margin]),
            );
        })
    }
}

/// Write `plane`'s signed distance into `sdf` at every point of a
/// segment `index` leaves live at isovalue 0 — every point marching
/// cubes reads through that index — and leave the other points as they
/// were. The live segments mark the point runs their corners lie on;
/// chunks of the buffer then run on `par`, each filling the marked runs
/// of its point rows, a point two marked runs share once.
pub(crate) fn fill_distance(
    grid: &UniformGrid,
    plane: &Plane,
    index: &SegmentIndex,
    sdf: &mut [f64],
) {
    let [nx, ny, nz] = grid.point_dims();
    let cy = ny - 1;
    let cuts = cuts(grid);
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
                    chunk[first + i - points.start] = plane.distance(grid.point_coord(i, j, k));
                }
                filled = filled.max(to);
            }
        }
    });
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

        let mut distance_work = WorkCounters::new();
        let mut classify = WorkCounters::new();
        let mut interp = WorkCounters::new();
        // One signed-distance buffer shared by all planes: refilled in
        // place each iteration instead of collected fresh.
        let mut sdf = vec![0.0f64; num_points];

        let surfaces = self.planes.iter().map(|plane| {
            // Kernel 1: signed-distance field, charged at every mesh
            // point. The paper notes this per-node computation is what
            // makes slice more compute-intensive than plain contour.
            let index = plane.segment_index(grid);
            fill_distance(grid, plane, &index, &mut sdf);
            distance_work.tally(num_points as u64, 30, 18, 24, 8);

            // Kernel 2+3: contour the distance field at zero.
            let mc = marching_cubes(grid, &sdf, &index, 0.0);
            classify += mc.classify_work;
            interp += mc.interp_work;

            // Interpolate the data field onto the slice vertices.
            interp.tally(mc.points.len() as u64, 46, 22, 96, 8);
            let mut sampled = Vec::with_capacity(mc.points.len());
            sampled.extend(mc.points.iter().map(|&p| sample(grid, data, p)));
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
    /// at 4 and 16 threads), and an offset, non-dyadic 12 × 9 × 7 grid.
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
            // share the distance buffer.
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

    /// Every computed distance lies in the closed-form range of each
    /// segment holding it, so a skipped segment holds no cut cell: random
    /// normals, origins far off the grid, offset grids with uneven
    /// spacing.
    #[test]
    fn every_distance_lies_in_its_segments_closed_form_range() {
        let mut rng = vizmesh::XorShift::from_seed(47);
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
            let index = plane.segment_index(&grid);
            let ranges = index.ranges();
            let per_row = ranges.len() / (cells[1] * cells[2]);
            for (s, &[lo, hi]) in ranges.iter().enumerate() {
                let (row, x) = (s / per_row, s % per_row);
                let (j, k) = (row % cells[1], row / cells[1]);
                let [a, b] = cuts(&grid)[x];
                for (i, dj, dk) in
                    (a..=b).flat_map(|i| [(i, 0, 0), (i, 1, 0), (i, 0, 1), (i, 1, 1)])
                {
                    let d = plane.distance(grid.point_coord(i, j + dj, k + dk));
                    assert!(lo <= d && d <= hi, "case {case}: {d} outside [{lo}, {hi}]");
                }
            }
        }
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
