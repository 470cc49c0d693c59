//! Three-slice (§III-B5): cut the dataset on the x-y, y-z and x-z planes.
//!
//! Exactly as the paper describes, each slice first creates a new
//! point-centered field holding the **signed distance** from the plane
//! (the compute-intensive part), then runs the contour algorithm on that
//! field at isovalue 0, yielding a topologically 2-D plane.

use crate::contour::marching_cubes;
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
            // Kernel 1: signed-distance field for every mesh point. The
            // paper notes this per-node computation is what makes slice
            // more compute-intensive than plain contour.
            par::for_each_chunk_zip(&mut sdf[..], crate::CELL_MIN_LEN, |points, chunk| {
                for (s, (_, p)) in chunk.iter_mut().zip(grid.points(points)) {
                    *s = plane.distance(p);
                }
            });
            distance_work.tally(num_points as u64, 30, 18, 24, 8);

            // Kernel 2+3: contour the distance field at zero.
            let mc = marching_cubes(grid, &sdf, 0.0);
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
