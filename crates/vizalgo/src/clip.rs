//! Spherical clip (§III-B3): cull geometry inside a sphere.
//!
//! Cells completely inside the sphere are omitted, cells completely
//! outside are passed through whole, and straddling cells are subdivided
//! (tetrahedralized and clipped) keeping only the outside part.

use crate::filter::{self, mesh_dataset, Filter, FilterOutput, KernelClass, KernelReport};
use crate::tetclip::{clip_keep_above_into, subdivide_hexes, HexSide};
use vizmesh::{DataSet, Vec3, WorkCounters};

/// The spherical clip filter.
#[derive(Debug, Clone)]
pub struct SphericalClip {
    pub(crate) center: Vec3,
    pub(crate) radius: f64,
    /// Point field carried through to the output (interpolated on cut
    /// edges); defaults to `energy`.
    pub(crate) carry_field: String,
}

impl SphericalClip {
    pub fn new(center: Vec3, radius: f64) -> Self {
        assert!(radius > 0.0, "clip radius must be positive");
        SphericalClip {
            center,
            radius,
            carry_field: "energy".into(),
        }
    }

    /// Signed distance: negative inside the sphere.
    #[inline]
    fn distance(&self, p: Vec3) -> f64 {
        p.distance(self.center) - self.radius
    }
}

impl Filter for SphericalClip {
    fn name(&self) -> &'static str {
        "Spherical Clip"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        let grid = filter::structured(input, self.name());
        let carry = input.point_scalars(&self.carry_field);
        let num_cells = grid.num_cells();

        // Phase 1 (SignedDistance): per-point distances, then per-cell
        // classification from the 8 corner signs.
        let num_points = grid.num_points();
        let dist: Vec<f64> = grid.map_points(crate::CELL_MIN_LEN, |_, p| self.distance(p));
        let mut classify = WorkCounters::new();
        classify.tally(num_points as u64, 22, 12, 24, 8);
        let sides: Vec<HexSide> = grid.map_cells(crate::CELL_MIN_LEN, |cell| {
            let ids = cell.point_ids();
            match ids.iter().filter(|&&p| dist[p] < 0.0).count() {
                0 => HexSide::Whole,
                8 => HexSide::Out,
                _ => HexSide::Straddle,
            }
        });
        classify.tally(num_cells as u64, 26, 0, 64 + 32, 1);
        classify.working_set_bytes = (num_points * 8) as u64;

        // Phase 2 (GatherScatter): pass whole outside cells through;
        // Phase 3 (TetClip): subdivide straddling cells, keeping the
        // outside part. Sized for 12 kept tets per straddling hex: the
        // paper configuration at 128³ keeps 843 084 tets of 75 704
        // straddlers, 11.1 each (10.8–11.6 per chunk, 11.1–11.3 from 16³
        // to 128³), and a chunk whose cells outgrow their slot copies
        // them once more. The distances go with `point`, freed before
        // the walk's stitch allocates.
        let point = move |pid: usize| (dist[pid], carry.map_or(dist[pid], |v| v[pid]));
        let sub = subdivide_hexes(
            grid,
            |ids| ids,
            &sides,
            12,
            point,
            |mesh, s| clip_keep_above_into(mesh, &s.tets, 0.0, &mut s.kept),
        );
        let (gather, tet_work) = sub.kernel_work();

        let payloads = carry.map(|_| (self.carry_field.as_str(), sub.mesh.payloads));
        let fields = payloads.into_iter().chain([("distance", sub.mesh.values)]);
        let ds = mesh_dataset(sub.mesh.points, sub.cells, fields);
        FilterOutput::data(
            ds,
            vec![
                KernelReport::new("clip-distance", KernelClass::SignedDistance, classify),
                KernelReport::new("clip-gather", KernelClass::GatherScatter, gather),
                KernelReport::new("clip-subdivide", KernelClass::TetClip, tet_work),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizmesh::{Association, CellShape, Field, UniformGrid};

    fn unit_dataset(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let np = grid.num_points();
        DataSet::uniform(grid).with_field(Field::scalar(
            "energy",
            Association::Points,
            vec![1.0; np],
        ))
    }

    /// Volume of the output mesh (hexes + tets).
    fn output_volume(ds: &DataSet) -> f64 {
        let (points, cells) = ds.as_explicit().unwrap();
        let mut vol = 0.0;
        for (shape, conn) in cells.iter() {
            match shape {
                CellShape::Tetra => {
                    let (a, b, c, d) = (
                        points[conn[0] as usize],
                        points[conn[1] as usize],
                        points[conn[2] as usize],
                        points[conn[3] as usize],
                    );
                    vol += ((b - a).cross(c - a).dot(d - a) / 6.0).abs();
                }
                CellShape::Hexahedron => {
                    // Uniform-grid hexes: volume from the main diagonal.
                    let a = points[conn[0] as usize];
                    let g = points[conn[6] as usize];
                    let e = g - a;
                    vol += (e.x * e.y * e.z).abs();
                }
                other => panic!("unexpected output shape {other:?}"),
            }
        }
        vol
    }

    #[test]
    fn clip_removes_sphere_volume() {
        let ds = unit_dataset(12);
        let clip = SphericalClip::new(Vec3::splat(0.5), 0.3);
        let out = clip.execute(&ds);
        let result = out.dataset.unwrap();
        let vol = output_volume(&result);
        let sphere = 4.0 / 3.0 * std::f64::consts::PI * 0.3f64.powi(3);
        let expect = 1.0 - sphere;
        assert!(
            (vol - expect).abs() < 0.01,
            "clipped volume {vol} vs expected {expect}"
        );
    }

    #[test]
    fn sphere_outside_domain_keeps_everything() {
        let ds = unit_dataset(4);
        let clip = SphericalClip::new(Vec3::splat(50.0), 1.0);
        let out = clip.execute(&ds);
        let result = out.dataset.unwrap();
        assert_eq!(result.num_cells(), 64);
        let vol = output_volume(&result);
        assert!((vol - 1.0).abs() < 1e-9);
    }

    #[test]
    fn huge_sphere_removes_everything() {
        let ds = unit_dataset(4);
        let clip = SphericalClip::new(Vec3::splat(0.5), 10.0);
        let out = clip.execute(&ds);
        assert_eq!(out.dataset.unwrap().num_cells(), 0);
    }

    #[test]
    fn output_points_are_outside_or_on_sphere() {
        let ds = unit_dataset(8);
        let clip = SphericalClip::new(Vec3::splat(0.5), 0.35);
        let out = clip.execute(&ds);
        let result = out.dataset.unwrap();
        let (points, _) = result.as_explicit().unwrap();
        for p in points {
            let d = p.distance(Vec3::splat(0.5));
            assert!(
                d >= 0.35 - 0.02,
                "point {p:?} is inside the sphere (d = {d})"
            );
        }
    }

    #[test]
    fn carried_field_is_interpolated() {
        let grid = UniformGrid::cube_cells(6);
        let np = grid.num_points();
        // Energy = x coordinate: interpolated values must stay in [0, 1].
        let vals: Vec<f64> = (0..np).map(|p| grid.point_coord_id(p).x).collect();
        let ds =
            DataSet::uniform(grid).with_field(Field::scalar("energy", Association::Points, vals));
        let clip = SphericalClip::new(Vec3::splat(0.5), 0.3);
        let out = clip.execute(&ds);
        let result = out.dataset.unwrap();
        let e = result.point_scalars("energy").unwrap();
        assert!(!e.is_empty());
        assert!(e.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
    }

    #[test]
    fn kernel_reports_in_order() {
        let ds = unit_dataset(6);
        let b = ds.bounds();
        let out = SphericalClip::new(b.center(), b.diagonal() * 0.3).execute(&ds);
        let classes: Vec<_> = out.kernels.iter().map(|k| k.class).collect();
        assert_eq!(
            classes,
            vec![
                KernelClass::SignedDistance,
                KernelClass::GatherScatter,
                KernelClass::TetClip
            ]
        );
        // Distance evaluation touched every point at least once.
        assert!(out.kernels[0].work.items >= ds.num_points() as u64);
    }
}
