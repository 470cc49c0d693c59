//! Isovolume (§III-B4): extract the sub-volume where a scalar lies in
//! `[lo, hi]`.
//!
//! Like clip, but against a scalar range instead of an implicit function:
//! cells completely inside the range pass through, cells completely
//! outside are removed, and straddling cells are subdivided — first
//! clipped against `f ≥ lo`, then the result against `f ≤ hi`.

use crate::filter::{self, mesh_dataset, Filter, FilterOutput, KernelClass, KernelReport};
use crate::tetclip::{
    clip_keep_above_into, clip_keep_below_into, subdivide_hexes, HexSide, Subdivision,
};
use std::ops::Range;
use vizmesh::{DataSet, UniformGrid, WorkCounters};

/// The isovolume filter over a point-centered scalar.
#[derive(Debug, Clone)]
pub struct Isovolume {
    pub(crate) field: String,
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl Isovolume {
    pub fn new(field: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "isovolume range is inverted: [{lo}, {hi}]");
        Isovolume {
            field: field.into(),
            lo,
            hi,
        }
    }

    /// The grid and the banded point scalar.
    pub(crate) fn inputs<'a>(&self, input: &'a DataSet) -> (&'a UniformGrid, &'a [f64]) {
        (
            filter::structured(input, self.name()),
            filter::point_scalars(input, self.name(), &self.field),
        )
    }

    /// Where a cell with corner points `ids` sits relative to the band.
    pub(crate) fn side(&self, values: &[f64], ids: &[usize; 8]) -> HexSide {
        let mut all_in = true;
        let mut all_above_hi = true;
        let mut all_below_lo = true;
        for &p in ids {
            let v = values[p];
            if v < self.lo || v > self.hi {
                all_in = false;
            }
            if v <= self.hi {
                all_above_hi = false;
            }
            if v >= self.lo {
                all_below_lo = false;
            }
        }
        if all_in {
            HexSide::Whole
        } else if all_above_hi || all_below_lo {
            HexSide::Out
        } else {
            HexSide::Straddle
        }
    }

    /// Gather the interior cells of `cells` (per range of whole k-slabs,
    /// as [`subdivide_hexes`] asks) and clip the straddling ones twice —
    /// keep `f ≥ lo`, then `f ≤ hi` — through the reused scratch
    /// buffers. Sized for 15 tets per straddling hex: the paper
    /// configuration at 128³ keeps 581 400 tets of 41 957 straddlers,
    /// 13.9 each (13.3–14.0 per chunk, 13.9–14.0 from 16³ to 128³), and
    /// a chunk whose cells outgrow their slot copies them once more.
    pub(crate) fn subdivide<I: Iterator<Item = usize>>(
        &self,
        grid: &UniformGrid,
        values: &[f64],
        cells: impl Fn(Range<usize>) -> I + Sync,
        sides: &[HexSide],
    ) -> Subdivision {
        let point = |pid: usize| (values[pid], values[pid]);
        subdivide_hexes(grid, cells, sides, 15, point, |mesh, s| {
            clip_keep_above_into(mesh, &s.tets, self.lo, &mut s.mid)
                + clip_keep_below_into(mesh, &s.mid, self.hi, &mut s.kept)
        })
    }

    /// The output dataset of a [`subdivide`](Isovolume::subdivide) run.
    pub(crate) fn dataset(&self, sub: Subdivision) -> DataSet {
        let fields = [(self.field.as_str(), sub.mesh.payloads)];
        mesh_dataset(sub.mesh.points, sub.cells, fields)
    }
}

impl Filter for Isovolume {
    fn name(&self) -> &'static str {
        "Isovolume"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        let (grid, values) = self.inputs(input);
        let num_cells = grid.num_cells();

        // Phase 1: classify cells against the range.
        let sides: Vec<HexSide> = grid.map_cells(crate::CELL_MIN_LEN, |cell| {
            self.side(values, &cell.point_ids())
        });
        let mut classify = WorkCounters::new();
        classify.tally(num_cells as u64, 38, 2, 64 + 32, 1);
        classify.working_set_bytes = (grid.num_points() * 8) as u64;

        // Phase 2/3: gather interior cells, clip straddling ones twice.
        let sub = self.subdivide(grid, values, |ids| ids, &sides);
        let (gather, tet_work) = sub.kernel_work();
        FilterOutput::data(
            self.dataset(sub),
            vec![
                KernelReport::new("isovolume-classify", KernelClass::CellClassify, classify),
                KernelReport::new("isovolume-gather", KernelClass::GatherScatter, gather),
                KernelReport::new("isovolume-subdivide", KernelClass::TetClip, tet_work),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgorithmSpec, ScalarBand};
    use vizmesh::{Association, CellShape, Field, Vec3};

    /// Dataset with point scalar = x coordinate over the unit cube.
    fn x_field(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).x)
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

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
    fn slab_volume_is_exact_for_linear_field() {
        // f = x in [0.25, 0.75] carves out exactly half the unit cube,
        // and the cut planes fall between grid points so cells straddle.
        let ds = x_field(8);
        let out = Isovolume::new("f", 0.25 + 1e-9, 0.75 - 1e-9).execute(&ds);
        let vol = output_volume(&out.dataset.unwrap());
        assert!((vol - 0.5).abs() < 1e-6, "volume = {vol}");
    }

    #[test]
    fn off_grid_band_volume() {
        // Band [0.3, 0.6] of f = x: volume 0.3; cut planes are strictly
        // inside cells for an 8-cell grid.
        let ds = x_field(8);
        let out = Isovolume::new("f", 0.3, 0.6).execute(&ds);
        let vol = output_volume(&out.dataset.unwrap());
        assert!((vol - 0.3).abs() < 1e-9, "volume = {vol}");
    }

    #[test]
    fn full_range_passes_everything_through() {
        let ds = x_field(4);
        let out = Isovolume::new("f", -1.0, 2.0).execute(&ds);
        let result = out.dataset.unwrap();
        assert_eq!(result.num_cells(), 64);
        assert!((output_volume(&result) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_range_outside_field() {
        let ds = x_field(4);
        let out = Isovolume::new("f", 5.0, 6.0).execute(&ds);
        assert_eq!(out.dataset.unwrap().num_cells(), 0);
    }

    #[test]
    fn output_field_values_are_within_band() {
        let ds = x_field(8);
        let out = Isovolume::new("f", 0.3, 0.6).execute(&ds);
        let result = out.dataset.unwrap();
        let vals = result.point_scalars("f").unwrap();
        // Points referenced by cells should be within the band (small
        // tolerance for interpolation rounding).
        let (_, cells) = result.as_explicit().unwrap();
        let mut used = vec![false; vals.len()];
        for (_, conn) in cells.iter() {
            for &p in conn {
                used[p as usize] = true;
            }
        }
        for (i, &v) in vals.iter().enumerate() {
            if used[i] {
                assert!(
                    (0.3 - 1e-9..=0.6 + 1e-9).contains(&v),
                    "value {v} outside band"
                );
            }
        }
    }

    #[test]
    fn middle_band_covers_field_middle() {
        // f = x over [0, 1]: the middle half is the slab [0.25, 0.75].
        let ds = x_field(4);
        let spec = AlgorithmSpec::Isovolume {
            field: "f".into(),
            band: ScalarBand::MiddleBand(0.5),
        };
        let result = spec.build(&ds).execute(&ds).dataset.unwrap();
        assert!((output_volume(&result) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn radial_band_is_a_shell() {
        // f = distance from center; band selects a spherical shell whose
        // volume we can verify.
        let grid = UniformGrid::cube_cells(12);
        let c = Vec3::splat(0.5);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).distance(c))
            .collect();
        let ds = DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals));
        let (r0, r1) = (0.2, 0.4);
        let out = Isovolume::new("f", r0, r1).execute(&ds);
        let vol = output_volume(&out.dataset.unwrap());
        let expect = 4.0 / 3.0 * std::f64::consts::PI * (r1.powi(3) - r0.powi(3));
        assert!(
            (vol - expect).abs() / expect < 0.05,
            "shell volume {vol} vs {expect}"
        );
    }
}
