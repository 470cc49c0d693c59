//! Isovolume (§III-B4): extract the sub-volume where a scalar lies in
//! `[lo, hi]`.
//!
//! Like clip, but against a scalar range instead of an implicit function:
//! cells completely inside the range pass through, cells completely
//! outside are removed, and straddling cells are subdivided — first
//! clipped against `f ≥ lo`, then the result against `f ≤ hi`.

use crate::arena::TetScratch;
use crate::filter::{Filter, FilterOutput, KernelClass, KernelReport};
use crate::tetclip::{clip_keep_above_into, clip_keep_below_into, TetMesh, HEX_TO_TETS};
use vizmesh::{par, Association, CellSet, CellShape, DataSet, Field, WorkCounters};

/// The isovolume filter over a point-centered scalar.
#[derive(Debug, Clone)]
pub struct Isovolume {
    pub field: String,
    pub lo: f64,
    pub hi: f64,
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

    /// The middle `frac` band of the field's range.
    pub fn middle_band(field: impl Into<String>, input: &DataSet, frac: f64) -> Self {
        let field = field.into();
        let (lo, hi) = input
            .field_with(&field, Association::Points)
            .and_then(|f| f.scalar_range())
            .unwrap_or((0.0, 1.0));
        let mid = (lo + hi) * 0.5;
        let half = (hi - lo) * frac.clamp(0.0, 1.0) * 0.5;
        Isovolume::new(field, mid - half, mid + half)
    }
}

impl Filter for Isovolume {
    fn name(&self) -> &'static str {
        "Isovolume"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        let grid = input
            .as_uniform()
            // lint: infallible because the study harness only feeds uniform grids
            .expect("isovolume expects a structured dataset");
        let values = input
            .point_scalars(&self.field)
            // lint: infallible because the pipeline registers the field before running
            .unwrap_or_else(|| panic!("missing point scalar field '{}'", self.field));
        let num_cells = grid.num_cells();
        let num_points = grid.num_points();

        // Phase 1: classify cells against the range.
        #[derive(Clone, Copy, PartialEq)]
        enum Side {
            In,
            Out,
            Straddle,
        }
        let sides: Vec<Side> = par::map(num_cells, crate::CELL_MIN_LEN, |c| {
            let ids = grid.cell_point_ids(c);
            let mut all_in = true;
            let mut all_above_hi = true;
            let mut all_below_lo = true;
            for &p in &ids {
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
                Side::In
            } else if all_above_hi || all_below_lo {
                Side::Out
            } else {
                Side::Straddle
            }
        });
        let mut classify = WorkCounters::new();
        classify.tally(num_cells as u64, 38, 2, 64 + 32, 1);
        classify.working_set_bytes = (num_points * 8) as u64;

        // Phase 2/3: gather interior cells, clip straddling ones twice.
        let (mut num_in, mut num_straddle) = (0usize, 0usize);
        for s in &sides {
            match s {
                Side::In => num_in += 1,
                Side::Straddle => num_straddle += 1,
                Side::Out => {}
            }
        }
        let active = num_in + num_straddle;
        let mut gather = WorkCounters::new();
        let mut tet_work = WorkCounters::new();
        // Pre-size for the measured shape of straddle output (≈ 12 tets
        // per straddling hex); everything still grows on demand.
        let mut mesh = TetMesh::with_point_capacity(active.saturating_mul(2).min(num_points));
        let mut scratch = TetScratch::new();
        let mut point_map: Vec<u32> = vec![u32::MAX; num_points];
        let mut cells = CellSet::with_capacity(
            num_in + 12 * num_straddle,
            8 * num_in + 4 * 12 * num_straddle,
        );
        let mut map_point = |mesh: &mut TetMesh, pid: usize, w: &mut WorkCounters| -> u32 {
            if point_map[pid] == u32::MAX {
                point_map[pid] =
                    mesh.add_point_with(grid.point_coord_id(pid), values[pid], values[pid]);
                w.tally(1, 12, 3, 32, 40);
            }
            point_map[pid]
        };
        for c in 0..num_cells {
            match sides[c] {
                Side::Out => {}
                Side::In => {
                    let ids = grid.cell_point_ids(c);
                    let mut conn = [0u32; 8];
                    for (slot, &pid) in ids.iter().enumerate() {
                        conn[slot] = map_point(&mut mesh, pid, &mut gather);
                    }
                    cells.push(CellShape::Hexahedron, &conn);
                    gather.tally(1, 30, 0, 32, 40);
                }
                Side::Straddle => {
                    let ids = grid.cell_point_ids(c);
                    let mut corner = [0u32; 8];
                    for (slot, &pid) in ids.iter().enumerate() {
                        corner[slot] = map_point(&mut mesh, pid, &mut tet_work);
                    }
                    scratch.tets.clear();
                    for t in HEX_TO_TETS {
                        scratch
                            .tets
                            .push([corner[t[0]], corner[t[1]], corner[t[2]], corner[t[3]]]);
                    }
                    // Keep f >= lo, then f <= hi, through the reused
                    // scratch buffers (no per-cell allocation, no
                    // whole-mesh value rewriting).
                    tet_work +=
                        clip_keep_above_into(&mut mesh, &scratch.tets, self.lo, &mut scratch.mid);
                    tet_work +=
                        clip_keep_below_into(&mut mesh, &scratch.mid, self.hi, &mut scratch.kept);
                    for &t in &scratch.kept {
                        cells.push(CellShape::Tetra, &t);
                    }
                }
            }
        }

        let payloads = mesh.payloads.clone();
        let mut ds = DataSet::explicit(mesh.points, cells);
        let n = ds.num_points();
        ds.add_field(Field::scalar(
            self.field.clone(),
            Association::Points,
            payloads[..n].to_vec(),
        ));
        ds.compact_points();
        FilterOutput::data(
            ds,
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
    use vizmesh::{UniformGrid, Vec3};

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
        let ds = x_field(4);
        let iso = Isovolume::middle_band("f", &ds, 0.5);
        assert!((iso.lo - 0.25).abs() < 1e-12);
        assert!((iso.hi - 0.75).abs() < 1e-12);
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
