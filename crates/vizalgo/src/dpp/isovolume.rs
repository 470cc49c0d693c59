//! DPP isovolume: flag-scan-compact cell selection in front of the same
//! per-cell subdivision worklet as the traditional filter.
//!
//! The classify map produces a three-way side code per cell, a compact
//! keeps the active (interior + straddling) cells in cell order, and
//! [`Isovolume::subdivide`] — the traditional filter's walk, cut into
//! the same slab chunks — then processes exactly the cells the
//! traditional walk would have, in the same order, so the output mesh
//! is **bit-identical**. What moves is the execution shape:
//! classification and selection become primitive traffic instead of a
//! fused serial sweep.

use super::primitives::{self, DppTrace, PrimitiveOp};
use super::DppExecute;
use crate::filter::FilterOutput;
use crate::isovolume::Isovolume;
use crate::tetclip::HexSide;
use vizmesh::DataSet;

impl DppExecute for Isovolume {
    fn dpp_execute(&self, input: &DataSet) -> FilterOutput {
        let (grid, values) = self.inputs(input);
        let num_cells = grid.num_cells();
        let mut trace = DppTrace::new();

        // 1. map: three-way side classification (the traditional
        // predicate).
        let sides: Vec<HexSide> = primitives::map_cells(&mut trace, grid, 64 + 32, |cell| {
            self.side(values, &cell.point_ids())
        });
        trace.record_flops(PrimitiveOp::Map, 2 * num_cells as u64);

        // 2. compact: active cells in cell order — interleaved whole and
        // straddling exactly as the traditional serial sweep visits them.
        let flags: Vec<bool> = primitives::map(&mut trace, &sides, |&s| s != HexSide::Out);
        let active = primitives::compact_indices(&mut trace, &flags);

        // 3. the subdivision worklet over the compacted cells, each run
        // of whole slabs found in the list as marching cubes finds its.
        let cells = |ids: std::ops::Range<usize>| {
            let from = |c: usize| active.partition_point(|&a| (a as usize) < c);
            active[from(ids.start)..from(ids.end)]
                .iter()
                .map(|&c| c as usize)
        };
        let sub = self.subdivide(grid, values, cells, &sides);
        // The worklet's traffic, in primitive currency: a map over the
        // active cells whose gathers weld points and whose tet clips are
        // FP work.
        trace.record(
            PrimitiveOp::Map,
            active.len() as u64,
            (active.len() * (64 + 32)) as u64,
            0,
        );
        let points_welded = sub.whole_points + sub.straddle_points;
        trace.record(
            PrimitiveOp::Gather,
            points_welded,
            32 * points_welded,
            40 * points_welded,
        );
        trace.record_flops(PrimitiveOp::Map, 60 * sub.tets_clipped);
        let cells_out = sub.cells.num_cells() as u64;
        trace.record(PrimitiveOp::Scatter, cells_out, 0, 36 * cells_out);

        let ds = self.dataset(sub);
        FilterOutput::data_with_primitives(ds, trace.kernel_reports(), trace.reports())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpp::Dpp;
    use crate::filter::Filter;
    use vizmesh::{Association, Field, UniformGrid, Vec3};

    fn radial(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let c = Vec3::splat(0.5);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).distance(c))
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

    #[test]
    fn dpp_isovolume_is_bit_identical_to_traditional() {
        let ds = radial(8);
        let trad = Isovolume::new("f", 0.2, 0.4).execute(&ds);
        let dpp = Dpp(Isovolume::new("f", 0.2, 0.4)).execute(&ds);
        let t = trad.dataset.unwrap();
        let d = dpp.dataset.unwrap();
        let (tp, tc) = t.as_explicit().unwrap();
        let (dp, dc) = d.as_explicit().unwrap();
        assert_eq!(tp.len(), dp.len());
        for (a, b) in tp.iter().zip(dp) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(tc, dc);
        assert_eq!(t.point_scalars("f").unwrap(), d.point_scalars("f").unwrap());
        assert!(!dpp.primitives.is_empty());
    }

    #[test]
    fn dpp_isovolume_empty_band() {
        let ds = radial(4);
        let out = Dpp(Isovolume::new("f", 5.0, 6.0)).execute(&ds);
        assert_eq!(out.dataset.unwrap().num_cells(), 0);
    }
}
