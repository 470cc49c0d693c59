//! DPP threshold: the flag → scan → compact pattern. Cell selection and
//! per-cell outputs are exactly the traditional filter's (same kept set,
//! same order, same carried values); the *point weld* is the one place
//! the formulations legitimately differ — the traditional filter numbers
//! points by first use in kept-cell order, while the DPP formulation
//! numbers them by a used-flag scatter + scan in grid order. The point
//! **sets** are identical; only their ordering (and therefore the
//! rounding of order-sensitive coordinate checksums) differs. See
//! docs/DPP.md for the documented tolerance.
//!
//! The maps, the scan and the compactions run on `par` as primitives
//! (`super::primitives`), and so does the gather worklet that writes the
//! kept cells' connectivity: its chunks of the kept list are joined in
//! kept order into one [`CellSet`]. The used-point scatter is sequential.

use super::primitives::{self, DppTrace, PrimitiveOp};
use super::DppExecute;
use crate::filter::FilterOutput;
use crate::threshold::Threshold;
use vizmesh::{par, CellSet, CellShape, DataSet, UniformGrid, Vec3};

impl DppExecute for Threshold {
    fn dpp_execute(&self, input: &DataSet) -> FilterOutput {
        let (grid, cell_vals, keeps) = self.inputs(input);
        let num_cells = grid.num_cells();
        let num_points = grid.num_points();
        let mut trace = DppTrace::new();

        // 1. map: the keep flag per cell (the traditional predicate).
        let bytes_per_cell = if cell_vals.is_some() { 8 } else { 64 + 32 };
        let keep: Vec<bool> = primitives::map_cells(&mut trace, grid, bytes_per_cell, keeps);
        trace.record_flops(PrimitiveOp::Map, 2 * num_cells as u64);

        // 2. compact: the kept cell ids, in cell order.
        let kept = primitives::compact_indices(&mut trace, &keep);

        // 3. point weld, DPP-style: scatter a used flag per referenced
        // point, scan it into dense ranks, gather coordinates in grid
        // order. (The traditional filter instead numbers points by first
        // use — same set, different order.)
        let mut used: Vec<u32> = vec![0; num_points];
        mark_used_points(grid, &kept, &mut used);
        trace.record(
            PrimitiveOp::Scatter,
            8 * kept.len() as u64,
            32 * kept.len() as u64,
            4 * 8 * kept.len() as u64,
        );
        let ranks = primitives::inclusive_scan(&mut trace, &used);
        let num_out_points = ranks.last().copied().unwrap_or(0) as usize;
        let used_flags: Vec<bool> = primitives::map(&mut trace, &used, |&u| u != 0);
        let used_pids = primitives::compact_indices(&mut trace, &used_flags);
        let points: Vec<Vec3> = primitives::map(&mut trace, &used_pids, |&pid| {
            grid.point_coord_id(pid as usize)
        });
        debug_assert_eq!(points.len(), num_out_points);

        // 4. gather: connectivity through the rank table, cell payloads.
        let cells = emit_cells(grid, &kept, &ranks);
        trace.record(
            PrimitiveOp::Gather,
            8 * kept.len() as u64,
            (8 * (4 + 4) * kept.len()) as u64,
            4 * 8 * kept.len() as u64,
        );
        let out_cell_vals = cell_vals.map(|vals| primitives::gather(&mut trace, vals, &kept));

        let ds = self.output(points, cells, out_cell_vals);
        FilterOutput::data_with_primitives(ds, trace.kernel_reports(), trace.reports())
    }
}

/// Scatter worklet: flag every point referenced by a kept cell.
fn mark_used_points(grid: &UniformGrid, kept: &[u32], used: &mut [u32]) {
    for cell in grid.cells(kept.iter().map(|&c| c as usize)) {
        for pid in cell.point_ids() {
            used[pid] = 1;
        }
    }
}

/// Gather worklet: kept-cell connectivity through the scanned ranks
/// (`rank − 1` is the dense id of a used point), chunks of the kept list
/// on `par`, joined in kept order.
fn emit_cells(grid: &UniformGrid, kept: &[u32], ranks: &[u32]) -> CellSet {
    let connectivity = par::map_chunks(kept.len(), crate::CELL_MIN_LEN, |chunk| {
        let mut conn = Vec::with_capacity(8 * chunk.len());
        for cell in grid.cells(kept[chunk].iter().map(|&c| c as usize)) {
            conn.extend(cell.point_ids().map(|pid| ranks[pid] - 1));
        }
        conn
    });
    CellSet::from_parts(vec![CellShape::Hexahedron; kept.len()], connectivity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpp::Dpp;
    use crate::filter::Filter;
    use vizmesh::{Association, Field};

    fn x_ramp(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vals: Vec<f64> = (0..grid.num_cells())
            .map(|c| grid.cell_at(c).ijk()[0] as f64)
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("v", Association::Cells, vals))
    }

    #[test]
    fn dpp_threshold_keeps_the_same_cells_and_values() {
        let ds = x_ramp(4);
        let trad = Threshold::new("v", 1.0, 2.0).execute(&ds);
        let dpp = Dpp(Threshold::new("v", 1.0, 2.0)).execute(&ds);
        let t = trad.dataset.unwrap();
        let d = dpp.dataset.unwrap();
        assert_eq!(t.num_cells(), d.num_cells());
        assert_eq!(t.num_points(), d.num_points());
        // Kept cells come out in the same order, carrying the same cell
        // values bit-for-bit.
        assert_eq!(t.cell_scalars("v").unwrap(), d.cell_scalars("v").unwrap());
        // The point *sets* agree even though the numbering differs:
        // compare sorted coordinate triples exactly.
        let (tp, _) = t.as_explicit().unwrap();
        let (dp, _) = d.as_explicit().unwrap();
        let mut ts: Vec<_> = tp
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
            .collect();
        let mut dsx: Vec<_> = dp
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
            .collect();
        ts.sort_unstable();
        dsx.sort_unstable();
        assert_eq!(ts, dsx);
        assert!(!dpp.primitives.is_empty());
    }

    #[test]
    fn dpp_threshold_empty_and_full_ranges() {
        let ds = x_ramp(3);
        let empty = Dpp(Threshold::new("v", 100.0, 200.0)).execute(&ds);
        assert_eq!(empty.dataset.unwrap().num_cells(), 0);
        let full = Dpp(Threshold::new("v", 0.0, 3.0)).execute(&ds);
        let out = full.dataset.unwrap();
        assert_eq!(out.num_cells(), 27);
        assert_eq!(out.num_points(), 64);
    }

    #[test]
    fn dpp_threshold_point_policy_matches_traditional_counts() {
        let grid = UniformGrid::cube_cells(2);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).x)
            .collect();
        let ds = DataSet::uniform(grid).with_field(Field::scalar("v", Association::Points, vals));
        let out = Dpp(Threshold::new("v", 0.0, 0.5)).execute(&ds);
        assert_eq!(out.dataset.unwrap().num_cells(), 4);
    }
}
