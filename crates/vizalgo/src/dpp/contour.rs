//! DPP contour: the traditional filter's marching cubes replaced by the
//! [`dpp_marching_cubes`] primitive pipeline. Output is bit-identical to
//! [`Filter::execute`] of the same [`Contour`] (see the weld note in
//! [`super::mc`]); what changes is the *execution shape* the power model
//! sees — case-table math in `map` worklets, welding in
//! `sort_by_key`/`reduce_by_key` traffic.
//!
//! As in the traditional filter, each isovalue is one [`par::map`] task
//! whose own `par` loops run inline on its thread (the module note of
//! `crate::contour`). Each task records into its own [`DppTrace`]; the
//! traces are summed slot by slot, which no order of summing changes.

use super::mc::dpp_marching_cubes;
use super::primitives::DppTrace;
use super::{join_surfaces, DppExecute};
use crate::contour::{Contour, SegmentIndex};
use crate::filter::FilterOutput;
use vizmesh::{par, DataSet};

impl DppExecute for Contour {
    fn dpp_execute(&self, input: &DataSet) -> FilterOutput {
        let (grid, values) = self.inputs(input);
        let index = SegmentIndex::of_field(grid, values);
        let tasks = par::map(self.isovalues.len(), 1, |i| {
            let mut trace = DppTrace::new();
            let mc = dpp_marching_cubes(&mut trace, grid, values, &index, self.isovalues[i]);
            (trace, (mc.points, mc.point_values, mc.triangles))
        });
        join_surfaces(&self.field, tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpp::Dpp;
    use crate::filter::Filter;
    use vizmesh::{Association, Field, UniformGrid};

    fn sphere_dataset(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let c = grid.bounds().center();
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).distance(c))
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

    #[test]
    fn dpp_contour_matches_traditional_bit_for_bit() {
        let ds = sphere_dataset(8);
        let isos = vec![0.2, 0.35];
        let trad = Contour::new("f", isos.clone()).execute(&ds);
        let dpp = Dpp(Contour::new("f", isos)).execute(&ds);
        let (tp, tc) = trad.dataset.as_ref().unwrap().as_explicit().unwrap();
        let (dp, dc) = dpp.dataset.as_ref().unwrap().as_explicit().unwrap();
        assert_eq!(tp.len(), dp.len());
        for (a, b) in tp.iter().zip(dp) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(tc, dc);
        // The DPP run reports its primitive trail; the traditional one
        // doesn't.
        assert!(!dpp.primitives.is_empty());
        assert!(trad.primitives.is_empty());
        assert!(dpp.kernels.iter().any(|k| k.name == "dpp-sort-by-key"));
    }
}
