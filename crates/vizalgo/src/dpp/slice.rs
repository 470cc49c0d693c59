//! DPP three-slice: per plane, a signed-distance `map` over every mesh
//! point feeds the [`dpp_marching_cubes`] pipeline at isovalue 0, and a
//! second `map` samples the data field at the welded slice vertices —
//! the same arithmetic as the traditional filter in the same order, so
//! the output is **bit-identical** (the weld note in [`super::mc`]
//! covers why the vertex numbering matches).
//!
//! The trace charges the distance `map` at every point; the host fills
//! a reused buffer only where the plane's exact segment index leaves a
//! segment live, through the traditional filter's own call (the module
//! note of `crate::slice`). That call also makes each plane one `par`
//! task, whose own `par` loops run inline on its thread; each task
//! records into its own [`DppTrace`], and the traces are summed.

use super::mc::dpp_marching_cubes;
use super::primitives::{self, DppTrace, PrimitiveOp};
use super::{join_surfaces, DppExecute};
use crate::filter::FilterOutput;
use crate::slice::{each_plane, sample, ThreeSlice};
use vizmesh::DataSet;

impl DppExecute for ThreeSlice {
    fn dpp_execute(&self, input: &DataSet) -> FilterOutput {
        let (grid, data) = self.inputs(input);
        let num_points = grid.num_points();
        let tasks = each_plane(grid, &self.planes, |sdf, index| {
            let mut trace = DppTrace::new();
            // 1. map: signed distance per mesh point (the FP-dense part).
            primitives::record_map_n::<f64>(&mut trace, num_points, 24);
            trace.record_flops(PrimitiveOp::Map, 18 * num_points as u64);

            // 2. the marching-cubes primitive pipeline at isovalue 0.
            let mc = dpp_marching_cubes(&mut trace, grid, sdf, index, 0.0);

            // 3. map: sample the data field at the welded slice vertices.
            let sampled: Vec<f64> =
                primitives::map(&mut trace, &mc.points, |&p| sample(grid, data, p));
            trace.record_flops(PrimitiveOp::Map, 22 * mc.points.len() as u64);
            (trace, (mc.points, sampled, mc.triangles))
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

    fn dataset(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).x)
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

    #[test]
    fn dpp_slice_matches_traditional_bit_for_bit() {
        let ds = dataset(6);
        let trad = ThreeSlice::centered(&ds, "f").execute(&ds);
        let dpp = Dpp(ThreeSlice::centered(&ds, "f")).execute(&ds);
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
}
