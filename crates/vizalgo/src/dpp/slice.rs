//! DPP three-slice: per plane, a signed-distance `map` over every mesh
//! point feeds the [`dpp_marching_cubes`] pipeline at isovalue 0, and a
//! second `map` samples the data field at the welded slice vertices —
//! the same arithmetic as the traditional filter in the same order, so
//! the output is **bit-identical** (the weld note in [`super::mc`]
//! covers why the vertex numbering matches).
//!
//! The trace charges the distance `map` at every point; the host fills
//! one reused buffer only where the plane's exact segment index leaves
//! a segment live, through the traditional filter's own call (the
//! module note of `crate::slice`).

use super::mc::dpp_marching_cubes;
use super::primitives::{self, DppTrace, PrimitiveOp};
use super::DppExecute;
use crate::filter::{concat_surfaces, FilterOutput};
use crate::slice::{fill_distance, sample, ThreeSlice};
use vizmesh::DataSet;

impl DppExecute for ThreeSlice {
    fn dpp_execute(&self, input: &DataSet) -> FilterOutput {
        let (grid, data) = self.inputs(input);
        let num_points = grid.num_points();
        let mut trace = DppTrace::new();
        let mut sdf = vec![0.0f64; num_points];

        let surfaces = self.planes.iter().map(|plane| {
            // 1. map: signed distance per mesh point (the FP-dense part).
            let index = fill_distance(grid, plane, &mut sdf);
            primitives::record_map_n::<f64>(&mut trace, num_points, 24);
            trace.record_flops(PrimitiveOp::Map, 18 * num_points as u64);

            // 2. the marching-cubes primitive pipeline at isovalue 0.
            let mc = dpp_marching_cubes(&mut trace, grid, &sdf, &index, 0.0);

            // 3. map: sample the data field at the welded slice vertices.
            let sampled: Vec<f64> =
                primitives::map(&mut trace, &mc.points, |&p| sample(grid, data, p));
            trace.record_flops(PrimitiveOp::Map, 22 * mc.points.len() as u64);
            (mc.points, sampled, mc.triangles)
        });
        let ds = concat_surfaces(&self.field, surfaces);
        FilterOutput::data_with_primitives(ds, trace.kernel_reports(), trace.reports())
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
