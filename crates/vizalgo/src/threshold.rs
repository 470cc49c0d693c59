//! Threshold: keep cells whose scalar lies in a range (§III-B2).

use crate::filter::{self, Filter, FilterOutput, KernelClass, KernelReport};
use vizmesh::{
    Association, CellSet, CellShape, DataSet, Field, GridCell, UniformGrid, Vec3, WorkCounters,
};

/// The threshold filter: iterates over every cell and compares its scalar
/// against `[lo, hi]` — a cell-centered value directly; a point-centered
/// field keeps the cell only when all of its points are in range — and
/// copies the kept cells to an unstructured output.
#[derive(Debug, Clone)]
pub struct Threshold {
    pub(crate) field: String,
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl Threshold {
    pub fn new(field: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "threshold range is inverted: [{lo}, {hi}]");
        Threshold {
            field: field.into(),
            lo,
            hi,
        }
    }

    /// The grid, the field's cell values when it is cell-centered, and
    /// the keep predicate over cells: the cell's own value in range,
    /// else all of its corner values in range.
    pub(crate) fn inputs<'a>(
        &'a self,
        input: &'a DataSet,
    ) -> (
        &'a UniformGrid,
        Option<&'a [f64]>,
        impl Fn(&GridCell<'_>) -> bool + Sync + 'a,
    ) {
        let grid = filter::structured(input, self.name());
        let cell_vals = input.cell_scalars(&self.field);
        // A cell field wins; without one the field must be point-centered.
        let point_vals = match cell_vals {
            Some(_) => &[],
            None => filter::point_scalars(input, self.name(), &self.field),
        };
        let in_range = |v: f64| v >= self.lo && v <= self.hi;
        let keeps = move |cell: &GridCell<'_>| match cell_vals {
            Some(vals) => in_range(vals[cell.id()]),
            None => cell.point_ids().iter().all(|&p| in_range(point_vals[p])),
        };
        (grid, cell_vals, keeps)
    }

    /// The output both backends build: the kept cells over their welded
    /// points, carrying the kept cells' values when the field is
    /// cell-centered.
    pub(crate) fn output(
        &self,
        points: Vec<Vec3>,
        cells: CellSet,
        vals: Option<Vec<f64>>,
    ) -> DataSet {
        let mut ds = DataSet::explicit(points, cells);
        if let Some(vals) = vals {
            ds.add_field(Field::scalar(self.field.clone(), Association::Cells, vals));
        }
        ds
    }
}

impl Filter for Threshold {
    fn name(&self) -> &'static str {
        "Threshold"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        // Phase 1: classify every cell (streaming compare).
        let (grid, cell_vals, keeps) = self.inputs(input);
        let num_cells = grid.num_cells();
        let keep: Vec<bool> = grid.map_cells(crate::CELL_MIN_LEN, keeps);
        let mut classify = WorkCounters::new();
        let bytes_per_cell = if cell_vals.is_some() { 8 } else { 64 + 32 };
        classify.tally(num_cells as u64, 12, 2, bytes_per_cell, 1);
        classify.working_set_bytes = input
            .field(&self.field)
            .map(|f| f.data.num_bytes())
            .unwrap_or(0);

        // Phase 2: gather the kept cells into a compact unstructured mesh.
        let mut gather = WorkCounters::new();
        let mut point_map: Vec<u32> = vec![u32::MAX; grid.num_points()];
        let mut points: Vec<Vec3> = Vec::new();
        let kept_count = keep.iter().filter(|&&k| k).count();
        let mut cells = CellSet::with_capacity(kept_count, kept_count * 8);
        let mut out_cell_vals: Vec<f64> = Vec::with_capacity(kept_count);
        for cell in grid.cells((0..num_cells).filter(|&c| keep[c])) {
            let mut conn = [0u32; 8];
            for (slot, &pid) in cell.point_ids().iter().enumerate() {
                if point_map[pid] == u32::MAX {
                    point_map[pid] = points.len() as u32;
                    points.push(cell.corner_coord(slot));
                    gather.tally(1, 10, 3, 24, 28);
                }
                conn[slot] = point_map[pid];
            }
            cells.push(CellShape::Hexahedron, &conn);
            if let Some(vals) = cell_vals {
                out_cell_vals.push(vals[cell.id()]);
            }
            gather.tally(1, 30, 0, 32, 40);
        }

        let ds = self.output(points, cells, cell_vals.is_some().then_some(out_cell_vals));
        FilterOutput::data(
            ds,
            vec![
                KernelReport::new("threshold-classify", KernelClass::CellClassify, classify),
                KernelReport::new("threshold-gather", KernelClass::GatherScatter, gather),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgorithmSpec, ScalarBand};
    use vizmesh::UniformGrid;

    /// A grid with cell scalar = x index of the cell.
    fn x_ramp(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vals: Vec<f64> = (0..grid.num_cells())
            .map(|c| grid.cell_at(c).ijk()[0] as f64)
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("v", Association::Cells, vals))
    }

    #[test]
    fn keeps_exactly_matching_cells() {
        let ds = x_ramp(4);
        let out = Threshold::new("v", 1.0, 2.0).execute(&ds);
        let result = out.dataset.unwrap();
        // x ∈ {1, 2} → half of 64 cells.
        assert_eq!(result.num_cells(), 32);
        for &v in result.cell_scalars("v").unwrap() {
            assert!((1.0..=2.0).contains(&v));
        }
    }

    #[test]
    fn empty_range_keeps_nothing() {
        let ds = x_ramp(4);
        let out = Threshold::new("v", 100.0, 200.0).execute(&ds);
        assert_eq!(out.dataset.unwrap().num_cells(), 0);
        // Classification still visited every cell.
        assert_eq!(out.kernels[0].work.items, 64);
    }

    #[test]
    fn full_range_keeps_everything() {
        let ds = x_ramp(3);
        let out = Threshold::new("v", 0.0, 3.0).execute(&ds);
        let result = out.dataset.unwrap();
        assert_eq!(result.num_cells(), 27);
        // Shared points are welded: a 3³-cell cube has 4³ points.
        assert_eq!(result.num_points(), 64);
    }

    #[test]
    fn point_field_all_points_policy() {
        let grid = UniformGrid::cube_cells(2);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).x)
            .collect();
        let ds = DataSet::uniform(grid).with_field(Field::scalar("v", Association::Points, vals));
        // Range [0, 0.5]: only cells whose 8 corners all have x ≤ 0.5,
        // i.e. the 4 cells in the left half, though all 8 touch it.
        let out = Threshold::new("v", 0.0, 0.5).execute(&ds);
        assert_eq!(out.dataset.unwrap().num_cells(), 4);
    }

    #[test]
    fn output_cells_are_hexahedra_with_valid_connectivity() {
        let ds = x_ramp(3);
        let out = Threshold::new("v", 0.0, 1.0).execute(&ds);
        let result = out.dataset.unwrap();
        let (points, cells) = result.as_explicit().unwrap();
        for (shape, conn) in cells.iter() {
            assert_eq!(shape, CellShape::Hexahedron);
            assert!(conn.iter().all(|&p| (p as usize) < points.len()));
        }
    }

    #[test]
    fn upper_fraction_selects_hot_cells() {
        let ds = x_ramp(4); // range [0, 3]: the upper half is [1.5, 3]
        let spec = AlgorithmSpec::Threshold {
            field: "v".into(),
            band: ScalarBand::UpperFraction(0.5),
        };
        let result = spec.build(&ds).execute(&ds).dataset.unwrap();
        // x ∈ {2, 3} → half of 64 cells.
        assert_eq!(result.num_cells(), 32);
        assert!(result.cell_scalars("v").unwrap().iter().all(|&v| v >= 1.5));
    }

    #[test]
    fn work_scales_with_input_cells() {
        let small = Threshold::new("v", 0.0, 0.0).execute(&x_ramp(2));
        let large = Threshold::new("v", 0.0, 0.0).execute(&x_ramp(4));
        assert_eq!(small.kernels[0].work.items, 8);
        assert_eq!(large.kernels[0].work.items, 64);
    }

    #[test]
    #[should_panic]
    fn inverted_range_panics() {
        let _ = Threshold::new("v", 2.0, 1.0);
    }
}
