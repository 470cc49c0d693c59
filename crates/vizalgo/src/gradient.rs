//! Gradient-magnitude filter — an *extension* algorithm beyond the
//! paper's eight.
//!
//! The paper's future work asks for "other visualization algorithms \[to\]
//! be classified so informed decisions can be made regarding how to
//! allocate power" (§VIII). Gradient computation is a ubiquitous
//! building block (shading normals, feature detection, vorticity) with a
//! different mix than any of the eight: a fixed 6-point stencil per
//! mesh point, moderately FP-dense but fully streaming. The
//! `classify_new_algorithm` example runs it through the same study
//! machinery and reports its class.

use crate::filter::{self, Filter, FilterOutput, KernelClass, KernelReport};
use vizmesh::{par, Association, DataSet, Field, UniformGrid, Vec3, WorkCounters};

/// Computes `|∇f|` and the gradient vector of a point-centered scalar
/// with central differences (one-sided on the boundary), producing a
/// structured dataset with the derived fields `<field>_gradmag` and
/// `<field>_grad`.
#[derive(Debug, Clone)]
pub struct Gradient {
    pub(crate) field: String,
}

impl Gradient {
    pub fn new(field: impl Into<String>) -> Self {
        Gradient {
            field: field.into(),
        }
    }

    /// Gradient at point (i, j, k) by central/one-sided differences.
    fn gradient_at(grid: &UniformGrid, values: &[f64], i: usize, j: usize, k: usize) -> Vec3 {
        let [nx, ny, nz] = grid.point_dims();
        let s = grid.spacing();
        let d = |axis: usize, idx: usize, n: usize, h: f64| -> f64 {
            let at = |x: usize| match axis {
                0 => values[grid.point_id(x, j, k)],
                1 => values[grid.point_id(i, x, k)],
                _ => values[grid.point_id(i, j, x)],
            };
            if idx == 0 {
                (at(1) - at(0)) / h
            } else if idx == n - 1 {
                (at(n - 1) - at(n - 2)) / h
            } else {
                (at(idx + 1) - at(idx - 1)) / (2.0 * h)
            }
        };
        Vec3::new(d(0, i, nx, s.x), d(1, j, ny, s.y), d(2, k, nz, s.z))
    }
}

impl Filter for Gradient {
    fn name(&self) -> &'static str {
        "Gradient"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        let grid = filter::structured(input, self.name());
        let values = filter::point_scalars(input, self.name(), &self.field);
        let n = grid.num_points();

        let grads: Vec<Vec3> = par::map(n, crate::CELL_MIN_LEN, |id| {
            let [i, j, k] = grid.point_ijk(id);
            Self::gradient_at(grid, values, i, j, k)
        });
        let mags: Vec<f64> = grads.iter().map(|g| g.length()).collect();

        let mut work = WorkCounters::new();
        // 6 neighbour loads, 3 divisions, magnitude: ~40 instr, 14 flops.
        work.tally(n as u64, 40, 14, 6 * 8 + 24, 8 + 24);
        work.working_set_bytes = (n * 8) as u64;

        let mut ds = DataSet::uniform(grid.clone());
        ds.add_field(Field::scalar(
            format!("{}_gradmag", self.field),
            Association::Points,
            mags,
        ));
        ds.add_field(Field::vector(
            format!("{}_grad", self.field),
            Association::Points,
            grads,
        ));
        FilterOutput::data(
            ds,
            vec![KernelReport::new(
                "gradient-stencil",
                KernelClass::SignedDistance,
                work,
            )],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset_with(f: impl Fn(Vec3) -> f64, n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| f(grid.point_coord_id(p)))
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

    #[test]
    fn gradient_of_linear_field_is_exact() {
        let ds = dataset_with(|p| 3.0 * p.x - 2.0 * p.y + 0.5 * p.z, 6);
        let out = Gradient::new("f").execute(&ds);
        let result = out.dataset.unwrap();
        let grads = result.point_vectors("f_grad").unwrap();
        let expect = Vec3::new(3.0, -2.0, 0.5);
        for g in grads {
            assert!((*g - expect).length() < 1e-9, "gradient {g:?}");
        }
        let mags = result.point_scalars("f_gradmag").unwrap();
        for &m in mags {
            assert!((m - expect.length()).abs() < 1e-9);
        }
    }

    /// A trilinear ramp is linear along each axis separately, so both the
    /// central and the one-sided differences are *exact* — the stencil
    /// must reproduce the analytic gradient at every point, boundaries
    /// included.
    #[test]
    fn gradient_of_trilinear_ramp_is_exact_everywhere() {
        let (a, b, c, d) = (0.7, 1.5, -2.25, 0.5);
        let (e, ff, g, h) = (3.0, -1.0, 0.25, 4.0);
        let field = |p: Vec3| {
            a + b * p.x
                + c * p.y
                + d * p.z
                + e * p.x * p.y
                + ff * p.y * p.z
                + g * p.x * p.z
                + h * p.x * p.y * p.z
        };
        let ds = dataset_with(field, 5);
        let out = Gradient::new("f").execute(&ds);
        let result = out.dataset.unwrap();
        let grid = result.as_uniform().unwrap().clone();
        let grads = result.point_vectors("f_grad").unwrap();
        let mags = result.point_scalars("f_gradmag").unwrap();
        for id in 0..grid.num_points() {
            let p = grid.point_coord_id(id);
            let expect = Vec3::new(
                b + e * p.y + g * p.z + h * p.y * p.z,
                c + e * p.x + ff * p.z + h * p.x * p.z,
                d + ff * p.y + g * p.x + h * p.x * p.y,
            );
            assert!(
                (grads[id] - expect).length() < 1e-9,
                "point {p:?}: {:?} vs {expect:?}",
                grads[id]
            );
            assert!((mags[id] - expect.length()).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_of_constant_field_is_zero() {
        let ds = dataset_with(|_| 7.0, 4);
        let out = Gradient::new("f").execute(&ds);
        let mags = out.dataset.unwrap();
        assert!(mags
            .point_scalars("f_gradmag")
            .unwrap()
            .iter()
            .all(|&m| m.abs() < 1e-12));
    }

    #[test]
    fn boundary_uses_one_sided_differences() {
        // Quadratic in x: gradient 2x; at x = 0 the one-sided estimate is
        // (f(h) - f(0))/h = h, not 0 — still finite and sensible.
        let ds = dataset_with(|p| p.x * p.x, 8);
        let out = Gradient::new("f").execute(&ds);
        let result = out.dataset.unwrap();
        let grid = result.as_uniform().unwrap();
        let grads = result.point_vectors("f_grad").unwrap();
        // Interior points: central difference of x² is exact.
        let mid = grid.point_id(4, 4, 4);
        assert!((grads[mid].x - 2.0 * 0.5).abs() < 1e-9);
        // Boundary gradient is finite.
        assert!(grads[grid.point_id(0, 0, 0)].is_finite());
    }

    #[test]
    fn work_scales_with_points() {
        let small = Gradient::new("f").execute(&dataset_with(|p| p.x, 4));
        let large = Gradient::new("f").execute(&dataset_with(|p| p.x, 8));
        let ws = small.kernels[0].work.items;
        let wl = large.kernels[0].work.items;
        assert_eq!(ws, 125);
        assert_eq!(wl, 729);
    }
}
