//! Analytic input fields with closed-form answers.
//!
//! Every conformance check runs a kernel on one of these fields. They are
//! chosen so the kernel's output has an *exact* (or tightly bounded)
//! analytic value:
//!
//! * [`sphere_dataset`] — `f(p) = |p − center|` on the unit cube. The
//!   `f = r` isosurface is a sphere of area `4πr²` and genus 0; the
//!   `f ≤ r` sub-volume is a ball of volume `4/3·πr³`.
//! * [`xramp_dataset`] — `f(p) = p.x`, point-centered. Linear, so
//!   tetrahedral clipping and plane slicing are exact: the `[lo, hi]`
//!   isovolume is a slab of volume `hi − lo`.
//! * `cell_xramp_dataset` — cell-centered `f = x` of the cell center,
//!   giving threshold an exactly countable kept-cell set.
//! * [`rotation_dataset`] — rigid rotation `v = (−(y−c), x−c, 0)` at
//!   `ω = 1 rad/s`. Trilinear interpolation reproduces a linear field
//!   exactly, so advected particles move on perfect circles.
//! * `energy_dataset` — constant point scalar named `energy`, the
//!   carry field of the spherical clip.

use vizmesh::{Association, DataSet, Field, UniformGrid, Vec3};

/// The scalar field name every scalar conformance input uses.
pub const FIELD: &str = "f";

/// The vector field name the advection input uses.
pub const VELOCITY: &str = "velocity";

/// Center of the unit-cube domain, shared by all the analytic fields.
pub const CENTER: Vec3 = Vec3 {
    x: 0.5,
    y: 0.5,
    z: 0.5,
};

/// Point scalar `f(p) = |p − CENTER|` on an `n³`-cell unit cube.
pub fn sphere_dataset(n: usize) -> DataSet {
    let grid = UniformGrid::cube_cells(n);
    let vals: Vec<f64> = (0..grid.num_points())
        .map(|p| grid.point_coord_id(p).distance(CENTER))
        .collect();
    DataSet::uniform(grid).with_field(Field::scalar(FIELD, Association::Points, vals))
}

/// Point scalar `f(p) = p.x` on an `n³`-cell unit cube.
pub fn xramp_dataset(n: usize) -> DataSet {
    let grid = UniformGrid::cube_cells(n);
    let vals: Vec<f64> = (0..grid.num_points())
        .map(|p| grid.point_coord_id(p).x)
        .collect();
    DataSet::uniform(grid).with_field(Field::scalar(FIELD, Association::Points, vals))
}

/// Cell scalar `f = x` of the cell center on an `n³`-cell unit cube.
pub(crate) fn cell_xramp_dataset(n: usize) -> DataSet {
    let grid = UniformGrid::cube_cells(n);
    let vals: Vec<f64> = (0..grid.num_cells())
        .map(|c| grid.cell_at(c).center().x)
        .collect();
    DataSet::uniform(grid).with_field(Field::scalar(FIELD, Association::Cells, vals))
}

/// Rigid-rotation point vector field `v = (−(y−c), x−c, 0)` (ω = 1).
pub fn rotation_dataset(n: usize) -> DataSet {
    let grid = UniformGrid::cube_cells(n);
    let vals: Vec<Vec3> = (0..grid.num_points())
        .map(|p| {
            let q = grid.point_coord_id(p) - CENTER;
            Vec3::new(-q.y, q.x, 0.0)
        })
        .collect();
    DataSet::uniform(grid).with_field(Field::vector(VELOCITY, Association::Points, vals))
}

/// Rigid-rotation field scaled to angular rate `omega`:
/// `v = ω·(−(y−c), x−c, 0)`. Still linear in space, so trilinear
/// sampling stays exact; snapshots of this field at rates `ω(t_k)`
/// linear in `t` make the series' temporal lerp exact too (the basis of
/// the time-varying pathline oracle in [`crate::flow`]).
pub(crate) fn rotation_dataset_scaled(n: usize, omega: f64) -> DataSet {
    let grid = UniformGrid::cube_cells(n);
    let vals: Vec<Vec3> = (0..grid.num_points())
        .map(|p| {
            let q = grid.point_coord_id(p) - CENTER;
            Vec3::new(-q.y * omega, q.x * omega, 0.0)
        })
        .collect();
    DataSet::uniform(grid).with_field(Field::vector(VELOCITY, Association::Points, vals))
}

/// Constant point scalar named `energy` (the spherical clip's carry
/// field), value 1.
pub(crate) fn energy_dataset(n: usize) -> DataSet {
    let grid = UniformGrid::cube_cells(n);
    let np = grid.num_points();
    DataSet::uniform(grid).with_field(Field::scalar("energy", Association::Points, vec![1.0; np]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_field_is_distance_from_center() {
        let ds = sphere_dataset(4);
        let vals = ds.point_scalars(FIELD).unwrap();
        let grid = ds.as_uniform().unwrap();
        for (id, &v) in vals.iter().enumerate() {
            assert!((v - grid.point_coord_id(id).distance(CENTER)).abs() < 1e-15);
        }
    }

    #[test]
    fn rotation_field_is_divergence_free_and_planar() {
        let ds = rotation_dataset(4);
        let vel = ds.point_vectors(VELOCITY).unwrap();
        for v in vel {
            assert_eq!(v.z, 0.0);
        }
        // Velocity at the center is zero.
        let grid = ds.as_uniform().unwrap();
        let mid = grid.point_id(2, 2, 2);
        assert_eq!(vel[mid], Vec3::ZERO);
    }

    #[test]
    fn cell_ramp_matches_cell_centers() {
        let ds = cell_xramp_dataset(4);
        let vals = ds.cell_scalars(FIELD).unwrap();
        assert_eq!(vals.len(), 64);
        assert!((vals[0] - 0.125).abs() < 1e-15);
    }
}
