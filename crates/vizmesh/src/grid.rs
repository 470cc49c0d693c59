//! Axis-aligned uniform structured grids of hexahedral cells.

use crate::bounds::Aabb;
use crate::vec3::Vec3;

/// A uniform (regular) structured grid.
///
/// The grid is defined by its **point** dimensions `(nx, ny, nz)`, an
/// origin, and a per-axis spacing. Cells are the hexahedra between
/// neighbouring points, so a grid described in the paper as "128³ cells"
/// has point dimensions 129³.
///
/// Point and cell ids are linearized x-fastest:
/// `id = x + nx * (y + ny * z)`.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformGrid {
    point_dims: [usize; 3],
    origin: Vec3,
    spacing: Vec3,
}

impl UniformGrid {
    /// Create a grid from **point** dimensions.
    ///
    /// # Panics
    /// If any dimension is < 2 or any spacing component is not positive.
    pub fn new(point_dims: [usize; 3], origin: Vec3, spacing: Vec3) -> Self {
        assert!(
            point_dims.iter().all(|&d| d >= 2),
            "uniform grid needs at least 2 points per axis, got {point_dims:?}"
        );
        assert!(
            spacing.x > 0.0 && spacing.y > 0.0 && spacing.z > 0.0,
            "spacing must be positive, got {spacing:?}"
        );
        UniformGrid {
            point_dims,
            origin,
            spacing,
        }
    }

    /// Create a grid with `n³` **cells** spanning the unit cube, the shape
    /// used throughout the paper (`n` ∈ {32, 64, 128, 256}).
    pub fn cube_cells(n: usize) -> Self {
        assert!(n >= 1, "need at least one cell per axis");
        let d = n + 1;
        UniformGrid::new([d, d, d], Vec3::ZERO, Vec3::splat(1.0 / n as f64))
    }

    /// Create a grid from **cell** dimensions over a given box.
    pub fn from_cell_dims(cell_dims: [usize; 3], bounds: Aabb) -> Self {
        assert!(cell_dims.iter().all(|&d| d >= 1));
        let e = bounds.extent();
        UniformGrid::new(
            [cell_dims[0] + 1, cell_dims[1] + 1, cell_dims[2] + 1],
            bounds.min,
            Vec3::new(
                e.x / cell_dims[0] as f64,
                e.y / cell_dims[1] as f64,
                e.z / cell_dims[2] as f64,
            ),
        )
    }

    #[inline]
    pub fn point_dims(&self) -> [usize; 3] {
        self.point_dims
    }

    #[inline]
    pub fn cell_dims(&self) -> [usize; 3] {
        [
            self.point_dims[0] - 1,
            self.point_dims[1] - 1,
            self.point_dims[2] - 1,
        ]
    }

    #[inline]
    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    #[inline]
    pub fn spacing(&self) -> Vec3 {
        self.spacing
    }

    #[inline]
    pub fn num_points(&self) -> usize {
        self.point_dims[0] * self.point_dims[1] * self.point_dims[2]
    }

    #[inline]
    pub fn num_cells(&self) -> usize {
        let [cx, cy, cz] = self.cell_dims();
        cx * cy * cz
    }

    /// Bounding box of the whole grid.
    pub fn bounds(&self) -> Aabb {
        let [cx, cy, cz] = self.cell_dims();
        let far = self.origin
            + Vec3::new(
                self.spacing.x * cx as f64,
                self.spacing.y * cy as f64,
                self.spacing.z * cz as f64,
            );
        Aabb::new(self.origin, far)
    }

    /// Linear point id from (i, j, k).
    #[inline]
    pub fn point_id(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.point_dims[0] && j < self.point_dims[1] && k < self.point_dims[2]);
        i + self.point_dims[0] * (j + self.point_dims[1] * k)
    }

    /// Inverse of [`Self::point_id`].
    #[inline]
    pub fn point_ijk(&self, id: usize) -> [usize; 3] {
        let nx = self.point_dims[0];
        let ny = self.point_dims[1];
        [id % nx, (id / nx) % ny, id / (nx * ny)]
    }

    /// Linear cell id from (i, j, k).
    #[inline]
    pub fn cell_id(&self, i: usize, j: usize, k: usize) -> usize {
        let [cx, cy, _cz] = self.cell_dims();
        debug_assert!(i < cx && j < cy);
        i + cx * (j + cy * k)
    }

    /// Inverse of [`Self::cell_id`].
    #[inline]
    pub fn cell_ijk(&self, id: usize) -> [usize; 3] {
        let [cx, cy, _cz] = self.cell_dims();
        [id % cx, (id / cx) % cy, id / (cx * cy)]
    }

    /// World-space coordinates of a point.
    #[inline]
    pub fn point_coord(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.origin
            + Vec3::new(
                self.spacing.x * i as f64,
                self.spacing.y * j as f64,
                self.spacing.z * k as f64,
            )
    }

    /// World-space coordinates of a point by linear id.
    #[inline]
    pub fn point_coord_id(&self, id: usize) -> Vec3 {
        let [i, j, k] = self.point_ijk(id);
        self.point_coord(i, j, k)
    }

    /// Center of a cell.
    #[inline]
    pub fn cell_center(&self, cell: usize) -> Vec3 {
        let [i, j, k] = self.cell_ijk(cell);
        self.point_coord(i, j, k) + self.spacing * 0.5
    }

    /// The eight point ids at the corners of a cell, in VTK hexahedron
    /// order: bottom face counter-clockwise (looking down -z), then top.
    ///
    /// ```text
    ///        7-------6
    ///       /|      /|        z
    ///      4-------5 |        | y
    ///      | 3-----|-2        |/
    ///      |/      |/         +--x
    ///      0-------1
    /// ```
    #[inline]
    pub fn cell_point_ids(&self, cell: usize) -> [usize; 8] {
        let [i, j, k] = self.cell_ijk(cell);
        [
            self.point_id(i, j, k),
            self.point_id(i + 1, j, k),
            self.point_id(i + 1, j + 1, k),
            self.point_id(i, j + 1, k),
            self.point_id(i, j, k + 1),
            self.point_id(i + 1, j, k + 1),
            self.point_id(i + 1, j + 1, k + 1),
            self.point_id(i, j + 1, k + 1),
        ]
    }

    /// World-space corner coordinates matching [`Self::cell_point_ids`].
    pub fn cell_corners(&self, cell: usize) -> [Vec3; 8] {
        let [i, j, k] = self.cell_ijk(cell);
        let p0 = self.point_coord(i, j, k);
        let s = self.spacing;
        [
            p0,
            p0 + Vec3::new(s.x, 0.0, 0.0),
            p0 + Vec3::new(s.x, s.y, 0.0),
            p0 + Vec3::new(0.0, s.y, 0.0),
            p0 + Vec3::new(0.0, 0.0, s.z),
            p0 + Vec3::new(s.x, 0.0, s.z),
            p0 + Vec3::new(s.x, s.y, s.z),
            p0 + Vec3::new(0.0, s.y, s.z),
        ]
    }

    /// Cell containing world point `p`, or `None` if outside the grid.
    pub fn locate_cell(&self, p: Vec3) -> Option<usize> {
        let rel = p - self.origin;
        let [cx, cy, cz] = self.cell_dims();
        let fx = rel.x / self.spacing.x;
        let fy = rel.y / self.spacing.y;
        let fz = rel.z / self.spacing.z;
        if fx < 0.0 || fy < 0.0 || fz < 0.0 {
            return None;
        }
        // Points exactly on the far boundary belong to the last cell.
        let i = (fx as usize).min(cx.checked_sub(1)?);
        let j = (fy as usize).min(cy.checked_sub(1)?);
        let k = (fz as usize).min(cz.checked_sub(1)?);
        if fx > cx as f64 || fy > cy as f64 || fz > cz as f64 {
            return None;
        }
        Some(self.cell_id(i, j, k))
    }

    /// Trilinear interpolation of a point-centered scalar field at world
    /// point `p`. Returns `None` outside the grid or when `values` has the
    /// wrong length.
    pub fn sample_scalar(&self, values: &[f64], p: Vec3) -> Option<f64> {
        if values.len() != self.num_points() {
            return None;
        }
        let cell = self.locate_cell(p)?;
        let [i, j, k] = self.cell_ijk(cell);
        let p0 = self.point_coord(i, j, k);
        let t = Vec3::new(
            ((p.x - p0.x) / self.spacing.x).clamp(0.0, 1.0),
            ((p.y - p0.y) / self.spacing.y).clamp(0.0, 1.0),
            ((p.z - p0.z) / self.spacing.z).clamp(0.0, 1.0),
        );
        let ids = self.cell_point_ids(cell);
        let v = |n: usize| values[ids[n]];
        // Interpolate along x on the four edges, then y, then z.
        let c00 = v(0) + (v(1) - v(0)) * t.x;
        let c10 = v(3) + (v(2) - v(3)) * t.x;
        let c01 = v(4) + (v(5) - v(4)) * t.x;
        let c11 = v(7) + (v(6) - v(7)) * t.x;
        let c0 = c00 + (c10 - c00) * t.y;
        let c1 = c01 + (c11 - c01) * t.y;
        Some(c0 + (c1 - c0) * t.z)
    }

    /// Trilinear interpolation of a point-centered vector field at `p`.
    pub fn sample_vector(&self, values: &[Vec3], p: Vec3) -> Option<Vec3> {
        if values.len() != self.num_points() {
            return None;
        }
        let cell = self.locate_cell(p)?;
        let [i, j, k] = self.cell_ijk(cell);
        let p0 = self.point_coord(i, j, k);
        let t = Vec3::new(
            ((p.x - p0.x) / self.spacing.x).clamp(0.0, 1.0),
            ((p.y - p0.y) / self.spacing.y).clamp(0.0, 1.0),
            ((p.z - p0.z) / self.spacing.z).clamp(0.0, 1.0),
        );
        let ids = self.cell_point_ids(cell);
        let v = |n: usize| values[ids[n]];
        let c00 = v(0).lerp(v(1), t.x);
        let c10 = v(3).lerp(v(2), t.x);
        let c01 = v(4).lerp(v(5), t.x);
        let c11 = v(7).lerp(v(6), t.x);
        let c0 = c00.lerp(c10, t.y);
        let c1 = c01.lerp(c11, t.y);
        Some(c0.lerp(c1, t.z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_cells_dimensions() {
        let g = UniformGrid::cube_cells(32);
        assert_eq!(g.cell_dims(), [32, 32, 32]);
        assert_eq!(g.point_dims(), [33, 33, 33]);
        assert_eq!(g.num_cells(), 32 * 32 * 32);
        assert_eq!(g.num_points(), 33 * 33 * 33);
        let b = g.bounds();
        assert!((b.max - Vec3::ONE).length() < 1e-12);
    }

    #[test]
    fn point_id_round_trip() {
        let g = UniformGrid::new([4, 5, 6], Vec3::ZERO, Vec3::ONE);
        for k in 0..6 {
            for j in 0..5 {
                for i in 0..4 {
                    let id = g.point_id(i, j, k);
                    assert_eq!(g.point_ijk(id), [i, j, k]);
                }
            }
        }
    }

    #[test]
    fn cell_id_round_trip() {
        let g = UniformGrid::new([4, 5, 6], Vec3::ZERO, Vec3::ONE);
        for id in 0..g.num_cells() {
            let [i, j, k] = g.cell_ijk(id);
            assert_eq!(g.cell_id(i, j, k), id);
        }
    }

    #[test]
    fn cell_point_ids_are_corners() {
        let g = UniformGrid::cube_cells(2);
        let ids = g.cell_point_ids(0);
        // First cell corners: combinations of {0,1}³ in VTK order.
        assert_eq!(ids[0], g.point_id(0, 0, 0));
        assert_eq!(ids[1], g.point_id(1, 0, 0));
        assert_eq!(ids[2], g.point_id(1, 1, 0));
        assert_eq!(ids[3], g.point_id(0, 1, 0));
        assert_eq!(ids[6], g.point_id(1, 1, 1));
    }

    #[test]
    fn locate_cell_interior_and_boundary() {
        let g = UniformGrid::cube_cells(4);
        assert_eq!(g.locate_cell(Vec3::splat(0.1)), Some(0));
        // Far corner belongs to the last cell.
        assert_eq!(g.locate_cell(Vec3::ONE), Some(g.num_cells() - 1));
        assert_eq!(g.locate_cell(Vec3::splat(-0.01)), None);
        assert_eq!(g.locate_cell(Vec3::splat(1.01)), None);
    }

    #[test]
    fn sample_reproduces_linear_field() {
        // A trilinear interpolant must reproduce any linear function exactly.
        let g = UniformGrid::cube_cells(4);
        let f = |p: Vec3| 2.0 * p.x - 3.0 * p.y + 0.5 * p.z + 1.0;
        let values: Vec<f64> = (0..g.num_points())
            .map(|id| f(g.point_coord_id(id)))
            .collect();
        for &p in &[
            Vec3::splat(0.3),
            Vec3::new(0.12, 0.77, 0.5),
            Vec3::new(0.99, 0.01, 0.33),
            Vec3::ONE,
            Vec3::ZERO,
        ] {
            let s = g.sample_scalar(&values, p).unwrap();
            assert!((s - f(p)).abs() < 1e-12, "at {p:?}: {s} vs {}", f(p));
        }
    }

    #[test]
    fn sample_vector_reproduces_linear_field() {
        let g = UniformGrid::cube_cells(3);
        let f = |p: Vec3| Vec3::new(p.x, 2.0 * p.y, -p.z + 0.5);
        let values: Vec<Vec3> = (0..g.num_points())
            .map(|id| f(g.point_coord_id(id)))
            .collect();
        let p = Vec3::new(0.4, 0.6, 0.2);
        let s = g.sample_vector(&values, p).unwrap();
        assert!((s - f(p)).length() < 1e-12);
    }

    #[test]
    fn sample_outside_is_none() {
        let g = UniformGrid::cube_cells(2);
        let values = vec![0.0; g.num_points()];
        assert!(g.sample_scalar(&values, Vec3::splat(2.0)).is_none());
        assert!(g.sample_scalar(&values[..3], Vec3::splat(0.5)).is_none());
    }

    #[test]
    fn cell_center_is_average_of_corners() {
        let g = UniformGrid::cube_cells(3);
        for cell in [0, 5, g.num_cells() - 1] {
            let corners = g.cell_corners(cell);
            let avg = corners.iter().fold(Vec3::ZERO, |a, &c| a + c) / 8.0;
            assert!((avg - g.cell_center(cell)).length() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn degenerate_dims_panic() {
        let _ = UniformGrid::new([1, 4, 4], Vec3::ZERO, Vec3::ONE);
    }
}
