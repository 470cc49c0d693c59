//! Axis-aligned uniform structured grids of hexahedral cells.

use crate::bounds::Aabb;
use crate::par;
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
        Raster::at(self.point_dims[0], self.point_dims[1], id).ijk
    }

    /// Linear cell id from (i, j, k).
    #[inline]
    pub fn cell_id(&self, i: usize, j: usize, k: usize) -> usize {
        let [cx, cy, _cz] = self.cell_dims();
        debug_assert!(i < cx && j < cy);
        i + cx * (j + cy * k)
    }

    /// World-space coordinates of a point.
    #[inline]
    pub fn point_coord(&self, i: usize, j: usize, k: usize) -> Vec3 {
        // An index is below 2⁶³, so `as i64` changes no value; it lets
        // x86-64 convert in one instruction instead of `usize`'s several,
        // on the path every trilinear sample waits for.
        self.origin
            + Vec3::new(
                self.spacing.x * (i as i64 as f64),
                self.spacing.y * (j as i64 as f64),
                self.spacing.z * (k as i64 as f64),
            )
    }

    /// World-space coordinates of a point by linear id.
    #[inline]
    pub fn point_coord_id(&self, id: usize) -> Vec3 {
        let [i, j, k] = self.point_ijk(id);
        self.point_coord(i, j, k)
    }

    /// The cell with linear id `id`, held by position (one decode of
    /// [`Self::cell_id`]'s inverse; [`GridCell::seek`] moves it on without
    /// another where it can).
    #[inline]
    pub fn cell_at(&self, id: usize) -> GridCell<'_> {
        let [cx, cy, _cz] = self.cell_dims();
        GridCell {
            grid: self,
            at: Raster::at(cx, cy, id),
        }
    }

    /// The cells with the given ids, in the order given. Ascending ids —
    /// a range, or a compacted list of active cells — cost one index
    /// decode at the first id and one wherever the next id lies beyond
    /// the start of the following row; every other step is an add.
    pub fn cells<'g, I>(&'g self, ids: I) -> impl Iterator<Item = GridCell<'g>> + use<'g, I>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut cell = self.cell_at(0);
        ids.into_iter().map(move |id| {
            cell.seek(id);
            cell
        })
    }

    /// The points with the given ids and their coordinates, walked like
    /// [`Self::cells`]. Each coordinate is [`Self::point_coord`] of the
    /// point's `(i, j, k)`, never an accumulated sum, so it is the same
    /// bits [`Self::point_coord_id`] returns.
    pub fn points<'g, I>(&'g self, ids: I) -> impl Iterator<Item = (usize, Vec3)> + use<'g, I>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut at = Raster::at(self.point_dims[0], self.point_dims[1], 0);
        ids.into_iter().map(move |id| {
            at.seek(id);
            let [i, j, k] = at.ijk;
            (id, self.point_coord(i, j, k))
        })
    }

    /// `f` of every cell, in cell order: the parallel full-grid sweep
    /// ([`par::map_chunks`] over the cell ids). Each chunk steps one
    /// [`GridCell`] along and lends it to `f` — copying it out per cell,
    /// as [`Self::cells`] must, costs what the skipped decode saves.
    pub fn map_cells<T: Send>(
        &self,
        min_len: usize,
        f: impl Fn(&GridCell<'_>) -> T + Sync,
    ) -> Vec<T> {
        par::map_chunks(self.num_cells(), min_len, |chunk| {
            let mut cell = self.cell_at(chunk.start);
            chunk
                .map(|id| {
                    cell.seek(id);
                    f(&cell)
                })
                .collect()
        })
    }

    /// `f(id, coordinates)` of every point, in point order; the point
    /// form of [`Self::map_cells`].
    pub fn map_points<T: Send>(
        &self,
        min_len: usize,
        f: impl Fn(usize, Vec3) -> T + Sync,
    ) -> Vec<T> {
        par::map_chunks(self.num_points(), min_len, |chunk| {
            self.points(chunk).map(|(id, p)| f(id, p)).collect()
        })
    }

    /// The cell index along `axis` of the coordinate `x`, or `None`
    /// outside the grid on that axis: the one inside test every locate
    /// and sample goes through. A NaN coordinate fails both comparisons,
    /// so a NaN position is outside.
    #[inline]
    fn axis_cell(&self, axis: usize, x: f64) -> Option<usize> {
        let cells = self.point_dims[axis] - 1;
        let (origin, spacing) = (self.origin[axis], self.spacing[axis]);
        let f = (x - origin) / spacing;
        // `f` of the far face can round above `cells`, so a coordinate up
        // to the far face by `bounds`' own expression is inside too.
        let inside = (0.0..=cells as f64).contains(&f)
            || (origin..=origin + spacing * cells as f64).contains(&x);
        // Points exactly on the far boundary belong to the last cell.
        // The cast goes through `i64` (the value is at most a rounding
        // above `cells`): one instruction on x86-64, where `f64 as usize`
        // is a sequence.
        inside.then(|| (f as i64 as usize).min(cells - 1))
    }

    /// One axis of a trilinear locate: the index along `axis` of the
    /// cell holding the coordinate `x`, and `x`'s weight in `[0, 1]`
    /// from that cell's low side; `None` outside the grid on that axis.
    /// A sample locates each axis on its own, so a caller whose sample
    /// coordinates repeat along an axis (a uniform resampling) can
    /// locate each one once and get the same bits.
    #[inline]
    pub fn locate_axis(&self, axis: usize, x: f64) -> Option<(usize, f64)> {
        let i = self.axis_cell(axis, x)?;
        // `point_coord`'s expression for this axis.
        let x0 = self.origin[axis] + self.spacing[axis] * (i as i64 as f64);
        Some((i, ((x - x0) / self.spacing[axis]).clamp(0.0, 1.0)))
    }

    /// Cell containing world point `p`, or `None` if outside the grid.
    pub fn locate_cell(&self, p: Vec3) -> Option<usize> {
        let i = self.axis_cell(0, p.x)?;
        let j = self.axis_cell(1, p.y)?;
        let k = self.axis_cell(2, p.z)?;
        Some(self.cell_id(i, j, k))
    }

    /// [`Self::locate_axis`] of each coordinate of `p`: what a trilinear
    /// sample at `p` needs.
    #[inline]
    fn locate_trilinear(&self, p: Vec3) -> Option<[(usize, f64); 3]> {
        Some([
            self.locate_axis(0, p.x)?,
            self.locate_axis(1, p.y)?,
            self.locate_axis(2, p.z)?,
        ])
    }

    /// The eight corner values of the cell whose corner 0 is point
    /// `base`, in VTK hexahedron order (the figure at
    /// [`GridCell::point_ids`]): two slices of one row and the start of
    /// the next, one per z level — two bounds checks, not eight.
    #[inline]
    fn corner_values<T: Copy>(&self, values: &[T], base: usize) -> [T; 8] {
        let [nx, ny, _nz] = self.point_dims;
        let lo = &values[base..base + nx + 2];
        let hi = &values[base + nx * ny..][..nx + 2];
        [
            lo[0],
            lo[1],
            lo[nx + 1],
            lo[nx],
            hi[0],
            hi[1],
            hi[nx + 1],
            hi[nx],
        ]
    }

    /// Trilinear interpolation of a point-centered scalar field at world
    /// point `p`. Returns `None` outside the grid or when `values` has the
    /// wrong length.
    #[inline]
    pub fn sample_scalar(&self, values: &[f64], p: Vec3) -> Option<f64> {
        if values.len() != self.num_points() {
            return None;
        }
        Some(self.interpolate_scalar(values, self.locate_trilinear(p)?))
    }

    /// Trilinear interpolation of a point-centered vector field at `p`.
    #[inline]
    pub fn sample_vector(&self, values: &[Vec3], p: Vec3) -> Option<Vec3> {
        if values.len() != self.num_points() {
            return None;
        }
        Some(self.interpolate_vector(values, self.locate_trilinear(p)?))
    }

    /// The trilinear sample of a point-centered scalar field (one value
    /// per point) at the position whose three axes [`Self::locate_axis`]
    /// located — what [`Self::sample_scalar`] returns for it.
    ///
    /// # Panics
    /// If `values` is shorter than the grid's points.
    #[inline]
    pub fn interpolate_scalar(&self, values: &[f64], located: [(usize, f64); 3]) -> f64 {
        let [(i, tx), (j, ty), (k, tz)] = located;
        let v = self.corner_values(values, self.point_id(i, j, k));
        // Interpolate along x on the four edges, then y, then z.
        let c00 = v[0] + (v[1] - v[0]) * tx;
        let c10 = v[3] + (v[2] - v[3]) * tx;
        let c01 = v[4] + (v[5] - v[4]) * tx;
        let c11 = v[7] + (v[6] - v[7]) * tx;
        let c0 = c00 + (c10 - c00) * ty;
        let c1 = c01 + (c11 - c01) * ty;
        c0 + (c1 - c0) * tz
    }

    /// The vector form of [`Self::interpolate_scalar`].
    ///
    /// # Panics
    /// If `values` is shorter than the grid's points.
    #[inline]
    pub fn interpolate_vector(&self, values: &[Vec3], located: [(usize, f64); 3]) -> Vec3 {
        let [(i, tx), (j, ty), (k, tz)] = located;
        let v = self.corner_values(values, self.point_id(i, j, k));
        let c00 = v[0].lerp(v[1], tx);
        let c10 = v[3].lerp(v[2], tx);
        let c01 = v[4].lerp(v[5], tx);
        let c11 = v[7].lerp(v[6], tx);
        let c0 = c00.lerp(c10, ty);
        let c1 = c01.lerp(c11, ty);
        c0.lerp(c1, tz)
    }
}

/// A position in an x-fastest raster with rows of `nx` and slabs of `ny`
/// rows: a linear id together with its `(i, j, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Raster {
    nx: usize,
    ny: usize,
    id: usize,
    ijk: [usize; 3],
}

impl Raster {
    /// Decode `id` (the divisions [`Raster::seek`] exists to avoid).
    #[inline]
    fn at(nx: usize, ny: usize, id: usize) -> Self {
        Raster {
            nx,
            ny,
            id,
            ijk: [id % nx, (id / nx) % ny, id / (nx * ny)],
        }
    }

    /// Move to `id`: an add when it lies ahead in the current row, a
    /// carry when it is the first id of the next row, a decode for any
    /// other jump (including backwards).
    #[inline]
    fn seek(&mut self, id: usize) {
        // A backwards jump wraps to a distance no row is long enough for.
        let ahead = id.wrapping_sub(self.id);
        if ahead < self.nx - self.ijk[0] {
            self.ijk[0] += ahead;
            self.id = id;
        } else {
            self.leave_row(id);
        }
    }

    /// The rare half of [`Raster::seek`], kept out of the callers' loops.
    #[inline(never)]
    fn leave_row(&mut self, id: usize) {
        if id.wrapping_sub(self.id) == self.nx - self.ijk[0] {
            self.ijk[0] = 0;
            self.ijk[1] += 1;
            if self.ijk[1] == self.ny {
                self.ijk[1] = 0;
                self.ijk[2] += 1;
            }
            self.id = id;
        } else {
            *self = Raster::at(self.nx, self.ny, id);
        }
    }
}

/// `(i, j, k)` offsets of a cell's corners from its corner 0, in VTK
/// hexahedron order (the figure at [`GridCell::point_ids`]).
const HEX_CORNERS: [[usize; 3]; 8] = [
    [0, 0, 0],
    [1, 0, 0],
    [1, 1, 0],
    [0, 1, 0],
    [0, 0, 1],
    [1, 0, 1],
    [1, 1, 1],
    [0, 1, 1],
];

/// One cell of a [`UniformGrid`], known by id and by `(i, j, k)`: what
/// [`UniformGrid::cell_at`] and [`UniformGrid::cells`] hand out. Its
/// corner ids and coordinates are adds and multiplies from there.
#[derive(Debug, Clone, Copy)]
pub struct GridCell<'g> {
    grid: &'g UniformGrid,
    at: Raster,
}

impl GridCell<'_> {
    #[inline]
    pub fn id(&self) -> usize {
        self.at.id
    }

    /// `(i, j, k)`: the inverse of [`UniformGrid::cell_id`].
    #[inline]
    pub fn ijk(&self) -> [usize; 3] {
        self.at.ijk
    }

    /// Move to cell `id` (see [`UniformGrid::cells`] for what a move
    /// costs).
    #[inline]
    pub fn seek(&mut self, id: usize) {
        self.at.seek(id);
    }

    /// The eight corner point ids, in VTK hexahedron order: bottom face
    /// counter-clockwise (looking down -z), then top.
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
    pub fn point_ids(&self) -> [usize; 8] {
        let [i, j, k] = self.at.ijk;
        let [nx, ny, _nz] = self.grid.point_dims;
        let p0 = self.grid.point_id(i, j, k);
        HEX_CORNERS.map(|[di, dj, dk]| p0 + di + nx * (dj + ny * dk))
    }

    /// Coordinates of corner `slot` — the point `point_ids()[slot]`, as
    /// [`UniformGrid::point_coord_id`] computes them.
    #[inline]
    pub fn corner_coord(&self, slot: usize) -> Vec3 {
        let [i, j, k] = self.at.ijk;
        let [di, dj, dk] = HEX_CORNERS[slot];
        self.grid.point_coord(i + di, j + dj, k + dk)
    }

    /// World-space coordinates of the corners [`Self::point_ids`] names,
    /// as corner 0 plus spacing offsets (not bit-equal to
    /// [`Self::corner_coord`], which multiplies).
    pub fn corners(&self) -> [Vec3; 8] {
        let [i, j, k] = self.at.ijk;
        let p0 = self.grid.point_coord(i, j, k);
        let s = self.grid.spacing;
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

    /// The cell center.
    #[inline]
    pub fn center(&self) -> Vec3 {
        let [i, j, k] = self.at.ijk;
        self.grid.point_coord(i, j, k) + self.grid.spacing * 0.5
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
            let [i, j, k] = g.cell_at(id).ijk();
            assert_eq!(g.cell_id(i, j, k), id);
        }
    }

    #[test]
    fn cell_point_ids_are_corners() {
        let g = UniformGrid::cube_cells(2);
        let ids = g.cell_at(0).point_ids();
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
    fn nan_and_infinite_positions_are_outside() {
        // `NaN < 0.0` and `NaN > cx` are both false and `NaN as usize` is
        // 0: an inside test written as two rejections files NaN under
        // cell 0.
        let g = UniformGrid::new(
            [4, 5, 6],
            Vec3::new(-1.0, 0.5, 2.0),
            Vec3::new(0.5, 0.25, 1.0),
        );
        let scalars = vec![1.0; g.num_points()];
        let vectors = vec![Vec3::ONE; g.num_points()];
        let inside = g.bounds().center();
        assert!(g.locate_cell(inside).is_some());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for axis in 0..3 {
                let mut xyz = [inside.x, inside.y, inside.z];
                xyz[axis] = bad;
                let p = Vec3::new(xyz[0], xyz[1], xyz[2]);
                assert_eq!(g.locate_cell(p), None, "{bad} on axis {axis}");
                assert_eq!(g.sample_scalar(&scalars, p), None, "{bad} on axis {axis}");
                assert_eq!(g.sample_vector(&vectors, p), None, "{bad} on axis {axis}");
            }
        }
    }

    #[test]
    fn samples_read_the_located_cells_corners_on_a_non_cubic_grid() {
        // Every point holds its own id, so a sample at a cell center is
        // the mean of that cell's corner ids: any stride mix-up between
        // the axes moves it.
        let g = UniformGrid::new(
            [4, 5, 6],
            Vec3::new(-1.0, 0.5, 2.0),
            Vec3::new(0.5, 0.25, 1.0),
        );
        let ids: Vec<f64> = (0..g.num_points()).map(|id| id as f64).collect();
        let vec_ids: Vec<Vec3> = ids.iter().map(|&id| Vec3::new(id, -id, 2.0 * id)).collect();
        for cell in 0..g.num_cells() {
            let center = g.cell_at(cell).center();
            assert_eq!(g.locate_cell(center), Some(cell));
            let mean = g.cell_at(cell).point_ids().iter().sum::<usize>() as f64 / 8.0;
            let s = g.sample_scalar(&ids, center).unwrap();
            assert!((s - mean).abs() < 1e-9, "cell {cell}: {s} vs {mean}");
            let v = g.sample_vector(&vec_ids, center).unwrap();
            assert!((v - Vec3::new(mean, -mean, 2.0 * mean)).length() < 1e-9);
        }
        // Corner 0 of the first cell and the far corner of the last.
        assert_eq!(g.sample_scalar(&ids, g.origin()), Some(0.0));
        assert_eq!(
            g.sample_scalar(&ids, g.bounds().max),
            Some((g.num_points() - 1) as f64)
        );
    }

    #[test]
    fn every_point_of_a_box_grid_samples_to_its_own_value() {
        // Spacings that are not powers of two: `(far - origin) / spacing`
        // rounds above the cell count on some axis, yet the far face
        // (`bounds().max`, the last `point_coord`) is the grid's own.
        let bounds = Aabb::new(Vec3::new(-0.3, 0.2, 1.5), Vec3::new(0.9, 0.65, 1.78));
        let g = UniformGrid::from_cell_dims([12, 9, 7], bounds);
        let ids: Vec<f64> = (0..g.num_points()).map(|id| id as f64).collect();
        for id in 0..g.num_points() {
            let p = g.point_coord_id(id);
            assert!(g.locate_cell(p).is_some(), "point {id} at {p:?}");
            let s = g.sample_scalar(&ids, p).unwrap();
            assert!((s - id as f64).abs() < 1e-9, "point {id}: {s}");
        }
        assert_eq!(g.locate_cell(g.bounds().max), Some(g.num_cells() - 1));
    }

    #[test]
    fn cell_center_is_average_of_corners() {
        let g = UniformGrid::cube_cells(3);
        for cell in [0, 5, g.num_cells() - 1] {
            let corners = g.cell_at(cell).corners();
            let avg = corners.iter().fold(Vec3::ZERO, |a, &c| a + c) / 8.0;
            assert!((avg - g.cell_at(cell).center()).length() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn degenerate_dims_panic() {
        let _ = UniformGrid::new([1, 4, 4], Vec3::ZERO, Vec3::ONE);
    }
}
