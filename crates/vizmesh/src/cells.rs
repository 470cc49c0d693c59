//! Explicit (unstructured) cell sets.

use crate::par;

/// Point ids per chunk below which [`CellSet::max_point_id`] stays on
/// one thread.
const SCAN_MIN_LEN: usize = 1 << 15;

/// Shape of a single cell in an explicit cell set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellShape {
    Vertex,
    Line,
    Triangle,
    Quad,
    Tetra,
    Pyramid,
    Wedge,
    Hexahedron,
    /// Arbitrary convex polygon (slice / clip cross-sections).
    Polygon,
    /// Polyline (streamlines from particle advection).
    PolyLine,
}

impl CellShape {
    /// Number of points for fixed-size shapes; `None` for `Polygon` and
    /// `PolyLine`, whose arity is per-cell.
    pub(crate) fn fixed_point_count(self) -> Option<usize> {
        match self {
            CellShape::Vertex => Some(1),
            CellShape::Line => Some(2),
            CellShape::Triangle => Some(3),
            CellShape::Quad => Some(4),
            CellShape::Tetra => Some(4),
            CellShape::Pyramid => Some(5),
            CellShape::Wedge => Some(6),
            CellShape::Hexahedron => Some(8),
            CellShape::Polygon | CellShape::PolyLine => None,
        }
    }
}

/// An explicit cell set: per-cell shapes and a ragged connectivity array,
/// CSR-style (offsets into `connectivity`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellSet {
    shapes: Vec<CellShape>,
    /// `offsets.len() == shapes.len() + 1`; cell `c` uses
    /// `connectivity[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<usize>,
    connectivity: Vec<u32>,
}

impl CellSet {
    pub fn new() -> Self {
        CellSet {
            shapes: Vec::new(),
            offsets: vec![0],
            connectivity: Vec::new(),
        }
    }

    /// Pre-allocate for `cells` cells and `conn` connectivity entries.
    pub fn with_capacity(cells: usize, conn: usize) -> Self {
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        CellSet {
            shapes: Vec::with_capacity(cells),
            offsets,
            connectivity: Vec::with_capacity(conn),
        }
    }

    /// Append one cell.
    ///
    /// # Panics
    /// If `points` length disagrees with a fixed-arity shape, or a
    /// variable-arity cell has fewer than 2 points (PolyLine) / 3 points
    /// (Polygon).
    pub fn push(&mut self, shape: CellShape, points: &[u32]) {
        match shape.fixed_point_count() {
            Some(n) => assert_eq!(
                points.len(),
                n,
                "{shape:?} needs {n} points, got {}",
                points.len()
            ),
            None => {
                let min = if shape == CellShape::PolyLine { 2 } else { 3 };
                assert!(
                    points.len() >= min,
                    "{shape:?} needs at least {min} points, got {}",
                    points.len()
                );
            }
        }
        self.shapes.push(shape);
        self.connectivity.extend_from_slice(points);
        self.offsets.push(self.connectivity.len());
    }

    /// Append every cell of `other`, with point ids shifted by
    /// `point_offset` (used when merging per-thread outputs).
    pub fn append_shifted(&mut self, other: &CellSet, point_offset: u32) {
        self.shapes.extend_from_slice(&other.shapes);
        let base = self.connectivity.len();
        self.connectivity
            .extend(other.connectivity.iter().map(|&p| p + point_offset));
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| o + base));
    }

    /// The cells `shapes`, each of fixed arity, over `connectivity`, their
    /// point ids cell after cell (a set built elsewhere in pieces).
    ///
    /// # Panics
    /// If a shape has no fixed point count, or the arities do not add up
    /// to the connectivity's length.
    pub fn from_parts(shapes: Vec<CellShape>, connectivity: Vec<u32>) -> Self {
        let mut offsets = Vec::with_capacity(shapes.len() + 1);
        let (mut end, mut fixed) = (0, true);
        offsets.push(end);
        offsets.extend(shapes.iter().map(|shape| {
            let arity = shape.fixed_point_count();
            fixed &= arity.is_some();
            end += arity.unwrap_or(0);
            end
        }));
        assert!(
            fixed,
            "a shape has no fixed point count: {:?}",
            shapes.iter().find(|s| s.fixed_point_count().is_none())
        );
        assert_eq!(
            end,
            connectivity.len(),
            "the shapes need {end} point ids, got {}",
            connectivity.len()
        );
        CellSet {
            shapes,
            offsets,
            connectivity,
        }
    }

    #[inline]
    pub fn num_cells(&self) -> usize {
        self.shapes.len()
    }

    /// Total connectivity length (sum of per-cell arities).
    #[inline]
    pub(crate) fn connectivity_len(&self) -> usize {
        self.connectivity.len()
    }

    #[inline]
    pub fn shape(&self, cell: usize) -> CellShape {
        self.shapes[cell]
    }

    /// Point ids of one cell.
    #[inline]
    pub fn cell_points(&self, cell: usize) -> &[u32] {
        &self.connectivity[self.offsets[cell]..self.offsets[cell + 1]]
    }

    /// Iterator over `(shape, point-ids)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellShape, &[u32])> + '_ {
        (0..self.num_cells()).map(move |c| (self.shape(c), self.cell_points(c)))
    }

    /// Largest point id referenced, or `None` when empty; long sets are
    /// scanned in chunks on `par`.
    pub(crate) fn max_point_id(&self) -> Option<u32> {
        let conn = &self.connectivity;
        let maxes = par::map_chunks(conn.len(), SCAN_MIN_LEN, |ids| {
            vec![conn[ids].iter().copied().max()]
        });
        maxes.into_iter().flatten().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut cs = CellSet::new();
        cs.push(CellShape::Triangle, &[0, 1, 2]);
        cs.push(CellShape::Line, &[2, 3]);
        cs.push(CellShape::Polygon, &[4, 5, 6, 7, 8]);
        assert_eq!(cs.num_cells(), 3);
        assert_eq!(cs.shape(0), CellShape::Triangle);
        assert_eq!(cs.cell_points(0), &[0, 1, 2]);
        assert_eq!(cs.cell_points(1), &[2, 3]);
        assert_eq!(cs.cell_points(2), &[4, 5, 6, 7, 8]);
        assert_eq!(cs.connectivity_len(), 10);
        assert_eq!(cs.max_point_id(), Some(8));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut cs = CellSet::new();
        cs.push(CellShape::Triangle, &[0, 1]);
    }

    #[test]
    #[should_panic]
    fn degenerate_polygon_panics() {
        let mut cs = CellSet::new();
        cs.push(CellShape::Polygon, &[0, 1]);
    }

    #[test]
    fn append_shifted_remaps_ids() {
        let mut a = CellSet::new();
        a.push(CellShape::Triangle, &[0, 1, 2]);
        let mut b = CellSet::new();
        b.push(CellShape::Triangle, &[0, 1, 2]);
        b.push(CellShape::Line, &[1, 2]);
        a.append_shifted(&b, 3);
        assert_eq!(a.num_cells(), 3);
        assert_eq!(a.cell_points(1), &[3, 4, 5]);
        assert_eq!(a.cell_points(2), &[4, 5]);
    }

    #[test]
    fn from_parts_is_the_pushed_set() {
        let mut pushed = CellSet::new();
        pushed.push(CellShape::Hexahedron, &[0, 1, 2, 3, 4, 5, 6, 7]);
        pushed.push(CellShape::Tetra, &[7, 8, 9, 2]);
        pushed.push(CellShape::Triangle, &[1, 2, 3]);
        let shapes = pushed.iter().map(|(shape, _)| shape).collect();
        let ids = pushed.iter().flat_map(|(_, ids)| ids.to_vec()).collect();
        assert_eq!(CellSet::from_parts(shapes, ids), pushed);
        assert_eq!(CellSet::from_parts(Vec::new(), Vec::new()), CellSet::new());
    }

    #[test]
    #[should_panic(expected = "no fixed point count")]
    fn from_parts_refuses_a_polygon() {
        CellSet::from_parts(vec![CellShape::Polygon], vec![0, 1, 2]);
    }

    #[test]
    fn iter_matches_indexing() {
        let mut cs = CellSet::new();
        cs.push(CellShape::Vertex, &[9]);
        cs.push(CellShape::Quad, &[0, 1, 2, 3]);
        let collected: Vec<_> = cs.iter().map(|(s, p)| (s, p.to_vec())).collect();
        assert_eq!(collected[0], (CellShape::Vertex, vec![9]));
        assert_eq!(collected[1], (CellShape::Quad, vec![0, 1, 2, 3]));
    }

    #[test]
    fn max_point_id_is_the_largest_id_at_every_thread_count() {
        let mut cs = CellSet::new();
        for i in 0..(3 * SCAN_MIN_LEN as u32) / 4 + 1 {
            let spike = if i % 5003 == 17 { 9_000_000 + i } else { i };
            cs.push(CellShape::Tetra, &[i, spike, i / 2, 3]);
        }
        let expect = cs.iter().flat_map(|(_, ids)| ids.to_vec()).max();
        for threads in [1, 2, 7, 16] {
            assert_eq!(par::with_threads(threads, || cs.max_point_id()), expect);
        }
    }

    #[test]
    fn empty_set() {
        let cs = CellSet::new();
        assert_eq!(cs.num_cells(), 0);
        assert_eq!(cs.max_point_id(), None);
        assert_eq!(cs.iter().count(), 0);
    }
}
