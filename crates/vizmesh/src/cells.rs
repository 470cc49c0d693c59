//! Explicit (unstructured) cell sets.

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

    /// Renumber every point reference in place: id `p` becomes
    /// `remap[p]`. Shapes and offsets are untouched.
    ///
    /// # Panics
    /// If a cell references a point `remap` has no entry for.
    pub(crate) fn remap_points(&mut self, remap: &[u32]) {
        for p in &mut self.connectivity {
            *p = remap[*p as usize];
        }
    }

    /// Every point reference, cell after cell.
    #[inline]
    pub(crate) fn connectivity(&self) -> &[u32] {
        &self.connectivity
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

    /// Largest point id referenced, or `None` when empty.
    pub(crate) fn max_point_id(&self) -> Option<u32> {
        self.connectivity.iter().copied().max()
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
    fn remap_points_rewrites_ids_and_nothing_else() {
        let mut cs = CellSet::new();
        cs.push(CellShape::Triangle, &[0, 2, 4]);
        cs.push(CellShape::Line, &[4, 2]);
        cs.remap_points(&[0, u32::MAX, 1, u32::MAX, 2]);
        assert_eq!(cs.cell_points(0), &[0, 1, 2]);
        assert_eq!(cs.cell_points(1), &[2, 1]);
        assert_eq!(
            (cs.shape(0), cs.shape(1)),
            (CellShape::Triangle, CellShape::Line)
        );
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
    fn empty_set() {
        let cs = CellSet::new();
        assert_eq!(cs.num_cells(), 0);
        assert_eq!(cs.max_point_id(), None);
        assert_eq!(cs.iter().count(), 0);
    }
}
