//! Mesh validity checks: watertightness, orientation consistency, and
//! degenerate-cell detection.
//!
//! The conformance suite (`crates/conformance`) runs these validators on
//! every kernel output; they are kept in `vizmesh` so unit tests of the
//! filters themselves can assert the same invariants. All checks are
//! reporting, not panicking: callers inspect the returned report.

use std::collections::HashMap;

use crate::cells::{CellSet, CellShape};
use crate::vec3::Vec3;

/// Validity report for the triangle subcomplex of a cell set.
///
/// Only `Triangle` cells participate; other shapes are ignored so the
/// report is meaningful for mixed outputs (e.g. a slice that also carries
/// polylines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurfaceReport {
    /// Number of triangles inspected.
    pub(crate) triangles: usize,
    /// Distinct points referenced by at least one triangle.
    pub(crate) vertices: usize,
    /// Distinct undirected edges.
    pub(crate) edges: usize,
    /// Undirected edges used by exactly one triangle (surface boundary).
    pub boundary_edges: usize,
    /// Undirected edges used by more than two triangles.
    pub nonmanifold_edges: usize,
    /// Directed edges traversed more than once: two neighbouring
    /// triangles wind the shared edge the same way, i.e. their normals
    /// disagree.
    pub orientation_conflicts: usize,
    /// Triangles whose area is at or below the degeneracy threshold.
    pub(crate) degenerate_triangles: usize,
}

impl SurfaceReport {
    /// Closed 2-manifold: every edge is shared by exactly two triangles.
    pub(crate) fn is_watertight(&self) -> bool {
        self.boundary_edges == 0 && self.nonmanifold_edges == 0
    }

    /// Euler characteristic `V - E + F` of the triangle subcomplex.
    pub(crate) fn euler_characteristic(&self) -> i64 {
        self.vertices as i64 - self.edges as i64 + self.triangles as i64
    }

    /// Genus of a watertight connected surface (`(2 - χ) / 2`), or
    /// `None` when the surface is open, non-manifold, or χ is odd.
    pub fn genus(&self) -> Option<i64> {
        if !self.is_watertight() {
            return None;
        }
        let chi = self.euler_characteristic();
        if (2 - chi) % 2 != 0 {
            return None;
        }
        Some((2 - chi) / 2)
    }
}

/// Inspect the triangle subcomplex of `cells`: edge manifoldness,
/// orientation consistency, and degenerate (area ≤ `area_eps`) triangles.
pub fn validate_surface(points: &[Vec3], cells: &CellSet, area_eps: f64) -> SurfaceReport {
    // Undirected edge -> (uses, forward traversals of (lo, hi)).
    let mut edge_uses: HashMap<(u32, u32), (u32, u32)> = HashMap::new();
    let mut used_points: Vec<bool> = vec![false; points.len()];
    let mut triangles = 0usize;
    let mut degenerate = 0usize;
    for (shape, conn) in cells.iter() {
        if shape != CellShape::Triangle || conn.len() != 3 {
            continue;
        }
        triangles += 1;
        for &p in conn {
            if let Some(slot) = used_points.get_mut(p as usize) {
                *slot = true;
            }
        }
        let (a, b, c) = (
            points[conn[0] as usize],
            points[conn[1] as usize],
            points[conn[2] as usize],
        );
        if 0.5 * (b - a).cross(c - a).length() <= area_eps {
            degenerate += 1;
        }
        for (u, v) in [(conn[0], conn[1]), (conn[1], conn[2]), (conn[2], conn[0])] {
            let key = (u.min(v), u.max(v));
            let entry = edge_uses.entry(key).or_insert((0, 0));
            entry.0 += 1;
            if u < v {
                entry.1 += 1;
            }
        }
    }
    let mut boundary = 0usize;
    let mut nonmanifold = 0usize;
    let mut conflicts = 0usize;
    for &(uses, forward) in edge_uses.values() {
        match uses {
            1 => boundary += 1,
            2 => {
                // A consistently oriented interior edge is traversed
                // once as (lo, hi) and once as (hi, lo).
                if forward != 1 {
                    conflicts += 1;
                }
            }
            _ => nonmanifold += 1,
        }
    }
    SurfaceReport {
        triangles,
        vertices: used_points.iter().filter(|&&u| u).count(),
        edges: edge_uses.len(),
        boundary_edges: boundary,
        nonmanifold_edges: nonmanifold,
        orientation_conflicts: conflicts,
        degenerate_triangles: degenerate,
    }
}

/// Decomposition of a hexahedron (VTK corner order) into 6 tetrahedra
/// sharing the 0–6 main diagonal. The union tiles the hex exactly.
pub const HEX_TO_TETS: [[usize; 4]; 6] = [
    [0, 1, 2, 6],
    [0, 2, 3, 6],
    [0, 3, 7, 6],
    [0, 7, 4, 6],
    [0, 4, 5, 6],
    [0, 5, 1, 6],
];

/// Volumetric validity report for the tetrahedra and hexahedra of a cell
/// set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellReport {
    /// Number of volumetric (tet/hex) cells inspected.
    pub(crate) cells: usize,
    /// Cells whose absolute volume is at or below the threshold.
    pub(crate) degenerate_cells: usize,
    /// Sum of absolute cell volumes.
    pub total_volume: f64,
    /// Smallest absolute cell volume seen (0 when no cells).
    pub(crate) min_volume: f64,
}

/// Inspect the tetrahedra and hexahedra of `cells`: total and minimum
/// absolute volume, and cells degenerate at `vol_eps`.
pub fn validate_cells(points: &[Vec3], cells: &CellSet, vol_eps: f64) -> CellReport {
    let tet_vol =
        |a: Vec3, b: Vec3, c: Vec3, d: Vec3| -> f64 { (b - a).cross(c - a).dot(d - a) / 6.0 };
    let mut report = CellReport {
        cells: 0,
        degenerate_cells: 0,
        total_volume: 0.0,
        min_volume: 0.0,
    };
    let mut min_seen = f64::INFINITY;
    for (shape, conn) in cells.iter() {
        let volume = match shape {
            CellShape::Tetra if conn.len() == 4 => tet_vol(
                points[conn[0] as usize],
                points[conn[1] as usize],
                points[conn[2] as usize],
                points[conn[3] as usize],
            )
            .abs(),
            CellShape::Hexahedron if conn.len() == 8 => HEX_TO_TETS
                .iter()
                .map(|t| {
                    tet_vol(
                        points[conn[t[0]] as usize],
                        points[conn[t[1]] as usize],
                        points[conn[t[2]] as usize],
                        points[conn[t[3]] as usize],
                    )
                    .abs()
                })
                .sum(),
            _ => continue,
        };
        report.cells += 1;
        report.total_volume += volume;
        if volume <= vol_eps {
            report.degenerate_cells += 1;
        }
        min_seen = min_seen.min(volume);
    }
    if report.cells > 0 {
        report.min_volume = min_seen;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit tetrahedron's four faces, wound outward.
    fn tet_surface() -> (Vec<Vec3>, CellSet) {
        let points = vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z];
        let mut cells = CellSet::new();
        for conn in [[0u32, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]] {
            cells.push(CellShape::Triangle, &conn);
        }
        (points, cells)
    }

    #[test]
    fn closed_tet_is_watertight_oriented_genus_zero() {
        let (points, cells) = tet_surface();
        let r = validate_surface(&points, &cells, 0.0);
        assert_eq!(r.triangles, 4);
        assert_eq!(r.vertices, 4);
        assert_eq!(r.edges, 6);
        assert!(r.is_watertight(), "{r:?}");
        assert_eq!(r.orientation_conflicts, 0, "{r:?}");
        assert_eq!(r.euler_characteristic(), 2);
        assert_eq!(r.genus(), Some(0));
        assert_eq!(r.degenerate_triangles, 0);
    }

    #[test]
    fn missing_face_shows_boundary_edges() {
        let (points, mut cells) = tet_surface();
        let mut open = CellSet::new();
        for c in 0..3 {
            open.push(CellShape::Triangle, cells.cell_points(c));
        }
        cells = open;
        let r = validate_surface(&points, &cells, 0.0);
        assert_eq!(r.boundary_edges, 3);
        assert!(!r.is_watertight());
        assert_eq!(r.genus(), None);
    }

    #[test]
    fn flipped_triangle_is_an_orientation_conflict() {
        let (points, cells) = tet_surface();
        let mut flipped = CellSet::new();
        for c in 0..3 {
            flipped.push(CellShape::Triangle, cells.cell_points(c));
        }
        let last = cells.cell_points(3);
        flipped.push(CellShape::Triangle, &[last[0], last[2], last[1]]);
        let r = validate_surface(&points, &flipped, 0.0);
        assert!(r.is_watertight(), "{r:?}");
        assert_eq!(r.orientation_conflicts, 3, "{r:?}");
    }

    #[test]
    fn zero_area_triangle_is_degenerate() {
        let points = vec![Vec3::ZERO, Vec3::X, Vec3::X * 2.0];
        let mut cells = CellSet::new();
        cells.push(CellShape::Triangle, &[0, 1, 2]);
        let r = validate_surface(&points, &cells, 0.0);
        assert_eq!(r.degenerate_triangles, 1);
    }

    #[test]
    fn non_triangles_are_ignored() {
        let (points, mut cells) = tet_surface();
        cells.push(CellShape::PolyLine, &[0, 1, 2, 3]);
        let r = validate_surface(&points, &cells, 0.0);
        assert_eq!(r.triangles, 4);
        assert!(r.is_watertight());
    }

    #[test]
    fn cell_volumes_sum_for_tet_and_hex() {
        // Unit cube as a hex plus a separate unit tet.
        let mut points = vec![
            Vec3::ZERO,
            Vec3::X,
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::Y,
            Vec3::Z,
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::ONE,
            Vec3::new(0.0, 1.0, 1.0),
        ];
        let base = points.len() as u32;
        points.extend([
            Vec3::splat(2.0),
            Vec3::splat(2.0) + Vec3::X,
            Vec3::splat(2.0) + Vec3::Y,
            Vec3::splat(2.0) + Vec3::Z,
        ]);
        let mut cells = CellSet::new();
        cells.push(CellShape::Hexahedron, &[0, 1, 2, 3, 4, 5, 6, 7]);
        cells.push(CellShape::Tetra, &[base, base + 1, base + 2, base + 3]);
        let r = validate_cells(&points, &cells, 0.0);
        assert_eq!(r.cells, 2);
        assert!((r.total_volume - (1.0 + 1.0 / 6.0)).abs() < 1e-12);
        assert!((r.min_volume - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(r.degenerate_cells, 0);
    }

    #[test]
    fn flat_hex_is_degenerate() {
        let points = vec![
            Vec3::ZERO,
            Vec3::X,
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::Y,
            Vec3::ZERO,
            Vec3::X,
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::Y,
        ];
        let mut cells = CellSet::new();
        cells.push(CellShape::Hexahedron, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let r = validate_cells(&points, &cells, 1e-12);
        assert_eq!(r.degenerate_cells, 1);
        assert_eq!(r.min_volume, 0.0);
    }

    #[test]
    fn empty_cellset_reports_zeroes() {
        let r = validate_cells(&[], &CellSet::new(), 0.0);
        assert_eq!(r.cells, 0);
        assert_eq!(r.total_volume, 0.0);
        assert_eq!(r.min_volume, 0.0);
        let s = validate_surface(&[], &CellSet::new(), 0.0);
        assert_eq!(s.triangles, 0);
        assert!(s.is_watertight());
    }
}
