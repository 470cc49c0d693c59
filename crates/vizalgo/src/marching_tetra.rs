//! Marching tetrahedra — an independent isosurface implementation used as
//! a cross-check oracle for the marching-cubes table in property tests.
//!
//! Each hexahedral cell is decomposed into 6 tetrahedra
//! (`vizmesh::HEX_TO_TETS`) and each tet is contoured with the
//! trivial 16-case logic (0, 1, or 2 triangles). MT and MC approximate the
//! same trilinear isosurface, so cell classifications and total surface
//! area must agree between the two (to discretization error).

use vizmesh::{UniformGrid, Vec3, HEX_TO_TETS};

/// Triangles of the isosurface within a single tetrahedron.
///
/// `corners`/`values` are the tet's four vertices and scalars; triangles
/// with vertices interpolated at `iso` are appended to `out`.
pub(crate) fn contour_tet(
    corners: [Vec3; 4],
    values: [f64; 4],
    iso: f64,
    out: &mut Vec<[Vec3; 3]>,
) {
    let inside: Vec<usize> = (0..4).filter(|&i| values[i] > iso).collect();
    let outside: Vec<usize> = (0..4).filter(|&i| values[i] <= iso).collect();
    let interp = |a: usize, b: usize| -> Vec3 {
        let t = ((iso - values[a]) / (values[b] - values[a])).clamp(0.0, 1.0);
        corners[a].lerp(corners[b], t)
    };
    match inside.len() {
        0 | 4 => {}
        1 => {
            let a = inside[0];
            out.push([
                interp(a, outside[0]),
                interp(a, outside[1]),
                interp(a, outside[2]),
            ]);
        }
        3 => {
            let d = outside[0];
            out.push([
                interp(inside[0], d),
                interp(inside[1], d),
                interp(inside[2], d),
            ]);
        }
        2 => {
            // Quad between the four crossing edges, split into 2 triangles.
            let (a, b) = (inside[0], inside[1]);
            let (c, d) = (outside[0], outside[1]);
            let p_ac = interp(a, c);
            let p_ad = interp(a, d);
            let p_bc = interp(b, c);
            let p_bd = interp(b, d);
            out.push([p_ac, p_ad, p_bd]);
            out.push([p_ac, p_bd, p_bc]);
        }
        #[expect(
            clippy::unreachable,
            reason = "a tetrahedron has zero to four inside vertices"
        )]
        _ => unreachable!(),
    }
}

/// Marching tetrahedra over a point-centered scalar on a uniform grid.
/// Returns a triangle soup (no welding — this is a test oracle).
pub fn marching_tetrahedra(grid: &UniformGrid, values: &[f64], iso: f64) -> Vec<[Vec3; 3]> {
    assert_eq!(values.len(), grid.num_points());
    let mut out = Vec::new();
    for c in 0..grid.num_cells() {
        let cell = grid.cell_at(c);
        let (ids, corners) = (cell.point_ids(), cell.corners());
        for tet in HEX_TO_TETS {
            let tc = [
                corners[tet[0]],
                corners[tet[1]],
                corners[tet[2]],
                corners[tet[3]],
            ];
            let tv = [
                values[ids[tet[0]]],
                values[ids[tet[1]]],
                values[ids[tet[2]]],
                values[ids[tet[3]]],
            ];
            contour_tet(tc, tv, iso, &mut out);
        }
    }
    out
}

/// Surface area of a triangle soup.
pub fn soup_area(tris: &[[Vec3; 3]]) -> f64 {
    tris.iter()
        .map(|t| 0.5 * (t[1] - t[0]).cross(t[2] - t[0]).length())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tet_with_no_crossing_emits_nothing() {
        let corners = [Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z];
        let mut out = Vec::new();
        contour_tet(corners, [1.0; 4], 0.0, &mut out);
        contour_tet(corners, [-1.0, -1.0, -1.0, -1.0], 0.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_corner_crossing_is_one_triangle() {
        let corners = [Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z];
        let mut out = Vec::new();
        contour_tet(corners, [1.0, -1.0, -1.0, -1.0], 0.0, &mut out);
        assert_eq!(out.len(), 1);
        // All vertices at edge midpoints of the corner 0 edges.
        for v in &out[0] {
            assert!((v.length() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn two_corner_crossing_is_a_quad() {
        let corners = [Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z];
        let mut out = Vec::new();
        contour_tet(corners, [1.0, 1.0, -1.0, -1.0], 0.0, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn mt_sphere_area_close_to_analytic() {
        let grid = UniformGrid::cube_cells(20);
        let c = grid.bounds().center();
        let values: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).distance(c))
            .collect();
        let r = 0.35;
        let tris = marching_tetrahedra(&grid, &values, r);
        let area = soup_area(&tris);
        let expect = 4.0 * std::f64::consts::PI * r * r;
        assert!(
            (area - expect).abs() / expect < 0.05,
            "area {area} vs {expect}"
        );
    }

    #[test]
    fn mt_agrees_with_mc_on_cell_classification() {
        // Both algorithms must emit geometry in exactly the same cells
        // whenever no cell face is ambiguous... MT splits cells into tets,
        // so a cell produces geometry iff some corner pair straddles iso —
        // identical to MC's criterion (any corner sign differs).
        let grid = UniformGrid::cube_cells(6);
        let values: Vec<f64> = (0..grid.num_points())
            .map(|p| {
                let q = grid.point_coord_id(p);
                (5.0 * q.x).sin() + (3.0 * q.y).cos() + q.z
            })
            .collect();
        let iso = 0.7;
        let mc = crate::contour::marching_cubes(
            &grid,
            &values,
            &crate::contour::SegmentIndex::of_field(&grid, &values),
            iso,
        );
        let mt = marching_tetrahedra(&grid, &values, iso);
        // Compare emptiness only (both empty or both non-empty) and total
        // area within a loose tolerance (the two tessellations differ at
        // O(h)).
        assert_eq!(mc.triangles.num_cells() == 0, mt.is_empty());
        if !mt.is_empty() {
            let mut mc_area = 0.0;
            for c in 0..mc.triangles.num_cells() {
                let t = mc.triangles.cell_points(c);
                let (a, b, cc) = (
                    mc.points[t[0] as usize],
                    mc.points[t[1] as usize],
                    mc.points[t[2] as usize],
                );
                mc_area += 0.5 * (b - a).cross(cc - a).length();
            }
            let mt_area = soup_area(&mt);
            let rel = (mc_area - mt_area).abs() / mt_area;
            assert!(rel < 0.15, "MC area {mc_area} vs MT area {mt_area}");
        }
    }
}
