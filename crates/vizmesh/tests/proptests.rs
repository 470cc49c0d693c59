//! Property-based tests for the vizmesh data model.

use propcheck::prelude::*;
use vizmesh::{Aabb, Camera, CellSet, CellShape, UniformGrid, Vec3, WorkCounters};

fn vec3_strategy(range: std::ops::Range<f64>) -> impl Strategy<Value = Vec3> {
    (range.clone(), range.clone(), range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// `Aabb::intersect_ray` as it was written before its miss test moved
/// after the loop: the same per-axis updates, a miss test after each.
fn per_axis_slab_test(
    b: &Aabb,
    origin: Vec3,
    inv_dir: Vec3,
    t_min: f64,
    t_max: f64,
) -> Option<(f64, f64)> {
    let mut t0 = t_min;
    let mut t1 = t_max;
    for axis in 0..3 {
        let inv = inv_dir[axis];
        let mut near = (b.min[axis] - origin[axis]) * inv;
        let mut far = (b.max[axis] - origin[axis]) * inv;
        if near > far {
            std::mem::swap(&mut near, &mut far);
        }
        if near > t0 {
            t0 = near;
        }
        if far < t1 {
            t1 = far;
        }
        if t0 > t1 {
            return None;
        }
    }
    Some((t0, t1))
}

proptest! {
    /// Trilinear sampling must reproduce arbitrary linear fields exactly
    /// (to rounding) anywhere inside the grid.
    #[test]
    fn sampling_reproduces_linear_fields(
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        c in -5.0f64..5.0,
        d in -5.0f64..5.0,
        n in 1usize..6,
        p in vec3_strategy(0.0..1.0),
    ) {
        let g = UniformGrid::cube_cells(n);
        let f = |q: Vec3| a * q.x + b * q.y + c * q.z + d;
        let vals: Vec<f64> = (0..g.num_points())
            .map(|id| f(g.point_coord_id(id)))
            .collect();
        let s = g.sample_scalar(&vals, p).unwrap();
        prop_assert!((s - f(p)).abs() < 1e-9);
    }

    /// Point-id linearization round-trips for arbitrary grid shapes.
    #[test]
    fn point_id_round_trip(
        nx in 2usize..10,
        ny in 2usize..10,
        nz in 2usize..10,
    ) {
        let g = UniformGrid::new([nx, ny, nz], Vec3::ZERO, Vec3::ONE);
        for id in (0..g.num_points()).step_by(7) {
            let [i, j, k] = g.point_ijk(id);
            prop_assert_eq!(g.point_id(i, j, k), id);
        }
    }

    /// Every cell's corner points lie within the grid bounds and the cell
    /// center is inside the located cell.
    #[test]
    fn locate_cell_finds_center(n in 1usize..8, cell_frac in 0.0f64..1.0) {
        let g = UniformGrid::cube_cells(n);
        let cell = ((g.num_cells() as f64 - 1.0) * cell_frac) as usize;
        let center = g.cell_at(cell).center();
        prop_assert_eq!(g.locate_cell(center), Some(cell));
    }

    /// The row-stepping walk is the per-id decode, bit for bit: over
    /// grids with 1-cell axes, over sub-ranges that start mid-row and
    /// cross row and slab boundaries, and over ascending lists with
    /// gaps, where every jump must land where a fresh decode would.
    #[test]
    fn grid_walk_agrees_with_per_id_decode(
        dims in (1usize..7, 1usize..6, 1usize..5),
        origin in vec3_strategy(-2.0..2.0),
        spacing in vec3_strategy(0.05..1.5),
        cut in (0.0f64..1.0, 0.0f64..1.0),
        strides in prop::collection::vec(1usize..40, 0..30),
    ) {
        let (cx, cy, cz) = dims;
        let g = UniformGrid::new([cx + 1, cy + 1, cz + 1], origin, spacing);
        // The decode and the corner formulas as they stood before the
        // walk existed.
        let corner_ids = |c: usize| {
            let (i, j, k) = (c % cx, (c / cx) % cy, c / (cx * cy));
            [
                g.point_id(i, j, k),
                g.point_id(i + 1, j, k),
                g.point_id(i + 1, j + 1, k),
                g.point_id(i, j + 1, k),
                g.point_id(i, j, k + 1),
                g.point_id(i + 1, j, k + 1),
                g.point_id(i + 1, j + 1, k + 1),
                g.point_id(i, j + 1, k + 1),
            ]
        };
        let coord = |p: usize| {
            let (nx, ny) = (cx + 1, cy + 1);
            g.point_coord(p % nx, (p / nx) % ny, p / (nx * ny))
        };
        let sub = |n: usize| {
            let (a, b) = ((cut.0 * n as f64) as usize, (cut.1 * n as f64) as usize);
            a.min(b)..a.max(b)
        };
        let jumps = |n: usize| {
            let mut at = 0;
            let ids: Vec<usize> = strides.iter().map(|s| { at += s; at - 1 }).collect();
            ids.into_iter().filter(move |&id| id < n)
        };

        for ids in [sub(g.num_cells()).collect::<Vec<_>>(), jumps(g.num_cells()).collect()] {
            let walked: Vec<_> = g.cells(ids.iter().copied()).collect();
            prop_assert_eq!(walked.len(), ids.len());
            for (cell, &c) in walked.iter().zip(&ids) {
                prop_assert_eq!(cell.id(), c);
                prop_assert_eq!(cell.ijk(), g.cell_at(c).ijk());
                prop_assert_eq!(cell.point_ids(), corner_ids(c));
                prop_assert_eq!(cell.point_ids(), g.cell_at(c).point_ids());
                for (slot, &p) in corner_ids(c).iter().enumerate() {
                    prop_assert_eq!(cell.corner_coord(slot), coord(p));
                }
                prop_assert_eq!(cell.corners(), g.cell_at(c).corners());
                prop_assert_eq!(cell.center(), coord(corner_ids(c)[0]) + spacing * 0.5);
                // A cell reached by stepping is the cell a fresh start gives.
                let mut sought = g.cell_at(ids[0]);
                sought.seek(c);
                prop_assert_eq!(sought.ijk(), g.cell_at(c).ijk());
            }
        }
        for ids in [sub(g.num_points()).collect::<Vec<_>>(), jumps(g.num_points()).collect()] {
            let walked: Vec<_> = g.points(ids.iter().copied()).collect();
            let expect: Vec<_> = ids.iter().map(|&p| (p, coord(p))).collect();
            prop_assert_eq!(&walked, &expect);
            for (&(_, at), &p) in walked.iter().zip(&ids) {
                prop_assert_eq!(at, g.point_coord_id(p));
            }
        }
        // The parallel sweeps are the walks, whole-grid.
        let ids: Vec<_> = g.map_cells(1, |cell| cell.point_ids());
        prop_assert_eq!(ids, (0..g.num_cells()).map(corner_ids).collect::<Vec<_>>());
        let coords: Vec<_> = g.map_points(1, |p, at| (p, at));
        prop_assert_eq!(coords, (0..g.num_points()).map(|p| (p, coord(p))).collect::<Vec<_>>());
    }

    /// An AABB grown from points contains all of them.
    #[test]
    fn aabb_contains_generating_points(
        pts in prop::collection::vec(vec3_strategy(-100.0..100.0), 1..40)
    ) {
        let b = Aabb::from_points(pts.iter().copied());
        for p in &pts {
            prop_assert!(b.contains(*p));
        }
    }

    /// Slab-test consistency: any point between the returned entry and
    /// exit parameters is inside the box (within tolerance).
    #[test]
    fn ray_slab_interval_is_inside(
        origin in vec3_strategy(-3.0..3.0),
        dir in vec3_strategy(-1.0..1.0),
        t in 0.0f64..1.0,
    ) {
        prop_assume!(dir.length() > 1e-3);
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let d = dir.normalized();
        let inv = Vec3::new(1.0 / d.x, 1.0 / d.y, 1.0 / d.z);
        if let Some((t0, t1)) = b.intersect_ray(origin, inv, 0.0, f64::INFINITY) {
            let tm = t0 + (t1 - t0) * t;
            let p = origin + d * tm;
            let grown = Aabb::new(Vec3::splat(-1e-6), Vec3::splat(1.0 + 1e-6));
            prop_assert!(grown.contains(p), "p = {p:?} at t = {tm}");
        }
    }

    /// One miss test after the three axes returns what a test per axis
    /// returned, bit for bit: boxes on integer corners (and the empty
    /// box), origins on their slab planes or off them, zero and signed
    /// zero direction components (so `0 · ∞ = NaN` reaches the
    /// comparisons), `t_max = 0` and infinite bounds.
    #[test]
    fn the_slab_test_is_the_per_axis_test(
        corner in (-2i32..3, -2i32..3, -2i32..3),
        extent in (0i32..3, 0i32..3, 0i32..3),
        empty in 0u8..6,
        origin in (-3i32..4, -3i32..4, -3i32..4),
        off_plane in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        shift in 0u8..8,
        dir in (0usize..6, 0usize..6, 0usize..6),
        bounds in (0usize..3, 0usize..4),
    ) {
        let at = |v: (i32, i32, i32)| Vec3::new(v.0 as f64, v.1 as f64, v.2 as f64);
        let b = if empty == 0 {
            Aabb::empty()
        } else {
            Aabb::new(at(corner), at(corner) + at(extent))
        };
        // Each origin component on an integer (a slab plane, when a box
        // face lies there) unless its bit of `shift` moves it off.
        let moved = Vec3::new(
            off_plane.0 * f64::from(shift & 1),
            off_plane.1 * f64::from(shift >> 1 & 1),
            off_plane.2 * f64::from(shift >> 2 & 1),
        );
        let o = at(origin) + moved;
        let component = [0.0, -0.0, 1.0, -1.0, 0.5, -3.0];
        let inv = Vec3::new(
            1.0 / component[dir.0],
            1.0 / component[dir.1],
            1.0 / component[dir.2],
        );
        let t_min = [0.0, -1.0, f64::NEG_INFINITY][bounds.0];
        let t_max = [0.0, 1.5, 10.0, f64::INFINITY][bounds.1];
        let bits = |hit: Option<(f64, f64)>| hit.map(|(t0, t1)| (t0.to_bits(), t1.to_bits()));
        prop_assert_eq!(
            bits(b.intersect_ray(o, inv, t_min, t_max)),
            bits(per_axis_slab_test(&b, o, inv, t_min, t_max))
        );
    }

    /// Camera rays always have unit direction and originate at the camera.
    #[test]
    fn camera_rays_unit_length(
        pos in vec3_strategy(2.0..6.0),
        x in 0usize..32,
        y in 0usize..32,
    ) {
        let cam = Camera::new(pos, Vec3::ZERO, Vec3::Y, 45.0);
        let r = cam.view(32, 32).ray(x, y);
        prop_assert!((r.direction.length() - 1.0).abs() < 1e-12);
        prop_assert_eq!(r.origin, pos);
    }

    /// CellSet::append_shifted preserves per-cell arity and shape.
    #[test]
    fn cellset_append_preserves_shape(tris in 1usize..20, shift in 0u32..100) {
        let mut a = CellSet::new();
        a.push(CellShape::Line, &[0, 1]);
        let mut b = CellSet::new();
        for i in 0..tris as u32 {
            b.push(CellShape::Triangle, &[i, i + 1, i + 2]);
        }
        a.append_shifted(&b, shift);
        prop_assert_eq!(a.num_cells(), 1 + tris);
        for c in 1..a.num_cells() {
            prop_assert_eq!(a.shape(c), CellShape::Triangle);
            let pts = a.cell_points(c);
            prop_assert_eq!(pts.len(), 3);
            prop_assert!(pts.iter().all(|&p| p >= shift));
        }
    }

    /// WorkCounters `+` is associative on the summed fields.
    #[test]
    fn counters_merge_associative(
        a in (0u64..1000, 0u64..1000, 0u64..1000),
        b in (0u64..1000, 0u64..1000, 0u64..1000),
        c in (0u64..1000, 0u64..1000, 0u64..1000),
    ) {
        let mk = |(items, instr, ws): (u64, u64, u64)| WorkCounters {
            items,
            instructions: instr,
            flops: instr / 2,
            bytes_read: items * 8,
            bytes_written: items,
            working_set_bytes: ws,
        };
        let (ca, cb, cc) = (mk(a), mk(b), mk(c));
        let left = (ca + cb) + cc;
        let right = ca + (cb + cc);
        prop_assert_eq!(left, right);
    }
}
