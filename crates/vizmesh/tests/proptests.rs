//! Property-based tests for the vizmesh data model.

use propcheck::prelude::*;
use vizmesh::{Aabb, Camera, CellSet, CellShape, UniformGrid, Vec3, WorkCounters};

fn vec3_strategy(range: std::ops::Range<f64>) -> impl Strategy<Value = Vec3> {
    (range.clone(), range.clone(), range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
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
        let center = g.cell_center(cell);
        prop_assert_eq!(g.locate_cell(center), Some(cell));
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

    /// Camera rays always have unit direction and originate at the camera.
    #[test]
    fn camera_rays_unit_length(
        pos in vec3_strategy(2.0..6.0),
        x in 0usize..32,
        y in 0usize..32,
    ) {
        let cam = Camera::new(pos, Vec3::ZERO, Vec3::Y, 45.0);
        let r = cam.pixel_ray(x, y, 32, 32);
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

    /// WorkCounters::merge is associative on the summed fields.
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
