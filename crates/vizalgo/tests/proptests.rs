//! Property-based and cross-implementation tests for the visualization
//! algorithms.

#![allow(
    clippy::disallowed_methods,
    reason = "each property probes one kernel in isolation, not the registry"
)]

use propcheck::prelude::*;
use vizalgo::contour::{marching_cubes, SegmentIndex};
use vizalgo::marching_tetra::{marching_tetrahedra, soup_area};
use vizalgo::{Filter, Isovolume, SphericalClip, Threshold};
use vizmesh::{Association, DataSet, Field, UniformGrid, Vec3};

/// Deterministic pseudo-random smooth field from a seed.
fn wavy_field(grid: &UniformGrid, seed: u64) -> Vec<f64> {
    let a = 3.0 + (seed % 5) as f64;
    let b = 2.0 + (seed % 7) as f64;
    let c = 1.0 + (seed % 3) as f64;
    (0..grid.num_points())
        .map(|id| {
            let p = grid.point_coord_id(id);
            (a * p.x).sin() + (b * p.y).cos() * (c * p.z).sin() + 0.3 * p.x * p.y
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Marching cubes and marching tetrahedra agree on whether a surface
    /// exists and produce comparable areas on random smooth fields.
    #[test]
    fn mc_and_mt_agree(seed in 0u64..100, iso in -0.8f64..1.2) {
        let grid = UniformGrid::cube_cells(5);
        let values = wavy_field(&grid, seed);
        let mc = marching_cubes(&grid, &values, &SegmentIndex::of_field(&grid, &values), iso);
        let mt = marching_tetrahedra(&grid, &values, iso);
        prop_assert_eq!(mc.triangles.num_cells() == 0, mt.is_empty());
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
            // The tessellations differ at O(h); they must still be within
            // ~20 % of each other for smooth fields.
            let rel = (mc_area - mt_area).abs() / mt_area.max(1e-12);
            prop_assert!(rel < 0.2, "MC {mc_area} vs MT {mt_area}");
        }
    }

    /// MC output is always watertight away from the domain boundary.
    #[test]
    fn mc_watertight(seed in 0u64..50, iso in -0.5f64..1.0) {
        let grid = UniformGrid::cube_cells(4);
        let values = wavy_field(&grid, seed);
        let mc = marching_cubes(&grid, &values, &SegmentIndex::of_field(&grid, &values), iso);
        let mut edges = std::collections::HashMap::new();
        for c in 0..mc.triangles.num_cells() {
            let t = mc.triangles.cell_points(c);
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                *edges.entry((a.min(b), a.max(b))).or_insert(0u32) += 1;
            }
        }
        let on_boundary = |p: Vec3| {
            let eps = 1e-9;
            p.x < eps || p.y < eps || p.z < eps
                || p.x > 1.0 - eps || p.y > 1.0 - eps || p.z > 1.0 - eps
        };
        for ((a, b), n) in edges {
            prop_assert!(n <= 2);
            if n == 1 {
                prop_assert!(
                    on_boundary(mc.points[a as usize])
                        && on_boundary(mc.points[b as usize])
                );
            }
        }
    }

    /// Threshold keeps exactly the cells whose value is in range.
    #[test]
    fn threshold_selectivity(lo in 0.0f64..0.5, width in 0.0f64..0.5) {
        let grid = UniformGrid::cube_cells(4);
        let vals: Vec<f64> = (0..grid.num_cells())
            .map(|c| c as f64 / 63.0)
            .collect();
        let expected = vals
            .iter()
            .filter(|&&v| v >= lo && v <= lo + width)
            .count();
        let ds = DataSet::uniform(grid)
            .with_field(Field::scalar("v", Association::Cells, vals));
        let out = Threshold::new("v", lo, lo + width).execute(&ds);
        prop_assert_eq!(out.dataset.unwrap().num_cells(), expected);
    }

    /// Isovolume of a linear ramp has exactly the band volume.
    #[test]
    fn isovolume_band_volume(lo in 0.05f64..0.5, width in 0.05f64..0.45) {
        let hi = (lo + width).min(0.999);
        let grid = UniformGrid::cube_cells(5);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).x)
            .collect();
        let ds = DataSet::uniform(grid)
            .with_field(Field::scalar("f", Association::Points, vals));
        let out = Isovolume::new("f", lo, hi).execute(&ds);
        let result = out.dataset.unwrap();
        let (points, cells) = result.as_explicit().unwrap();
        let mut vol = 0.0;
        for (shape, conn) in cells.iter() {
            match shape {
                vizmesh::CellShape::Tetra => {
                    let (a, b, c, d) = (
                        points[conn[0] as usize],
                        points[conn[1] as usize],
                        points[conn[2] as usize],
                        points[conn[3] as usize],
                    );
                    vol += ((b - a).cross(c - a).dot(d - a) / 6.0).abs();
                }
                vizmesh::CellShape::Hexahedron => {
                    let a = points[conn[0] as usize];
                    let g = points[conn[6] as usize];
                    let e = g - a;
                    vol += (e.x * e.y * e.z).abs();
                }
                _ => {}
            }
        }
        prop_assert!((vol - (hi - lo)).abs() < 1e-6, "vol {vol} vs {}", hi - lo);
    }

    /// Spherical clip never keeps volume deep inside the sphere and the
    /// kept volume is monotone in the radius.
    #[test]
    fn clip_volume_monotone_in_radius(r1 in 0.1f64..0.3, dr in 0.02f64..0.2) {
        let grid = UniformGrid::cube_cells(6);
        let np = grid.num_points();
        let ds = DataSet::uniform(grid)
            .with_field(Field::scalar("energy", Association::Points, vec![1.0; np]));
        let vol = |r: f64| -> f64 {
            let out = SphericalClip::new(Vec3::splat(0.5), r).execute(&ds);
            let result = out.dataset.unwrap();
            let (points, cells) = result.as_explicit().unwrap();
            let mut v = 0.0;
            for (shape, conn) in cells.iter() {
                match shape {
                    vizmesh::CellShape::Tetra => {
                        let (a, b, c, d) = (
                            points[conn[0] as usize],
                            points[conn[1] as usize],
                            points[conn[2] as usize],
                            points[conn[3] as usize],
                        );
                        v += ((b - a).cross(c - a).dot(d - a) / 6.0).abs();
                    }
                    vizmesh::CellShape::Hexahedron => {
                        let a = points[conn[0] as usize];
                        let g = points[conn[6] as usize];
                        let e = g - a;
                        v += (e.x * e.y * e.z).abs();
                    }
                    _ => {}
                }
            }
            v
        };
        let small = vol(r1);
        let large = vol(r1 + dr);
        prop_assert!(large <= small + 1e-9, "bigger sphere kept more volume");
    }
}
