//! Reproduce Fig. 1: one rendering per algorithm.
//!
//! ```text
//! cargo run --release --example render_gallery -- [output_dir]
//! ```
//!
//! Runs all eight algorithms on the energy field of the CloverLeaf proxy
//! and writes eight PPM images (default directory: `target/gallery`).
//! The six data-producing algorithms are rendered by ray-tracing their
//! extracted geometry through the scene ray tracer; ray tracing and
//! volume rendering produce images directly.

use powersim::Watts;
use std::path::PathBuf;
use vizalgo::colormap::ColorMap;
use vizalgo::raytrace::{Bvh, Triangle};
use vizalgo::Algorithm;
use vizmesh::{Camera, CellShape, DataSet, Image, Vec3};
use vizpower::study::{dataset_for, StudyConfig};

/// Triangulate whatever geometry a filter produced (triangles directly;
/// tets and hexes via their faces; polylines as thin ribbons) with the
/// carried scalar for coloring.
fn soup_from(ds: &DataSet, field: &str) -> Vec<Triangle> {
    let (points, cells) = ds.as_explicit().expect("explicit output");
    let values = ds
        .point_scalars(field)
        .map(|v| v.to_vec())
        .unwrap_or_else(|| vec![0.5; points.len()]);
    let v = |i: u32| values.get(i as usize).copied().unwrap_or(0.5);
    let p = |i: u32| points[i as usize];
    let mut out = Vec::new();
    let quad = |out: &mut Vec<Triangle>, a: u32, b: u32, c: u32, d: u32| {
        out.push(Triangle {
            p: [p(a), p(b), p(c)],
            scalar: [v(a), v(b), v(c)],
        });
        out.push(Triangle {
            p: [p(a), p(c), p(d)],
            scalar: [v(a), v(c), v(d)],
        });
    };
    for (shape, conn) in cells.iter() {
        match shape {
            CellShape::Triangle => out.push(Triangle {
                p: [p(conn[0]), p(conn[1]), p(conn[2])],
                scalar: [v(conn[0]), v(conn[1]), v(conn[2])],
            }),
            CellShape::Tetra => {
                for f in [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]] {
                    out.push(Triangle {
                        p: [p(conn[f[0]]), p(conn[f[1]]), p(conn[f[2]])],
                        scalar: [v(conn[f[0]]), v(conn[f[1]]), v(conn[f[2]])],
                    });
                }
            }
            CellShape::Hexahedron => {
                quad(&mut out, conn[0], conn[3], conn[2], conn[1]);
                quad(&mut out, conn[4], conn[5], conn[6], conn[7]);
                quad(&mut out, conn[0], conn[1], conn[5], conn[4]);
                quad(&mut out, conn[1], conn[2], conn[6], conn[5]);
                quad(&mut out, conn[2], conn[3], conn[7], conn[6]);
                quad(&mut out, conn[3], conn[0], conn[4], conn[7]);
            }
            CellShape::PolyLine => {
                // Thin camera-agnostic ribbons.
                let w = 0.004;
                for seg in conn.windows(2) {
                    let (a, b) = (p(seg[0]), p(seg[1]));
                    let dir = (b - a).normalized();
                    let side = dir.cross(Vec3::Y).normalized() * w
                        + dir.cross(Vec3::X).normalized() * (w * 0.5);
                    out.push(Triangle {
                        p: [a - side, a + side, b + side],
                        scalar: [v(seg[0]), v(seg[0]), v(seg[1])],
                    });
                    out.push(Triangle {
                        p: [a - side, b + side, b - side],
                        scalar: [v(seg[0]), v(seg[1]), v(seg[1])],
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Ray-trace a triangle soup from a framing camera.
fn render_soup(tris: &[Triangle], px: usize) -> Image {
    let mut bounds = vizmesh::Aabb::empty();
    for t in tris {
        bounds.union(&t.bounds());
    }
    let cam = Camera::framing(&bounds);
    let (bvh, _) = Bvh::build(tris);
    let (lo, hi) = tris.iter().fold((f64::MAX, f64::MIN), |(lo, hi), t| {
        let tmin = t.scalar.iter().fold(f64::MAX, |a, &b| a.min(b));
        let tmax = t.scalar.iter().fold(f64::MIN, |a, &b| a.max(b));
        (lo.min(tmin), hi.max(tmax))
    });
    let cmap = ColorMap::cool_to_warm();
    let mut img = Image::new(px, px);
    let view = cam.view(px, px);
    for y in 0..px {
        for x in 0..px {
            let ray = view.ray(x, y);
            let mut stats = (0, 0);
            if let Some((t, ti, u, v)) = bvh.intersect(tris, &ray, &mut stats) {
                let tri = &tris[ti as usize];
                let s = tri.scalar[0] * (1.0 - u - v) + tri.scalar[1] * u + tri.scalar[2] * v;
                let mut c = cmap.sample_range(s, lo, hi);
                let shade = (0.35 + 0.65 * tri.normal().dot(-ray.direction).abs()) as f32;
                c[0] *= shade;
                c[1] *= shade;
                c[2] *= shade;
                img.set_if_closer(x, y, t as f32, c);
            }
        }
    }
    img
}

fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .map(Into::into)
        .unwrap_or_else(|| "target/gallery".into());
    std::fs::create_dir_all(&dir).unwrap();
    const PX: usize = 320;

    println!("building the CloverLeaf dataset (32^3) ...");
    let data = dataset_for(32);
    let config = StudyConfig {
        caps: vec![Watts(120.0)],
        isovalues: 10,
        render_px: PX,
        cameras: 1,
        particles: 400,
        advect_steps: 600,
    };

    for algorithm in Algorithm::ALL {
        let fname = dir.join(format!(
            "{}.ppm",
            algorithm.name().to_lowercase().replace(' ', "_")
        ));
        let img = match algorithm {
            Algorithm::RayTracing | Algorithm::VolumeRendering => {
                let renderer = config.spec(algorithm).build(&data);
                renderer.execute(&data).images.remove(0)
            }
            other => {
                let filter = config.spec(other).build(&data);
                let out = filter.execute(&data);
                let result = out.dataset.expect("geometry output");
                let field = match other {
                    Algorithm::ParticleAdvection => "speed",
                    Algorithm::Slice | Algorithm::Contour | Algorithm::Isovolume => "energy",
                    Algorithm::SphericalClip => "energy",
                    Algorithm::Threshold => "energy",
                    _ => unreachable!(),
                };
                let soup = soup_from(&result, field);
                if soup.is_empty() {
                    println!("  {algorithm}: produced no geometry, skipping");
                    continue;
                }
                render_soup(&soup, PX)
            }
        };
        img.save_ppm(&fname, [1.0, 1.0, 1.0]).unwrap();
        println!("  {algorithm:<20} -> {}", fname.display());
    }
    println!("\ngallery written to {}", dir.display());
}
