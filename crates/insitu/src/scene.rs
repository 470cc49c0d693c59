//! Scenes: renderers plus an image-database sink.
//!
//! CloverLeaf's mesh is Eulerian, so a ray-tracing scene keeps its last
//! [`RayRecord`] and renders through [`RayTracer::render`], which traces
//! again only when the record was made from another grid or image size
//! and otherwise only colours its hits, with `execute`'s images and
//! reports. The record costs 32 B per hit pixel: about 10 MB for the
//! paper's 50 images of 128², of which about 41 % of the pixels hit.
//!
//! [`RayTracer::render`]: vizalgo::RayTracer::render

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use vizalgo::{AlgorithmSpec, FilterOutput, RayRecord};
use vizmesh::DataSet;

/// A named scene: a renderer and optionally a directory into which its
/// image database is written as PPM files.
pub struct Scene {
    pub name: String,
    pub renderer: AlgorithmSpec,
    pub(crate) output_dir: Option<PathBuf>,
    /// A ray-tracing scene's last record.
    record: Mutex<Option<RayRecord>>,
}

impl Scene {
    pub fn new(name: impl Into<String>, renderer: AlgorithmSpec) -> Self {
        Scene {
            name: name.into(),
            renderer,
            output_dir: None,
            record: Mutex::new(None),
        }
    }

    /// Write rendered images under `dir` as `<scene>_<cycle>_<idx>.ppm`.
    pub fn with_output_dir(&mut self, dir: impl AsRef<Path>) {
        self.output_dir = Some(dir.as_ref().to_path_buf());
    }

    /// Render the scene against `data` for visualization cycle `cycle`.
    /// A write error names the directory or file it could not write.
    pub fn render(&self, data: &DataSet, cycle: u64) -> io::Result<FilterOutput> {
        let out = match self.renderer.build_tracer() {
            Some(tracer) => {
                // A record is only ever replaced whole, so a poisoned
                // lock still holds a valid one.
                let mut held = self.record.lock().unwrap_or_else(|e| e.into_inner());
                tracer.render(&mut held, data)
            }
            None => self.renderer.build(data).execute(data),
        };
        if let Some(dir) = &self.output_dir {
            std::fs::create_dir_all(dir).map_err(|e| naming(dir, e))?;
            for (i, img) in out.images.iter().enumerate() {
                let path = dir.join(format!("{}_{:04}_{:02}.ppm", self.name, cycle, i));
                img.save_ppm(&path, [1.0, 1.0, 1.0])
                    .map_err(|e| naming(&path, e))?;
            }
        }
        Ok(out)
    }
}

/// `e` with the path it concerns in front of its message.
fn naming(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizmesh::{Aabb, Association, Field, UniformGrid, Vec3};

    fn dataset() -> DataSet {
        let grid = UniformGrid::cube_cells(4);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).x)
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("energy", Association::Points, vals))
    }

    fn spec(images: usize) -> AlgorithmSpec {
        AlgorithmSpec::RayTracing {
            field: "energy".into(),
            width: 16,
            height: 16,
            images,
        }
    }

    #[test]
    fn render_without_sink_produces_images() {
        let s = Scene::new("s", spec(3));
        let out = s.render(&dataset(), 0).unwrap();
        assert_eq!(out.images.len(), 3);
    }

    /// `cells` cells from `origin` with energy `value(point id)`.
    fn on_grid(cells: [usize; 3], origin: Vec3, value: fn(usize) -> f64) -> DataSet {
        let bounds = Aabb::new(origin, origin + Vec3::new(2.0, 1.5, 0.75));
        let grid = UniformGrid::from_cell_dims(cells, bounds);
        let vals = (0..grid.num_points()).map(value).collect();
        DataSet::uniform(grid).with_field(Field::scalar("energy", Association::Points, vals))
    }

    #[test]
    fn a_ray_tracing_scene_renders_as_execute_across_grid_changes() {
        let spec = AlgorithmSpec::RayTracing {
            field: "energy".into(),
            width: 40,
            height: 32,
            images: 3,
        };
        let (a, b): (fn(usize) -> f64, fn(usize) -> f64) =
            (|p| (p as f64 * 0.37).sin(), |p| (p as f64 * 0.11).cos());
        let at = Vec3::new(-0.5, 0.25, 1.0);
        let g = |value| on_grid([12, 9, 7], at, value);
        // G, G recoloured, G' with other dims, G' with another origin
        // (same dims as G), then G again.
        let renders = [
            ("G", g(a)),
            ("G, field B", g(b)),
            ("other dims", on_grid([12, 10, 7], at, a)),
            (
                "other origin",
                on_grid([12, 9, 7], at + Vec3::new(0.1, 0.0, 0.0), a),
            ),
            ("G again", g(b)),
        ];
        let scene = Scene::new("s", spec.clone());
        for (cycle, (what, data)) in renders.iter().enumerate() {
            let want = format!("{:?}", spec.build(data).execute(data));
            let got = scene.render(data, cycle as u64).unwrap();
            assert!(format!("{got:?}") == want, "{what}");
        }
    }

    #[test]
    fn render_with_sink_writes_ppm_files() {
        let dir = std::env::temp_dir().join("vizpower_scene_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Scene::new("db", spec(2));
        s.with_output_dir(&dir);
        s.render(&dataset(), 7).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, vec!["db_0007_00.ppm", "db_0007_01.ppm"]);
        // PPM header sanity.
        let bytes = std::fs::read(dir.join("db_0007_00.ppm")).unwrap();
        assert!(bytes.starts_with(b"P6\n16 16\n255\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
