//! Scenes: renderers plus an image-database sink.

use std::io;
use std::path::{Path, PathBuf};
use vizalgo::{AlgorithmSpec, FilterOutput};
use vizmesh::DataSet;

/// A named scene: a renderer and optionally a directory into which its
/// image database is written as PPM files.
#[derive(Debug, Clone)]
pub struct Scene {
    pub name: String,
    pub renderer: AlgorithmSpec,
    pub(crate) output_dir: Option<PathBuf>,
}

impl Scene {
    pub fn new(name: impl Into<String>, renderer: AlgorithmSpec) -> Self {
        Scene {
            name: name.into(),
            renderer,
            output_dir: None,
        }
    }

    /// Write rendered images under `dir` as `<scene>_<cycle>_<idx>.ppm`.
    pub fn with_output_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.output_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Render the scene against `data` for visualization cycle `cycle`.
    /// A write error names the directory or file it could not write.
    pub fn render(&self, data: &DataSet, cycle: u64) -> io::Result<FilterOutput> {
        let out = self.renderer.build(data).execute(data);
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
    use vizmesh::{Association, Field, UniformGrid};

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

    #[test]
    fn render_with_sink_writes_ppm_files() {
        let dir = std::env::temp_dir().join("vizpower_scene_test");
        let _ = std::fs::remove_dir_all(&dir);
        let s = Scene::new("db", spec(2)).with_output_dir(&dir);
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
