//! The common filter interface and kernel instrumentation types.

use vizmesh::{
    par, Aabb, Association, Camera, CellSet, DataSet, Field, Image, Ray, UniformGrid, Vec3,
    WorkCounters,
};

/// Microarchitectural flavor of a kernel, used by the `vizpower`
/// characterization bridge to assign an instruction-mix signature
/// (core CPI, FP activity, cache locality) to measured work counts.
///
/// The tags match the kernel taxonomy in §VI of the paper: cell-centered
/// streaming kernels (low IPC, data-bound), interpolation/signed-distance
/// kernels (moderate FP), and the image-order compute kernels (high IPC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Streaming per-cell classification/comparison (threshold, clip
    /// classify): load-store dominated, minimal FP.
    CellClassify,
    /// Marching-cubes case classification: corner sign gathering plus
    /// case-table indexing (contour, slice). More ILP than a pure
    /// streaming compare.
    CaseTable,
    /// Edge interpolation and triangle generation (contour, slice).
    Interpolate,
    /// Per-point implicit-function evaluation (slice planes, sphere
    /// distances): FP-dense but streaming.
    SignedDistance,
    /// Output compaction: gathers/scatters of kept cells and points.
    GatherScatter,
    /// Tetrahedral subdivision and clipping (clip, isovolume).
    TetClip,
    /// Spatial acceleration structure construction (ray tracing).
    BvhBuild,
    /// BVH traversal and triangle intersection (ray tracing).
    RayTraverse,
    /// Volume sampling + compositing loop (volume rendering).
    RayMarch,
    /// RK4 integration of particle trajectories (advection).
    Rk4Advect,
    /// Hydrodynamics kernels (the simulation side of in situ coupling).
    Simulation,
}

/// Work performed by one kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    pub name: String,
    pub class: KernelClass,
    pub work: WorkCounters,
}

impl KernelReport {
    pub fn new(name: impl Into<String>, class: KernelClass, work: WorkCounters) -> Self {
        KernelReport {
            name: name.into(),
            class,
            work,
        }
    }
}

/// What a filter produced: data, images (for the rendering algorithms),
/// and the instrumentation trail.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutput {
    /// Extracted geometry (empty explicit dataset for pure renderers).
    pub dataset: Option<DataSet>,
    /// Image database (for ray tracing / volume rendering).
    pub images: Vec<Image>,
    /// Per-kernel work reports, in execution order.
    pub kernels: Vec<KernelReport>,
    /// Per-primitive traffic reports, for filters executed through the
    /// DPP backend (empty for traditional executions); journaled as
    /// `primitive` records by the conformance driver.
    pub primitives: Vec<crate::dpp::PrimitiveReport>,
}

impl FilterOutput {
    pub(crate) fn data(dataset: DataSet, kernels: Vec<KernelReport>) -> Self {
        FilterOutput::data_with_primitives(dataset, kernels, Vec::new())
    }

    /// [`data`](FilterOutput::data), carrying the DPP primitive trail.
    pub(crate) fn data_with_primitives(
        dataset: DataSet,
        kernels: Vec<KernelReport>,
        primitives: Vec<crate::dpp::PrimitiveReport>,
    ) -> Self {
        FilterOutput {
            dataset: Some(dataset),
            images: Vec::new(),
            kernels,
            primitives,
        }
    }

    pub(crate) fn rendered(images: Vec<Image>, kernels: Vec<KernelReport>) -> Self {
        FilterOutput {
            dataset: None,
            images,
            kernels,
            primitives: Vec::new(),
        }
    }

    /// Total work across all kernels.
    pub fn total_work(&self) -> WorkCounters {
        let mut w = WorkCounters::new();
        for k in &self.kernels {
            w += k.work;
        }
        w
    }
}

/// The explicit dataset a geometry filter hands back: `points`, `cells`
/// and the point scalar `fields`, in order. Every vector is taken by
/// value; nothing per-point is copied.
pub(crate) fn mesh_dataset<'a>(
    points: Vec<Vec3>,
    cells: CellSet,
    fields: impl IntoIterator<Item = (&'a str, Vec<f64>)>,
) -> DataSet {
    let mut ds = DataSet::explicit(points, cells);
    for (name, values) in fields {
        ds.add_field(Field::scalar(name, Association::Points, values));
    }
    ds
}

/// One pass of a multi-pass filter (an isovalue, a slice plane): its
/// points, their values and its triangles.
pub(crate) type Surface = (Vec<Vec3>, Vec<f64>, CellSet);

/// Concatenate the surfaces of a multi-pass filter into one dataset
/// carrying the values as point field `field`.
pub(crate) fn concat_surfaces(field: &str, surfaces: impl Iterator<Item = Surface>) -> DataSet {
    let mut points = Vec::new();
    let mut values = Vec::new();
    let mut cells = CellSet::new();
    for (surface_points, surface_values, triangles) in surfaces {
        cells.append_shifted(&triangles, points.len() as u32);
        points.extend(surface_points);
        values.extend(surface_values);
    }
    mesh_dataset(points, cells, [(field, values)])
}

/// The uniform grid under `input`, or a panic naming the filter `who`.
/// With [`point_scalars`] and [`point_vectors`], the one place a filter
/// of either backend meets an input it cannot run on.
#[expect(clippy::panic, reason = "the study harness only feeds uniform grids")]
pub(crate) fn structured<'a>(input: &'a DataSet, who: &str) -> &'a UniformGrid {
    input
        .as_uniform()
        .unwrap_or_else(|| panic!("{who}: expects a structured dataset"))
}

/// The point scalar `field` of `input`, or a panic naming `who` and it.
#[expect(
    clippy::panic,
    reason = "the pipeline registers the field before running"
)]
pub(crate) fn point_scalars<'a>(input: &'a DataSet, who: &str, field: &str) -> &'a [f64] {
    input
        .point_scalars(field)
        .unwrap_or_else(|| panic!("{who}: missing point scalar field '{field}'"))
}

/// The point vector `field` of `input`, or a panic naming `who` and it.
#[expect(
    clippy::panic,
    reason = "the pipeline registers the field before running"
)]
pub(crate) fn point_vectors<'a>(input: &'a DataSet, who: &str, field: &str) -> &'a [Vec3] {
    input
        .point_vectors(field)
        .unwrap_or_else(|| panic!("{who}: missing point vector field '{field}'"))
}

/// Scalar range of `field` under any association, `[0, 1]` without such
/// a field: what the data-dependent parameters (bands, color and
/// transfer-function ranges) are resolved against.
pub(crate) fn scalar_range(input: &DataSet, field: &str) -> (f64, f64) {
    let found = input.field(field);
    found.and_then(|f| f.scalar_range()).unwrap_or((0.0, 1.0))
}

/// [`scalar_range`] of the point-centered `field` only.
pub(crate) fn point_scalar_range(input: &DataSet, field: &str) -> (f64, f64) {
    let found = input.field_with(field, Association::Points);
    found.and_then(|f| f.scalar_range()).unwrap_or((0.0, 1.0))
}

/// Each camera of a `num_cameras` orbit around `bounds` in turn: its rows
/// are filled on `par` into buffers every camera reuses, then handed to
/// `take`. `pixel(ray, stats)` counts into its row's stats.
pub(crate) fn orbit_rows<P: Send, S: Default + Send>(
    bounds: &Aabb,
    num_cameras: usize,
    (width, height): (usize, usize),
    pixel: impl Fn(&Ray, &mut S) -> Option<P> + Sync,
    mut take: impl FnMut(&[(Vec<Option<P>>, S)]),
) {
    let rows = crate::RAY_MIN_LEN.div_ceil(width.max(1));
    let mut row_buf: Vec<(Vec<Option<P>>, S)> = Vec::with_capacity(height);
    row_buf.resize_with(height, Default::default);
    for cam in Camera::orbit(bounds, num_cameras) {
        let view = cam.view(width, height);
        par::for_each_mut(&mut row_buf, rows, |y, (row, stats)| {
            *stats = S::default();
            row.clear();
            row.extend((0..width).map(|x| pixel(&view.ray(x, y), stats)));
        });
        take(&row_buf);
    }
}

/// The image database of both image-order renderers: [`orbit_rows`] with
/// each drawn `(rgba, depth)` set on its camera's image, which comes with
/// its rows' stats, summed by `add` in row order.
pub(crate) fn orbit_images<S: Copy + Default + Send>(
    bounds: &Aabb,
    num_cameras: usize,
    (width, height): (usize, usize),
    pixel: impl Fn(&Ray, &mut S) -> Option<([f32; 4], f32)> + Sync,
    add: impl Fn(S, S) -> S,
) -> Vec<(Image, S)> {
    let mut images = Vec::with_capacity(num_cameras);
    orbit_rows(bounds, num_cameras, (width, height), pixel, |rows| {
        let mut img = Image::new(width, height);
        let mut total = S::default();
        for (y, (row, stats)) in rows.iter().enumerate() {
            for (x, px) in row.iter().enumerate() {
                if let Some((rgba, depth)) = *px {
                    img.set_if_closer(x, y, depth, rgba);
                }
            }
            total = add(total, *stats);
        }
        images.push((img, total));
    });
    images
}

/// A visualization filter: consumes a dataset, produces geometry and/or
/// images plus its work reports.
pub trait Filter {
    /// Display name ("Contour", "Volume Rendering", ...).
    fn name(&self) -> &'static str;

    /// Execute against `input`.
    fn execute(&self, input: &DataSet) -> FilterOutput;
}

/// The paper's eight algorithms, as an enumerable id used by the study
/// drivers and the reproduction harness.
///
/// Everything descriptive about an algorithm — display name, CLI
/// aliases, kernel taxonomy, cell-centeredness — lives in one registry
/// row (see `crate::registry`); the methods and tables here are views
/// of it. The paper parameterization lives in
/// [`default_spec`](Algorithm::default_spec) (see [`crate::spec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algorithm {
    Contour,
    Threshold,
    SphericalClip,
    Isovolume,
    Slice,
    ParticleAdvection,
    RayTracing,
    VolumeRendering,
}

impl Algorithm {
    /// All eight, in the paper's presentation order (Fig. 1); derived
    /// from the registry row order.
    pub const ALL: [Algorithm; 8] = crate::registry::ALL;

    /// The cell-centered algorithms compared by the paper's elements/sec
    /// rate (Fig. 3): those that iterate over every input cell, sorted
    /// by display name.
    pub const CELL_CENTERED: [Algorithm; 5] = crate::registry::CELL_CENTERED;

    /// Display name, from the registry ("Contour", "Spherical Clip", ...).
    pub fn name(self) -> &'static str {
        crate::registry::entry(self).name
    }

    /// Parse a CLI-style name (case/space/underscore insensitive),
    /// against the registry alias tables.
    pub fn parse(s: &str) -> Option<Algorithm> {
        crate::registry::parse(s)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_eight_unique_algorithms() {
        let mut seen = std::collections::HashSet::new();
        for a in Algorithm::ALL {
            assert!(seen.insert(a));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn parse_round_trips_names() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::parse(a.name()), Some(a), "{}", a.name());
        }
        assert_eq!(Algorithm::parse("volren"), Some(Algorithm::VolumeRendering));
        assert_eq!(Algorithm::parse("nope"), None);
    }

    #[test]
    fn cell_centered_is_subset_of_all() {
        for a in Algorithm::CELL_CENTERED {
            assert!(Algorithm::ALL.contains(&a));
        }
        assert!(!Algorithm::CELL_CENTERED.contains(&Algorithm::RayTracing));
        assert!(!Algorithm::CELL_CENTERED.contains(&Algorithm::VolumeRendering));
        assert!(!Algorithm::CELL_CENTERED.contains(&Algorithm::ParticleAdvection));
    }

    #[test]
    fn filter_output_total_work_sums_kernels() {
        let mut w1 = WorkCounters::new();
        w1.tally(10, 5, 2, 8, 8);
        let mut w2 = WorkCounters::new();
        w2.tally(20, 1, 0, 4, 0);
        let out = FilterOutput {
            dataset: None,
            images: vec![],
            kernels: vec![
                KernelReport::new("a", KernelClass::CellClassify, w1),
                KernelReport::new("b", KernelClass::Interpolate, w2),
            ],
            primitives: vec![],
        };
        let total = out.total_work();
        assert_eq!(total.items, 30);
        assert_eq!(total.instructions, 70);
    }
}
