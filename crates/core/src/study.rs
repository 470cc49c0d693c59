//! The study drivers: native instrumented runs and power-cap sweeps.
//!
//! The key structural insight of the reproduction: a *native run*
//! (actually executing an algorithm against CloverLeaf data and
//! collecting its work counts) happens **once** per (algorithm, size);
//! the nine power caps are then simulated from that one measured
//! workload, because the cap changes how the machine executes the work,
//! not what work the algorithm does.

use crate::characterize::characterize;
use crate::metrics::Ratios;
use crate::store::{DatasetStore, NativeStore};
use powersim::trace::{Journal, Scope};
use powersim::{CpuSpec, ExecResult, Joules, Package, Watts, Workload};
use std::sync::Arc;
use vizalgo::{Algorithm, AlgorithmSpec, Backend, FilterOutput, IsoValues, KernelReport};
use vizmesh::{par, DataSet};

/// The paper's nine processor power caps (W).
pub const PAPER_CAPS: [Watts; 9] = [
    Watts(120.0),
    Watts(110.0),
    Watts(100.0),
    Watts(90.0),
    Watts(80.0),
    Watts(70.0),
    Watts(60.0),
    Watts(50.0),
    Watts(40.0),
];

/// The paper's four data-set sizes (cells per axis).
pub const PAPER_SIZES: [usize; 4] = [32, 64, 128, 256];

/// Tunable experiment parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Power caps to sweep.
    pub caps: Vec<Watts>,
    /// Isovalues per contour cycle (paper: 10).
    pub isovalues: usize,
    /// Rendered image resolution (square).
    pub render_px: usize,
    /// Images per visualization cycle for the renderers (paper: 50).
    pub cameras: usize,
    /// Particle advection seeds and steps (paper-style: 1000 × 1000).
    pub particles: usize,
    pub advect_steps: usize,
}

impl StudyConfig {
    /// Paper-faithful parameters (native runs take minutes at 256³).
    pub fn paper() -> Self {
        StudyConfig {
            caps: PAPER_CAPS.to_vec(),
            isovalues: 10,
            render_px: 128,
            cameras: 50,
            particles: 1000,
            advect_steps: 1000,
        }
    }

    /// Scaled-down parameters for tests and quick sanity runs. The
    /// workload *mix* (which drives all the ratios) is preserved; only
    /// absolute sizes shrink.
    pub fn quick() -> Self {
        StudyConfig {
            caps: PAPER_CAPS.to_vec(),
            isovalues: 5,
            render_px: 32,
            cameras: 4,
            particles: 120,
            advect_steps: 150,
        }
    }

    /// The canonical [`AlgorithmSpec`] this configuration runs for an
    /// algorithm: the paper's §IV parameterization
    /// ([`Algorithm::default_spec`]) with this config's size knobs
    /// written over it. All study filters are built from these specs via
    /// [`AlgorithmSpec::build`].
    pub fn spec(&self, algorithm: Algorithm) -> AlgorithmSpec {
        let mut spec = algorithm.default_spec();
        match &mut spec {
            AlgorithmSpec::Contour { isovalues, .. } => {
                *isovalues = IsoValues::Spanning(self.isovalues);
            }
            AlgorithmSpec::ParticleAdvection {
                particles, steps, ..
            } => {
                *particles = self.particles;
                *steps = self.advect_steps;
            }
            AlgorithmSpec::RayTracing {
                width,
                height,
                images,
                ..
            }
            | AlgorithmSpec::VolumeRendering {
                width,
                height,
                images,
                ..
            } => {
                *width = self.render_px;
                *height = self.render_px;
                *images = self.cameras;
            }
            _ => {}
        }
        spec
    }
}

/// Physical end time of the hydro run feeding the study. By this time the
/// CloverLeaf-style energy front has swept a large fraction of the box,
/// giving the visualization algorithms the same rich field structure the
/// paper's cycle-200 snapshots show (Fig. 1).
pub(crate) const HYDRO_T_END: f64 = 0.35;

/// The hydro solve runs at most at this resolution; larger study sizes
/// are produced by trilinear upsampling (see [`dataset_for`]).
pub(crate) const HYDRO_BASE_MAX: usize = 64;

/// Produce the study dataset for a given size.
///
/// The hydrodynamics solve runs at `min(size, 64)` to `HYDRO_T_END` and
/// is trilinearly upsampled to `size`. This substitution (documented in
/// DESIGN.md) bounds the hydro solve at 64³ while the visualization
/// algorithms still process full-resolution `size³` data —
/// their instrumented work counts, which drive all power results, are
/// exact at the target size. It also makes the field structure identical
/// across sizes, which is the premise of the paper's Figs. 4–6 (IPC
/// trends attributed to data volume, not field differences).
///
/// Built through a private [`DatasetStore`], the one construction path.
pub fn dataset_for(size: usize) -> DataSet {
    let ds = DatasetStore::new().dataset(size);
    // The store is dropped by now: this is the only handle, nothing is copied.
    Arc::unwrap_or_clone(ds)
}

/// Fewest trilinear samples worth a `par` chunk in [`upsample`] (eight
/// loads and seven lerps each).
const SAMPLE_MIN_LEN: usize = 1024;

/// Trilinearly upsample a structured dataset's fields onto an `n³` grid
/// spanning the same bounds: the base's point `energy` and `velocity` at
/// the new points, and its point `energy` at the new cell centres.
///
/// Every sample is the base grid's [`UniformGrid::sample_scalar`] /
/// [`UniformGrid::sample_vector`] at the clamped position, to the bit.
/// The new grid is uniform and axis-aligned, so a sample's located index
/// and weight along x depend on its `i` alone (likewise y on `j`, z on
/// `k`): each axis is located once per index, through the sampler's own
/// [`UniformGrid::locate_axis`], and a sample is its eight corner loads
/// and the lerps, x → y → z.
///
/// [`UniformGrid::sample_scalar`]: vizmesh::UniformGrid::sample_scalar
/// [`UniformGrid::sample_vector`]: vizmesh::UniformGrid::sample_vector
/// [`UniformGrid::locate_axis`]: vizmesh::UniformGrid::locate_axis
pub fn upsample(base: &DataSet, n: usize) -> DataSet {
    use vizmesh::{Association, Field, UniformGrid, Vec3};
    let bgrid = base.as_uniform().expect("upsample needs a structured base");
    let grid = UniformGrid::from_cell_dims([n, n, n], bgrid.bounds());
    let mut ds = DataSet::uniform(grid.clone());
    let clamp_in = |p: Vec3| {
        // Keep sampling points strictly inside the base grid.
        let b = bgrid.bounds();
        Vec3::new(
            p.x.clamp(b.min.x, b.max.x),
            p.y.clamp(b.min.y, b.max.y),
            p.z.clamp(b.min.z, b.max.z),
        )
    };
    // The new grid is a cube, so index `i` of every axis is the point
    // `(i, i, i)` (or that cell's centre): one position per index gives
    // all three axes' coordinates, by the expressions a per-point sweep
    // would evaluate.
    let located = |p: Vec3| [0, 1, 2].map(|axis| bgrid.locate_axis(axis, p[axis]));
    let points: Vec<_> = (0..=n)
        .map(|i| located(clamp_in(grid.point_coord(i, i, i))))
        .collect();
    let centres: Vec<_> = (0..n)
        .map(|i| located(clamp_in(grid.cell_at(grid.cell_id(i, i, i)).center())))
        .collect();
    let energy = base
        .point_scalars("energy")
        .map(|values| move |at: Located| at.map_or(0.0, |at| bgrid.interpolate_scalar(values, at)));
    let velocity = base.point_vectors("velocity").map(|values| {
        move |at: Located| at.map_or(Vec3::ZERO, |at| bgrid.interpolate_vector(values, at))
    });
    // Both point fields in one walk; a field the base lacks is not
    // written or added.
    let np = grid.num_points();
    let (mut es, mut vs) = (vec![0.0; np], vec![Vec3::ZERO; np]);
    let fields = (&mut es[..], &mut vs[..]);
    par::for_each_chunk_zip(fields, SAMPLE_MIN_LEN, |ids, (es, vs)| {
        for_each_located(&points, ids, |at, located| {
            if let Some(e) = energy {
                es[at] = e(located);
            }
            if let Some(v) = velocity {
                vs[at] = v(located);
            }
        })
    });
    if energy.is_some() {
        ds.add_field(Field::scalar("energy", Association::Points, es));
    }
    if velocity.is_some() {
        ds.add_field(Field::vector("velocity", Association::Points, vs));
    }
    // Cell fields: sample the base *point* field at the new cell centres.
    if let Some(e) = energy {
        let mut es = vec![0.0; grid.num_cells()];
        par::for_each_chunk_zip(&mut es[..], SAMPLE_MIN_LEN, |ids, es| {
            for_each_located(&centres, ids, |at, located| es[at] = e(located))
        });
        ds.add_field(Field::scalar("energy", Association::Cells, es));
    }
    ds
}

/// Where each index of a cubic resampling lies in the base grid: entry
/// `i` holds axis `a`'s [`vizmesh::UniformGrid::locate_axis`] in slot `a`.
type AxisTable = [[Option<(usize, f64)>; 3]];

/// Where one sample lies in the base grid: its three axes' entries, or
/// `None` when any of them is outside.
type Located = Option<[(usize, f64); 3]>;

/// `put(at, located)` for every id of `ids` in the `len³` space `table`
/// locates (`len` = `table.len()`), one x-row at a time: `at` counts
/// from `ids.start`, and `located` is `None` when any axis is outside.
#[inline]
fn for_each_located(
    table: &AxisTable,
    ids: std::ops::Range<usize>,
    mut put: impl FnMut(usize, Located),
) {
    let len = table.len();
    let mut id = ids.start;
    while id < ids.end {
        let (i, j, k) = (id % len, id / len % len, id / (len * len));
        let run = (len - i).min(ids.end - id);
        let (y, z) = (table[j][1], table[k][2]);
        for (n, x) in table[i..i + run].iter().enumerate() {
            put(
                id - ids.start + n,
                x[0].zip(y).zip(z).map(|((x, y), z)| [x, y, z]),
            );
        }
        id += run;
    }
}

/// One native (really-executed) instrumented run.
#[derive(Debug, Clone)]
pub struct AlgorithmRun {
    pub algorithm: Algorithm,
    pub size: usize,
    /// Cells in the input dataset (for the Fig. 3 rate).
    pub input_cells: usize,
    /// The exact plan the run executed (its
    /// [`fingerprint`](AlgorithmSpec::fingerprint) rides in every
    /// journal span derived from this run).
    pub spec: AlgorithmSpec,
    pub reports: Vec<KernelReport>,
}

impl AlgorithmRun {
    /// Execute `spec` on `backend` against `ds`, the `size`³ study dataset;
    /// `inspect` sees the whole output before its kernel reports are kept.
    pub(crate) fn native<R>(
        spec: AlgorithmSpec,
        backend: Backend,
        size: usize,
        ds: &DataSet,
        inspect: impl FnOnce(&FilterOutput) -> R,
    ) -> (AlgorithmRun, R) {
        let out = spec.build_with(backend, ds).execute(ds);
        let seen = inspect(&out);
        let run = AlgorithmRun {
            algorithm: spec.algorithm(),
            size,
            input_cells: ds.num_cells(),
            spec,
            reports: out.kernels,
        };
        (run, seen)
    }
}

/// The power-cap sweep of one algorithm at one size.
#[derive(Debug, Clone)]
pub struct CapSweep {
    pub algorithm: Algorithm,
    pub size: usize,
    pub input_cells: usize,
    /// One result per cap, in the order the caps were given.
    pub rows: Vec<ExecResult>,
}

impl CapSweep {
    /// §V-A ratios of every row against the first (default-power) row.
    /// An empty sweep has no baseline and yields no ratios.
    pub fn ratios(&self) -> Vec<Ratios> {
        let Some(base) = self.rows.first() else {
            return Vec::new();
        };
        self.rows
            .iter()
            .map(|r| {
                Ratios::new(
                    base.cap_watts,
                    base.seconds,
                    base.avg_effective_freq_ghz,
                    r.cap_watts,
                    r.seconds,
                    r.avg_effective_freq_ghz,
                )
            })
            .collect()
    }

    /// The default-power (first-row) execution, if the sweep ran any
    /// caps at all.
    pub fn baseline(&self) -> Option<&ExecResult> {
        self.rows.first()
    }
}

/// Characterize a native run and execute it under every cap.
pub fn sweep(run: &AlgorithmRun, caps: &[Watts], spec: &CpuSpec) -> CapSweep {
    let workload = characterize(run.algorithm.name(), &run.reports, spec);
    sweep_tagged(
        run,
        &workload,
        run.spec.fingerprint(),
        caps,
        spec,
        &mut Journal::off(),
    )
}

/// [`sweep`] of `run`'s already characterized `workload` (the ablations
/// edit it first), each cap on a fresh package, with the `spec_fp` its
/// spans carry given explicitly, so a backend-qualified run is tagged
/// as such: one [`Scope::Sweep`] span per cap point whose joules are the
/// row's total energy (the rollup of that execution's kernel spans),
/// plus the executor's own events.
pub(crate) fn sweep_tagged(
    run: &AlgorithmRun,
    workload: &Workload,
    spec_fp: u64,
    caps: &[Watts],
    spec: &CpuSpec,
    journal: &mut Journal,
) -> CapSweep {
    assert!(
        !workload.is_empty(),
        "{} produced an empty workload",
        run.algorithm
    );
    let rows = caps
        .iter()
        .map(|&cap| {
            let t0 = journal.now();
            let mut pkg = Package::new(spec.clone());
            let row = pkg.run_capped(workload, cap, journal);
            journal.push_span(Scope::Sweep, t0, Some(row.energy_joules), || {
                let args = vec![
                    ("cap_watts", cap.value()),
                    ("seconds", row.seconds),
                    ("spec_fp", spec_fp as f64),
                ];
                (format!("cap:{:.0}W", cap.value()), args)
            });
            row
        })
        .collect();
    CapSweep {
        algorithm: run.algorithm,
        size: run.size,
        input_cells: run.input_cells,
        rows,
    }
}

/// A [`DatasetStore`] and a native store of its own, so the experiment
/// harness never repeats an expensive native execution. The hydro base
/// solve is cached separately so every size above `HYDRO_BASE_MAX` reuses it.
///
/// A cache hit hands back another [`Arc`] to the same allocation, never a
/// deep clone of a dataset or report vector, so the governor/insitu
/// consumers can hold the same data the study drivers use.
///
/// The context owns the study's run [`Journal`] (disabled by default;
/// see [`StudyContext::enable_journal`]): dataset builds, native runs,
/// sweeps, and experiment phases all record into it.
///
/// Every native run executes on the context's one [`Backend`]
/// (traditional unless built [`with_backend`](StudyContext::with_backend)),
/// so the same tables and figures contrast the two kernel formulations
/// (Bethel et al., arXiv:2010.02361) by running them on two contexts.
pub struct StudyContext {
    config: StudyConfig,
    /// The study-wide run journal (disabled unless enabled explicitly).
    pub journal: Journal,
    backend: Backend,
    store: DatasetStore,
    natives: NativeStore<()>,
}

impl StudyContext {
    pub fn new(config: StudyConfig) -> Self {
        StudyContext::with_backend(config, Backend::Traditional)
    }

    /// A context whose native runs execute on `backend`. Journal spans
    /// carry [`AlgorithmSpec::fingerprint_with`] that backend, which for
    /// `Traditional` is the plain fingerprint.
    pub fn with_backend(config: StudyConfig, backend: Backend) -> Self {
        StudyContext {
            config,
            journal: Journal::off(),
            backend,
            store: DatasetStore::new(),
            natives: NativeStore::new(1),
        }
    }

    /// Start journaling into a ring buffer of at most `capacity` events.
    pub fn enable_journal(&mut self, capacity: usize) {
        self.journal = Journal::with_capacity(capacity);
    }

    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Native run for (algorithm, size), computed once; a hit returns
    /// another handle to the cached run, reports and all. A compute
    /// journals its dataset solve and its `native:` span. The context's
    /// backend must [support](Backend::supports) the algorithm
    /// ([`sweep_supported`](StudyContext::sweep_supported) skips the
    /// ones it does not).
    pub fn run(&mut self, algorithm: Algorithm, size: usize) -> Arc<AlgorithmRun> {
        let want = (&self.config.spec(algorithm), self.backend, size);
        let journal = &mut self.journal;
        let native = self.natives.get(&self.store, want, journal, |_| ());
        Arc::clone(&native.0)
    }

    /// Sweep an algorithm at a size over the configured caps, emitting
    /// (when the journal is enabled) a [`Scope::Study`] span whose
    /// joules are the rollup of the per-cap sweep spans.
    pub fn sweep(&mut self, algorithm: Algorithm, size: usize) -> CapSweep {
        let run = self.run(algorithm, size);
        let spec_fp = run.spec.fingerprint_with(self.backend);
        let spec = CpuSpec::broadwell_e5_2695v4();
        let t0 = self.journal.now();
        let workload = characterize(algorithm.name(), &run.reports, &spec);
        let caps = &self.config.caps;
        let sweep = sweep_tagged(&run, &workload, spec_fp, caps, &spec, &mut self.journal);
        let joules: Joules = sweep.rows.iter().map(|r| r.energy_joules).sum();
        self.journal.push_span(Scope::Study, t0, Some(joules), || {
            let args = vec![
                ("caps", sweep.rows.len() as f64),
                ("spec_fp", spec_fp as f64),
            ];
            (format!("sweep:{}:{size}", algorithm.name()), args)
        });
        sweep
    }

    /// [`sweep`](StudyContext::sweep) each of `algorithms` the context's
    /// backend formulates, in order; the others are skipped, so an
    /// all-algorithm table on a DPP context has four rows.
    pub fn sweep_supported(&mut self, algorithms: &[Algorithm], size: usize) -> Vec<CapSweep> {
        let backend = self.backend;
        algorithms
            .iter()
            .filter(|&&a| backend.supports(a))
            .map(|&a| self.sweep(a, size))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> StudyConfig {
        StudyConfig {
            caps: vec![Watts(120.0), Watts(80.0), Watts(40.0)],
            isovalues: 3,
            render_px: 12,
            cameras: 2,
            particles: 20,
            advect_steps: 30,
        }
    }

    #[test]
    fn paper_specs_are_the_registry_defaults_and_quick_fingerprints_are_pinned() {
        // Fingerprints of the quick() specs as of PR 13, when `spec`
        // still restated every arm of `default_spec`.
        let pinned: [u64; 8] = [
            106388285178748,
            198155684065227,
            51625820889582,
            190826306224919,
            6955886948687,
            79069051297429,
            86846765149524,
            95326993297850,
        ];
        for (a, fp) in Algorithm::ALL.into_iter().zip(pinned) {
            assert_eq!(StudyConfig::paper().spec(a), a.default_spec());
            assert_eq!(StudyConfig::quick().spec(a).fingerprint(), fp, "{a:?}");
        }
    }

    #[test]
    fn one_infinite_energy_value_panics_no_filter_and_moves_no_point_off_to_infinity() {
        one_bad_energy_value_is_harmless(&[f64::INFINITY, f64::NEG_INFINITY]);
    }

    #[test]
    fn one_nan_energy_value_panics_no_filter_and_moves_no_point_off_to_infinity() {
        one_bad_energy_value_is_harmless(&[f64::NAN]);
    }

    /// Each value of `bad` put once into the 16³ `energy` field, point-
    /// or cell-centered: every supported pair runs with the paper's
    /// specs, every output point and pixel is finite (a depth may be +∞,
    /// never NaN), and Traditional and DPP give outputs of the same
    /// shape, `(cells, points)`.
    fn one_bad_energy_value_is_harmless(bad: &[f64]) {
        use vizmesh::{Association, Field};
        let clean = dataset_for(16);
        let config = StudyConfig::paper();
        for &inf in bad {
            for association in [Association::Points, Association::Cells] {
                let mut ds = clean.clone();
                let energy = match association {
                    Association::Points => ds.point_scalars("energy"),
                    Association::Cells => ds.cell_scalars("energy"),
                };
                let mut values = energy.unwrap().to_vec();
                let mid = values.len() / 2;
                values[mid] = inf;
                ds.add_field(Field::scalar("energy", association, values));
                for algorithm in Algorithm::ALL {
                    let backends = Backend::ALL.into_iter().filter(|b| b.supports(algorithm));
                    let shapes: Vec<_> = backends
                        .map(|backend| {
                            let spec = config.spec(algorithm);
                            let (_, (finite, shape)) =
                                AlgorithmRun::native(spec, backend, 16, &ds, |out| {
                                    let data = out.dataset.as_ref();
                                    let points = data.and_then(|d| d.as_explicit());
                                    let finite = points
                                        .is_none_or(|(p, _)| p.iter().all(|p| p.is_finite()))
                                        && out.images.iter().all(finite_pixels);
                                    (finite, data.map(|d| (d.num_cells(), d.num_points())))
                                });
                            assert!(
                                finite,
                                "{algorithm:?}/{backend:?}, {inf} in {association:?}"
                            );
                            shape
                        })
                        .collect();
                    assert!(
                        shapes.windows(2).all(|w| w[0] == w[1]),
                        "{algorithm:?}: {shapes:?}, {inf} in {association:?}"
                    );
                }
            }
        }
    }

    /// Every pixel's color is finite and no depth is NaN.
    fn finite_pixels(image: &vizmesh::Image) -> bool {
        let (w, h) = (image.width(), image.height());
        (0..w * h).all(|p| {
            let (x, y) = (p % w, p / w);
            image.get(x, y).iter().all(|c| c.is_finite()) && !image.depth_at(x, y).is_nan()
        })
    }

    /// One NaN and one +Inf velocity at two corners of a cell on the
    /// first seed's path, in the 16³ study dataset: advection with the
    /// paper's spec runs without a panic, its paths get shorter, and
    /// every coordinate and speed it emits is finite.
    #[test]
    fn bad_velocity_values_on_a_path_shorten_it_and_emit_nothing_non_finite() {
        use vizmesh::{Association, Field};
        let clean = dataset_for(16);
        let spec = StudyConfig::paper().spec(Algorithm::ParticleAdvection);
        let run = |ds: &DataSet| {
            let (_, lines) =
                AlgorithmRun::native(spec.clone(), Backend::Traditional, 16, ds, |out| {
                    out.dataset.clone()
                });
            lines.unwrap()
        };
        let lines = run(&clean);
        let (points, cells) = lines.as_explicit().unwrap();
        let path = cells.cell_points(0);
        assert!(path.len() > 3, "the first path has {} points", path.len());
        let grid = clean.as_uniform().unwrap();
        let cell = grid.locate_cell(points[path[2] as usize]).unwrap();
        let corners = grid.cells([cell]).next().unwrap().point_ids();
        let mut velocity = clean.point_vectors("velocity").unwrap().to_vec();
        velocity[corners[0]] = vizmesh::Vec3::splat(f64::NAN);
        velocity[corners[6]] = vizmesh::Vec3::new(f64::INFINITY, 0.0, 0.0);
        let mut ds = clean.clone();
        ds.add_field(Field::vector("velocity", Association::Points, velocity));

        let bad = run(&ds);
        let (bad_points, _) = bad.as_explicit().unwrap();
        assert!(
            bad_points.len() < points.len(),
            "{} path points, {} without the bad values",
            bad_points.len(),
            points.len()
        );
        assert!(bad_points.iter().all(|p| p.is_finite()));
        let speeds = bad.point_scalars("speed").unwrap();
        assert!(speeds.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn dataset_runs_to_the_study_end_time() {
        let ds = dataset_for(8);
        // Field exists and the front has developed: values spread well
        // beyond the initial two plateaus.
        let (lo, hi) = ds.field("energy").unwrap().scalar_range().unwrap();
        assert!(hi > lo);
        assert!(ds.point_vectors("velocity").is_some());
    }

    #[test]
    fn upsample_preserves_bounds_and_interpolates() {
        let base = dataset_for(8);
        let up = upsample(&base, 16);
        assert_eq!(up.num_cells(), 16 * 16 * 16);
        let bb = base.bounds();
        let ub = up.bounds();
        assert!((bb.min - ub.min).length() < 1e-9);
        assert!((bb.max - ub.max).length() < 1e-9);
        // Value range cannot expand under trilinear interpolation.
        let (blo, bhi) = base.field("energy").unwrap().scalar_range().unwrap();
        let (ulo, uhi) = up
            .field_with("energy", vizmesh::Association::Points)
            .unwrap()
            .scalar_range()
            .unwrap();
        assert!(ulo >= blo - 1e-9 && uhi <= bhi + 1e-9);
    }

    /// `upsample(base, n)` as the per-index loops it replaced: every
    /// point and cell centre of the new grid, clamped into the base and
    /// sampled there, the fields added in upsample's order.
    fn per_index_upsample(base: &DataSet, n: usize) -> DataSet {
        use vizmesh::{Association, Field, UniformGrid, Vec3};
        let bgrid = base.as_uniform().unwrap();
        let grid = UniformGrid::from_cell_dims([n; 3], bgrid.bounds());
        let (lo, hi) = (bgrid.bounds().min, bgrid.bounds().max);
        let clamp = |p: Vec3| {
            Vec3::new(
                p.x.clamp(lo.x, hi.x),
                p.y.clamp(lo.y, hi.y),
                p.z.clamp(lo.z, hi.z),
            )
        };
        let points = || (0..grid.num_points()).map(|id| clamp(grid.point_coord_id(id)));
        let mut expect = DataSet::uniform(grid.clone());
        let energy = base.point_scalars("energy");
        if let Some(e) = energy {
            let values = points().map(|p| bgrid.sample_scalar(e, p).unwrap());
            expect.add_field(Field::scalar(
                "energy",
                Association::Points,
                values.collect(),
            ));
        }
        if let Some(v) = base.point_vectors("velocity") {
            let values = points().map(|p| bgrid.sample_vector(v, p).unwrap());
            expect.add_field(Field::vector(
                "velocity",
                Association::Points,
                values.collect(),
            ));
        }
        if let Some(e) = energy {
            let values = (0..grid.num_cells()).map(|c| {
                bgrid
                    .sample_scalar(e, clamp(grid.cell_at(c).center()))
                    .unwrap()
            });
            expect.add_field(Field::scalar(
                "energy",
                Association::Cells,
                values.collect(),
            ));
        }
        expect
    }

    /// `upsample(base, n)` is `per_index_upsample(base, n)`, bit for
    /// bit, at 1, 2, 4 and 16 threads.
    fn assert_per_index(what: &str, base: &DataSet, n: usize) {
        let expect = vizalgo::dataset_fingerprint(&per_index_upsample(base, n));
        for threads in [1, 2, 4, 16] {
            let up = vizmesh::par::with_threads(threads, || upsample(base, n));
            assert_eq!(
                vizalgo::dataset_fingerprint(&up),
                expect,
                "{what}: {threads} threads"
            );
        }
    }

    #[test]
    fn upsample_is_the_per_index_dataset_at_every_thread_count() {
        // 65³ points: above the inline cutoff, so the threads really cut
        // the walks into chunks.
        assert_per_index("hydro 32^3 -> 64^3", &dataset_for(32), 64);
    }

    /// A base whose three axes differ in cell count, spacing and origin,
    /// so a table indexed by the wrong axis cannot pass; upsampled to
    /// 37³, whose chunks start mid-row at every thread count above one.
    /// Bases with only one of the two point fields get only that field.
    #[test]
    fn upsample_of_a_non_cubic_offset_base_is_the_per_index_dataset() {
        use vizmesh::{Aabb, Association, Field, UniformGrid, Vec3};
        let bounds = Aabb::new(Vec3::new(-0.3, 0.2, 1.5), Vec3::new(0.9, 0.65, 1.78));
        let grid = UniformGrid::from_cell_dims([12, 9, 7], bounds);
        let coords: Vec<Vec3> = (0..grid.num_points())
            .map(|id| grid.point_coord_id(id))
            .collect();
        let energy = Field::scalar(
            "energy",
            Association::Points,
            coords
                .iter()
                .map(|p| 1.0 + p.x * p.y - 2.0 * p.z * p.x + 0.5 * p.y * p.z * p.z)
                .collect(),
        );
        let velocity = Field::vector(
            "velocity",
            Association::Points,
            coords
                .iter()
                .map(|p| Vec3::new(p.y * p.z, p.x - 0.5 * p.z, p.x * p.x - p.y))
                .collect(),
        );
        let bare = DataSet::uniform(grid);
        let both = bare
            .clone()
            .with_field(energy.clone())
            .with_field(velocity.clone());
        assert_per_index("energy + velocity", &both, 37);
        assert_per_index("energy only", &bare.clone().with_field(energy), 37);
        assert_per_index("velocity only", &bare.with_field(velocity), 37);
    }

    #[test]
    fn every_algorithm_produces_reports_on_real_data() {
        let mut ctx = StudyContext::new(tiny_config());
        for algorithm in Algorithm::ALL {
            let run = ctx.run(algorithm, 12);
            assert!(
                !run.reports.is_empty(),
                "{algorithm} produced no kernel reports"
            );
            let total: u64 = run.reports.iter().map(|r| r.work.instructions).sum();
            assert!(total > 0, "{algorithm} did no work");
        }
    }

    #[test]
    fn sweep_produces_one_row_per_cap() {
        let mut ctx = StudyContext::new(tiny_config());
        let sweep = ctx.sweep(Algorithm::Threshold, 12);
        assert_eq!(sweep.rows.len(), 3);
        let ratios = sweep.ratios();
        assert!((ratios[0].tratio - 1.0).abs() < 1e-12);
        assert!((ratios[0].pratio - 1.0).abs() < 1e-12);
        assert!(ratios[2].pratio > 2.9);
    }

    #[test]
    fn context_caches_native_runs() {
        let mut ctx = StudyContext::new(tiny_config());
        let a = ctx.run(Algorithm::Slice, 8);
        let b = ctx.run(Algorithm::Slice, 8);
        assert_eq!(a.reports.len(), b.reports.len());
        assert_eq!(ctx.natives.len(), 1);
        ctx.run(Algorithm::Slice, 10);
        assert_eq!(ctx.natives.len(), 2);
    }

    /// Mixed `run` and `sweep` calls over two sizes journal one
    /// `native:` span per (algorithm, size), after its size's `dataset:`
    /// span; the same calls again journal neither.
    #[test]
    fn the_journal_holds_one_native_span_per_run_after_its_dataset() {
        let (slice, threshold) = (Algorithm::Slice, Algorithm::Threshold);
        let calls = |ctx: &mut StudyContext| {
            ctx.run(slice, 8);
            ctx.sweep(threshold, 6);
            ctx.sweep(slice, 8);
            ctx.run(threshold, 6);
            ctx.run(slice, 6);
            ctx.sweep(threshold, 8);
            ctx.run(slice, 8);
        };
        let builds = |ctx: &StudyContext| -> Vec<String> {
            use powersim::trace::Event;
            ctx.journal
                .events()
                .filter_map(|e| match e {
                    Event::Span(s) if s.scope == Scope::Study => Some(s.name.clone()),
                    _ => None,
                })
                .filter(|name| name.starts_with("dataset:") || name.starts_with("native:"))
                .collect()
        };
        let mut ctx = StudyContext::new(tiny_config());
        ctx.enable_journal(1 << 16);
        calls(&mut ctx);
        let native = |a: Algorithm, n: usize| format!("native:{}:{n}", a.name());
        let expect = [
            "dataset:8".to_string(),
            native(slice, 8),
            "dataset:6".to_string(),
            native(threshold, 6),
            native(slice, 6),
            native(threshold, 8),
        ];
        assert_eq!(builds(&ctx), expect);
        let events = ctx.journal.events().count();
        calls(&mut ctx);
        assert!(ctx.journal.events().count() > events, "the sweeps journal");
        assert_eq!(builds(&ctx), expect);
    }

    #[test]
    fn context_cache_hits_share_allocations() {
        let mut ctx = StudyContext::new(tiny_config());
        // Dataset hits hand back the same allocation, not a deep clone.
        let d1 = ctx.store.dataset(8);
        let d2 = ctx.store.dataset(8);
        assert!(Arc::ptr_eq(&d1, &d2), "dataset cache hit must share");
        // Run hits likewise share the run (and its report vector).
        let r1 = ctx.run(Algorithm::Threshold, 8);
        let r2 = ctx.run(Algorithm::Threshold, 8);
        assert!(Arc::ptr_eq(&r1, &r2), "run cache hit must share");
        // Two caller handles + the cache entry, no hidden copies.
        assert_eq!(Arc::strong_count(&r1), 3);
        // Distinct keys are distinct entries.
        let r3 = ctx.run(Algorithm::Slice, 8);
        assert!(!Arc::ptr_eq(&r1, &r3));
    }

    #[test]
    fn native_runs_carry_their_spec() {
        let mut ctx = StudyContext::new(tiny_config());
        let run = ctx.run(Algorithm::Contour, 8);
        assert_eq!(run.spec.algorithm(), Algorithm::Contour);
        assert_eq!(run.spec, tiny_config().spec(Algorithm::Contour));
        assert_eq!(
            run.spec.fingerprint(),
            tiny_config().spec(Algorithm::Contour).fingerprint()
        );
    }

    /// The traditional-vs-DPP contrast (Bethel et al., arXiv:2010.02361)
    /// against the numbers the retired `BENCH_DPP_2026-08-09.json`
    /// snapshot recorded for Contour at 32³ under the default cap, to
    /// its printed precision: the primitive pipeline retires fewer
    /// instructions per cycle and costs about four times the joules.
    #[test]
    fn dpp_contour_contrast_matches_the_retired_snapshot() {
        let baseline = |backend| {
            let mut ctx = StudyContext::with_backend(StudyConfig::paper(), backend);
            let sweep = ctx.sweep(Algorithm::Contour, 32);
            sweep.baseline().expect("paper caps are non-empty").clone()
        };
        let trad = baseline(Backend::Traditional);
        let dpp = baseline(Backend::Dpp);
        assert!(dpp.avg_ipc < trad.avg_ipc);
        assert!(dpp.energy_joules > trad.energy_joules);
        assert_eq!(format!("{:.4}", trad.avg_ipc), "0.6803");
        assert_eq!(format!("{:.4}", dpp.avg_ipc), "0.4173");
        assert_eq!(format!("{:.3}", trad.energy_joules.value()), "0.256");
        assert_eq!(format!("{:.3}", dpp.energy_joules.value()), "1.032");
    }

    #[test]
    fn dpp_context_tags_its_journal_fingerprints() {
        use powersim::trace::Event;
        let mut ctx = StudyContext::with_backend(tiny_config(), Backend::Dpp);
        ctx.enable_journal(1 << 16);
        ctx.sweep(Algorithm::Slice, 8);
        let spec = tiny_config().spec(Algorithm::Slice);
        let fp = spec.fingerprint_with(Backend::Dpp) as f64;
        assert_ne!(fp, spec.fingerprint() as f64);
        let tagged = ctx
            .journal
            .events()
            .filter_map(|e| match e {
                Event::Span(s) => s.args.iter().find(|(k, _)| *k == "spec_fp"),
                _ => None,
            })
            .inspect(|(_, v)| assert_eq!(*v, fp))
            .count();
        assert_eq!(tagged, 3 + 2, "three cap spans, the native and sweep spans");
    }

    #[test]
    fn empty_sweep_is_safe() {
        let sweep = CapSweep {
            algorithm: Algorithm::Contour,
            size: 8,
            input_cells: 512,
            rows: Vec::new(),
        };
        assert!(sweep.baseline().is_none());
        assert!(sweep.ratios().is_empty());
    }

    #[test]
    fn journal_attributes_sweep_energy_exactly() {
        use powersim::trace::Event;
        let mut ctx = StudyContext::new(tiny_config());
        ctx.enable_journal(1 << 16);
        let sweep = ctx.sweep(Algorithm::Threshold, 8);
        let spans: Vec<_> = ctx
            .journal
            .events()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        // One workload span per cap, each matching its row's energy.
        let workloads: Vec<_> = spans
            .iter()
            .filter(|s| s.scope == Scope::Workload)
            .collect();
        assert_eq!(workloads.len(), sweep.rows.len());
        for (span, row) in workloads.iter().zip(&sweep.rows) {
            assert_eq!(span.joules, Some(row.energy_joules));
        }
        // The study-level sweep span rolls up every row's energy.
        let total: Joules = sweep.rows.iter().map(|r| r.energy_joules).sum();
        let study = spans
            .iter()
            .find(|s| s.scope == Scope::Study && s.name.starts_with("sweep:"))
            .expect("study sweep span present");
        assert_eq!(study.joules, Some(total));
        // v4: every sweep-derived span carries the spec fingerprint.
        let fp = tiny_config().spec(Algorithm::Threshold).fingerprint() as f64;
        assert_eq!(
            study.args.iter().find(|(k, _)| *k == "spec_fp"),
            Some(&("spec_fp", fp))
        );
        for s in spans.iter().filter(|s| s.scope == Scope::Sweep) {
            assert_eq!(
                s.args.iter().find(|(k, _)| *k == "spec_fp"),
                Some(&("spec_fp", fp))
            );
        }
    }

    #[test]
    fn capped_time_never_faster_than_uncapped() {
        let mut ctx = StudyContext::new(tiny_config());
        for algorithm in [Algorithm::Contour, Algorithm::ParticleAdvection] {
            let sweep = ctx.sweep(algorithm, 10);
            let base = sweep.baseline().expect("non-empty sweep").seconds;
            for row in &sweep.rows {
                assert!(
                    row.seconds >= base * 0.999,
                    "{algorithm}: {} < {base}",
                    row.seconds
                );
            }
        }
    }
}
