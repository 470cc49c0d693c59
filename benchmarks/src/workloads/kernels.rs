//! `geom128` and `render128`: the paper's two algorithm classes on one
//! 128³ dataset, each algorithm built, executed, characterized, swept
//! over the nine caps and rendered to its Table-I text.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use powersim::CpuSpec;
use vizalgo::{Algorithm, AlgorithmSpec, Backend, Fnv1a};
use vizmesh::DataSet;
use vizpower::study::{self, upsample, AlgorithmRun, StudyConfig, PAPER_CAPS};
use vizpower::{characterize, report, DatasetStore};

use crate::stats::median;

use super::{hash_image, hash_work, Ctx, Layers, Scale, Workload};

const GEOMETRY: [Algorithm; 5] = [
    Algorithm::Contour,
    Algorithm::Threshold,
    Algorithm::SphericalClip,
    Algorithm::Isovolume,
    Algorithm::Slice,
];
const RENDERING: [Algorithm; 3] = [
    Algorithm::ParticleAdvection,
    Algorithm::RayTracing,
    Algorithm::VolumeRendering,
];

/// Cameras per renderer execution in `render128`. The paper's 50 make
/// one volume-rendering call 2.7 s, and a run's timing is only as steady
/// as its longest uninterruptible call is short (see the README); six
/// keep every call near 0.3 s with the same work per ray.
const RENDER_IMAGES: usize = 6;

/// Span around `Filter::execute`; the matching metric is `<span>_s`.
pub(super) fn exec_span(algorithm: Algorithm, backend: Backend) -> &'static str {
    match (backend, algorithm) {
        (Backend::Dpp, Algorithm::Contour) => "vizalgo.dpp.contour.exec",
        (Backend::Dpp, Algorithm::Threshold) => "vizalgo.dpp.threshold.exec",
        (Backend::Dpp, Algorithm::Isovolume) => "vizalgo.dpp.isovolume.exec",
        (Backend::Dpp, Algorithm::Slice) => "vizalgo.dpp.slice.exec",
        (_, Algorithm::Contour) => "vizalgo.contour.exec",
        (_, Algorithm::Threshold) => "vizalgo.threshold.exec",
        (_, Algorithm::SphericalClip) => "vizalgo.clip.exec",
        (_, Algorithm::Isovolume) => "vizalgo.isovolume.exec",
        (_, Algorithm::Slice) => "vizalgo.slice.exec",
        (_, Algorithm::ParticleAdvection) => "vizalgo.advection.exec",
        (_, Algorithm::RayTracing) => "vizalgo.raytrace.exec",
        (_, Algorithm::VolumeRendering) => "vizalgo.volren.exec",
    }
}

fn sim_count(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Contour => "sim_s.contour",
        Algorithm::Threshold => "sim_s.threshold",
        Algorithm::SphericalClip => "sim_s.clip",
        Algorithm::Isovolume => "sim_s.isovolume",
        Algorithm::Slice => "sim_s.slice",
        Algorithm::ParticleAdvection => "sim_s.advection",
        Algorithm::RayTracing => "sim_s.raytrace",
        Algorithm::VolumeRendering => "sim_s.volren",
    }
}

fn wall_over_sim(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Contour => "core.wall_over_sim.contour",
        Algorithm::Threshold => "core.wall_over_sim.threshold",
        Algorithm::SphericalClip => "core.wall_over_sim.clip",
        Algorithm::Isovolume => "core.wall_over_sim.isovolume",
        Algorithm::Slice => "core.wall_over_sim.slice",
        Algorithm::ParticleAdvection => "core.wall_over_sim.advection",
        Algorithm::RayTracing => "core.wall_over_sim.raytrace",
        Algorithm::VolumeRendering => "core.wall_over_sim.volren",
    }
}

fn scale_exp(algorithm: Algorithm) -> Option<&'static str> {
    match algorithm {
        Algorithm::Contour => Some("vizalgo.contour.scale_exp"),
        Algorithm::Threshold => Some("vizalgo.threshold.scale_exp"),
        Algorithm::SphericalClip => Some("vizalgo.clip.scale_exp"),
        Algorithm::Isovolume => Some("vizalgo.isovolume.scale_exp"),
        _ => None,
    }
}

pub struct KernelSweep {
    algorithms: &'static [Algorithm],
    specs: Vec<AlgorithmSpec>,
    size: usize,
    /// The hydro solve the dataset was upsampled from; the traced run
    /// upsamples it again to half size for the scaling exponents.
    base: Arc<DataSet>,
    dataset: Arc<DataSet>,
    cpu: CpuSpec,
    executions: usize,
}

impl KernelSweep {
    pub fn geometry(scale: Scale, cx: &mut Ctx) -> KernelSweep {
        let config = StudyConfig::paper();
        let specs = GEOMETRY.iter().map(|&a| config.spec(a)).collect();
        KernelSweep::build(&GEOMETRY, specs, scale, cx)
    }

    pub fn rendering(scale: Scale, seed: u64, cx: &mut Ctx) -> KernelSweep {
        let config = match scale {
            Scale::Full => StudyConfig::paper(),
            Scale::Smoke => StudyConfig::quick(),
        };
        let specs = RENDERING
            .iter()
            .map(|&a| {
                let mut spec = config.spec(a);
                match &mut spec {
                    AlgorithmSpec::ParticleAdvection { seed: s, .. } => *s = seed,
                    AlgorithmSpec::RayTracing { images, .. }
                    | AlgorithmSpec::VolumeRendering { images, .. } => {
                        *images = (*images).min(RENDER_IMAGES)
                    }
                    _ => {}
                }
                spec
            })
            .collect();
        KernelSweep::build(&RENDERING, specs, scale, cx)
    }

    /// The dataset is the TwoState hydro solve at 32³ trilinearly
    /// upsampled to 128³: the study's own construction
    /// (`DatasetStore` + `study::upsample`) with a 32³ base in place
    /// of the 64³ one, because an 8 s solve per set-up does not fit the
    /// benchmark's time cap. The filters still process 128³ cells.
    fn build(
        algorithms: &'static [Algorithm],
        specs: Vec<AlgorithmSpec>,
        scale: Scale,
        cx: &mut Ctx,
    ) -> KernelSweep {
        let (base_n, size) = match scale {
            Scale::Full => (32, 128),
            Scale::Smoke => (8, 16),
        };
        let store = DatasetStore::new();
        let base = cx.rec.span("core.store.solve", || store.dataset(base_n));
        let dataset = cx
            .rec
            .span("core.study.upsample", || Arc::new(upsample(&base, size)));
        let executions = algorithms
            .iter()
            .map(|&a| Backend::ALL.iter().filter(|b| b.supports(a)).count())
            .sum();
        KernelSweep {
            algorithms,
            specs,
            size,
            base,
            dataset,
            cpu: CpuSpec::broadwell_e5_2695v4(),
            executions,
        }
    }
}

impl Workload for KernelSweep {
    fn pass(&mut self, cx: &mut Ctx) -> u64 {
        let ds: &DataSet = &self.dataset;
        let input_cells = ds.num_cells();
        let mut h = Fnv1a::new();
        for (&algorithm, spec) in self.algorithms.iter().zip(&self.specs) {
            // (cells, points) of the geometry each backend produced.
            let mut shapes: Vec<(usize, usize)> = Vec::new();
            for backend in Backend::ALL {
                if !backend.supports(algorithm) {
                    continue;
                }
                let filter = cx
                    .rec
                    .span("vizalgo.spec.build", || spec.build_with(backend, ds));
                let out = cx
                    .rec
                    .span(exec_span(algorithm, backend), || filter.execute(ds));

                let shape = out
                    .dataset
                    .as_ref()
                    .map_or((0, 0), |d| (d.num_cells(), d.num_points()));
                shapes.push(shape);
                h.update_u64(shape.0 as u64);
                h.update_u64(shape.1 as u64);
                for img in &out.images {
                    hash_image(&mut h, img);
                }
                let work = out.total_work();
                for k in &out.kernels {
                    hash_work(&mut h, &k.work);
                }
                cx.add("vizalgo.geom.out_cells", shape.0 as f64);
                cx.add("bytes", work.bytes_total() as f64);
                cx.add("flops", work.flops as f64);
                if backend == Backend::Traditional {
                    cx.add(
                        match algorithm {
                            Algorithm::RayTracing => "rays",
                            Algorithm::VolumeRendering => "samples",
                            Algorithm::ParticleAdvection => "advect_steps",
                            _ => "geom_items",
                        },
                        work.items as f64,
                    );
                }

                let run = AlgorithmRun {
                    algorithm,
                    size: self.size,
                    input_cells,
                    spec: spec.clone(),
                    reports: out.kernels,
                };
                // `study::sweep` characterizes internally; the traced run
                // times one extra characterize so the sweep's nine
                // capped executions can be told apart from it.
                if cx.rec.enabled() {
                    cx.rec.span("core.characterize", || {
                        characterize(algorithm.name(), &run.reports, &self.cpu)
                    });
                }
                let sweep = cx
                    .rec
                    .span("core.sweep", || study::sweep(&run, &PAPER_CAPS, &self.cpu));
                let text = cx.rec.span("core.report", || {
                    let mut t = report::render_table1(&sweep);
                    t.push_str(&report::summarize(&sweep));
                    t
                });
                h.update_u64(text.len() as u64);
                for row in &sweep.rows {
                    h.update_f64(row.seconds);
                    h.update_f64(row.energy_joules.value());
                }
                if let Some(base) = sweep.baseline() {
                    cx.add("powersim.sim_s_at_120w", base.seconds);
                    cx.add("powersim.sim_j_at_120w", base.energy_joules.value());
                    if backend == Backend::Traditional {
                        cx.add(sim_count(algorithm), base.seconds);
                    }
                }
                cx.lap();
            }
            let agree = shapes.windows(2).all(|w| w[0] == w[1]);
            cx.check(agree, || {
                format!(
                    "{}: backends disagree on output (cells, points): {shapes:?}",
                    algorithm.name()
                )
            });
        }
        h.finish48()
    }

    /// Input cells × filter executions.
    fn work_units(&self) -> f64 {
        (self.dataset.num_cells() * self.executions) as f64
    }

    fn derive(&self, totals: &BTreeMap<&'static str, f64>, cx: &Ctx, layers: &mut Layers) {
        let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
        let mut push = |name: &'static str, v: f64| layers.entry(name).or_default().push(v);
        push(
            "powersim.sweep9_s",
            total("core.sweep") - total("core.characterize"),
        );
        for &algorithm in self.algorithms {
            let wall = total(exec_span(algorithm, Backend::Traditional));
            let sim = cx.count(sim_count(algorithm));
            if sim > 0.0 {
                push(wall_over_sim(algorithm), wall / sim);
            }
        }
        let cells = self.work_units();
        if self.algorithms == &GEOMETRY[..] {
            push("vizalgo.geom.bytes_per_cell", cx.count("bytes") / cells);
            if cx.count("bytes") > 0.0 {
                push(
                    "vizalgo.geom.flops_per_byte",
                    cx.count("flops") / cx.count("bytes"),
                );
            }
        }
        for (algorithm, count, metric) in [
            (Algorithm::RayTracing, "rays", "vizalgo.raytrace.rays_per_s"),
            (
                Algorithm::VolumeRendering,
                "samples",
                "vizalgo.volren.samples_per_s",
            ),
            (
                Algorithm::ParticleAdvection,
                "advect_steps",
                "vizalgo.advection.steps_per_s",
            ),
        ] {
            let wall = total(exec_span(algorithm, Backend::Traditional));
            if wall > 0.0 {
                push(metric, cx.count(count) / wall);
            }
        }
    }

    /// Scaling exponents: log₂(exec at full size ÷ exec at half size) ÷ 3,
    /// 1.0 = linear in cells. Three executions per size, medians.
    fn trace_extras(&mut self, _cx: &mut Ctx, _untraced_pass_s: f64, layers: &mut Layers) {
        let half = upsample(&self.base, self.size / 2);
        for (&algorithm, spec) in self.algorithms.iter().zip(&self.specs) {
            let Some(metric) = scale_exp(algorithm) else {
                continue;
            };
            let time = |ds: &DataSet| {
                let filter = spec.build(ds);
                let samples: Vec<f64> = (0..3)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(filter.execute(ds));
                        t.elapsed().as_secs_f64()
                    })
                    .collect();
                median(&samples)
            };
            let full_s = time(&self.dataset);
            let half_s = time(&half);
            if half_s > 0.0 {
                layers
                    .entry(metric)
                    .or_default()
                    .push((full_s / half_s).log2() / 3.0);
            }
        }
    }
}
