//! `insitu48`: the tightly-coupled simulation + visualization loop.

use std::collections::BTreeMap;

use cloverleaf::{Problem, SimConfig, Simulation};
use insitu::{
    Action, ActionList, CoupledRun, CycleRecord, InSituRuntime, RuntimeConfig, Scene, Trigger,
};
use vizalgo::{Algorithm, AlgorithmSpec, Backend, Fnv1a, KernelClass, KernelReport};
use vizmesh::WorkCounters;
use vizpower::StudyConfig;

use super::kernels::exec_span;
use super::{hash_image, hash_work, Ctx, Layers, Scale, Workload};

/// Steps between visualization cycles, and per `InSituRuntime::run` call.
const STEPS_PER_CYCLE: u64 = 10;

pub struct InSitu {
    /// One cycle's worth: `STEPS_PER_CYCLE` steps, then the trigger fires.
    config: RuntimeConfig,
    /// `run()` calls per pass, each continuing the same simulation.
    cycles: u64,
    actions: ActionList,
}

impl InSitu {
    pub fn new(scale: Scale) -> InSitu {
        let (grid_cells, cycles, px, images) = match scale {
            Scale::Full => (48, 6, 128, 8),
            Scale::Smoke => (16, 2, 32, 2),
        };
        let study = StudyConfig::paper();
        // Built in Rust, not parsed: the stub build has no serde.
        let actions = ActionList(vec![
            Action::AddPipeline {
                name: "geometry".into(),
                filters: vec![
                    study.spec(Algorithm::Contour),
                    study.spec(Algorithm::Threshold),
                    study.spec(Algorithm::Slice),
                ],
            },
            Action::AddScene {
                name: "raytrace".into(),
                renderer: AlgorithmSpec::RayTracing {
                    field: "energy".into(),
                    width: px,
                    height: px,
                    images,
                },
            },
        ]);
        InSitu {
            config: RuntimeConfig {
                grid_cells,
                total_steps: STEPS_PER_CYCLE,
                trigger: Trigger::EveryN { n: STEPS_PER_CYCLE },
            },
            cycles,
            actions,
        }
    }

    fn total_steps(&self) -> u64 {
        self.config.total_steps * self.cycles
    }
}

fn fingerprint(run: &CoupledRun) -> u64 {
    let mut h = Fnv1a::new();
    for c in &run.cycles {
        h.update_u64(c.step);
        hash_work(&mut h, &c.sim_work.work);
        for k in &c.viz_kernels {
            hash_work(&mut h, &k.work);
        }
        for img in &c.images {
            hash_image(&mut h, img);
        }
    }
    hash_work(&mut h, &run.trailing_sim_work);
    h.finish48()
}

impl Workload for InSitu {
    /// One runtime, `run()` once per cycle: each call takes the
    /// simulation ten steps further and ends in a visualization cycle,
    /// so the pass is the 60-step coupled run in six laps.
    fn pass(&mut self, cx: &mut Ctx) -> u64 {
        let mut rt =
            InSituRuntime::new(Problem::TwoState, self.config.clone(), self.actions.clone());
        let mut whole = CoupledRun::default();
        for _ in 0..self.cycles {
            let run = cx.rec.span("insitu.run", || rt.run());
            whole.cycles.extend(run.cycles);
            whole.trailing_sim_work += run.trailing_sim_work;
            cx.lap();
        }
        cx.add("insitu.cycles", whole.cycles.len() as f64);
        cx.add("cloverleaf.steps", rt.sim.step_count() as f64);
        fingerprint(&whole)
    }

    /// Cell-steps: grid cells × simulation steps.
    fn work_units(&self) -> f64 {
        let n = self.config.grid_cells as f64;
        n * n * n * self.total_steps() as f64
    }

    /// `InSituRuntime::run` cannot be seen into, so the traced pass drives
    /// the same loop itself — step, export, trigger, build, execute, render,
    /// through the same public functions in the same order — with a
    /// span around each. Its fingerprint must equal the real run's,
    /// which is what shows the two loops do the same work.
    fn traced_pass(&mut self, cx: &mut Ctx) -> u64 {
        let whole = cx.rec.open("insitu.replay");
        let mut sim = Simulation::new(
            Problem::TwoState,
            self.config.grid_cells,
            SimConfig::default(),
        );
        let scenes: Vec<Scene> = self
            .actions
            .scenes()
            .map(|(name, renderer)| Scene::new(name, renderer.clone()))
            .collect();
        let mut run = CoupledRun::default();
        let mut sim_since_viz = WorkCounters::new();
        for _ in 0..self.total_steps() {
            let report = cx.rec.span("cloverleaf.step", || sim.step());
            sim_since_viz += report.work;
            let data = cx.rec.span("cloverleaf.dataset", || sim.dataset());
            if !self.config.trigger.fires(report.step, &data) {
                continue;
            }
            let cycle = cx.rec.open("insitu.viz_cycle");
            let mut viz_kernels = Vec::new();
            for (_, filters) in self.actions.pipelines() {
                for spec in filters {
                    let filter = cx.rec.span("vizalgo.spec.build", || spec.build(&data));
                    let out = cx
                        .rec
                        .span(exec_span(spec.algorithm(), Backend::Traditional), || {
                            filter.execute(&data)
                        });
                    viz_kernels.extend(out.kernels);
                }
            }
            let mut images = Vec::new();
            for scene in &scenes {
                let out = cx.rec.span(
                    exec_span(scene.renderer.algorithm(), Backend::Traditional),
                    || scene.render(&data, report.step),
                );
                match out {
                    Ok(out) => {
                        viz_kernels.extend(out.kernels);
                        images.extend(out.images);
                    }
                    Err(e) => cx.check(false, || format!("scene {} failed: {e}", scene.name)),
                }
            }
            cx.rec.close(cycle);
            run.cycles.push(CycleRecord {
                step: report.step,
                sim_work: KernelReport::new(
                    "cloverleaf-steps",
                    KernelClass::Simulation,
                    sim_since_viz,
                ),
                sim_phases: Vec::new(),
                viz_kernels,
                images,
            });
            sim_since_viz = WorkCounters::new();
        }
        run.trailing_sim_work = sim_since_viz;
        cx.rec.close(whole);
        cx.add("insitu.cycles", run.cycles.len() as f64);
        cx.add("cloverleaf.steps", sim.step_count() as f64);
        fingerprint(&run)
    }

    fn derive(&self, totals: &BTreeMap<&'static str, f64>, _cx: &Ctx, layers: &mut Layers) {
        if let Some(&step_s) = totals.get("cloverleaf.step") {
            if step_s > 0.0 {
                layers
                    .entry("cloverleaf.cell_steps_per_s")
                    .or_default()
                    .push(self.work_units() / step_s);
            }
        }
    }

    /// `insitu.self_s`: what the real runtime spends beyond the layers
    /// it calls — untraced `run()` time minus the replay's steps,
    /// exports and viz cycles. Noise can push it slightly below zero.
    fn trace_extras(&mut self, _cx: &mut Ctx, untraced_pass_s: f64, layers: &mut Layers) {
        let med = |name: &str| layers.get(name).map_or(0.0, |v| crate::stats::median(v));
        let layers_s =
            med("cloverleaf.step_s") + med("cloverleaf.dataset_s") + med("insitu.viz_cycle_s");
        layers
            .entry("insitu.self_s")
            .or_default()
            .push(untraced_pass_s - layers_s);
    }
}
