//! The tightly-coupled runtime: alternate simulation and visualization
//! on the same resources, recording both sides' instrumented work.

use crate::actions::ActionList;
use crate::scene::Scene;
use crate::trigger::Trigger;
use cloverleaf::{Problem, SimConfig, Simulation};
use powersim::trace::{Journal, Scope};
use std::io;
use vizalgo::{KernelClass, KernelReport};
use vizmesh::{Image, WorkCounters};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Cells per axis (the paper's 32/64/128/256).
    pub grid_cells: usize,
    /// Total simulation steps to run.
    pub total_steps: u64,
    /// Visualization trigger.
    pub trigger: Trigger,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            grid_cells: 32,
            total_steps: 20,
            trigger: Trigger::EveryN { n: 10 },
        }
    }
}

/// One visualization cycle's record: the simulation work since the last
/// cycle and the per-kernel visualization work.
#[derive(Debug, Clone)]
pub struct CycleRecord {
    pub step: u64,
    /// Work of the simulation steps since the previous cycle.
    pub sim_work: KernelReport,
    /// The same simulation work broken down by hydro kernel (first-seen
    /// order, one report per kernel name), from
    /// [`Simulation::step_phases`] — the phase-level view the power
    /// governor characterizes the simulation side from. Instruction
    /// counts sum exactly to `sim_work`.
    pub sim_phases: Vec<KernelReport>,
    /// Work of every visualization kernel in this cycle.
    pub viz_kernels: Vec<KernelReport>,
    /// Images rendered by the scenes this cycle.
    pub images: Vec<Image>,
}

/// The result of a coupled run.
#[derive(Debug, Clone, Default)]
pub struct CoupledRun {
    pub cycles: Vec<CycleRecord>,
    /// Simulation work after the final visualization cycle.
    pub trailing_sim_work: WorkCounters,
    /// Times the simulation state was exported for the trigger and the
    /// pipelines: the steps whose [`Trigger::step_verdict`] was not
    /// `Some(false)`.
    pub(crate) exports: u64,
}

/// The coupled driver.
pub struct InSituRuntime {
    pub sim: Simulation,
    pub(crate) actions: ActionList,
    pub scenes: Vec<Scene>,
    config: RuntimeConfig,
}

impl InSituRuntime {
    pub fn new(problem: Problem, config: RuntimeConfig, actions: ActionList) -> Self {
        let scenes = actions
            .scenes()
            .map(|(name, renderer)| Scene::new(name, renderer.clone()))
            .collect();
        InSituRuntime {
            sim: Simulation::new(problem, config.grid_cells, SimConfig::default()),
            actions,
            scenes,
            config,
        }
    }

    /// Run the coupled loop to completion, unjournaled.
    ///
    /// # Panics
    ///
    /// If a scene with an output directory cannot write its images;
    /// [`InSituRuntime::run_journaled`] returns that error instead.
    pub fn run(&mut self) -> CoupledRun {
        self.run_journaled(&mut Journal::off())
            .expect("a scene could not write its images")
    }

    /// Run the coupled loop to completion, journaling each simulation
    /// timestep (via [`Simulation::step_phases`]) and emitting a
    /// [`Scope::Action`] span per executed pipeline, per rendered scene,
    /// and per whole visualization cycle. Viz spans are zero-width: the
    /// in situ layer models no time of its own, only counted work.
    /// Fails when a scene cannot write its images.
    pub fn run_journaled(&mut self, journal: &mut Journal) -> io::Result<CoupledRun> {
        let mut out = CoupledRun::default();
        let mut sim_since_viz = WorkCounters::new();
        // Per-hydro-kernel accumulation since the last cycle, keyed by
        // name in first-seen order (repeated kernels merge).
        let mut sim_phase_acc: Vec<(&'static str, WorkCounters)> = Vec::new();
        for _ in 0..self.config.total_steps {
            let report = self.sim.step_phases(
                &mut |name, w| match sim_phase_acc.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, acc)) => *acc += w,
                    None => sim_phase_acc.push((name, w)),
                },
                journal,
            );
            sim_since_viz += report.work;
            // Export only when the trigger can fire: a cadence knows from
            // the step number alone that most steps have no cycle.
            if self.config.trigger.step_verdict(report.step) == Some(false) {
                continue;
            }
            let data = self.sim.dataset();
            out.exports += 1;
            if !self.config.trigger.fires(report.step, &data) {
                continue;
            }
            // Visualization cycle: pipelines, then scenes.
            let cycle_t0 = journal.now();
            let mut viz_kernels = Vec::new();
            for (name, filters) in self.actions.pipelines() {
                let t0 = journal.now();
                let kernels_before = viz_kernels.len();
                for spec in filters {
                    let filter = spec.build(&data);
                    let result = filter.execute(&data);
                    viz_kernels.extend(result.kernels);
                }
                journal.push_span(Scope::Action, t0, None, || {
                    let added = &viz_kernels[kernels_before..];
                    let args = vec![
                        ("kernels", added.len() as f64),
                        ("instructions", kernel_instructions(added)),
                    ];
                    (format!("pipeline:{name}"), args)
                });
            }
            let mut images = Vec::new();
            for scene in &self.scenes {
                let t0 = journal.now();
                let kernels_before = viz_kernels.len();
                let images_before = images.len();
                let result = scene.render(&data, report.step)?;
                viz_kernels.extend(result.kernels);
                images.extend(result.images);
                journal.push_span(Scope::Action, t0, None, || {
                    let added = &viz_kernels[kernels_before..];
                    let args = vec![
                        ("kernels", added.len() as f64),
                        ("instructions", kernel_instructions(added)),
                        ("images", (images.len() - images_before) as f64),
                    ];
                    (format!("scene:{}", scene.name), args)
                });
            }
            journal.push_span(Scope::Action, cycle_t0, None, || {
                let args = vec![
                    ("step", report.step as f64),
                    ("kernels", viz_kernels.len() as f64),
                    ("instructions", kernel_instructions(&viz_kernels)),
                ];
                (format!("cycle:{}", report.step), args)
            });
            out.cycles.push(CycleRecord {
                step: report.step,
                sim_work: KernelReport::new(
                    "cloverleaf-steps",
                    KernelClass::Simulation,
                    sim_since_viz,
                ),
                sim_phases: sim_phase_acc
                    .drain(..)
                    .map(|(name, w)| KernelReport::new(name, KernelClass::Simulation, w))
                    .collect(),
                viz_kernels,
                images,
            });
            sim_since_viz = WorkCounters::new();
        }
        out.trailing_sim_work = sim_since_viz;
        Ok(out)
    }
}

/// Total instruction count across kernel reports, as a journal arg.
fn kernel_instructions(kernels: &[KernelReport]) -> f64 {
    kernels.iter().map(|k| k.work.instructions).sum::<u64>() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use vizalgo::{AlgorithmSpec, IsoValues};

    fn actions() -> ActionList {
        ActionList(vec![
            Action::AddPipeline {
                name: "pl".into(),
                filters: vec![AlgorithmSpec::Contour {
                    field: "energy".into(),
                    isovalues: IsoValues::Spanning(3),
                }],
            },
            Action::AddScene {
                name: "sc".into(),
                renderer: AlgorithmSpec::VolumeRendering {
                    field: "energy".into(),
                    width: 12,
                    height: 12,
                    images: 2,
                },
            },
        ])
    }

    #[test]
    fn coupled_loop_alternates_sim_and_viz() {
        let config = RuntimeConfig {
            grid_cells: 8,
            total_steps: 10,
            trigger: Trigger::EveryN { n: 5 },
        };
        let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
        let run = rt.run();
        assert_eq!(run.cycles.len(), 2);
        for c in &run.cycles {
            assert!(c.sim_work.work.instructions > 0);
            assert!(!c.viz_kernels.is_empty());
            assert_eq!(c.images.len(), 2);
        }
        assert_eq!(run.cycles[0].step, 5);
        assert_eq!(run.cycles[1].step, 10);
    }

    #[test]
    fn sim_phases_break_down_sim_work_exactly() {
        let config = RuntimeConfig {
            grid_cells: 8,
            total_steps: 10,
            trigger: Trigger::EveryN { n: 5 },
        };
        let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
        let run = rt.run();
        for c in &run.cycles {
            assert!(!c.sim_phases.is_empty());
            // One merged report per hydro kernel name.
            let names: Vec<&str> = c.sim_phases.iter().map(|k| k.name.as_str()).collect();
            let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(
                unique.len(),
                names.len(),
                "duplicate phase names: {names:?}"
            );
            assert!(names.contains(&"advect"));
            let phase_inst: u64 = c.sim_phases.iter().map(|k| k.work.instructions).sum();
            assert_eq!(phase_inst, c.sim_work.work.instructions);
            assert!(c
                .sim_phases
                .iter()
                .all(|k| k.class == KernelClass::Simulation));
        }
    }

    #[test]
    fn journaled_run_emits_action_spans() {
        use powersim::trace::Event;
        let config = RuntimeConfig {
            grid_cells: 8,
            total_steps: 10,
            trigger: Trigger::EveryN { n: 5 },
        };
        let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
        let mut journal = Journal::with_capacity(1 << 12);
        let run = rt.run_journaled(&mut journal).unwrap();
        assert_eq!(run.cycles.len(), 2);
        let names: Vec<&str> = journal
            .events()
            .filter_map(|e| match e {
                Event::Span(s) if s.scope == Scope::Action => Some(s.name.as_str()),
                _ => None,
            })
            .collect();
        // Per cycle: one pipeline span, one scene span, one cycle span.
        assert_eq!(names.len(), 6);
        assert!(names.contains(&"pipeline:pl"));
        assert!(names.contains(&"scene:sc"));
        assert!(names.contains(&"cycle:5"));
        let timesteps = journal
            .events()
            .filter(|e| matches!(e, Event::Span(s) if s.scope == Scope::Timestep))
            .count();
        assert_eq!(timesteps, 10);
    }

    #[test]
    fn an_unwritable_scene_directory_is_an_error_naming_it() {
        let file = std::env::temp_dir().join("vizpower_runtime_not_a_dir");
        std::fs::write(&file, b"a regular file").unwrap();
        let config = RuntimeConfig {
            grid_cells: 6,
            total_steps: 2,
            trigger: Trigger::EveryN { n: 2 },
        };
        let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
        let dir = file.join("images");
        rt.scenes[0].with_output_dir(&dir);
        let err = rt.run_journaled(&mut Journal::off()).unwrap_err();
        let _ = std::fs::remove_file(&file);
        let shown = err.to_string();
        assert!(shown.starts_with(&dir.display().to_string()), "{shown}");
    }

    /// The coupled loop as it was before exports were gated on the step
    /// number: export after every step, then ask the trigger.
    fn export_every_step(config: &RuntimeConfig, actions: &ActionList) -> CoupledRun {
        let mut sim = Simulation::new(Problem::TwoState, config.grid_cells, SimConfig::default());
        let mut out = CoupledRun::default();
        let mut sim_since_viz = WorkCounters::new();
        let mut phases: Vec<(&'static str, WorkCounters)> = Vec::new();
        for _ in 0..config.total_steps {
            let observer = &mut |name, w| match phases.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => *acc += w,
                None => phases.push((name, w)),
            };
            let report = sim.step_phases(observer, &mut Journal::off());
            sim_since_viz += report.work;
            let data = sim.dataset();
            out.exports += 1;
            if !config.trigger.fires(report.step, &data) {
                continue;
            }
            let mut viz_kernels = Vec::new();
            for (_, filters) in actions.pipelines() {
                for spec in filters {
                    viz_kernels.extend(spec.build(&data).execute(&data).kernels);
                }
            }
            let mut images = Vec::new();
            for (name, renderer) in actions.scenes() {
                let result = Scene::new(name, renderer.clone())
                    .render(&data, report.step)
                    .expect("no output dir");
                viz_kernels.extend(result.kernels);
                images.extend(result.images);
            }
            out.cycles.push(CycleRecord {
                step: report.step,
                sim_work: KernelReport::new(
                    "cloverleaf-steps",
                    KernelClass::Simulation,
                    sim_since_viz,
                ),
                sim_phases: phases
                    .drain(..)
                    .map(|(name, w)| KernelReport::new(name, KernelClass::Simulation, w))
                    .collect(),
                viz_kernels,
                images,
            });
            sim_since_viz = WorkCounters::new();
        }
        out.trailing_sim_work = sim_since_viz;
        out
    }

    #[test]
    fn a_cadence_exports_only_on_its_steps_and_changes_no_cycle() {
        let config = RuntimeConfig {
            grid_cells: 8,
            total_steps: 10,
            trigger: Trigger::EveryN { n: 5 },
        };
        let run = InSituRuntime::new(Problem::TwoState, config.clone(), actions()).run();
        assert_eq!(run.exports, 2, "steps 5 and 10 only");
        let reference = export_every_step(&config, &actions());
        assert_eq!(reference.exports, 10);
        assert_eq!(run.cycles.len(), reference.cycles.len());
        for (got, want) in run.cycles.iter().zip(&reference.cycles) {
            assert_eq!(got.step, want.step);
            assert_eq!(got.sim_work, want.sim_work);
            assert_eq!(got.sim_phases, want.sim_phases);
            assert_eq!(got.viz_kernels, want.viz_kernels);
            assert_eq!(got.images, want.images, "image bytes of cycle {}", got.step);
        }
        assert_eq!(run.trailing_sim_work, reference.trailing_sim_work);
    }

    #[test]
    fn a_data_trigger_still_exports_every_step() {
        let field_max = |above: f64| Trigger::FieldMax {
            field: "energy".into(),
            above,
        };
        let run_with = |trigger: Trigger| {
            let config = RuntimeConfig {
                grid_cells: 6,
                total_steps: 6,
                trigger,
            };
            InSituRuntime::new(Problem::TwoState, config, actions()).run()
        };
        // The source region starts at e = 2.5: one threshold it always
        // clears, one it never does. Either way the data is asked.
        let always = run_with(field_max(1.0));
        assert_eq!((always.exports, always.cycles.len()), (6, 6));
        let never = run_with(field_max(1e9));
        assert_eq!((never.exports, never.cycles.len()), (6, 0));
        // Behind a cadence, only the cadence's steps are asked.
        let gated = run_with(Trigger::Both {
            a: Box::new(field_max(1.0)),
            b: Box::new(Trigger::EveryN { n: 3 }),
        });
        assert_eq!((gated.exports, gated.cycles.len()), (2, 2));
    }

    #[test]
    fn a_ray_tracing_scene_renders_every_cycle_as_a_fresh_execute() {
        let renderer = AlgorithmSpec::RayTracing {
            field: "energy".into(),
            width: 24,
            height: 20,
            images: 2,
        };
        let scene = Action::AddScene {
            name: "rt".into(),
            renderer: renderer.clone(),
        };
        let config = RuntimeConfig {
            grid_cells: 8,
            total_steps: 12,
            trigger: Trigger::EveryN { n: 4 },
        };
        let run = InSituRuntime::new(Problem::TwoState, config, ActionList(vec![scene])).run();
        assert_eq!(run.cycles.len(), 3);
        let mut sim = Simulation::new(Problem::TwoState, 8, SimConfig::default());
        for cycle in &run.cycles {
            while sim.step_count() < cycle.step {
                sim.step();
            }
            let data = sim.dataset();
            let want = renderer.build(&data).execute(&data);
            assert_eq!(cycle.viz_kernels, want.kernels, "cycle {}", cycle.step);
            assert_eq!(cycle.images, want.images, "cycle {}", cycle.step);
        }
        assert_ne!(
            run.cycles[0].images, run.cycles[2].images,
            "the field moved"
        );
    }

    #[test]
    fn trigger_gates_visualization() {
        let config = RuntimeConfig {
            grid_cells: 6,
            total_steps: 5,
            trigger: Trigger::EveryN { n: 100 },
        };
        let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
        let run = rt.run();
        assert!(run.cycles.is_empty());
        assert!(run.trailing_sim_work.instructions > 0);
    }
}
