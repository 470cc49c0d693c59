//! End-to-end integration: hydro → in situ pipelines → characterization →
//! simulated power execution → advisor, across crate boundaries.

use cloverleaf::Problem;
use insitu::{Action, ActionList, InSituRuntime, RuntimeConfig, Trigger};
use powersim::trace::Journal;
use powersim::{CpuSpec, Package, Watts};
use vizalgo::{AlgorithmSpec, IsoValues, KernelClass};
use vizpower::advisor;
use vizpower::characterize::characterize;

fn actions() -> ActionList {
    ActionList(vec![
        Action::AddPipeline {
            name: "contour".into(),
            filters: vec![AlgorithmSpec::Contour {
                field: "energy".into(),
                isovalues: IsoValues::Spanning(4),
            }],
        },
        Action::AddPipeline {
            name: "streams".into(),
            filters: vec![AlgorithmSpec::ParticleAdvection {
                field: "velocity".into(),
                particles: 30,
                steps: 40,
                step_fraction: 5e-4,
                seed: 0x5eed_1234,
                scenario: Default::default(),
            }],
        },
        Action::AddScene {
            name: "db".into(),
            renderer: AlgorithmSpec::RayTracing {
                field: "energy".into(),
                width: 16,
                height: 16,
                images: 3,
            },
        },
    ])
}

#[test]
fn coupled_run_records_both_sides() {
    let config = RuntimeConfig {
        grid_cells: 10,
        total_steps: 12,
        trigger: Trigger::EveryN { n: 4 },
    };
    let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
    let run = rt.run();
    assert_eq!(run.cycles.len(), 3);
    for cycle in &run.cycles {
        assert_eq!(cycle.sim_work.class, KernelClass::Simulation);
        assert!(cycle.sim_work.work.instructions > 0);
        // Pipelines: contour (2 kernels) + advection (1) + scene (3).
        assert!(cycle.viz_kernels.len() >= 5);
        assert_eq!(cycle.images.len(), 3);
        for img in &cycle.images {
            assert!(img.coverage() > 0.0, "empty rendered frame");
        }
    }
}

#[test]
fn characterized_insitu_work_runs_under_caps() {
    let config = RuntimeConfig {
        grid_cells: 8,
        total_steps: 8,
        trigger: Trigger::EveryN { n: 4 },
    };
    let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
    let run = rt.run();
    let spec = CpuSpec::broadwell_e5_2695v4();
    let viz_reports: Vec<_> = run
        .cycles
        .iter()
        .flat_map(|c| c.viz_kernels.iter().cloned())
        .collect();
    let workload = characterize("viz", &viz_reports, &spec);
    assert!(!workload.is_empty());

    let uncapped =
        Package::new(spec.clone()).run_capped(&workload, Watts(120.0), &mut Journal::off());
    let capped = Package::new(spec).run_capped(&workload, Watts(40.0), &mut Journal::off());
    assert!(uncapped.seconds > 0.0);
    assert!(capped.seconds >= uncapped.seconds);
    assert!(capped.avg_power_watts <= 41.0);
    assert!(uncapped.avg_power_watts <= 120.0);
}

#[test]
fn advisor_end_to_end_gives_power_to_the_bottleneck() {
    // A realistic in situ balance: many simulation steps per
    // visualization cycle, so the hydro dominates (the paper's 10–20 %
    // viz share).
    let config = RuntimeConfig {
        grid_cells: 12,
        total_steps: 40,
        trigger: Trigger::EveryN { n: 20 },
    };
    let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
    let run = rt.run();
    let spec = CpuSpec::broadwell_e5_2695v4();
    let sim_reports: Vec<_> = run.cycles.iter().map(|c| c.sim_work.clone()).collect();
    let viz_reports: Vec<_> = run
        .cycles
        .iter()
        .flat_map(|c| c.viz_kernels.iter().cloned())
        .collect();
    let sim = characterize("sim", &sim_reports, &spec);
    let viz = characterize("viz", &viz_reports, &spec);
    let plan = advisor::allocate(&sim, &viz, Watts(150.0), &spec);
    assert!(plan.improvement() >= 1.0);
    assert!(plan.sim_cap_watts + plan.viz_cap_watts <= 150.0 + 1e-9);
    // The advisor gives at least the naive share to whichever side is
    // slower at the uniform split — here the simulation.
    let naive_cap = Watts(75.0);
    let t_sim = advisor::predict_seconds(&sim, naive_cap, &spec);
    let t_viz = advisor::predict_seconds(&viz, naive_cap, &spec);
    if t_sim > t_viz * 1.05 {
        assert!(
            plan.sim_cap_watts >= plan.viz_cap_watts,
            "bottleneck sim got {} W vs viz {} W",
            plan.sim_cap_watts,
            plan.viz_cap_watts
        );
    } else if t_viz > t_sim * 1.05 {
        assert!(plan.viz_cap_watts >= plan.sim_cap_watts);
    }
}

/// The action file the README drives `reproduce insitu` with.
const SHIPPED_ACTIONS: &str = include_str!("../examples/ascent_actions.json");

#[test]
fn shipped_actions_file_decodes_to_actions_and_runs() {
    let parsed = ActionList::from_json(SHIPPED_ACTIONS).expect("examples/ascent_actions.json");
    assert_eq!(parsed, actions());
    // And the decoded copy drives a runtime identically.
    let config = RuntimeConfig {
        grid_cells: 8,
        total_steps: 4,
        trigger: Trigger::EveryN { n: 4 },
    };
    let run_a = InSituRuntime::new(Problem::TwoState, config.clone(), parsed).run();
    let run_b = InSituRuntime::new(Problem::TwoState, config, actions()).run();
    assert_eq!(run_a.cycles.len(), run_b.cycles.len());
    assert_eq!(
        run_a.cycles[0].sim_work.work.instructions,
        run_b.cycles[0].sim_work.work.instructions
    );
}
