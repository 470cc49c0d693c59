//! Tightly-coupled in situ run with power-budget advice.
//!
//! ```text
//! cargo run --release --example insitu_pipeline
//! ```
//!
//! Couples the CloverLeaf proxy with a contour pipeline and a
//! volume-rendered scene through the Ascent-like runtime (actions are
//! declared as JSON, exactly like an `ascent_actions.json`), then asks
//! the power advisor how a 140 W node budget should be split between the
//! simulation socket and the visualization socket — the paper's §VII use
//! case.

use insitu::{ActionList, InSituRuntime, RuntimeConfig, Trigger};
use powersim::{CpuSpec, Watts};
use vizalgo::{KernelClass, KernelReport};
use vizpower::advisor;
use vizpower::characterize::characterize;

const ACTIONS: &str = r#"[
    {"action": "add_pipeline", "name": "energy_contour",
     "filters": [{"type": "contour", "field": "energy",
                  "isovalues": {"spanning": 10}}]},
    {"action": "add_scene", "name": "volume",
     "renderer": {"type": "volume_rendering", "field": "energy",
                  "width": 64, "height": 64, "images": 8}}
]"#;

fn main() {
    let actions = ActionList::from_json(ACTIONS).expect("actions parse");
    let config = RuntimeConfig {
        grid_cells: 24,
        total_steps: 30,
        trigger: Trigger::EveryN { n: 10 },
    };
    println!("running CloverLeaf 24^3 for 30 steps, visualizing every 10 ...");
    let mut runtime = InSituRuntime::new(cloverleaf::Problem::TwoState, config, actions);
    let run = runtime.run();

    for cycle in &run.cycles {
        let viz_instr: u64 = cycle.viz_kernels.iter().map(|k| k.work.instructions).sum();
        println!(
            "  cycle @ step {:>3}: sim {:>12} instr | viz {:>12} instr in {} kernels, {} images",
            cycle.step,
            cycle.sim_work.work.instructions,
            viz_instr,
            cycle.viz_kernels.len(),
            cycle.images.len()
        );
    }

    // Characterize both sides and ask the advisor for a split of a 140 W
    // two-socket budget (70 W + 70 W would be the naive choice).
    let spec = CpuSpec::broadwell_e5_2695v4();
    let sim_reports: Vec<KernelReport> = run.cycles.iter().map(|c| c.sim_work.clone()).collect();
    let viz_reports: Vec<KernelReport> = run
        .cycles
        .iter()
        .flat_map(|c| c.viz_kernels.iter().cloned())
        .collect();
    assert!(
        sim_reports
            .iter()
            .all(|r| r.class == KernelClass::Simulation),
        "simulation work is tagged with the Simulation class"
    );
    let sim_workload = characterize("cloverleaf", &sim_reports, &spec);
    let viz_workload = characterize("visualization", &viz_reports, &spec);

    let plan = advisor::allocate(&sim_workload, &viz_workload, Watts(140.0), &spec);
    println!("\npower advisor, {} W node budget:", plan.budget_watts);
    println!(
        "  simulation socket   {:>5.0} W\n  visualization socket {:>4.0} W",
        plan.sim_cap_watts, plan.viz_cap_watts
    );
    println!(
        "  completion time {:.3}s vs naive 70/70 split {:.3}s  ({:.2}x better)",
        plan.predicted_seconds,
        plan.naive_seconds,
        plan.improvement()
    );
    println!("\nthe data-bound visualization cedes its headroom to the");
    println!("power-hungry simulation — the paper's motivating runtime story.");
}
