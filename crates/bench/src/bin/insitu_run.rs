//! `insitu_run` — an Ascent-style command-line driver.
//!
//! ```text
//! insitu_run <actions.json> [--cells N] [--steps N] [--every N]
//!            [--out DIR] [--vtk]
//! ```
//!
//! Reads a JSON action list (the same schema as
//! `insitu::ActionList::from_json`), couples it with the CloverLeaf
//! proxy, runs the simulation, and writes each cycle's rendered images
//! (PPM) and, with `--vtk`, the simulation state as legacy VTK files —
//! everything a user needs to drive the toolkit without writing Rust.

use insitu::{ActionList, InSituRuntime, RuntimeConfig, Trigger};
use std::path::PathBuf;
use std::str::FromStr;
use vizpower_bench::CliError;

#[derive(Debug)]
struct Args {
    actions_path: PathBuf,
    cells: usize,
    steps: u64,
    every: u64,
    out: PathBuf,
    vtk: bool,
}

fn usage(context: &str) -> CliError {
    CliError::new(format!(
        "{context}\nusage: insitu_run <actions.json> [--cells N] [--steps N] [--every N] \
         [--out DIR] [--vtk]"
    ))
}

/// The number after `flag`.
fn number<T: FromStr>(flag: &str, raw: Option<String>) -> Result<T, CliError> {
    let raw = raw.ok_or_else(|| usage(&format!("{flag} needs <N>")))?;
    raw.parse()
        .map_err(|_| usage(&format!("{flag}: cannot read '{raw}'")))
}

/// Parse the command line (without the program name).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut args = args.into_iter();
    let mut parsed = Args {
        actions_path: PathBuf::new(),
        cells: 32,
        steps: 40,
        every: 10,
        out: PathBuf::from("target/insitu_out"),
        vtk: false,
    };
    let mut have_path = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cells" => parsed.cells = number(&a, args.next())?,
            "--steps" => parsed.steps = number(&a, args.next())?,
            "--every" => parsed.every = number(&a, args.next())?,
            "--out" => {
                let dir = args.next().ok_or_else(|| usage("--out needs <DIR>"))?;
                parsed.out = PathBuf::from(dir);
            }
            "--vtk" => parsed.vtk = true,
            other if !other.starts_with("--") && !have_path => {
                parsed.actions_path = PathBuf::from(other);
                have_path = true;
            }
            other => return Err(usage(&format!("unexpected argument '{other}'"))),
        }
    }
    if !have_path {
        return Err(usage("missing <actions.json>"));
    }
    // A grid needs a cell per axis; a visualization period of 0 steps
    // means nothing.
    for (flag, n) in [("--cells", parsed.cells as u64), ("--every", parsed.every)] {
        if n == 0 {
            return Err(usage(&format!("{flag} must be at least 1")));
        }
    }
    Ok(parsed)
}

fn main() -> Result<(), CliError> {
    let args = parse_args(std::env::args().skip(1))?;
    let json = std::fs::read_to_string(&args.actions_path)
        .map_err(|e| format!("cannot read {}: {e}", args.actions_path.display()))?;
    let actions = ActionList::from_json(&json)
        .map_err(|e| format!("invalid actions file {}: {e}", args.actions_path.display()))?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create output dir {}: {e}", args.out.display()))?;

    let config = RuntimeConfig {
        grid_cells: args.cells,
        total_steps: args.steps,
        trigger: Trigger::EveryN { n: args.every },
    };
    println!(
        "insitu_run: {} pipelines, {} scenes, {}³ cells, {} steps, viz every {}",
        actions.pipelines().count(),
        actions.scenes().count(),
        args.cells,
        args.steps,
        args.every
    );
    let mut runtime = InSituRuntime::new(cloverleaf::Problem::TwoState, config, actions);
    // Route scene output into the chosen directory.
    for scene in &mut runtime.scenes {
        *scene = scene.clone().with_output_dir(&args.out);
    }
    let run = runtime.run();

    for cycle in &run.cycles {
        println!(
            "  cycle @ step {:>4}: {} viz kernels, {} images",
            cycle.step,
            cycle.viz_kernels.len(),
            cycle.images.len()
        );
    }
    if args.vtk {
        let ds = runtime.sim.dataset();
        let path = args
            .out
            .join(format!("state_{:04}.vtk", runtime.sim.step_count()));
        vizmesh::save_vtk(&path, &ds, "cloverleaf state")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  wrote {}", path.display());
    }
    println!(
        "done: {} cycles, outputs in {}",
        run.cycles.len(),
        args.out.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from)).map_err(|e| e.to_string())
    }

    #[test]
    fn defaults_apply_when_only_the_actions_file_is_given() {
        let args = parse("a.json").unwrap();
        assert_eq!(args.actions_path, PathBuf::from("a.json"));
        assert_eq!((args.cells, args.steps, args.every), (32, 40, 10));
        assert_eq!(args.out, PathBuf::from("target/insitu_out"));
        assert!(!args.vtk);
    }

    #[test]
    fn zero_cells_and_a_zero_period_are_usage_errors() {
        for flag in ["--cells", "--every"] {
            let err = parse(&format!("a.json {flag} 0")).unwrap_err();
            let head = format!("{flag} must be at least 1\nusage: insitu_run <actions.json>");
            assert!(err.starts_with(&head), "{err}");
        }
        assert_eq!(parse("a.json --steps 0").unwrap().steps, 0);
    }

    #[test]
    fn values_are_required_and_typed() {
        let err = parse("a.json --cells").unwrap_err();
        assert!(err.starts_with("--cells needs <N>\nusage:"), "{err}");
        let err = parse("a.json --every x").unwrap_err();
        assert!(err.starts_with("--every: cannot read 'x'\nusage:"), "{err}");
        let err = parse("--cells 8").unwrap_err();
        assert!(err.starts_with("missing <actions.json>\nusage:"), "{err}");
        let err = parse("a.json b.json").unwrap_err();
        assert!(err.starts_with("unexpected argument 'b.json'"), "{err}");
    }
}
