//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce all                   # every table, figure and study extension
//! reproduce table1 | table2 | table3
//! reproduce fig2a | fig2b | fig2c | fig3 | fig4 | fig5 | fig6
//! reproduce summary               # one-line classification per algorithm
//! reproduce energy                # extension: energy / EDP per cap
//! reproduce arch                  # extension: cross-architecture study
//! reproduce ablation              # extension: model-mechanism ablations
//! reproduce governor              # extension: closed-loop governor across
//!                                 # node budgets (80-240 W, 4 policies)
//! reproduce conformance [--backend <traditional|dpp|both>]
//!                                 # oracle / differential / metamorphic
//!                                 # checks for all eight kernels (exit 1
//!                                 # on any failure); --backend dpp runs the
//!                                 # traditional-vs-DPP differential instead
//! reproduce advect                # extension: time-varying flow — a
//!                                 # streamline/pathline scenario sweep over
//!                                 # a snapshot ring the hydro records
//! reproduce serve [--requests K] [--zipf S] [--nodes N] [--workers W]
//!                                 # extension: the study service under
//!                                 # Zipfian traffic, N simulated nodes at
//!                                 # a 90 W budget each
//! reproduce insitu [--actions FILE] [--out DIR]
//!                                 # drive CloverLeaf with an Ascent-style
//!                                 # action file, writing each cycle's
//!                                 # images and the final state (VTK)
//! ```
//!
//! Every target takes `--quick`, `--journal out.jsonl` and `--trace
//! out.trace.json`; the [`VERBS`] table holds what else each accepts.
//!
//! `--quick` shrinks data sizes and render resolutions ~100× while
//! preserving the experiment structure; use it for smoke runs. Without
//! it, sizes match the paper (32³–256³ cells; allow several minutes).
//!
//! `--backend dpp` on a table, figure, `summary` or `energy` runs the
//! data-parallel-primitive kernel formulations instead of the fused
//! loops the paper measured, restricted to the four algorithms that
//! have one: `fig2b --backend dpp` against plain `fig2b` is the Bethel
//! et al. IPC contrast (`docs/DPP.md`).
//!
//! `--journal` / `--trace` enable the run journal: every study phase,
//! cap sweep row, workload, kernel phase, 100 ms sample, and RAPL cap
//! change is recorded as a typed event (schema: `docs/OBSERVABILITY.md`).
//! Their files are created before the target runs, so an unwritable
//! path fails at once, and written when it ends.
//!
//! Everything printed is modeled time and energy. Wall-clock
//! measurement is `benchmarks/run.sh` (`docs/PERFORMANCE.md`).

use insitu::{ActionList, InSituRuntime, RuntimeConfig, Trigger};
use powersim::trace::Journal;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use vizalgo::{Algorithm, Backend};
use vizpower::experiments::{self, FigMetric};
use vizpower::report;
use vizpower::study::{StudyConfig, StudyContext, PAPER_SIZES};
use vizpower::{ablation, arch, energy};

type Outcome = Result<(), String>;

/// Ring-buffer capacity (events) used when `reproduce` enables the run
/// journal: large enough for `reproduce all` at paper fidelity, small
/// enough (~100 MB worst case) to stay harmless on a laptop. Drops are
/// counted and reported, never silent.
const JOURNAL_CAPACITY: usize = 1 << 20;

/// Sizes used by the reproduction at each fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fidelity {
    /// Paper-faithful sizes: 32³–256³ cells, 128² images × 50 cameras.
    Paper,
    /// Scaled-down smoke run (about 100× cheaper, same structure).
    Quick,
}

impl Fidelity {
    fn sizes(self) -> Vec<usize> {
        match self {
            Fidelity::Paper => PAPER_SIZES.to_vec(),
            Fidelity::Quick => vec![8, 12, 16, 24],
        }
    }

    /// The size playing the role of the paper's 128³ (Tables I–II).
    fn table2_size(self) -> usize {
        match self {
            Fidelity::Paper => 128,
            Fidelity::Quick => 16,
        }
    }

    /// The size playing the role of the paper's 256³ (Table III).
    fn table3_size(self) -> usize {
        match self {
            Fidelity::Paper => 256,
            Fidelity::Quick => 24,
        }
    }

    fn study_config(self) -> StudyConfig {
        match self {
            Fidelity::Paper => StudyConfig::paper(),
            Fidelity::Quick => StudyConfig::quick(),
        }
    }
}

/// Parse a `--backend` argument into the backend list to run. Accepts
/// every [`Backend::parse`] alias plus `both`/`all`; anything else is an
/// actionable error naming the accepted values.
fn parse_backends(s: &str) -> Result<Vec<Backend>, String> {
    if s.eq_ignore_ascii_case("both") || s.eq_ignore_ascii_case("all") {
        return Ok(Backend::ALL.to_vec());
    }
    match Backend::parse(s) {
        Some(b) => Ok(vec![b]),
        None => Err(format!(
            "unknown backend '{s}': expected 'traditional', 'dpp', or 'both'"
        )),
    }
}

/// Every flag and the placeholder of its value (empty for a switch).
const FLAGS: [(&str, &str); 10] = [
    ("--quick", ""),
    ("--journal", "out.jsonl"),
    ("--trace", "out.trace.json"),
    ("--backend", "traditional|dpp|both"),
    ("--requests", "K"),
    ("--zipf", "S"),
    ("--nodes", "N"),
    ("--workers", "W"),
    ("--actions", "FILE"),
    ("--out", "DIR"),
];

/// Flags every verb accepts.
const COMMON: [&str; 3] = ["--quick", "--journal", "--trace"];
const BACKEND: &[&str] = &["--backend"];
const TRAFFIC: &[&str] = &["--requests", "--zipf", "--nodes", "--workers"];
const INSITU: &[&str] = &["--actions", "--out"];

/// One `reproduce` target: its name, the flags it accepts beyond
/// [`COMMON`], and the function that runs it. `all` is rows 1–14.
struct Verb {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&mut Run) -> Outcome,
}

#[rustfmt::skip]
const VERBS: [Verb; 20] = [
    Verb { name: "all", flags: &[], run: |r| VERBS[1..15].iter().try_for_each(|part| (part.run)(r)) },
    Verb { name: "table1", flags: BACKEND, run: table1 },
    Verb { name: "table2", flags: BACKEND, run: |r| slowdown_table(r, "II", 2, r.fidelity.table2_size()) },
    Verb { name: "table3", flags: BACKEND, run: |r| slowdown_table(r, "III", 3, r.fidelity.table3_size()) },
    Verb { name: "fig2a", flags: BACKEND, run: |r| fig2(r, FigMetric::EffectiveFrequency, "Fig 2a: effective frequency (GHz) vs cap") },
    Verb { name: "fig2b", flags: BACKEND, run: |r| fig2(r, FigMetric::Ipc, "Fig 2b: IPC vs cap") },
    Verb { name: "fig2c", flags: BACKEND, run: |r| fig2(r, FigMetric::LlcMissRate, "Fig 2c: LLC miss rate vs cap") },
    Verb { name: "fig3", flags: BACKEND, run: fig3 },
    Verb { name: "fig4", flags: BACKEND, run: |r| fig_size_ipc(r, Algorithm::Slice, "Fig 4: slice IPC vs cap across sizes") },
    Verb { name: "fig5", flags: BACKEND, run: |r| fig_size_ipc(r, Algorithm::VolumeRendering, "Fig 5: volume rendering IPC vs cap across sizes") },
    Verb { name: "fig6", flags: BACKEND, run: |r| fig_size_ipc(r, Algorithm::ParticleAdvection, "Fig 6: particle advection IPC vs cap across sizes") },
    Verb { name: "summary", flags: BACKEND, run: summary },
    Verb { name: "energy", flags: BACKEND, run: energy_table },
    Verb { name: "arch", flags: &[], run: arch_table },
    Verb { name: "ablation", flags: &[], run: ablation_table },
    Verb { name: "governor", flags: &[], run: governor_sweep },
    Verb { name: "conformance", flags: BACKEND, run: conformance_suite },
    Verb { name: "advect", flags: &[], run: advect },
    Verb { name: "serve", flags: TRAFFIC, run: serve },
    Verb { name: "insitu", flags: INSITU, run: insitu },
];

fn usage(context: &str) -> String {
    let verbs: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
    let mut text = format!("{context}\nusage: reproduce <{}>", verbs.join("|"));
    for (flag, value) in FLAGS {
        match value {
            "" => text.push_str(&format!(" [{flag}]")),
            _ => text.push_str(&format!(" [{flag} <{value}>]")),
        }
    }
    text
}

/// The flags given on the command line, as `(flag, value)` pairs
/// (switches carry an empty value).
struct Given(Vec<(&'static str, String)>);

impl Given {
    fn raw(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.0.iter().rev().find(|(f, _)| *f == flag)?;
        Some(value)
    }

    /// `insitu`'s output directory.
    fn out_dir(&self) -> &Path {
        Path::new(self.raw("--out").unwrap_or("target/insitu_out"))
    }

    /// The flag's value parsed as `T`, or `default` when it was not given.
    fn value<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        let Some(raw) = self.raw(flag) else {
            return Ok(default);
        };
        raw.parse()
            .map_err(|_| usage(&format!("{flag}: cannot read '{raw}'")))
    }
}

/// Parse the command line against the tables: the verb to run and the
/// flags given, every one of which that verb accepts.
fn plan(args: impl IntoIterator<Item = String>) -> Result<(&'static Verb, Given), String> {
    let mut given = Vec::new();
    let mut target = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if target.is_some() {
                return Err(usage(&format!("unexpected argument '{arg}'")));
            }
            target = Some(arg);
        } else if let Some(&(flag, value)) = FLAGS.iter().find(|f| f.0 == arg) {
            let missing = || usage(&format!("{flag} needs <{value}>"));
            let value = match value {
                "" => String::new(),
                _ => it.next().ok_or_else(missing)?,
            };
            given.push((flag, value));
        } else {
            return Err(usage(&format!("unknown flag '{arg}'")));
        }
    }
    let target = target.ok_or_else(|| usage("missing target"))?;
    let verb = VERBS
        .iter()
        .find(|v| v.name == target)
        .ok_or_else(|| usage(&format!("unknown target '{target}'")))?;
    for (flag, _) in &given {
        if !COMMON.contains(flag) && !verb.flags.contains(flag) {
            let takers: Vec<&str> = VERBS
                .iter()
                .filter(|v| v.flags.contains(flag))
                .map(|v| v.name)
                .collect();
            return Err(usage(&format!(
                "{flag} does not apply to '{target}', only to: {}",
                takers.join(", ")
            )));
        }
    }
    Ok((verb, Given(given)))
}

/// What a verb runs with: the study context (its journal is the run's
/// journal) plus the parsed command line.
struct Run {
    ctx: StudyContext,
    fidelity: Fidelity,
    backends: Vec<Backend>,
    given: Given,
}

impl Run {
    fn quick(&self) -> bool {
        self.fidelity == Fidelity::Quick
    }
}

/// The run journal's output flags and how each renders the journal.
const OUTPUTS: [(&str, fn(&Journal) -> String); 2] = [
    ("--journal", Journal::to_jsonl),
    ("--trace", Journal::to_chrome_trace),
];

/// Create the requested output files (no journal yet) or write the
/// journal to them. They are created before the verb runs, so an
/// unwritable path fails before any work, and written once it has run.
fn journal_outputs(given: &Given, journal: Option<&Journal>) -> Outcome {
    for (flag, render) in OUTPUTS {
        let Some(path) = given.raw(flag) else {
            continue;
        };
        let error = |e: std::io::Error| format!("writing {flag} {path}: {e}");
        let Some(journal) = journal else {
            std::fs::File::create(path).map_err(error)?;
            continue;
        };
        std::fs::write(path, render(journal)).map_err(error)?;
        let (events, dropped) = (journal.len(), journal.dropped());
        eprintln!("{flag}: {events} events ({dropped} dropped) -> {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match reproduce() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("Error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn reproduce() -> Outcome {
    let (verb, given) = plan(std::env::args().skip(1))?;
    let fidelity = if given.raw("--quick").is_some() {
        Fidelity::Quick
    } else {
        Fidelity::Paper
    };
    let backends = match given.raw("--backend") {
        Some(name) => parse_backends(name)?,
        None => vec![Backend::Traditional],
    };
    // A study context runs one backend. The conformance suites pick
    // theirs from the list and execute nothing through the context.
    let backend = match (verb.name, backends.as_slice()) {
        ("conformance", _) => Backend::Traditional,
        (_, [one]) => *one,
        _ => return Err(usage("--backend both only applies to 'conformance'")),
    };
    // A journal may go into `insitu`'s output directory: make it first.
    if verb.name == "insitu" {
        let out = given.out_dir();
        std::fs::create_dir_all(out)
            .map_err(|e| format!("cannot create output dir {}: {e}", out.display()))?;
    }
    journal_outputs(&given, None)?;
    let mut ctx = StudyContext::with_backend(fidelity.study_config(), backend);
    if given.raw("--journal").or(given.raw("--trace")).is_some() {
        ctx.enable_journal(JOURNAL_CAPACITY);
    }
    if backend != Backend::Traditional {
        println!("-- backend: {backend} (algorithms it does not formulate are skipped) --");
    }
    let mut run = Run {
        ctx,
        fidelity,
        backends,
        given,
    };
    let outcome = (verb.run)(&mut run);
    journal_outputs(&run.given, Some(&run.ctx.journal))?;
    outcome
}

fn table1(run: &mut Run) -> Outcome {
    println!("== Table I: Phase 1 — contour across processor power caps ==");
    let sweep = experiments::table1(&mut run.ctx, run.fidelity.table2_size());
    println!("{}", report::render_table1(&sweep));
    Ok(())
}

fn slowdown_table(run: &mut Run, numeral: &str, phase: u32, size: usize) -> Outcome {
    println!("== Table {numeral}: Phase {phase} — all algorithms at {size}³ ==");
    let sweeps = experiments::slowdown_table(&mut run.ctx, size);
    println!("{}", report::render_slowdown_table(&sweeps));
    Ok(())
}

fn fig2(run: &mut Run, metric: FigMetric, title: &str) -> Outcome {
    let s = experiments::fig2(&mut run.ctx, run.fidelity.table2_size(), metric);
    println!("{}", report::render_series(title, &s));
    Ok(())
}

fn fig3(run: &mut Run) -> Outcome {
    let s = experiments::fig3(&mut run.ctx, run.fidelity.table2_size());
    let title = "Fig 3: elements (M)/sec, cell-centered algorithms";
    println!("{}", report::render_series(title, &s));
    Ok(())
}

fn fig_size_ipc(run: &mut Run, algorithm: Algorithm, title: &str) -> Outcome {
    let s = experiments::fig_size_ipc(&mut run.ctx, algorithm, &run.fidelity.sizes());
    println!("{}", report::render_series(title, &s));
    Ok(())
}

fn summary(run: &mut Run) -> Outcome {
    let t2 = run.fidelity.table2_size();
    println!("== Classification summary at {t2}³ ==");
    for sweep in experiments::slowdown_table(&mut run.ctx, t2) {
        println!("{}", report::summarize(&sweep));
    }
    println!();
    Ok(())
}

fn energy_table(run: &mut Run) -> Outcome {
    let t2 = run.fidelity.table2_size();
    println!("== Extension: energy and EDP vs cap at {t2}³ ==");
    for sweep in run.ctx.sweep_supported(&Algorithm::ALL, t2) {
        let rows = energy::energy_rows(&sweep);
        print!("{:<20}", sweep.algorithm.name());
        for r in &rows {
            print!(" {:>5.2}E", r.eratio);
        }
        println!();
        print!("{:<20}", "");
        for r in &rows {
            print!(" {:>5.2}D", r.edp_ratio);
        }
        println!("   (E = energy ratio, D = EDP ratio)");
    }
    println!();
    Ok(())
}

fn arch_table(run: &mut Run) -> Outcome {
    let t2 = run.fidelity.table2_size();
    println!("== Extension: cross-architecture comparison at {t2}³ ==");
    for algorithm in [
        Algorithm::Contour,
        Algorithm::Threshold,
        Algorithm::ParticleAdvection,
        Algorithm::VolumeRendering,
    ] {
        let native = run.ctx.run(algorithm, t2);
        for row in arch::compare_architectures(&native) {
            println!("{row}");
        }
    }
    println!();
    Ok(())
}

fn ablation_table(run: &mut Run) -> Outcome {
    let t2 = run.fidelity.table2_size();
    println!("== Extension: model ablations (contour at {t2}³) ==");
    let native = run.ctx.run(Algorithm::Contour, t2);
    let caps = &run.ctx.config().caps;
    for ab in ablation::Ablation::ALL {
        let result = ablation::run_ablation(&native, caps, ab);
        let (Some(r), Some(a)) = (result.reference.last(), result.ablated.last()) else {
            return Err("ablation needs at least one cap".to_string());
        };
        println!(
            "{:<20} floor Tratio {:.2}X -> {:.2}X   Fratio {:.2}X -> {:.2}X   (max ΔT {:.2})",
            ab.name(),
            r.tratio,
            a.tratio,
            r.fratio,
            a.fratio,
            result.max_tratio_delta()
        );
    }
    println!();
    Ok(())
}

fn governor_sweep(run: &mut Run) -> Outcome {
    // Characterization grid: the sweep's cost is dominated by the
    // governed virtual-time loops, but quick mode still shrinks the
    // instrumentation run.
    let grid = if run.quick() { 16 } else { 32 };
    println!("== Extension: closed-loop governor budget sweep ({grid}³) ==");
    let spec = powersim::CpuSpec::broadwell_e5_2695v4();
    let sweep = governor::budget_sweep(grid, &spec, &mut run.ctx.journal);
    println!("{}", governor::render_table(&sweep));
    Ok(())
}

fn conformance_suite(run: &mut Run) -> Outcome {
    let cfg = if run.quick() {
        conformance::ConformanceConfig::quick()
    } else {
        conformance::ConformanceConfig::full()
    };
    let grids = &cfg.grids;
    for backend in &run.backends {
        let suite = match backend {
            Backend::Traditional => "oracle / differential / metamorphic checks",
            Backend::Dpp => "traditional-vs-DPP backend differential",
        };
        println!("== Conformance: {suite} at {grids:?}³ ==");
    }
    let report = conformance::run(&cfg, &run.backends, &mut run.ctx.journal);
    println!("{}", conformance::render_table(&report));
    match report.failed() {
        0 => Ok(()),
        failed => Err(format!(
            "{failed} of {} conformance checks failed",
            report.checks.len()
        )),
    }
}

fn advect(run: &mut Run) -> Outcome {
    let cfg = if run.quick() {
        vizpower::advect::AdvectConfig::quick()
    } else {
        vizpower::advect::AdvectConfig::full()
    };
    println!(
        "== Extension: time-varying advection scenario sweep ({}³ hydro, {} steps, ring of {}) ==",
        cfg.hydro_n, cfg.hydro_steps, cfg.ring_capacity
    );
    let report = vizpower::advect::run_sweep(&cfg, &mut run.ctx.journal);
    println!("{}", vizpower::advect::render_table(&report));
    Ok(())
}

fn serve(run: &mut Run) -> Outcome {
    let requests = run
        .given
        .value("--requests", if run.quick() { 400 } else { 2000 })?;
    let zipf_s = zipf_exponent(&run.given)?;
    let nodes: usize = run.given.value("--nodes", 4)?;
    let workers = run.given.value("--workers", 4)?;
    // The fleet budget scales with the fleet: a 90 W share per node, so
    // any node count stays admissible (floor is 40 W).
    let cfg = service::ServiceConfig {
        nodes,
        workers,
        fleet_budget: powersim::Watts(90.0) * nodes as f64,
        study: run.fidelity.study_config(),
        ..service::ServiceConfig::default()
    };
    // Building the service validates the fleet: a bad one fails here,
    // before the header.
    let mut svc = service::StudyService::new(cfg).map_err(|e| e.to_string())?;
    let cfg = svc.config();
    let sizes: &[usize] = if run.quick() { &[8, 12] } else { &[16, 32] };
    let caps = [120.0, 80.0, 40.0].map(powersim::Watts);
    println!(
        "== Study service: {requests} zipf({zipf_s}) requests over {nodes} nodes at {sizes:?}³ =="
    );
    let universe = service::universe(&cfg.study, sizes, &caps);
    let traffic = service::zipf_traffic(
        &universe,
        service::TrafficConfig {
            requests,
            zipf_s,
            seed: cfg.seed,
        },
    );
    let out = svc
        .serve(&traffic, &mut run.ctx.journal)
        .map_err(|e| e.to_string())?;
    println!("{}", out.report.render());
    Ok(())
}

/// The shipped action file, run the way Ascent runs one: CloverLeaf on a
/// 32³ grid for 40 steps with a visualization cycle every 10 (`--quick`:
/// 8³, 8 steps, every 4). Each cycle's images and the final state (VTK)
/// go to `--out`.
fn insitu(run: &mut Run) -> Outcome {
    let actions_path = run
        .given
        .raw("--actions")
        .unwrap_or("examples/ascent_actions.json");
    let out = run.given.out_dir();
    let (cells, steps, every) = if run.quick() { (8, 8, 4) } else { (32, 40, 10) };
    let json = std::fs::read_to_string(actions_path)
        .map_err(|e| format!("cannot read {actions_path}: {e}"))?;
    let actions = ActionList::from_json(&json)
        .map_err(|e| format!("invalid actions file {actions_path}: {e}"))?;
    println!(
        "== In situ: {} pipelines, {} scenes, {cells}³ cells, {steps} steps, viz every {every} ==",
        actions.pipelines().count(),
        actions.scenes().count(),
    );
    let config = RuntimeConfig {
        grid_cells: cells,
        total_steps: steps,
        trigger: Trigger::EveryN { n: every },
    };
    let mut runtime = InSituRuntime::new(cloverleaf::Problem::TwoState, config, actions);
    for scene in &mut runtime.scenes {
        scene.with_output_dir(out);
    }
    let coupled = runtime
        .run_journaled(&mut run.ctx.journal)
        .map_err(|e| format!("cannot write scene images: {e}"))?;
    for cycle in &coupled.cycles {
        println!(
            "  cycle @ step {:>4}: {} viz kernels, {} images",
            cycle.step,
            cycle.viz_kernels.len(),
            cycle.images.len()
        );
    }
    let path = out.join(format!("state_{:04}.vtk", runtime.sim.step_count()));
    vizmesh::save_vtk(&path, &runtime.sim.dataset(), "cloverleaf state")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  wrote {}", path.display());
    println!(
        "done: {} cycles, outputs in {}",
        coupled.cycles.len(),
        out.display()
    );
    Ok(())
}

/// `--zipf`: the traffic's Zipf exponent, which must be finite — a NaN
/// or infinite one draws every request from a single key.
fn zipf_exponent(given: &Given) -> Result<f64, String> {
    let s: f64 = given.value("--zipf", 1.1)?;
    if !s.is_finite() {
        return Err(usage(&format!("--zipf: '{s}' is not a finite exponent")));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_of(line: &str) -> Result<&'static str, String> {
        plan(line.split_whitespace().map(String::from)).map(|(verb, _)| verb.name)
    }

    #[test]
    fn every_verb_accepts_its_own_flags_and_the_common_ones() {
        for verb in &VERBS {
            let mut line = format!("{} --quick --journal j --trace t", verb.name);
            for flag in verb.flags {
                assert!(FLAGS.iter().any(|f| f.0 == *flag), "{flag} not in FLAGS");
                line.push_str(&format!(" {flag} 1"));
            }
            assert_eq!(plan_of(&line), Ok(verb.name));
        }
        assert_eq!(VERBS[1].name, "table1", "`all` runs rows 1..15");
        assert_eq!(VERBS[14].name, "ablation", "`all` runs rows 1..15");
    }

    #[test]
    fn backend_applies_to_study_verbs_and_conformance_only() {
        for target in ["governor", "serve", "advect", "all", "arch", "ablation"] {
            let err = plan_of(&format!("{target} --backend dpp")).unwrap_err();
            let head = format!("--backend does not apply to '{target}', only to: table1, ");
            assert!(err.starts_with(&head), "{err}");
            assert!(err.contains("energy, conformance\nusage:"), "{err}");
        }
        assert_eq!(plan_of("fig2b --quick --backend dpp"), Ok("fig2b"));
        let err = plan_of("table2 --workers 2").unwrap_err();
        assert!(err.starts_with("--workers does not apply to 'table2', only to: serve\n"));
    }

    #[test]
    fn retired_bench_verb_and_flags_are_unknown() {
        let err = plan_of("bench --quick").unwrap_err();
        assert!(err.starts_with("unknown target 'bench'\nusage: reproduce <all|table1|"));
        assert!(err.contains("|serve|insitu> [--quick]"), "{err}");
        assert!(err.ends_with("[--out <DIR>]"), "{err}");
        let err = plan_of("table1 --algo x").unwrap_err();
        assert!(err.starts_with("unknown flag '--algo'"), "{err}");
        let err = plan_of("table1 --out x").unwrap_err();
        assert!(err.starts_with("--out does not apply to 'table1', only to: insitu\n"));
    }

    #[test]
    fn values_are_required_and_typed() {
        let err = plan_of("serve --requests").unwrap_err();
        assert!(err.starts_with("--requests needs <K>"), "{err}");
        assert!(plan_of("").unwrap_err().starts_with("missing target"));
        let err = plan_of("fig6 table1 --quick").unwrap_err();
        assert!(
            err.starts_with("unexpected argument 'table1'\nusage:"),
            "{err}"
        );
        let (_, given) = plan(["serve", "--zipf", "x", "--nodes", "3"].map(String::from)).unwrap();
        assert_eq!(given.value("--nodes", 4usize).unwrap(), 3);
        assert_eq!(given.value("--workers", 4usize).unwrap(), 4);
        let err = given.value("--zipf", 1.1).unwrap_err().to_string();
        assert!(err.starts_with("--zipf: cannot read 'x'"), "{err}");
    }

    #[test]
    fn zipf_exponent_must_be_finite() {
        let zipf = |value: &str| {
            let (_, given) = plan(["serve", "--zipf", value].map(String::from)).unwrap();
            zipf_exponent(&given)
        };
        for (value, shown) in [("NaN", "NaN"), ("inf", "inf"), ("-infinity", "-inf")] {
            let err = zipf(value).unwrap_err();
            let head = format!("--zipf: '{shown}' is not a finite exponent\nusage:");
            assert!(err.starts_with(&head), "{err}");
        }
        assert_eq!(zipf("0"), Ok(0.0));
        let (_, given) = plan(["serve".to_string()]).unwrap();
        assert_eq!(zipf_exponent(&given).unwrap(), 1.1);
    }

    #[test]
    fn paper_fidelity_matches_study_constants() {
        assert_eq!(Fidelity::Paper.sizes(), vec![32, 64, 128, 256]);
        assert_eq!(Fidelity::Paper.table2_size(), 128);
        assert_eq!(Fidelity::Paper.table3_size(), 256);
        assert_eq!(Fidelity::Paper.study_config().cameras, 50);
        assert_eq!(Fidelity::Paper.study_config().isovalues, 10);
    }

    #[test]
    fn quick_fidelity_preserves_structure() {
        let q = Fidelity::Quick;
        assert_eq!(q.sizes().len(), 4);
        assert!(q.table3_size() > q.table2_size());
        assert_eq!(q.study_config().caps.len(), 9);
    }

    #[test]
    fn parse_backends_accepts_aliases_and_both() {
        assert_eq!(parse_backends("dpp").unwrap(), vec![Backend::Dpp]);
        assert_eq!(
            parse_backends("traditional").unwrap(),
            vec![Backend::Traditional]
        );
        assert_eq!(parse_backends("BOTH").unwrap(), Backend::ALL.to_vec());
        let err = parse_backends("gpu").unwrap_err().to_string();
        assert!(err.contains("unknown backend 'gpu'"), "{err}");
        assert!(err.contains("'traditional', 'dpp', or 'both'"), "{err}");
    }
}
