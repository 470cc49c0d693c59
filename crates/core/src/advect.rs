//! Extension: the time-varying advection scenario sweep.
//!
//! The paper's particle-advection workload is steady-state: one frozen
//! velocity snapshot, streamlines only (§IV). This module runs the
//! time-varying generalization end to end — the hydro driver records a
//! bounded [`FieldSeries`] ring past step 200, and each cell of a
//! scenario matrix (flow mode × seeding × step control × termination)
//! executes against that series, is characterized like any study
//! workload, and lands in the journal as one [`Kind::FlowScenario`]
//! record keyed by the scenario'd spec fingerprint and the series
//! fingerprint.
//!
//! The sweep is the `reproduce advect [--quick]` target; the root
//! integration test `tests/advect_golden.rs` pins its journal to be
//! byte-identical across `par` thread counts and its matrix to cover at
//! least two seedings × two terminations × both flow modes.

use crate::characterize::characterize;
use cloverleaf::{Problem, SimConfig, Simulation};
use powersim::trace::{Journal, Kind, Scope, Value};
use powersim::{CpuSpec, Joules, Package, Watts};
use vizalgo::{
    Algorithm, AlgorithmSpec, FlowMode, FlowScenario, Seeding, StepControl, Termination,
};
use vizmesh::FieldSeries;

/// Power cap every scenario's characterized workload executes under.
const CAP: Watts = Watts(80.0);

/// Tunable parameters of one advection scenario sweep. Every scenario's
/// spec is the paper-default advection spec (its step fraction and seed)
/// with this config's particle and step counts.
#[derive(Debug, Clone)]
pub struct AdvectConfig {
    /// Hydro grid cells per axis.
    pub hydro_n: usize,
    /// Hydro steps to run (past the paper's cycle-200 snapshot point).
    pub hydro_steps: u64,
    /// Record a snapshot into the ring every this many steps.
    pub(crate) record_every: u64,
    /// Snapshot ring capacity (the retained sliding window).
    pub ring_capacity: usize,
    /// Particles seeded per scenario.
    pub(crate) particles: usize,
    /// Integration step budget per particle.
    pub(crate) steps: usize,
    /// The scenario matrix, one sweep row per entry.
    pub(crate) scenarios: Vec<FlowScenario>,
}

impl AdvectConfig {
    /// Full-fidelity sweep: 12³ hydro, 260 steps, 12 scenario cells.
    pub fn full() -> Self {
        AdvectConfig {
            hydro_n: 12,
            hydro_steps: 260,
            record_every: 20,
            ring_capacity: 8,
            particles: 200,
            steps: 150,
            scenarios: scenario_matrix(false),
        }
    }

    /// Scaled-down sweep for smoke runs and the golden test: the hydro
    /// still runs past step 200 (the ring must demonstrably evict), but
    /// grid, particle, and step counts shrink.
    pub fn quick() -> Self {
        AdvectConfig {
            hydro_n: 6,
            hydro_steps: 220,
            record_every: 20,
            ring_capacity: 6,
            particles: 32,
            steps: 48,
            scenarios: scenario_matrix(true),
        }
    }
}

/// The scenario matrix: both flow modes × {dense-box, sparse-grid}
/// seeding × {max-steps, exit-domain} termination under fixed stepping
/// (the 8-cell core the golden test pins), plus one richer cell per
/// mode exercising along-feature seeding, adaptive step control, and
/// the max-time horizon. Full runs add a tight-tolerance adaptive cell
/// per mode.
pub(crate) fn scenario_matrix(quick: bool) -> Vec<FlowScenario> {
    let mut rows = Vec::new();
    for mode in [FlowMode::Streamline, FlowMode::Pathline] {
        for seeding in [Seeding::DenseBox, Seeding::SparseGrid] {
            for termination in [Termination::MaxSteps, Termination::ExitDomain] {
                rows.push(FlowScenario {
                    mode,
                    seeding,
                    step_control: StepControl::Fixed,
                    termination,
                });
            }
        }
        rows.push(FlowScenario {
            mode,
            seeding: Seeding::AlongFeature,
            step_control: StepControl::Adaptive { tol: 1e-4 },
            termination: Termination::MaxTime { t_end: 0.02 },
        });
        if !quick {
            rows.push(FlowScenario {
                mode,
                seeding: Seeding::AlongFeature,
                step_control: StepControl::Adaptive { tol: 1e-5 },
                termination: Termination::MaxSteps,
            });
        }
    }
    rows
}

/// One executed scenario cell.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// The scenario this row ran.
    pub scenario: FlowScenario,
    /// Fingerprint of the scenario'd advection spec.
    pub spec_fp: u64,
    /// Fingerprint of the series the row executed against.
    pub data_fp: u64,
    /// Polylines produced.
    pub lines: usize,
    /// Polyline points produced.
    pub points: usize,
    /// Modeled execution time at the sweep cap.
    pub(crate) seconds: f64,
    /// Modeled energy at the sweep cap.
    pub(crate) joules: Joules,
}

/// The sweep's result: the recorded window plus one row per scenario.
#[derive(Debug, Clone)]
pub struct AdvectReport {
    /// Snapshots retained in the ring when the sweep ran.
    pub snapshots: usize,
    /// Snapshots the ring evicted while recording.
    pub evicted: u64,
    /// `[first, last]` times of the retained window.
    pub span: (f64, f64),
    /// One row per scenario, in matrix order.
    pub rows: Vec<ScenarioRow>,
}

/// Run the hydro, record the snapshot ring, and execute every scenario
/// cell against it. Journals (when enabled) the hydro timesteps, one
/// `advect:hydro:{n}` study span, the characterized execution of each
/// cell, and one [`Kind::FlowScenario`] record per row.
pub fn run_sweep(cfg: &AdvectConfig, journal: &mut Journal) -> AdvectReport {
    let t0 = journal.now();
    let mut series = FieldSeries::with_capacity(cfg.ring_capacity);
    let mut sim = Simulation::new(Problem::TwoState, cfg.hydro_n, SimConfig::default());
    sim.run_steps_recording(cfg.hydro_steps, cfg.record_every, &mut series, journal);
    journal.push_span(Scope::Study, t0, None, || {
        let args = vec![
            ("steps", sim.step_count() as f64),
            ("snapshots", series.len() as f64),
            ("evicted", series.evicted() as f64),
        ];
        (format!("advect:hydro:{}", cfg.hydro_n), args)
    });

    let data_fp = vizalgo::series_fingerprint(&series);
    let span = series.span().unwrap_or((0.0, 0.0));
    let snapshots = series.len();
    let evicted = series.evicted();

    let cpu = CpuSpec::broadwell_e5_2695v4();
    let rows = cfg
        .scenarios
        .iter()
        .map(|&scenario| {
            let mut spec = Algorithm::ParticleAdvection.default_spec();
            if let AlgorithmSpec::ParticleAdvection {
                particles,
                steps,
                scenario: s,
                ..
            } = &mut spec
            {
                (*particles, *steps, *s) = (cfg.particles, cfg.steps, scenario);
            }
            let spec_fp = spec.fingerprint();
            let kernel = spec
                .build_flow()
                // Infallible: the spec above is always advection.
                .expect("advection spec builds a flow kernel");
            let out = kernel.execute_series(&series);
            let lines = out.dataset.as_ref().map_or(0, |d| d.num_cells());
            let points = out.dataset.as_ref().map_or(0, |d| d.num_points());
            let workload = characterize("advect-scenario", &out.kernels, &cpu);
            let mut pkg = Package::new(cpu.clone());
            let exec = pkg.run_capped(&workload, CAP, journal);
            journal.push_record(Kind::FlowScenario, journal.now(), || {
                vec![
                    ("name", Value::Str(format!("scenario:{}", scenario.label()))),
                    ("spec_fp", (spec_fp as f64).into()),
                    ("data_fp", (data_fp as f64).into()),
                    ("snapshots", (snapshots as f64).into()),
                    ("particles", (cfg.particles as f64).into()),
                    ("lines", (lines as f64).into()),
                    ("points", (points as f64).into()),
                    ("seconds", exec.seconds.into()),
                    ("joules", exec.energy_joules.into()),
                ]
            });
            ScenarioRow {
                scenario,
                spec_fp,
                data_fp,
                lines,
                points,
                seconds: exec.seconds,
                joules: exec.energy_joules,
            }
        })
        .collect();

    AdvectReport {
        snapshots,
        evicted,
        span,
        rows,
    }
}

/// Paper-style table of the sweep: one line per scenario cell.
pub fn render_table(report: &AdvectReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "series: {} snapshots retained ({} evicted), t = [{:.4}, {:.4}]\n",
        report.snapshots, report.evicted, report.span.0, report.span.1
    ));
    out.push_str(&format!(
        "{:<44} {:>6} {:>8} {:>9} {:>9}  {}\n",
        "scenario", "lines", "points", "seconds", "joules", "spec_fp"
    ));
    for row in &report.rows {
        out.push_str(&format!(
            "{:<44} {:>6} {:>8} {:>9.4} {:>9.2}  {:012x}\n",
            row.scenario.label(),
            row.lines,
            row.points,
            row.seconds,
            row.joules.value(),
            row.spec_fp
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AdvectConfig {
        AdvectConfig {
            hydro_n: 6,
            hydro_steps: 30,
            record_every: 10,
            ring_capacity: 4,
            particles: 8,
            steps: 12,
            scenarios: scenario_matrix(true),
        }
    }

    #[test]
    fn matrix_covers_the_required_axes() {
        for quick in [true, false] {
            let rows = scenario_matrix(quick);
            let modes: std::collections::BTreeSet<_> =
                rows.iter().map(|s| s.mode.wire_name()).collect();
            let seedings: std::collections::BTreeSet<_> =
                rows.iter().map(|s| s.seeding.wire_name()).collect();
            let terms: std::collections::BTreeSet<_> =
                rows.iter().map(|s| s.termination.wire_name()).collect();
            assert_eq!(modes.len(), 2, "both flow modes");
            assert!(seedings.len() >= 2, "at least two seedings");
            assert!(terms.len() >= 2, "at least two terminations");
        }
        assert_eq!(scenario_matrix(true).len(), 10);
        assert_eq!(scenario_matrix(false).len(), 12);
    }

    #[test]
    fn sweep_rows_are_distinctly_fingerprinted_over_one_window() {
        let cfg = tiny();
        let report = run_sweep(&cfg, &mut Journal::off());
        assert_eq!(report.rows.len(), cfg.scenarios.len());
        assert!(report.snapshots >= 2, "ring retained a real window");
        let fps: std::collections::BTreeSet<u64> = report.rows.iter().map(|r| r.spec_fp).collect();
        assert_eq!(fps.len(), report.rows.len(), "spec_fp is per-scenario");
        assert!(
            report
                .rows
                .iter()
                .all(|r| r.data_fp == report.rows[0].data_fp),
            "every row executed against the same window"
        );
        for row in &report.rows {
            assert!(row.lines > 0 && row.points > 0, "{}", row.scenario.label());
            assert!(row.seconds > 0.0 && row.joules.value() > 0.0);
        }
    }

    #[test]
    fn flow_scenario_jsonl_shape_is_exact() {
        let mut journal = Journal::with_capacity(1 << 14);
        let report = run_sweep(&tiny(), &mut journal);
        let jsonl = journal.to_jsonl();
        let lines: Vec<&str> = (jsonl.lines())
            .filter_map(|l| l.find("\"ev\":\"flow_scenario\"").map(|at| &l[at..]))
            .collect();
        assert_eq!(lines.len(), report.rows.len(), "one record per sweep row");
        let (row, record) = (&report.rows[0], journal.records(Kind::FlowScenario).next());
        assert_eq!(
            lines[0],
            format!(
                "\"ev\":\"flow_scenario\",\"t\":{},\"name\":\"scenario:{}\",\"spec_fp\":{},\
                 \"data_fp\":{},\"snapshots\":{},\"particles\":8,\"lines\":{},\"points\":{},\
                 \"seconds\":{},\"joules\":{}}}",
                record.expect("one record per row").t,
                row.scenario.label(),
                row.spec_fp,
                row.data_fp,
                report.snapshots,
                row.lines,
                row.points,
                row.seconds,
                row.joules.value()
            )
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let run = || {
            let mut journal = Journal::with_capacity(1 << 14);
            run_sweep(&tiny(), &mut journal);
            journal.to_jsonl()
        };
        assert_eq!(run(), run());
    }
}
