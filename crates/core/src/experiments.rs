//! One entry point per table/figure of the paper's evaluation.
//!
//! Every function takes the caching [`StudyContext`] plus the data-set
//! size(s) to use, so the reproduction harness can run paper-scale sizes
//! while the test-suite runs scaled-down ones — the *structure* of each
//! experiment (which algorithms, which caps, which metric) is identical.
//!
//! The context's backend decides which kernel formulation runs. An
//! experiment over "all algorithms" covers the ones that backend
//! formulates, so the same table on a [`vizalgo::Backend::Dpp`] context
//! has four rows and a single-algorithm figure of an unformulated
//! algorithm has no series.

use crate::efficiency;
use crate::study::{CapSweep, StudyContext};
use powersim::trace::Scope;
use powersim::{ExecResult, Joules};
use vizalgo::Algorithm;

/// A plottable series: one labelled line of (power cap, value) points.
#[derive(Debug, Clone)]
pub struct FigSeries {
    pub(crate) label: String,
    pub points: Vec<(f64, f64)>,
}

/// Which per-sample metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigMetric {
    /// Fig. 2a: effective frequency (GHz).
    EffectiveFrequency,
    /// Fig. 2b: instructions per cycle.
    Ipc,
    /// Fig. 2c: last-level-cache miss rate.
    LlcMissRate,
}

impl FigMetric {
    fn extract(&self, row: &ExecResult) -> f64 {
        match self {
            FigMetric::EffectiveFrequency => row.avg_effective_freq_ghz,
            FigMetric::Ipc => row.avg_ipc,
            FigMetric::LlcMissRate => row.avg_llc_miss_rate,
        }
    }

    /// Stable name for journal span labels and report headers.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FigMetric::EffectiveFrequency => "effective_frequency",
            FigMetric::Ipc => "ipc",
            FigMetric::LlcMissRate => "llc_miss_rate",
        }
    }
}

/// Close an experiment-phase span whose joules roll up every row of the
/// sweeps the phase executed.
fn emit_phase(ctx: &mut StudyContext, name: std::fmt::Arguments, t0: f64, sweeps: &[CapSweep]) {
    let rows = sweeps.iter().flat_map(|s| s.rows.iter());
    let joules: Joules = rows.map(|r| r.energy_joules).sum();
    ctx.journal.push_span(Scope::Study, t0, Some(joules), || {
        (name.to_string(), vec![("sweeps", sweeps.len() as f64)])
    });
}

/// **Table I** — Phase 1: the contour baseline across the cap sweep.
pub fn table1(ctx: &mut StudyContext, size: usize) -> CapSweep {
    let t0 = ctx.journal.now();
    let sweep = ctx.sweep(Algorithm::Contour, size);
    emit_phase(
        ctx,
        format_args!("table1:{size}"),
        t0,
        std::slice::from_ref(&sweep),
    );
    sweep
}

/// **Table II / Table III** — Phases 2 and 3: every algorithm at one
/// data-set size (128³ for Table II, 256³ for Table III).
pub fn slowdown_table(ctx: &mut StudyContext, size: usize) -> Vec<CapSweep> {
    let t0 = ctx.journal.now();
    let sweeps = ctx.sweep_supported(&Algorithm::ALL, size);
    emit_phase(ctx, format_args!("slowdown_table:{size}"), t0, &sweeps);
    sweeps
}

/// One figure line: `value` of each of `sweep`'s rows against its cap.
fn series(label: impl ToString, sweep: &CapSweep, value: impl Fn(&ExecResult) -> f64) -> FigSeries {
    let points = sweep.rows.iter().map(|r| (r.cap_watts.value(), value(r)));
    FigSeries {
        label: label.to_string(),
        points: points.collect(),
    }
}

/// **Fig. 2a/2b/2c** — the chosen metric vs power cap for all algorithms
/// at one size.
pub fn fig2(ctx: &mut StudyContext, size: usize, metric: FigMetric) -> Vec<FigSeries> {
    let t0 = ctx.journal.now();
    let sweeps = ctx.sweep_supported(&Algorithm::ALL, size);
    emit_phase(
        ctx,
        format_args!("fig2:{}:{size}", metric.name()),
        t0,
        &sweeps,
    );
    sweeps
        .iter()
        .map(|sweep| series(sweep.algorithm.name(), sweep, |r| metric.extract(r)))
        .collect()
}

/// **Fig. 3** — elements (millions) per second for the cell-centered
/// algorithms.
pub fn fig3(ctx: &mut StudyContext, size: usize) -> Vec<FigSeries> {
    let t0 = ctx.journal.now();
    let sweeps = ctx.sweep_supported(&Algorithm::CELL_CENTERED, size);
    emit_phase(ctx, format_args!("fig3:{size}"), t0, &sweeps);
    let rate = |sweep: &CapSweep| {
        series(sweep.algorithm.name(), sweep, |r| {
            efficiency::rate(sweep.input_cells, r.seconds)
        })
    };
    sweeps.iter().map(rate).collect()
}

/// **Figs. 4/5/6** — IPC vs cap across data-set sizes for one algorithm
/// (slice: rises with size; volume rendering: falls; advection: flat).
pub fn fig_size_ipc(
    ctx: &mut StudyContext,
    algorithm: Algorithm,
    sizes: &[usize],
) -> Vec<FigSeries> {
    let t0 = ctx.journal.now();
    let sweeps: Vec<CapSweep> = sizes
        .iter()
        .flat_map(|&n| ctx.sweep_supported(&[algorithm], n))
        .collect();
    emit_phase(
        ctx,
        format_args!("fig_size:{}", algorithm.name()),
        t0,
        &sweeps,
    );
    sweeps
        .iter()
        .map(|sweep| series(sweep.size, sweep, |r| r.avg_ipc))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use powersim::Watts;

    fn ctx() -> StudyContext {
        StudyContext::new(StudyConfig {
            caps: vec![Watts(120.0), Watts(70.0), Watts(40.0)],
            isovalues: 3,
            render_px: 10,
            cameras: 2,
            particles: 15,
            advect_steps: 25,
        })
    }

    #[test]
    fn table1_has_one_row_per_cap() {
        let mut ctx = ctx();
        let t = table1(&mut ctx, 10);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.algorithm, Algorithm::Contour);
    }

    #[test]
    fn slowdown_table_covers_all_algorithms() {
        let mut ctx = ctx();
        let t = slowdown_table(&mut ctx, 8);
        assert_eq!(t.len(), 8);
        for sweep in &t {
            assert_eq!(sweep.rows.len(), 3);
        }
    }

    #[test]
    fn dpp_context_covers_exactly_the_formulated_algorithms() {
        use vizalgo::Backend;
        let mut ctx = StudyContext::with_backend(ctx().config().clone(), Backend::Dpp);
        let rows: Vec<Algorithm> = slowdown_table(&mut ctx, 8)
            .iter()
            .map(|s| s.algorithm)
            .collect();
        assert_eq!(
            rows,
            [
                Algorithm::Contour,
                Algorithm::Threshold,
                Algorithm::Isovolume,
                Algorithm::Slice
            ]
        );
        assert_eq!(fig2(&mut ctx, 8, FigMetric::Ipc).len(), 4);
        assert_eq!(fig3(&mut ctx, 8).len(), 4, "spherical clip is skipped");
        assert!(fig_size_ipc(&mut ctx, Algorithm::VolumeRendering, &[8]).is_empty());
    }

    #[test]
    fn fig2_metrics_are_positive_and_distinct() {
        let mut ctx = ctx();
        let freq = fig2(&mut ctx, 8, FigMetric::EffectiveFrequency);
        let ipc = fig2(&mut ctx, 8, FigMetric::Ipc);
        assert_eq!(freq.len(), 8);
        for s in &freq {
            // Counter rounding in short runs can nudge the APERF/MPERF
            // ratio a hair past turbo.
            assert!(s.points.iter().all(|&(_, v)| v > 0.5 && v <= 2.61));
        }
        for s in &ipc {
            assert!(s.points.iter().all(|&(_, v)| v > 0.0));
        }
    }

    #[test]
    fn fig3_covers_cell_centered_only() {
        let mut ctx = ctx();
        let series = fig3(&mut ctx, 8);
        assert_eq!(series.len(), 5);
        for s in &series {
            assert!(s.points.iter().all(|&(_, v)| v > 0.0));
        }
    }

    #[test]
    fn experiment_phases_emit_rollup_spans() {
        use powersim::trace::{Event, Scope};
        let mut ctx = ctx();
        ctx.enable_journal(1 << 16);
        let t = table1(&mut ctx, 8);
        let total: Joules = t.rows.iter().map(|r| r.energy_joules).sum();
        let phase = ctx
            .journal
            .events()
            .find_map(|e| match e {
                Event::Span(s) if s.scope == Scope::Study && s.name == "table1:8" => Some(s),
                _ => None,
            })
            .expect("table1 phase span present");
        assert_eq!(phase.joules, Some(total));
    }

    #[test]
    fn fig_size_ipc_one_series_per_size() {
        let mut ctx = ctx();
        let series = fig_size_ipc(&mut ctx, Algorithm::ParticleAdvection, &[8, 12]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "8");
        assert_eq!(series[1].label, "12");
    }
}
