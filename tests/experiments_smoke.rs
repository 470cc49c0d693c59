//! Smoke tests of the full reproduction harness: every table and figure
//! regenerates (at reduced scale) with well-formed output.

use vizalgo::Algorithm;
use vizpower::experiments::{self, FigMetric};
use vizpower::report;
use vizpower::study::{StudyConfig, StudyContext, PAPER_CAPS};

fn ctx() -> StudyContext {
    StudyContext::new(StudyConfig {
        caps: PAPER_CAPS.to_vec(),
        isovalues: 3,
        render_px: 12,
        cameras: 2,
        particles: 25,
        advect_steps: 30,
    })
}

#[test]
fn table1_regenerates_with_nine_rows() {
    let mut ctx = ctx();
    let sweep = experiments::table1(&mut ctx, 10);
    assert_eq!(sweep.rows.len(), 9);
    let text = report::render_table1(&sweep);
    for cap in ["120W", "80W", "40W"] {
        assert!(text.contains(cap), "missing {cap} in:\n{text}");
    }
}

#[test]
fn tables_2_and_3_regenerate_for_all_algorithms() {
    let mut ctx = ctx();
    let t2 = experiments::slowdown_table(&mut ctx, 8);
    let t3 = experiments::slowdown_table(&mut ctx, 12);
    assert_eq!(t2.len(), 8);
    assert_eq!(t3.len(), 8);
    let text = report::render_slowdown_table(&t2);
    for a in Algorithm::ALL {
        assert!(text.contains(a.name()), "missing {a} in table");
    }
}

#[test]
fn all_three_fig2_metrics_regenerate() {
    let mut ctx = ctx();
    for metric in [
        FigMetric::EffectiveFrequency,
        FigMetric::Ipc,
        FigMetric::LlcMissRate,
    ] {
        let series = experiments::fig2(&mut ctx, 8, metric);
        assert_eq!(series.len(), 8);
        for s in &series {
            assert_eq!(s.points.len(), 9);
            assert!(s.points.iter().all(|&(cap, v)| cap >= 40.0 && v >= 0.0));
        }
    }
}

#[test]
fn fig3_rates_are_finite_and_positive() {
    let mut ctx = ctx();
    let series = experiments::fig3(&mut ctx, 8);
    assert_eq!(series.len(), 5);
    for s in &series {
        for &(_, rate) in &s.points {
            assert!(rate.is_finite() && rate > 0.0);
        }
    }
    let text = report::render_series("Fig 3", &series);
    assert!(text.contains("Fig 3"));
}

#[test]
fn size_figures_regenerate_per_size_series() {
    let mut ctx = ctx();
    for algorithm in [
        Algorithm::Slice,
        Algorithm::VolumeRendering,
        Algorithm::ParticleAdvection,
    ] {
        let series = experiments::fig_size_ipc(&mut ctx, algorithm, &[8, 10]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].points.len(), 9);
    }
}

#[test]
fn reproduction_is_deterministic() {
    let run = || {
        let mut ctx = ctx();
        let sweep = experiments::table1(&mut ctx, 8);
        sweep
            .rows
            .iter()
            .map(|r| (r.seconds, r.energy_joules))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn summaries_name_all_algorithms() {
    let mut ctx = ctx();
    for sweep in experiments::slowdown_table(&mut ctx, 8) {
        let line = report::summarize(&sweep);
        assert!(line.contains(sweep.algorithm.name()));
        assert!(line.contains("Tratio(40W)"));
    }
}
