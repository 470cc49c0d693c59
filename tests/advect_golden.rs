//! Golden determinism and coverage tests for the advection scenario
//! sweep (`reproduce advect --quick`): the journal must serialize
//! byte-identically across thread counts, every line must carry
//! the v8 schema, and the sweep report must pin the scenario matrix —
//! at least two seedings × two terminations × both flow modes.

use std::collections::BTreeSet;

use powersim::trace::{Journal, Kind};
use vizmesh::{json, par};
use vizpower::advect::{self, AdvectConfig, AdvectReport};

/// Run the quick sweep under a `par::with_threads(num_threads)`.
fn sweep(threads: usize) -> (String, AdvectReport) {
    par::with_threads(threads, || {
        let mut journal = Journal::with_capacity(1 << 16);
        let report = advect::run_sweep(&AdvectConfig::quick(), &mut journal);
        assert_eq!(journal.dropped(), 0, "golden run must not drop events");
        (journal.to_jsonl(), report)
    })
}

#[test]
fn advect_journal_is_byte_identical_across_thread_counts() {
    let (first, _) = sweep(1);
    assert!(!first.is_empty());
    assert_eq!(first, sweep(4).0, "4 threads must match byte-for-byte");
    assert_eq!(first, sweep(16).0, "16 threads must match byte-for-byte");
}

#[test]
fn every_line_is_v8_and_scenario_spans_are_zero_width() {
    let (journal, report) = par::with_threads(2, || {
        let mut journal = Journal::with_capacity(1 << 16);
        let report = advect::run_sweep(&AdvectConfig::quick(), &mut journal);
        (journal, report)
    });
    for line in journal.to_jsonl().lines() {
        let v = json::parse(line).expect("valid JSON line");
        assert_eq!(v["v"], 10, "schema version on every line: {line}");
    }
    let scenarios: Vec<_> = journal.records(Kind::FlowScenario).collect();
    assert_eq!(
        scenarios.len(),
        report.rows.len(),
        "one flow_scenario record per sweep row"
    );
    for (record, row) in scenarios.iter().zip(&report.rows) {
        let name = format!("scenario:{}", row.scenario.label());
        assert_eq!(record.str("name"), Some(name.as_str()));
        assert_eq!(record.num("spec_fp"), Some(row.spec_fp as f64));
        assert_eq!(record.num("data_fp"), Some(row.data_fp as f64));
        assert_eq!(record.num("lines"), Some(row.lines as f64));
        assert_eq!(record.num("points"), Some(row.points as f64));
    }
}

#[test]
fn sweep_report_pins_the_scenario_matrix() {
    let (_, report) = sweep(2);
    // The hydro ran past step 200 with a bounded ring: it must have
    // both retained a multi-snapshot window and evicted older ones.
    assert!(report.snapshots >= 2);
    assert!(report.evicted > 0, "ring must have evicted past capacity");
    assert!(report.span.1 > report.span.0);
    // Matrix coverage: ≥ 2 seedings × ≥ 2 terminations × both modes.
    let modes: BTreeSet<_> = report
        .rows
        .iter()
        .map(|r| r.scenario.mode.wire_name())
        .collect();
    let seedings: BTreeSet<_> = report
        .rows
        .iter()
        .map(|r| r.scenario.seeding.wire_name())
        .collect();
    let terms: BTreeSet<_> = report
        .rows
        .iter()
        .map(|r| r.scenario.termination.wire_name())
        .collect();
    assert_eq!(modes.len(), 2, "both flow modes present");
    assert!(seedings.len() >= 2, "at least two seedings: {seedings:?}");
    assert!(terms.len() >= 2, "at least two terminations: {terms:?}");
    // Every cell keys distinctly on spec_fp and shares the window's
    // data_fp — the invariants the service cache relies on.
    let fps: BTreeSet<u64> = report.rows.iter().map(|r| r.spec_fp).collect();
    assert_eq!(fps.len(), report.rows.len());
    assert!(report
        .rows
        .iter()
        .all(|r| r.data_fp == report.rows[0].data_fp));
    for row in &report.rows {
        assert!(row.lines > 0, "{} produced no lines", row.scenario.label());
        assert!(row.points >= 2 * row.lines, "degenerate polylines");
    }
}
