//! Golden determinism tests for the run journal: a fixed-configuration
//! 32³ contour sweep must serialize byte-identically across repeated
//! runs and across thread counts, every JSONL line must be valid
//! JSON, and the span energy rollup must be exact (see
//! docs/OBSERVABILITY.md for the contract).

use powersim::trace::{Event, Scope};
use powersim::{Joules, Watts};
use vizalgo::Algorithm;
use vizmesh::{json, par};
use vizpower::study::{StudyConfig, StudyContext};

fn config() -> StudyConfig {
    StudyConfig {
        caps: vec![Watts(120.0), Watts(40.0)],
        isovalues: 3,
        render_px: 10,
        cameras: 2,
        particles: 15,
        advect_steps: 25,
    }
}

/// Run the 32³ contour sweep under a `par::with_threads(num_threads)`
/// and return the serialized journal.
fn journal_jsonl(threads: usize) -> String {
    par::with_threads(threads, || {
        let mut ctx = StudyContext::new(config());
        ctx.enable_journal(1 << 16);
        let _ = ctx.sweep(Algorithm::Contour, 32);
        assert_eq!(ctx.journal.dropped(), 0, "golden run must not drop events");
        ctx.journal.to_jsonl()
    })
}

#[test]
fn journal_is_byte_identical_across_runs_and_thread_counts() {
    let first = journal_jsonl(1);
    assert!(!first.is_empty());
    assert_eq!(
        first,
        journal_jsonl(1),
        "repeat run must match byte-for-byte"
    );
    assert_eq!(
        first,
        journal_jsonl(4),
        "thread count must not change the journal"
    );
    // An absolute pin: a power-model change that moves any number moves
    // this, even when every run still agrees with every other.
    assert_eq!(vizalgo::fingerprint48(first.as_bytes()), 0x8543_7230_e582);
}

#[test]
fn every_jsonl_line_is_valid_versioned_json() {
    let jsonl = journal_jsonl(2);
    let mut lines = 0;
    for line in jsonl.lines() {
        let v = json::parse(line).expect("valid JSON line");
        assert_eq!(v["v"], 10, "schema version on every line: {line}");
        assert_eq!(v["seq"], lines, "dense sequence numbers: {line}");
        assert!(
            v["ev"].as_str().is_some(),
            "event kind on every line: {line}"
        );
        lines += 1;
    }
    assert!(lines > 0);
}

#[test]
fn kernel_spans_sum_exactly_to_their_workload_and_sweep_rows() {
    let (journal, sweep) = par::with_threads(2, || {
        let mut ctx = StudyContext::new(config());
        ctx.enable_journal(1 << 16);
        let sweep = ctx.sweep(Algorithm::Contour, 32);
        (ctx.journal.clone(), sweep)
    });

    // Spans of one scope that carry an energy rollup (`dataset:`/`native:`
    // study spans model no energy and are skipped).
    let spans_of = |scope: Scope| -> Vec<(String, Joules)> {
        journal
            .events()
            .filter_map(|e| match e {
                Event::Span(s) if s.scope == scope => s.joules.map(|j| (s.name.clone(), j)),
                _ => None,
            })
            .collect()
    };

    // One workload span per cap, each the exact sum of its kernel spans.
    let workloads = spans_of(Scope::Workload);
    let kernels = spans_of(Scope::Kernel);
    assert_eq!(workloads.len(), sweep.rows.len());
    assert!(kernels.len() >= workloads.len());
    let kernel_total: Joules = kernels.iter().map(|(_, j)| *j).sum();
    let workload_total: Joules = workloads.iter().map(|(_, j)| *j).sum();
    assert_eq!(kernel_total, workload_total);

    // Sweep-row spans mirror the returned rows exactly, cap by cap.
    let rows = spans_of(Scope::Sweep);
    assert_eq!(rows.len(), sweep.rows.len());
    for ((name, joules), row) in rows.iter().zip(&sweep.rows) {
        assert_eq!(name, &format!("cap:{:.0}W", row.cap_watts.value()));
        assert_eq!(*joules, row.energy_joules);
    }
    let row_total: Joules = sweep.rows.iter().map(|r| r.energy_joules).sum();
    assert_eq!(workload_total, row_total);

    // And the study-phase span rolls the whole sweep up.
    let study = spans_of(Scope::Study);
    let sweep_span = study
        .iter()
        .find(|(name, _)| name.starts_with("sweep:"))
        .expect("sweep study span present");
    assert_eq!(sweep_span.1, row_total);
}
