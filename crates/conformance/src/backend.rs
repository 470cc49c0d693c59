//! Backend-differential conformance: traditional vs the DPP backend.
//!
//! For every algorithm the data-parallel-primitives backend formulates
//! (`vizalgo::dpp`), this module executes the *same* canonical
//! [`spec_for`] plan through both [`Backend`]s on the same analytic
//! input and compares the outputs check by check. Each comparison is
//! one DPP `Group` carrying the DPP execution's primitive trail;
//! [`crate::run`] runs them for [`Backend::Dpp`].
//!
//! Exactness posture (the table lives in docs/DPP.md): contour,
//! isovolume, and slice are **bit-identical** — every comparison here
//! carries tolerance 0. Threshold produces the identical cell list and
//! the identical welded point *set*, but numbers its points in grid
//! order instead of first-use order, so the one order-sensitive float
//! checksum (`backend:coord-checksum`) carries a documented relative
//! tolerance of `1e-9` — the only nonzero tolerance in this module. The
//! order-insensitive checks (`backend:point-set`, which compares the
//! bit-exact sorted coordinate multisets, and `backend:resolved-geometry`,
//! which resolves connectivity through the point arrays before
//! summing) stay exact even for threshold.

use crate::{
    build_input, spec_for, CheckKind, CheckResult, Checks, ConformanceConfig, ConformanceReport,
    Group,
};
use powersim::trace::Journal;
use vizalgo::dpp::dpp_algorithms;
use vizalgo::{Algorithm, Backend, FilterOutput};
use vizmesh::{CellSet, DataSet, FieldData, Vec3};

/// Run one algorithm through both backends at grid size `n` and compare:
/// a DPP group carrying the DPP execution's primitive-counter trail.
fn checks(alg: Algorithm, cfg: &ConformanceConfig, n: usize) -> Group {
    let input = build_input(alg, n);
    let spec = spec_for(alg, cfg);
    let trad = spec
        .build_with(Backend::Traditional, &input)
        .execute(&input);
    let dpp = spec.build_with(Backend::Dpp, &input).execute(&input);
    let c = Checks {
        algorithm: alg,
        kind: CheckKind::Differential,
        grid: n,
    };
    Group {
        algorithm: alg,
        grid: n,
        backend: Backend::Dpp,
        checks: compare(c, &trad, &dpp),
        primitives: dpp.primitives,
    }
}

/// The differential checks of one traditional/DPP output pair.
fn compare(c: Checks, trad: &FilterOutput, dpp: &FilterOutput) -> Vec<CheckResult> {
    let (Some(tds), Some(dds)) = (&trad.dataset, &dpp.dataset) else {
        return vec![c.failed("backend:dataset")];
    };
    let (Some((tp, tc)), Some((dp, dc))) = (tds.as_explicit(), dds.as_explicit()) else {
        return vec![c.failed("backend:explicit-geometry")];
    };
    // Storage-order coordinate sum: exact for the bit-identical
    // formulations; threshold sums the same multiset in a different
    // order, so it carries the documented 1e-9 relative tolerance.
    let expected_order = point_order_checksum(tp);
    let order_tol = if c.algorithm == Algorithm::Threshold {
        1e-9 * expected_order.abs().max(1.0)
    } else {
        0.0
    };
    let counts = |cells: &CellSet| cells.iter().count() as f64;
    vec![
        c.check("backend:cell-count", counts(dc), counts(tc), 0.0),
        c.check("backend:point-count", dp.len() as f64, tp.len() as f64, 0.0),
        // Connectivity resolved through the point arrays before summing:
        // both backends emit cells in the same order referencing the same
        // grid locations, so this is exact even when point *numbering*
        // differs (threshold).
        c.check(
            "backend:resolved-geometry",
            geometry_checksum(dp, dc),
            geometry_checksum(tp, tc),
            0.0,
        ),
        c.check(
            "backend:coord-checksum",
            point_order_checksum(dp),
            expected_order,
            order_tol,
        ),
        // Bit-exact sorted coordinate multisets: order-insensitive, exact
        // for all four formulations.
        c.check("backend:point-set", multiset_mismatches(dp, tp), 0.0, 0.0),
        c.check(
            "backend:field-checksum",
            field_checksum(dds),
            field_checksum(tds),
            0.0,
        ),
        // The DPP execution must journal primitive counters and the
        // traditional one must not.
        c.check(
            "backend:primitives",
            f64::from(u8::from(
                !dpp.primitives.is_empty() && trad.primitives.is_empty(),
            )),
            1.0,
            0.0,
        ),
    ]
}

/// Every DPP-formulated algorithm at every configured grid size.
pub(crate) fn groups(cfg: &ConformanceConfig) -> Vec<Group> {
    let mut groups = Vec::with_capacity(cfg.grids.len() * 4);
    for &n in &cfg.grids {
        for alg in dpp_algorithms() {
            groups.push(checks(alg, cfg, n));
        }
    }
    groups
}

/// The backend differential alone: `run(cfg, &[Backend::Dpp], journal)`.
/// The benchmark harness (`benchmarks/src/runner.rs`) calls it.
pub fn run_journaled(cfg: &ConformanceConfig, journal: &mut Journal) -> ConformanceReport {
    crate::run(cfg, &[Backend::Dpp], journal)
}

/// Coordinate sum with per-axis weights, resolved through connectivity
/// in cell/slot order.
fn geometry_checksum(points: &[Vec3], cells: &CellSet) -> f64 {
    let mut sum = 0.0;
    for (_, conn) in cells.iter() {
        for &p in conn {
            let v = points[p as usize];
            sum += v.x + 2.0 * v.y + 3.0 * v.z;
        }
    }
    sum
}

/// Coordinate sum in point-storage order (order-sensitive).
fn point_order_checksum(points: &[Vec3]) -> f64 {
    let mut sum = 0.0;
    for v in points {
        sum += v.x + 2.0 * v.y + 3.0 * v.z;
    }
    sum
}

/// Sum of every scalar field value, in field/storage order.
fn field_checksum(ds: &DataSet) -> f64 {
    let mut sum = 0.0;
    for f in &ds.fields {
        if let FieldData::Scalar(vals) = &f.data {
            for v in vals {
                sum += v;
            }
        }
    }
    sum
}

/// Number of positions at which the bit-exact sorted coordinate
/// multisets disagree (length mismatch counts fully).
fn multiset_mismatches(a: &[Vec3], b: &[Vec3]) -> f64 {
    if a.len() != b.len() {
        return a.len().abs_diff(b.len()) as f64;
    }
    let sa = sorted_bits(a);
    let sb = sorted_bits(b);
    let mut mismatches = 0usize;
    for (x, y) in sa.iter().zip(&sb) {
        if x != y {
            mismatches += 1;
        }
    }
    mismatches as f64
}

fn sorted_bits(points: &[Vec3]) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::with_capacity(points.len());
    for v in points {
        out.push((v.x.to_bits(), v.y.to_bits(), v.z.to_bits()));
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_backend_suite_passes() {
        let cfg = ConformanceConfig {
            grids: vec![8],
            ..ConformanceConfig::quick()
        };
        let mut journal = Journal::with_capacity(4096);
        let live = crate::run(&cfg, &[Backend::Dpp], &mut journal);
        let off = crate::run(&cfg, &[Backend::Dpp], &mut Journal::off());
        assert_eq!(format!("{:?}", live.checks), format!("{:?}", off.checks));
        for c in &live.checks {
            assert!(
                c.pass(),
                "{} {} measured {} expected {} tol {}",
                c.algorithm,
                c.check,
                c.measured,
                c.expected,
                c.tolerance
            );
        }
        // Each group's `conformance` record is followed by its DPP
        // execution's primitive trail.
        let jsonl = journal.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let groups: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains("\"ev\":\"conformance\""))
            .collect();
        assert_eq!(groups.len(), 4, "one group per DPP algorithm");
        for i in groups {
            let next = lines.get(i + 1).copied().unwrap_or_default();
            assert!(next.contains("\"ev\":\"primitive\""), "{}", lines[i]);
        }
    }

    #[test]
    fn exact_formulations_carry_zero_tolerance() {
        let cfg = ConformanceConfig {
            grids: vec![8],
            ..ConformanceConfig::quick()
        };
        for g in groups(&cfg) {
            for c in &g.checks {
                if g.algorithm == Algorithm::Threshold
                    && c.check == "differential:backend:coord-checksum"
                {
                    assert!(
                        c.tolerance > 0.0,
                        "threshold coord checksum is order-tolerant"
                    );
                } else {
                    assert_eq!(c.tolerance, 0.0, "{} {}", g.algorithm, c.check);
                }
            }
        }
    }

    #[test]
    fn journaled_run_emits_primitive_spans() {
        let cfg = ConformanceConfig {
            grids: vec![8],
            ..ConformanceConfig::quick()
        };
        let mut journal = Journal::with_capacity(4096);
        let report = crate::run(&cfg, &[Backend::Dpp], &mut journal);
        assert_eq!(
            report.failed(),
            0,
            "{:?}",
            report.failures().collect::<Vec<_>>()
        );
        let jsonl = journal.to_jsonl();
        assert!(
            jsonl.contains("\"ev\":\"primitive\",\"t\":0,\"name\":\"primitive:map\""),
            "map record present"
        );
        assert!(
            jsonl.contains("conformance:dpp:Contour:8"),
            "group record present"
        );
    }

    #[test]
    fn primitive_jsonl_shape_is_exact() {
        let report = vizalgo::PrimitiveReport {
            op: vizalgo::dpp::PrimitiveOp::Compact,
            counters: vizalgo::dpp::PrimitiveCounters {
                invocations: 1,
                elements: 4096,
                bytes_read: 4096,
                bytes_written: 6144,
                flops: 0,
            },
        };
        let mut journal = Journal::with_capacity(4);
        crate::journal_primitive(&mut journal, &report);
        assert_eq!(
            journal.to_jsonl().trim_end(),
            "{\"v\":10,\"seq\":0,\"ev\":\"primitive\",\"t\":0,\"name\":\"primitive:compact\",\
             \"invocations\":1,\"elements\":4096,\"bytes_read\":4096,\"bytes_written\":6144,\
             \"flops\":0}"
        );
    }
}
