//! Golden tests for the conformance subsystem: the quick configuration
//! must pass every check, the check table itself is pinned (so checks
//! cannot silently disappear), and the journaled `conformance_check`
//! events must be valid schema-v3 lines that mirror the report.

use conformance::{CheckKind, ConformanceConfig};
use powersim::trace::{Journal, Kind, Value};
use vizalgo::{Algorithm, Backend};
use vizmesh::json;

/// The full check inventory of a quick run, as `(algorithm, grid,
/// check-id)` triples. A new check extends this table; losing one is a
/// regression.
const EXPECTED_CHECKS: &[(&str, u32, &str)] = &[
    ("Contour", 16, "oracle:sphere-area"),
    ("Contour", 16, "oracle:sphere-watertight"),
    ("Contour", 16, "oracle:sphere-orientation"),
    ("Contour", 16, "oracle:sphere-genus"),
    ("Contour", 16, "differential:threads"),
    ("Contour", 16, "differential:mesh-exact"),
    ("Threshold", 16, "oracle:kept-cells"),
    ("Threshold", 16, "oracle:welded-points"),
    ("Threshold", 16, "differential:threads"),
    ("Threshold", 16, "differential:kept-count"),
    ("Spherical Clip", 16, "oracle:kept-volume"),
    ("Spherical Clip", 16, "oracle:outside-sphere"),
    ("Spherical Clip", 16, "differential:threads"),
    ("Spherical Clip", 16, "differential:whole-cells"),
    ("Isovolume", 16, "oracle:band-volume"),
    ("Isovolume", 16, "oracle:interior-hexes"),
    ("Isovolume", 16, "differential:threads"),
    ("Isovolume", 16, "differential:whole-cells"),
    ("Slice", 16, "oracle:slice-area"),
    ("Slice", 16, "oracle:on-plane"),
    ("Slice", 16, "differential:threads"),
    ("Slice", 16, "differential:mesh-exact"),
    ("Particle Advection", 16, "oracle:planar"),
    ("Particle Advection", 16, "oracle:radius-drift"),
    ("Particle Advection", 16, "oracle:angular-rate"),
    ("Particle Advection", 16, "differential:threads"),
    ("Particle Advection", 16, "differential:streamlines-exact"),
    ("Ray Tracing", 16, "oracle:hit-mask"),
    ("Ray Tracing", 16, "oracle:hit-depth"),
    ("Ray Tracing", 16, "oracle:background"),
    ("Ray Tracing", 16, "differential:threads"),
    ("Ray Tracing", 16, "differential:depth-brute-force"),
    ("Volume Rendering", 16, "oracle:background"),
    ("Volume Rendering", 16, "oracle:alpha-range"),
    ("Volume Rendering", 16, "oracle:coverage"),
    ("Volume Rendering", 16, "differential:threads"),
    ("Volume Rendering", 16, "differential:pixels-exact"),
    ("Contour", 32, "oracle:sphere-area"),
    ("Contour", 32, "oracle:sphere-watertight"),
    ("Contour", 32, "oracle:sphere-orientation"),
    ("Contour", 32, "oracle:sphere-genus"),
    ("Contour", 32, "differential:threads"),
    ("Contour", 32, "differential:mesh-exact"),
    ("Threshold", 32, "oracle:kept-cells"),
    ("Threshold", 32, "oracle:welded-points"),
    ("Threshold", 32, "differential:threads"),
    ("Threshold", 32, "differential:kept-count"),
    ("Spherical Clip", 32, "oracle:kept-volume"),
    ("Spherical Clip", 32, "oracle:outside-sphere"),
    ("Spherical Clip", 32, "differential:threads"),
    ("Spherical Clip", 32, "differential:whole-cells"),
    ("Isovolume", 32, "oracle:band-volume"),
    ("Isovolume", 32, "oracle:interior-hexes"),
    ("Isovolume", 32, "differential:threads"),
    ("Isovolume", 32, "differential:whole-cells"),
    ("Slice", 32, "oracle:slice-area"),
    ("Slice", 32, "oracle:on-plane"),
    ("Slice", 32, "differential:threads"),
    ("Slice", 32, "differential:mesh-exact"),
    ("Particle Advection", 32, "oracle:planar"),
    ("Particle Advection", 32, "oracle:radius-drift"),
    ("Particle Advection", 32, "oracle:angular-rate"),
    ("Particle Advection", 32, "differential:threads"),
    ("Particle Advection", 32, "differential:streamlines-exact"),
    ("Ray Tracing", 32, "oracle:hit-mask"),
    ("Ray Tracing", 32, "oracle:hit-depth"),
    ("Ray Tracing", 32, "oracle:background"),
    ("Ray Tracing", 32, "differential:threads"),
    ("Volume Rendering", 32, "oracle:background"),
    ("Volume Rendering", 32, "oracle:alpha-range"),
    ("Volume Rendering", 32, "oracle:coverage"),
    ("Volume Rendering", 32, "differential:threads"),
    ("Volume Rendering", 32, "differential:pixels-exact"),
    ("Spherical Clip", 32, "metamorphic:clip-complement"),
    ("Isovolume", 32, "metamorphic:interior-threshold"),
    ("Contour", 32, "metamorphic:isovalue-monotone"),
    ("Contour", 64, "metamorphic:refinement-order"),
    ("Particle Advection", 32, "oracle:pathline-planar"),
    ("Particle Advection", 32, "oracle:pathline-radius-drift"),
    ("Particle Advection", 32, "oracle:pathline-angle"),
    (
        "Particle Advection",
        32,
        "metamorphic:frozen-pathline-exact",
    ),
];

/// Every `conformance` group record of a quick run on both backends, as
/// `(name, grid, checks, spec_fp)`: the traditional suite's groups, then
/// the backend differential's. A new group extends this table.
const EXPECTED_GROUPS: &[(&str, u32, usize, u64)] = &[
    ("conformance:Contour:16", 16, 6, 247394790859621),
    ("conformance:Threshold:16", 16, 4, 257357867475358),
    ("conformance:Spherical Clip:16", 16, 4, 276736842327399),
    ("conformance:Isovolume:16", 16, 4, 205109081002732),
    ("conformance:Slice:16", 16, 4, 187203720610073),
    ("conformance:Particle Advection:16", 16, 5, 230635463544749),
    ("conformance:Ray Tracing:16", 16, 5, 128296625860406),
    ("conformance:Volume Rendering:16", 16, 5, 217779078591564),
    ("conformance:Contour:32", 32, 6, 247394790859621),
    ("conformance:Threshold:32", 32, 4, 257357867475358),
    ("conformance:Spherical Clip:32", 32, 4, 276736842327399),
    ("conformance:Isovolume:32", 32, 4, 205109081002732),
    ("conformance:Slice:32", 32, 4, 187203720610073),
    ("conformance:Particle Advection:32", 32, 5, 230635463544749),
    ("conformance:Ray Tracing:32", 32, 4, 128296625860406),
    ("conformance:Volume Rendering:32", 32, 5, 217779078591564),
    ("conformance:Spherical Clip:32", 32, 1, 276736842327399),
    ("conformance:Isovolume:32", 32, 1, 205109081002732),
    ("conformance:Contour:32", 32, 1, 247394790859621),
    ("conformance:Contour:64", 64, 1, 247394790859621),
    ("conformance:Particle Advection:32", 32, 3, 230635463544749),
    ("conformance:Particle Advection:32", 32, 1, 230635463544749),
    ("conformance:dpp:Contour:16", 16, 7, 139284441368520),
    ("conformance:dpp:Threshold:16", 16, 7, 211276691428843),
    ("conformance:dpp:Isovolume:16", 16, 7, 119365071439817),
    ("conformance:dpp:Slice:16", 16, 7, 190102941710540),
    ("conformance:dpp:Contour:32", 32, 7, 139284441368520),
    ("conformance:dpp:Threshold:32", 32, 7, 211276691428843),
    ("conformance:dpp:Isovolume:32", 32, 7, 119365071439817),
    ("conformance:dpp:Slice:32", 32, 7, 190102941710540),
];

#[test]
fn quick_run_passes_every_pinned_check() {
    let cfg = ConformanceConfig::quick();
    let report = conformance::run(&cfg, &[Backend::Traditional], &mut Journal::off());
    let failures: Vec<String> = report
        .failures()
        .map(|c| {
            format!(
                "{} {} {}: measured {} expected {} tol {}",
                c.algorithm.name(),
                c.grid,
                c.check,
                c.measured,
                c.expected,
                c.tolerance
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "failed checks:\n{}",
        failures.join("\n")
    );

    let got: Vec<(String, u32, String)> = report
        .checks
        .iter()
        .map(|c| (c.algorithm.name().to_string(), c.grid, c.check.clone()))
        .collect();
    let expected: Vec<(String, u32, String)> = EXPECTED_CHECKS
        .iter()
        .map(|&(a, g, c)| (a.to_string(), g, c.to_string()))
        .collect();
    assert_eq!(got, expected, "conformance check table drifted");
}

#[test]
fn every_algorithm_is_covered_by_every_kind() {
    let cfg = ConformanceConfig::quick();
    let report = conformance::run(&cfg, &[Backend::Traditional], &mut Journal::off());
    for alg in Algorithm::ALL {
        for kind in [CheckKind::Oracle, CheckKind::Differential] {
            assert!(
                report
                    .checks
                    .iter()
                    .any(|c| c.algorithm == alg && c.kind == kind),
                "{} has no {} check",
                alg.name(),
                kind.as_str()
            );
        }
    }
    assert!(report
        .checks
        .iter()
        .any(|c| c.kind == CheckKind::Metamorphic));
}

#[test]
fn journaled_checks_mirror_the_report() {
    let mut journal = Journal::with_capacity(1 << 14);
    let cfg = ConformanceConfig::quick();
    let report = conformance::run(&cfg, &[Backend::Traditional], &mut journal);
    assert_eq!(journal.dropped(), 0);

    let events: Vec<_> = journal.records(Kind::ConformanceCheck).collect();
    assert_eq!(events.len(), report.checks.len());
    for (ev, c) in events.iter().zip(&report.checks) {
        assert_eq!(ev.str("algorithm"), Some(c.algorithm.name()));
        assert_eq!(ev.str("check"), Some(c.check.as_str()));
        assert_eq!(ev.str("kind"), Some(c.kind.as_str()));
        assert_eq!(ev.num("grid"), Some(f64::from(c.grid)));
        assert_eq!(
            ev.get("pass"),
            Some(&Value::Bool(true)),
            "journaled failure for {}",
            c.check
        );
    }

    // One record per group, named conformance:<algorithm>:<grid>.
    assert_eq!(
        journal.records(Kind::Conformance).count(),
        2 * 8 + 4 + 2,
        "one record per algorithm-grid, metamorphic, and flow group"
    );

    for line in journal.to_jsonl().lines().take(4) {
        let v = json::parse(line).expect("valid JSON");
        assert_eq!(v["v"], 10);
    }
}

#[test]
fn every_group_record_is_pinned() {
    let cfg = ConformanceConfig::quick();
    let mut journal = Journal::with_capacity(1 << 14);
    conformance::run(&cfg, &Backend::ALL, &mut journal);
    assert_eq!(journal.dropped(), 0);
    let got: Vec<(String, u32, usize, u64)> = journal
        .records(Kind::Conformance)
        .map(|ev| {
            let num = |key| ev.num(key).expect("numeric field");
            let name = ev.str("name").expect("group name").to_string();
            (
                name,
                num("grid") as u32,
                num("checks") as usize,
                num("spec_fp") as u64,
            )
        })
        .collect();
    let expected: Vec<(String, u32, usize, u64)> = EXPECTED_GROUPS
        .iter()
        .map(|&(name, grid, checks, fp)| (name.to_string(), grid, checks, fp))
        .collect();
    assert_eq!(got, expected, "conformance group records drifted");
}
