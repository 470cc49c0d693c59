//! Analytic-oracle conformance suite for the eight visualization kernels.
//!
//! The study harness measures *power and performance*; this crate checks
//! that the kernels being measured are *correct*:
//!
//! * **Oracle** (`oracle`): run each kernel on an analytic input field
//!   (see [`fields`]) and compare its output against a closed-form
//!   answer — a contoured sphere must have area `4πr²` and genus 0, a
//!   clipped ball must remove `4/3·πr³` of volume, advected particles in
//!   a rigid rotation must stay on their circles, and so on.
//! * **Differential** (`reference`): re-run each kernel under
//!   `par::with_threads(1)` and `(4)` (outputs must be byte-identical), and
//!   compare against deliberately simple sequential re-implementations
//!   (bit-exact where the reference replicates the arithmetic).
//! * **Metamorphic** (`metamorphic`): cross-kernel laws that need no
//!   ground truth at all — clip and its complementary isovolume must
//!   tile the domain, isovolume and all-points threshold must agree on
//!   interior cells, contour areas must grow with the isovalue, and the
//!   contour discretization error must shrink at second order under grid
//!   refinement.
//! * **Time-varying flow** (`flow`): the pathline generalization
//!   against an unsteady rotation with a closed-form answer, plus the
//!   frozen-series law (pathline on a single-snapshot series must be
//!   byte-identical to the steady streamline).
//! * **Backend differential** (`backend`): the same canonical spec
//!   through the traditional and the DPP backend, compared check by
//!   check.
//!
//! Every check reduces to one [`CheckResult`] — `|measured − expected| ≤
//! tolerance` — made through the `Checks` its function was given (the
//! algorithm, family and grid all its checks share). The checks of one
//! algorithm at one grid on one backend form a `Group`. [`run`] is the
//! one entry: it runs the suite of each backend it is given, journals
//! each check as a `conformance_check` record, and gives each group a
//! `conformance` record carrying the fingerprint of the exact
//! [`AlgorithmSpec`] it checked (see docs/OBSERVABILITY.md and
//! docs/CONFORMANCE.md).

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod backend;
pub mod fields;
mod flow;
mod metamorphic;
mod oracle;
mod reference;

use powersim::trace::{Journal, Kind, Value};
use std::fmt::Write as _;
use vizalgo::{
    Algorithm, AlgorithmSpec, Backend, IsoValues, PrimitiveReport, ScalarBand, SphereSpec,
};
use vizmesh::{CellSet, CellShape, DataSet, Vec3};

/// Radius of the clip sphere and the primary contour isovalue.
pub const SPHERE_R: f64 = 0.3;
/// Isovolume band over the x-ramp: `[ISO_LO, ISO_HI]`.
pub const ISO_LO: f64 = 0.3;
pub const ISO_HI: f64 = 0.6;
/// Threshold band over the cell-centered x-ramp. Both bounds are dyadic,
/// so cell centers `(i + ½)/n` on power-of-two grids never land on a
/// boundary and the analytic kept-cell count is exact in `f64`.
pub const THRESH_LO: f64 = 0.25;
pub const THRESH_HI: f64 = 0.75;
/// Advection RK4 step length in fractions of the domain diagonal.
const STEP_FRACTION: f64 = 1e-3;
/// Seed for the advection particle placement.
const SEED: u64 = 0x00C0_FFEE;

/// Which family a check belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Closed-form analytic answer.
    Oracle,
    /// Thread-count and sequential-reference comparison.
    Differential,
    /// Cross-kernel law.
    Metamorphic,
}

impl CheckKind {
    pub fn as_str(self) -> &'static str {
        match self {
            CheckKind::Oracle => "oracle",
            CheckKind::Differential => "differential",
            CheckKind::Metamorphic => "metamorphic",
        }
    }
}

/// One conformance check: a measured quantity against its expectation.
#[derive(Debug, Clone)]
pub struct CheckResult {
    pub algorithm: Algorithm,
    /// Namespaced id, e.g. `oracle:sphere-area`.
    pub check: String,
    pub kind: CheckKind,
    /// Grid resolution (cells per axis) the check ran at.
    pub grid: u32,
    pub measured: f64,
    pub expected: f64,
    /// Absolute tolerance; 0 for exact checks.
    pub tolerance: f64,
}

impl CheckResult {
    pub fn pass(&self) -> bool {
        self.measured.is_finite() && (self.measured - self.expected).abs() <= self.tolerance
    }
}

/// What every check of one check function shares: the algorithm it
/// checks, its family, and the grid it ran at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checks {
    pub(crate) algorithm: Algorithm,
    pub(crate) kind: CheckKind,
    pub(crate) grid: usize,
}

impl Checks {
    /// Check `id`: `measured` against `expected` within `tolerance`.
    pub(crate) fn check(
        self,
        id: &str,
        measured: f64,
        expected: f64,
        tolerance: f64,
    ) -> CheckResult {
        CheckResult {
            algorithm: self.algorithm,
            check: format!("{}:{id}", self.kind.as_str()),
            kind: self.kind,
            grid: self.grid as u32,
            measured,
            expected,
            tolerance,
        }
    }

    /// Check `id` could not even be evaluated (missing output); it always
    /// fails with a NaN measurement.
    pub(crate) fn failed(self, id: &str) -> CheckResult {
        self.check(id, f64::NAN, 0.0, 0.0)
    }
}

/// Knobs for one conformance run. All defaults use power-of-two grids so
/// grid coordinates are exact dyadic `f64` values.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Grid resolutions every oracle/differential check runs at.
    pub grids: Vec<usize>,
    /// Three increasing resolutions for the refinement-order law.
    pub(crate) refinement: [usize; 3],
    /// Image width = height for the two renderers.
    pub render_px: usize,
    pub cameras: usize,
    pub particles: usize,
    pub advect_steps: usize,
}

impl ConformanceConfig {
    /// The acceptance configuration: every algorithm at 32³ and 64³.
    pub fn full() -> Self {
        ConformanceConfig {
            grids: vec![32, 64],
            refinement: [32, 64, 128],
            render_px: 48,
            cameras: 4,
            particles: 24,
            advect_steps: 200,
        }
    }

    /// CI configuration: same checks, half the resolution.
    pub fn quick() -> Self {
        ConformanceConfig {
            grids: vec![16, 32],
            refinement: [16, 32, 64],
            render_px: 24,
            cameras: 2,
            particles: 8,
            advect_steps: 100,
        }
    }
}

/// Build the analytic input dataset an algorithm is checked on.
pub(crate) fn build_input(alg: Algorithm, n: usize) -> DataSet {
    match alg {
        Algorithm::Contour => fields::sphere_dataset(n),
        Algorithm::Threshold => fields::cell_xramp_dataset(n),
        Algorithm::SphericalClip => fields::energy_dataset(n),
        Algorithm::Isovolume
        | Algorithm::Slice
        | Algorithm::RayTracing
        | Algorithm::VolumeRendering => fields::xramp_dataset(n),
        Algorithm::ParticleAdvection => fields::rotation_dataset(n),
    }
}

/// The canonical [`AlgorithmSpec`] each algorithm is checked under: the
/// analytic constants above bound to this config's size knobs. All
/// conformance filters are built from these specs (the sequential
/// re-implementations in `reference` are intentionally independent).
pub fn spec_for(alg: Algorithm, cfg: &ConformanceConfig) -> AlgorithmSpec {
    let px = cfg.render_px;
    match alg {
        Algorithm::Contour => AlgorithmSpec::Contour {
            field: fields::FIELD.into(),
            isovalues: IsoValues::Explicit(vec![SPHERE_R]),
        },
        Algorithm::Threshold => AlgorithmSpec::Threshold {
            field: fields::FIELD.into(),
            band: ScalarBand::Range {
                min: THRESH_LO,
                max: THRESH_HI,
            },
        },
        // The clip input carries its scalar as "energy" (the study field
        // name), matching the filter's carry-through field.
        Algorithm::SphericalClip => AlgorithmSpec::SphericalClip {
            field: "energy".into(),
            sphere: SphereSpec::Explicit {
                center: fields::CENTER,
                radius: SPHERE_R,
            },
        },
        Algorithm::Isovolume => AlgorithmSpec::Isovolume {
            field: fields::FIELD.into(),
            band: ScalarBand::Range {
                min: ISO_LO,
                max: ISO_HI,
            },
        },
        Algorithm::Slice => AlgorithmSpec::Slice {
            field: fields::FIELD.into(),
        },
        Algorithm::ParticleAdvection => AlgorithmSpec::ParticleAdvection {
            field: fields::VELOCITY.into(),
            particles: cfg.particles,
            steps: cfg.advect_steps,
            step_fraction: STEP_FRACTION,
            seed: SEED,
            scenario: Default::default(),
        },
        Algorithm::RayTracing => AlgorithmSpec::RayTracing {
            field: fields::FIELD.into(),
            width: px,
            height: px,
            images: cfg.cameras,
        },
        Algorithm::VolumeRendering => AlgorithmSpec::VolumeRendering {
            field: fields::FIELD.into(),
            width: px,
            height: px,
            images: cfg.cameras,
        },
    }
}

/// Total area of the `Triangle` cells of an unstructured mesh.
pub(crate) fn surface_area(points: &[Vec3], cells: &CellSet) -> f64 {
    let mut area = 0.0;
    for (shape, conn) in cells.iter() {
        if shape == CellShape::Triangle && conn.len() == 3 {
            let a = points[conn[0] as usize];
            let b = points[conn[1] as usize];
            let c = points[conn[2] as usize];
            area += (b - a).cross(c - a).length() * 0.5;
        }
    }
    area
}

/// Number of cells of one shape.
pub(crate) fn count_shape(cells: &CellSet, shape: CellShape) -> usize {
    cells.iter().filter(|(s, _)| *s == shape).count()
}

/// Full results of a conformance run.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    pub checks: Vec<CheckResult>,
}

impl ConformanceReport {
    pub(crate) fn passed(&self) -> usize {
        self.checks.iter().filter(|c| c.pass()).count()
    }

    pub fn failed(&self) -> usize {
        self.checks.len() - self.passed()
    }

    pub fn failures(&self) -> impl Iterator<Item = &CheckResult> {
        self.checks.iter().filter(|c| !c.pass())
    }
}

/// One journaled unit of a suite: the checks of one algorithm at one
/// grid on one backend, and the primitive trail of the DPP execution
/// (empty on the traditional backend). Its record name and spec
/// fingerprint are derived when it is journaled.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    pub(crate) algorithm: Algorithm,
    pub(crate) grid: usize,
    pub(crate) backend: Backend,
    pub(crate) checks: Vec<CheckResult>,
    pub(crate) primitives: Vec<PrimitiveReport>,
}

impl Group {
    /// A group of the canonical suite: traditional, no primitive trail.
    pub(crate) fn traditional(algorithm: Algorithm, grid: usize, checks: Vec<CheckResult>) -> Self {
        Group {
            algorithm,
            grid,
            backend: Backend::Traditional,
            checks,
            primitives: Vec::new(),
        }
    }
}

/// Every group of the canonical-spec suite: one per algorithm per grid,
/// plus the metamorphic and flow groups.
fn groups(cfg: &ConformanceConfig) -> Vec<Group> {
    let mut groups = Vec::with_capacity(cfg.grids.len() * Algorithm::ALL.len() + 8);
    for &n in &cfg.grids {
        for alg in Algorithm::ALL {
            let input = build_input(alg, n);
            let filter = spec_for(alg, cfg).build(&input);
            let out = filter.execute(&input);
            let mut checks = oracle::checks(alg, cfg, n, &input, &out);
            checks.extend(reference::checks(alg, cfg, n, &input, &out));
            groups.push(Group::traditional(alg, n, checks));
        }
    }
    groups.extend(metamorphic::groups(cfg));
    groups.extend(flow::groups(cfg));
    groups
}

/// Run the suite of each backend in `backends`, in the order given —
/// the canonical suite for [`Backend::Traditional`], the
/// traditional-vs-DPP differential for [`Backend::Dpp`] — and flatten
/// them into one report. Per group, `journal` gets one
/// `conformance_check` record per check, one `conformance` record
/// carrying the fingerprint of the spec the group checked, and one
/// `primitive` record per primitive op (see docs/OBSERVABILITY.md).
pub fn run(
    cfg: &ConformanceConfig,
    backends: &[Backend],
    journal: &mut Journal,
) -> ConformanceReport {
    let suites = backends.iter().flat_map(|&b| match b {
        Backend::Traditional => groups(cfg),
        Backend::Dpp => backend::groups(cfg),
    });
    journal_groups(cfg, suites, journal)
}

/// The canonical suite, unjournaled: `run(cfg, &[Backend::Traditional],
/// ..)`. The benchmark harness (`benchmarks/src/runner.rs`) calls it.
pub fn run_all(cfg: &ConformanceConfig) -> ConformanceReport {
    run(cfg, &[Backend::Traditional], &mut Journal::off())
}

/// Flatten `groups` into one report, journaling each (see [`run`]). A
/// group's `conformance` record is named after its backend, algorithm
/// and grid, and carries the fingerprint of [`spec_for`] tagged with
/// that backend.
fn journal_groups(
    cfg: &ConformanceConfig,
    groups: impl IntoIterator<Item = Group>,
    journal: &mut Journal,
) -> ConformanceReport {
    let mut checks = Vec::new();
    for g in groups {
        let grid = g.grid as u32;
        for c in &g.checks {
            journal.push_record(Kind::ConformanceCheck, journal.now(), || {
                vec![
                    ("algorithm", g.algorithm.name().into()),
                    ("check", c.check.as_str().into()),
                    ("kind", c.kind.as_str().into()),
                    ("grid", grid.into()),
                    ("measured", c.measured.into()),
                    ("expected", c.expected.into()),
                    ("tolerance", c.tolerance.into()),
                    ("pass", c.pass().into()),
                ]
            });
        }
        journal.push_record(Kind::Conformance, journal.now(), || {
            let name = match g.backend {
                Backend::Traditional => format!("conformance:{}:{grid}", g.algorithm.name()),
                Backend::Dpp => format!("conformance:dpp:{}:{grid}", g.algorithm.name()),
            };
            let spec_fp = spec_for(g.algorithm, cfg).fingerprint_with(g.backend);
            let failures = g.checks.iter().filter(|c| !c.pass()).count();
            vec![
                ("name", Value::Str(name)),
                ("grid", grid.into()),
                ("checks", (g.checks.len() as f64).into()),
                ("failures", (failures as f64).into()),
                ("spec_fp", (spec_fp as f64).into()),
            ]
        });
        for r in &g.primitives {
            journal_primitive(journal, r);
        }
        checks.extend(g.checks);
    }
    ConformanceReport { checks }
}

/// One `primitive` journal record.
fn journal_primitive(journal: &mut Journal, r: &PrimitiveReport) {
    journal.push_record(Kind::Primitive, journal.now(), || {
        vec![
            ("name", Value::Str(format!("primitive:{}", r.op.name()))),
            ("invocations", (r.counters.invocations as f64).into()),
            ("elements", (r.counters.elements as f64).into()),
            ("bytes_read", (r.counters.bytes_read as f64).into()),
            ("bytes_written", (r.counters.bytes_written as f64).into()),
            ("flops", (r.counters.flops as f64).into()),
        ]
    });
}

/// Render the report as the fixed-width table the `reproduce conformance`
/// verb prints.
pub fn render_table(report: &ConformanceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>5} {:<34} {:>13} {:>13} {:>9}  STATUS",
        "ALGORITHM", "GRID", "CHECK", "MEASURED", "EXPECTED", "TOL"
    );
    for c in &report.checks {
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:<34} {:>13.6e} {:>13.6e} {:>9.1e}  {}",
            c.algorithm.name(),
            c.grid,
            c.check,
            c.measured,
            c.expected,
            c.tolerance,
            if c.pass() { "PASS" } else { "FAIL" }
        );
    }
    let _ = writeln!(
        out,
        "{} checks, {} passed, {} failed",
        report.checks.len(),
        report.passed(),
        report.failed()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_result_pass_semantics() {
        let c = Checks {
            algorithm: Algorithm::Contour,
            kind: CheckKind::Oracle,
            grid: 8,
        };
        let ok = c.check("x", 1.0, 1.05, 0.1);
        assert!(ok.pass());
        let fail = c.check("x", 1.0, 1.2, 0.1);
        assert!(!fail.pass());
        let nan = c.failed("x");
        assert!(!nan.pass());
        assert_eq!(nan.check, "oracle:x");
    }

    #[test]
    fn conformance_check_jsonl_shape_is_exact() {
        let check = Checks {
            algorithm: Algorithm::Contour,
            kind: CheckKind::Oracle,
            grid: 32,
        }
        .check("sphere-area", 1.1286, 1.13097, 0.0226);
        let mut j = Journal::with_capacity(4);
        let group = Group::traditional(Algorithm::Contour, 32, vec![check]);
        journal_groups(&ConformanceConfig::quick(), vec![group], &mut j);
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"v\":10,\"seq\":0,\"ev\":\"conformance_check\",\"t\":0,\
             \"algorithm\":\"Contour\",\"check\":\"oracle:sphere-area\",\
             \"kind\":\"oracle\",\"grid\":32,\"measured\":1.1286,\
             \"expected\":1.13097,\"tolerance\":0.0226,\"pass\":true}"
        );
        assert_eq!(
            lines[1],
            "{\"v\":10,\"seq\":1,\"ev\":\"conformance\",\"t\":0,\
             \"name\":\"conformance:Contour:32\",\"grid\":32,\"checks\":1,\"failures\":0,\
             \"spec_fp\":247394790859621}"
        );
        // Both carry strings, so the chrome trace shows them as instants
        // on the conformance track.
        let trace = j.to_chrome_trace();
        assert!(
            trace.contains(
                "\"ph\":\"i\",\"s\":\"t\",\"name\":\"conformance_check\",\"pid\":1,\"tid\":8"
            ),
            "{trace}"
        );
        assert!(trace.contains("\"pass\":true"), "{trace}");
    }

    #[test]
    fn config_grids_are_powers_of_two() {
        for cfg in [ConformanceConfig::full(), ConformanceConfig::quick()] {
            for n in cfg.grids.iter().chain(cfg.refinement.iter()) {
                assert!(n.is_power_of_two(), "grid {n} must be a power of two");
            }
        }
    }

    #[test]
    fn every_algorithm_builds_input_and_filter() {
        let cfg = ConformanceConfig::quick();
        for alg in Algorithm::ALL {
            let input = build_input(alg, 4);
            let filter = spec_for(alg, &cfg).build(&input);
            assert_eq!(filter.name(), alg.name());
        }
    }

    #[test]
    fn table_renders_every_check() {
        let report = ConformanceReport {
            checks: vec![Checks {
                algorithm: Algorithm::Slice,
                kind: CheckKind::Oracle,
                grid: 16,
            }
            .check("slice-area", 3.0, 3.0, 1e-9)],
        };
        let t = render_table(&report);
        assert!(t.contains("oracle:slice-area"));
        assert!(t.contains("PASS"));
        assert!(t.contains("1 checks, 1 passed, 0 failed"));
    }
}
