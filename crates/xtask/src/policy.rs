//! The repo-specific policy: which files each lint watches and how
//! power/energy/time/frequency identifiers are recognized.

/// Crates whose library code sits on the measurement hot path. The
/// panic-policy lint and the analyze passes only apply here.
/// `conformance` is included so the correctness checks themselves report
/// setup failures as failed checks instead of panicking mid-suite.
/// `vizmesh` joined when the time-varying `FieldSeries` ring put mesh
/// code inside the per-step recording loop. The DPP backend
/// (`crates/vizalgo/src/dpp/`) is covered automatically: it is library
/// code of `vizalgo`.
pub const HOT_PATH_CRATES: &[&str] = &[
    "vizmesh",
    "vizalgo",
    "cloverleaf",
    "powersim",
    "governor",
    "conformance",
];

/// Files forming the power/energy API boundary between `powersim` and
/// `vizpower` (core). Inside these, a watt- or joule-named `f64`
/// declaration is a violation: the quantity must use the `Watts`/`Joules`
/// newtypes from `powersim::units` (re-exported as `vizpower::energy`).
pub const UNIT_BOUNDARY_FILES: &[&str] = &[
    "crates/powersim/src/rapl.rs",
    "crates/powersim/src/exec.rs",
    "crates/powersim/src/trace.rs",
    "crates/powersim/src/node.rs",
    "crates/powersim/src/cpu.rs",
    "crates/powersim/src/msr.rs",
    "crates/core/src/energy.rs",
    "crates/core/src/study.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/advisor.rs",
    "crates/core/src/efficiency.rs",
    "crates/core/src/ablation.rs",
    "crates/core/src/arch.rs",
    "crates/core/src/classify.rs",
    "crates/core/src/advect.rs",
    "crates/governor/src/policy.rs",
    "crates/governor/src/control.rs",
    "crates/governor/src/study.rs",
    "crates/governor/src/pair.rs",
    "crates/service/src/admission.rs",
    "crates/service/src/service.rs",
];

/// Files exempt from the unit-safety lint: the newtype definitions
/// themselves, whose internals are raw `f64` by construction.
pub const UNIT_EXEMPT_FILES: &[&str] = &["crates/powersim/src/units.rs"];

/// Library files of a hot-path crate that `xtask analyze` skips: the JSON
/// document codec parses and renders an action list once per run, so its
/// push loops are not measurement hot path (panic-policy still applies —
/// it reads input from outside the program).
pub const ANALYZE_EXEMPT_FILES: &[&str] = &["crates/vizmesh/src/json.rs"];

/// The run-journal event definitions whose public enum variants must all
/// be documented in the observability schema table.
pub const TRACE_SOURCE: &str = "crates/powersim/src/trace.rs";

/// The document holding the event schema table the schema-docs lint
/// checks against [`TRACE_SOURCE`].
pub const OBSERVABILITY_DOC: &str = "docs/OBSERVABILITY.md";

/// HTML-comment markers delimiting the schema table inside
/// [`OBSERVABILITY_DOC`]. Rows between them with a backticked first cell
/// name one enum variant each.
pub const SCHEMA_TABLE_BEGIN: &str = "<!-- xtask:schema-table:begin -->";
pub const SCHEMA_TABLE_END: &str = "<!-- xtask:schema-table:end -->";

/// The public enums in [`TRACE_SOURCE`] whose variants form the journal's
/// wire schema: every variant needs a schema-table row.
pub const SCHEMA_ENUMS: &[&str] = &["Kind", "Scope"];

/// The crate hosting the algorithm registry. Filter constructors may be
/// called freely inside it: the filters' own modules and the one
/// sanctioned construction site, `AlgorithmSpec::build` (`spec.rs`).
pub const REGISTRY_CRATE: &str = "vizalgo";

/// Files outside [`REGISTRY_CRATE`] that may construct filters directly:
/// the conformance suite's independent reference implementations, which
/// must not share the registry code path they are checking.
pub const REGISTRY_DISPATCH_EXEMPT_FILES: &[&str] = &["crates/conformance/src/reference.rs"];

/// `Type::constructor(` tokens that build one of the eight paper
/// algorithms directly. Outside [`REGISTRY_CRATE`] and the exempt files,
/// non-test code must go through `AlgorithmSpec::build` instead so every
/// run carries a canonical, fingerprintable parameterization.
pub const FILTER_CONSTRUCTORS: &[&str] = &[
    "Contour::new(",
    "Contour::spanning(",
    "Threshold::new(",
    "Threshold::upper_fraction(",
    "SphericalClip::new(",
    "SphericalClip::framing(",
    "Isovolume::new(",
    "Isovolume::middle_band(",
    "ThreeSlice::centered(",
    "ThreeSlice::with_planes(",
    "ParticleAdvection::new(",
    "RayTracer::new(",
    "VolumeRenderer::new(",
];

/// Returns the crate name (directory under `crates/`) for a
/// workspace-relative path, or `None` for the root package.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// True when the path is library code of one of `crates` — under `src/`
/// but not under `src/bin/` (binaries are user-facing entry points, held
/// to the CLI error-handling policy instead).
pub fn is_lib_code_of(rel_path: &str, crates: &[&str]) -> bool {
    let Some(name) = crate_of(rel_path) else {
        return false;
    };
    crates.contains(&name) && rel_path.contains("/src/") && !rel_path.contains("/src/bin/")
}

/// The dimensional family of a quantity, inferred from identifier naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitFamily {
    Watts,
    Joules,
    Seconds,
    Hertz,
}

impl UnitFamily {
    pub fn name(self) -> &'static str {
        match self {
            UnitFamily::Watts => "watts",
            UnitFamily::Joules => "joules",
            UnitFamily::Seconds => "seconds",
            UnitFamily::Hertz => "hertz",
        }
    }
}

/// Infer the unit family of an identifier from its name, following the
/// workspace naming convention (`cap_watts`, `energy_joules`, `seconds`,
/// `freq_ghz`, ...).
pub fn unit_family(ident: &str) -> Option<UnitFamily> {
    let n = ident.to_ascii_lowercase();
    if n.contains("watt") {
        Some(UnitFamily::Watts)
    } else if n.contains("joule") {
        Some(UnitFamily::Joules)
    } else if n.contains("second") || n.ends_with("_sec") || n.ends_with("_secs") || n == "secs" {
        Some(UnitFamily::Seconds)
    } else if n.contains("hz") || n.contains("freq") {
        Some(UnitFamily::Hertz)
    } else {
        None
    }
}
