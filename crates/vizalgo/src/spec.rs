//! The canonical, serializable algorithm plan: one [`AlgorithmSpec`]
//! per algorithm, the *only* sanctioned way to construct a filter.
//!
//! The paper's premise is that the same eight algorithms are driven
//! identically across every configuration of the study (§IV). Before
//! this module existed the workspace constructed filters in four
//! independently drifting places (the study driver, the in situ action
//! layer, the conformance suite, and the bench CLIs); now every
//! consumer describes *what* to run as a spec and
//! [`AlgorithmSpec::build_with`] is the single construction site and the
//! one `match` that resolves parameters — for every backend, which only
//! chooses how the resolved struct executes (enforced by clippy's
//! `disallowed_methods`, configured in the root `clippy.toml`; the slice
//! reference in `conformance::reference` is the one library exception).
//!
//! Specs decode from JSON, never to it (the in situ action list
//! declares its filters and renderers as [`AlgorithmSpec`]s), and carry a
//! deterministic [`fingerprint`](AlgorithmSpec::fingerprint) derived
//! from a JSON-independent canonical encoding, so every journal span a
//! study/sweep/conformance run emits is attributable to an exact
//! parameterization (see docs/REGISTRY.md and docs/OBSERVABILITY.md).

use crate::advection::{FlowScenario, ParticleAdvection, StepControl, Termination};
use crate::clip::SphericalClip;
use crate::contour::Contour;
use crate::dpp::{Backend, Dpp, DppExecute};
use crate::filter::{self, Algorithm, Filter};
use crate::fingerprint::Fnv1a;
use crate::isovolume::Isovolume;
use crate::raytrace::RayTracer;
use crate::registry::{self, REGISTRY};
use crate::slice::ThreeSlice;
use crate::threshold::Threshold;
use crate::volren::VolumeRenderer;
use std::fmt::{self, Write};
use vizmesh::json::{JsonError, Value};
use vizmesh::{DataSet, Vec3};

/// How a contour picks its isovalues.
#[derive(Debug, Clone, PartialEq)]
pub enum IsoValues {
    /// `n` evenly spaced isovalues spanning the interior of the field
    /// range (the paper runs 10 per cycle).
    Spanning(usize),
    /// Explicit isovalues, in order.
    Explicit(Vec<f64>),
}

/// A scalar band, resolved against the data's field range at build time.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarBand {
    /// Keep the upper `frac` fraction of the field range (the paper's
    /// energy threshold uses 0.5).
    UpperFraction(f64),
    /// The middle `frac` band of the field range (the paper's isovolume
    /// uses 0.5).
    MiddleBand(f64),
    /// An explicit `[min, max]` range, data independent.
    Range { min: f64, max: f64 },
}

/// A clip sphere, resolved against the data's bounds at build time.
#[derive(Debug, Clone, PartialEq)]
pub enum SphereSpec {
    /// Radius as a fraction of the dataset diagonal, centered in the
    /// bounds (the paper's framing sphere uses 0.3).
    RadiusFraction(f64),
    /// An explicit center and radius, data independent.
    Explicit { center: Vec3, radius: f64 },
}

/// The canonical plan for one of the paper's eight algorithms.
///
/// Data-dependent parameters (field ranges, dataset bounds) stay
/// symbolic ([`IsoValues::Spanning`], [`ScalarBand::UpperFraction`],
/// [`SphereSpec::RadiusFraction`], ...) and are resolved by
/// [`build`](AlgorithmSpec::build) against a concrete dataset, exactly
/// as the paper parameterizes its study (§IV).
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmSpec {
    /// Marching-cubes isosurface (§III-B1).
    Contour {
        /// Point scalar field to contour.
        field: String,
        /// Isovalue selection.
        isovalues: IsoValues,
    },
    /// Cell filtering by scalar range (§III-B2).
    Threshold {
        /// Scalar field the range applies to.
        field: String,
        /// The kept band.
        band: ScalarBand,
    },
    /// Spherical clip with cell subdivision (§III-B3).
    SphericalClip {
        /// Point field carried through to the output.
        field: String,
        /// The clip sphere.
        sphere: SphereSpec,
    },
    /// Scalar-range volume extraction (§III-B4).
    Isovolume {
        /// Point scalar field the band applies to.
        field: String,
        /// The extracted band.
        band: ScalarBand,
    },
    /// Three centered axis-aligned slices (§III-B5).
    Slice {
        /// Point scalar field interpolated onto the slices.
        field: String,
    },
    /// RK4 particle advection → streamlines (§III-B6).
    ParticleAdvection {
        /// Point vector field to advect through.
        field: String,
        /// Number of seed particles.
        particles: usize,
        /// RK4 steps per particle.
        steps: usize,
        /// Step length in fractions of the domain diagonal.
        step_fraction: f64,
        /// Seed for the particle placement.
        seed: u64,
        /// Flow mode × seeding × step control × termination. Defaults
        /// to the paper's steady streamline scenario; pre-scenario wire
        /// JSON parses unchanged.
        scenario: FlowScenario,
    },
    /// External-face ray tracing with a BVH (§III-B7).
    RayTracing {
        /// Scalar field colored onto the faces.
        field: String,
        /// Image width (pixels).
        width: usize,
        /// Image height (pixels).
        height: usize,
        /// Images (camera positions) per cycle; the paper renders 50.
        images: usize,
    },
    /// Volume rendering by ray marching (§III-B8).
    VolumeRendering {
        /// Scalar field sampled along the rays.
        field: String,
        /// Image width (pixels).
        width: usize,
        /// Image height (pixels).
        height: usize,
        /// Images (camera positions) per cycle; the paper renders 50.
        images: usize,
    },
}

/// Box `filter` as `backend` executes it: directly, or through the
/// primitive pipeline.
fn on<F: DppExecute + 'static>(backend: Backend, filter: F) -> Box<dyn Filter> {
    match backend {
        Backend::Traditional => Box::new(filter),
        Backend::Dpp => Box::new(Dpp(filter)),
    }
}

/// The paper's RK4 step length (fractions of the domain diagonal).
const DEFAULT_STEP_FRACTION: f64 = 5e-4;

/// The paper-style advection seed.
const DEFAULT_SEED: u64 = 0x5eed_1234;

impl AlgorithmSpec {
    /// Which of the eight algorithms this spec parameterizes.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            AlgorithmSpec::Contour { .. } => Algorithm::Contour,
            AlgorithmSpec::Threshold { .. } => Algorithm::Threshold,
            AlgorithmSpec::SphericalClip { .. } => Algorithm::SphericalClip,
            AlgorithmSpec::Isovolume { .. } => Algorithm::Isovolume,
            AlgorithmSpec::Slice { .. } => Algorithm::Slice,
            AlgorithmSpec::ParticleAdvection { .. } => Algorithm::ParticleAdvection,
            AlgorithmSpec::RayTracing { .. } => Algorithm::RayTracing,
            AlgorithmSpec::VolumeRendering { .. } => Algorithm::VolumeRendering,
        }
    }

    /// [`build_with`](AlgorithmSpec::build_with) on the traditional
    /// backend, which formulates all eight algorithms.
    pub fn build(&self, input: &DataSet) -> Box<dyn Filter> {
        self.build_with(Backend::Traditional, input)
    }

    /// Instantiate the filter against a concrete dataset for a chosen
    /// execution [`Backend`], resolving the data-dependent parameters
    /// (field ranges, bounds).
    ///
    /// This is the workspace's single filter-construction site and its
    /// one parameter-resolution `match`; every driver (study, in situ,
    /// conformance, bench) goes through it. A backend is only *how* the
    /// resolved parameter struct is executed: [`Backend::Dpp`] wraps
    /// the very struct [`Backend::Traditional`] boxes, so both always
    /// run the same isovalues, band bounds and planes.
    ///
    /// # Panics
    /// If `backend` has no formulation of this algorithm (callers gate
    /// on [`Backend::supports`]).
    pub fn build_with(&self, backend: Backend, input: &DataSet) -> Box<dyn Filter> {
        let algorithm = self.algorithm();
        assert!(
            backend.supports(algorithm),
            "no {backend} formulation of '{}'",
            algorithm.name()
        );
        match self {
            AlgorithmSpec::Contour { field, isovalues } => on(
                backend,
                match isovalues {
                    IsoValues::Spanning(n) => Contour::spanning(field.clone(), input, *n),
                    IsoValues::Explicit(values) => Contour::new(field.clone(), values.clone()),
                },
            ),
            AlgorithmSpec::Threshold { field, band } => {
                let (lo, hi) = band.resolve(|| filter::scalar_range(input, field));
                on(backend, Threshold::new(field.clone(), lo, hi))
            }
            AlgorithmSpec::SphericalClip { field, sphere } => {
                let mut clip = match sphere {
                    SphereSpec::RadiusFraction(frac) => {
                        let b = input.bounds();
                        SphericalClip::new(b.center(), b.diagonal() * frac.max(1e-6))
                    }
                    SphereSpec::Explicit { center, radius } => SphericalClip::new(*center, *radius),
                };
                clip.carry_field = field.clone();
                Box::new(clip)
            }
            AlgorithmSpec::Isovolume { field, band } => {
                let (lo, hi) = band.resolve(|| filter::point_scalar_range(input, field));
                on(backend, Isovolume::new(field.clone(), lo, hi))
            }
            AlgorithmSpec::Slice { field } => {
                on(backend, ThreeSlice::centered(input, field.clone()))
            }
            AlgorithmSpec::ParticleAdvection {
                field,
                particles,
                steps,
                step_fraction,
                seed,
                scenario,
            } => Box::new(
                ParticleAdvection::new(field.clone(), *particles, *steps, *step_fraction, *seed)
                    .with_scenario(*scenario),
            ),
            AlgorithmSpec::RayTracing {
                field,
                width,
                height,
                images,
            } => Box::new(RayTracer::new(field.clone(), *width, *height, *images)),
            AlgorithmSpec::VolumeRendering {
                field,
                width,
                height,
                images,
            } => Box::new(VolumeRenderer::new(field.clone(), *width, *height, *images)),
        }
    }

    /// A canonical, JSON-independent encoding of the spec: stable
    /// across runs, platforms, and serializer changes. Floats are
    /// encoded by their IEEE-754 bit patterns, so the encoding is total
    /// and exact. These bytes — not the JSON form — define the
    /// [`fingerprint`](AlgorithmSpec::fingerprint), which streams them
    /// straight into the hasher ([`Self::write_canonical`]).
    #[cfg(test)]
    pub(crate) fn canonical(&self) -> String {
        let mut out = String::new();
        let _ = self.write_canonical(&mut out);
        out
    }

    /// FNV-1a over the canonical encoding, streamed into the hasher: no
    /// string is built.
    fn canonical_hash(&self) -> Fnv1a {
        let mut h = Fnv1a::new();
        // `Fnv1a::write_str` never fails.
        let _ = self.write_canonical(&mut h);
        h
    }

    /// Write the canonical encoding into `out`, piece by piece.
    fn write_canonical(&self, out: &mut impl Write) -> fmt::Result {
        let wire = registry::entry(self.algorithm()).wire;
        write!(out, "{wire}(")?;
        match self {
            AlgorithmSpec::Contour { field, isovalues } => {
                write!(out, "field={field},isovalues=")?;
                match isovalues {
                    IsoValues::Spanning(n) => write!(out, "spanning:{n}")?,
                    IsoValues::Explicit(values) => {
                        out.write_str("explicit:")?;
                        for (i, v) in values.iter().enumerate() {
                            let comma = if i == 0 { "" } else { "," };
                            write!(out, "{comma}{}", F64Hex(*v))?;
                        }
                    }
                }
            }
            AlgorithmSpec::Threshold { field, band } | AlgorithmSpec::Isovolume { field, band } => {
                write!(out, "field={field},band=")?;
                write_band(out, band)?;
            }
            AlgorithmSpec::SphericalClip { field, sphere } => {
                write!(out, "field={field},sphere=")?;
                match sphere {
                    SphereSpec::RadiusFraction(frac) => {
                        write!(out, "radius_fraction:{}", F64Hex(*frac))?
                    }
                    SphereSpec::Explicit { center, radius } => write!(
                        out,
                        "explicit:{},{},{},{}",
                        F64Hex(center.x),
                        F64Hex(center.y),
                        F64Hex(center.z),
                        F64Hex(*radius)
                    )?,
                }
            }
            AlgorithmSpec::Slice { field } => write!(out, "field={field}")?,
            AlgorithmSpec::ParticleAdvection {
                field,
                particles,
                steps,
                step_fraction,
                seed,
                scenario,
            } => {
                write!(
                    out,
                    "field={field},particles={particles},steps={steps},\
                     step_fraction={},seed={seed})",
                    F64Hex(*step_fraction)
                )?;
                // Appended only when non-default, so every pre-scenario
                // fingerprint (and hence every pinned cache key and
                // journal id) is unchanged.
                if !scenario.is_default() {
                    write_scenario(out, scenario)?;
                }
                return Ok(());
            }
            AlgorithmSpec::RayTracing {
                field,
                width,
                height,
                images,
            }
            | AlgorithmSpec::VolumeRendering {
                field,
                width,
                height,
                images,
            } => write!(
                out,
                "field={field},width={width},height={height},images={images}"
            )?,
        }
        out.write_str(")")
    }

    /// Deterministic spec fingerprint: 48-bit FNV-1a over the canonical
    /// encoding. 48 bits keep the value
    /// exactly representable as an `f64`, which is how it rides in
    /// the journal (`spec_fp` — docs/OBSERVABILITY.md).
    pub fn fingerprint(&self) -> u64 {
        self.canonical_hash().finish48()
    }

    /// The concrete advection kernel, for series (time-varying)
    /// execution: `ParticleAdvection::execute_series` lives outside the
    /// `dyn Filter` interface, so callers that advect through a
    /// [`vizmesh::FieldSeries`] need the concrete type. `None` for
    /// non-advection specs. This is the second sanctioned arm of the
    /// single construction site (next to `build_with`).
    pub fn build_flow(&self) -> Option<ParticleAdvection> {
        match self {
            AlgorithmSpec::ParticleAdvection {
                field,
                particles,
                steps,
                step_fraction,
                seed,
                scenario,
            } => Some(
                ParticleAdvection::new(field.clone(), *particles, *steps, *step_fraction, *seed)
                    .with_scenario(*scenario),
            ),
            _ => None,
        }
    }

    /// [`fingerprint`](AlgorithmSpec::fingerprint) for a backend:
    /// `Traditional` is bit-identical to `fingerprint()` (every pinned
    /// golden keeps its ids); other backends tag the canonical encoding
    /// so the same plan on a different backend is a distinct,
    /// content-addressable execution.
    pub fn fingerprint_with(&self, backend: Backend) -> u64 {
        match backend {
            Backend::Traditional => self.fingerprint(),
            Backend::Dpp => {
                let mut h = self.canonical_hash();
                h.update(b"|backend=dpp");
                h.finish48()
            }
        }
    }
}

impl Algorithm {
    /// The paper-default [`AlgorithmSpec`] for this algorithm: the §IV
    /// parameterization against the CloverLeaf fields (`energy` /
    /// `velocity`), 10 isovalues, 0.5 bands, a 0.3-diagonal framing
    /// sphere, 1000 × 1000 advection, and 128² × 50-image renders.
    pub fn default_spec(self) -> AlgorithmSpec {
        match self {
            Algorithm::Contour => AlgorithmSpec::Contour {
                field: "energy".into(),
                isovalues: IsoValues::Spanning(10),
            },
            Algorithm::Threshold => AlgorithmSpec::Threshold {
                field: "energy".into(),
                band: ScalarBand::UpperFraction(0.5),
            },
            Algorithm::SphericalClip => AlgorithmSpec::SphericalClip {
                field: "energy".into(),
                sphere: SphereSpec::RadiusFraction(0.3),
            },
            Algorithm::Isovolume => AlgorithmSpec::Isovolume {
                field: "energy".into(),
                band: ScalarBand::MiddleBand(0.5),
            },
            Algorithm::Slice => AlgorithmSpec::Slice {
                field: "energy".into(),
            },
            Algorithm::ParticleAdvection => AlgorithmSpec::ParticleAdvection {
                field: "velocity".into(),
                particles: 1000,
                steps: 1000,
                step_fraction: DEFAULT_STEP_FRACTION,
                seed: DEFAULT_SEED,
                scenario: FlowScenario::default(),
            },
            Algorithm::RayTracing => AlgorithmSpec::RayTracing {
                field: "energy".into(),
                width: 128,
                height: 128,
                images: 50,
            },
            Algorithm::VolumeRendering => AlgorithmSpec::VolumeRendering {
                field: "energy".into(),
                width: 128,
                height: 128,
                images: 50,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The JSON wire form (in situ action lists), decoded only: the program
// reads action files and never writes one. Hand-written so the shape is
// visible here: enums carry a `"type"` tag or are one-key objects, all
// names snake_case. Decoding reads input from outside the program and
// returns a `JsonError`, never panics.
// ---------------------------------------------------------------------------

impl IsoValues {
    /// Decode `{"spanning": n}` or `{"explicit": [v, ...]}`.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.variant("isovalues")? {
            "spanning" => Ok(IsoValues::Spanning(positive(v, "spanning")?)),
            "explicit" => {
                let values = (v.array("explicit")?.iter())
                    .map(|x| {
                        x.as_f64()
                            .ok_or(JsonError::wrong("explicit", "an array of numbers"))
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                if values.is_empty() {
                    return Err(JsonError::wrong("explicit", "at least one isovalue"));
                }
                Ok(IsoValues::Explicit(values))
            }
            other => Err(JsonError::unknown_tag("isovalues", other)),
        }
    }
}

impl ScalarBand {
    /// The `[lo, hi]` this band selects from a field whose scalar range
    /// is `range()` (not asked for an explicit [`ScalarBand::Range`]).
    pub(crate) fn resolve(&self, range: impl FnOnce() -> (f64, f64)) -> (f64, f64) {
        match self {
            ScalarBand::UpperFraction(frac) => {
                let (lo, hi) = range();
                (hi - (hi - lo) * frac.clamp(0.0, 1.0), hi)
            }
            ScalarBand::MiddleBand(frac) => {
                let (lo, hi) = range();
                let mid = (lo + hi) * 0.5;
                let half = (hi - lo) * frac.clamp(0.0, 1.0) * 0.5;
                (mid - half, mid + half)
            }
            ScalarBand::Range { min, max } => (*min, *max),
        }
    }

    /// Decode `{"upper_fraction": f}`, `{"middle_band": f}` or
    /// `{"range": {"min": a, "max": b}}`.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.variant("band")? {
            "upper_fraction" => Ok(ScalarBand::UpperFraction(v.f64("upper_fraction")?)),
            "middle_band" => Ok(ScalarBand::MiddleBand(v.f64("middle_band")?)),
            "range" => {
                let range = v.field("range")?;
                let (min, max) = (range.f64("min")?, range.f64("max")?);
                if !(min.is_finite() && max.is_finite() && min <= max) {
                    return Err(JsonError::wrong("range", "finite bounds with min <= max"));
                }
                Ok(ScalarBand::Range { min, max })
            }
            other => Err(JsonError::unknown_tag("band", other)),
        }
    }
}

impl SphereSpec {
    /// Decode `{"radius_fraction": f}` or
    /// `{"explicit": {"center": {"x": .., "y": .., "z": ..}, "radius": r}}`.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.variant("sphere")? {
            "radius_fraction" => Ok(SphereSpec::RadiusFraction(v.f64("radius_fraction")?)),
            "explicit" => {
                let sphere = v.field("explicit")?;
                let center = Vec3::from_json(sphere.field("center")?)?;
                let radius = positive_number(sphere, "radius")?;
                Ok(SphereSpec::Explicit { center, radius })
            }
            other => Err(JsonError::unknown_tag("sphere", other)),
        }
    }
}

impl AlgorithmSpec {
    /// Decode `{"type": "<algorithm>", "field": .., ...}`: the registry's
    /// `wire` tag, then the variant's fields by name. `step_fraction`,
    /// `seed` and `scenario` take the paper defaults when absent; keys
    /// the variant does not know are ignored. Values a filter
    /// constructor would assert on (no isovalues, particles or steps, an
    /// inverted or non-finite range, a non-positive radius or step
    /// fraction, a zero image dimension or count) are
    /// [`JsonError::Wrong`] here, not a panic in [`build`](AlgorithmSpec::build).
    pub fn from_json(v: &Value) -> Result<Self, JsonError> {
        let tag = v.str("type")?;
        let row = (REGISTRY.iter().find(|row| row.wire == tag))
            .ok_or_else(|| JsonError::unknown_tag("algorithm type", tag))?;
        let field = v.str("field")?.to_owned();
        Ok(match row.algorithm {
            Algorithm::Contour => AlgorithmSpec::Contour {
                field,
                isovalues: IsoValues::from_json(v.field("isovalues")?)?,
            },
            Algorithm::Threshold => AlgorithmSpec::Threshold {
                field,
                band: ScalarBand::from_json(v.field("band")?)?,
            },
            Algorithm::SphericalClip => AlgorithmSpec::SphericalClip {
                field,
                sphere: SphereSpec::from_json(v.field("sphere")?)?,
            },
            Algorithm::Isovolume => AlgorithmSpec::Isovolume {
                field,
                band: ScalarBand::from_json(v.field("band")?)?,
            },
            Algorithm::Slice => AlgorithmSpec::Slice { field },
            Algorithm::ParticleAdvection => AlgorithmSpec::ParticleAdvection {
                field,
                particles: positive(v, "particles")?,
                steps: positive(v, "steps")?,
                step_fraction: match v.get("step_fraction") {
                    Some(_) => positive_number(v, "step_fraction")?,
                    None => DEFAULT_STEP_FRACTION,
                },
                seed: match v.get("seed") {
                    Some(_) => v.u64("seed")?,
                    None => DEFAULT_SEED,
                },
                scenario: match v.get("scenario") {
                    Some(scenario) => FlowScenario::from_json(scenario)?,
                    None => FlowScenario::default(),
                },
            },
            Algorithm::RayTracing => AlgorithmSpec::RayTracing {
                field,
                width: positive(v, "width")?,
                height: positive(v, "height")?,
                images: positive(v, "images")?,
            },
            Algorithm::VolumeRendering => AlgorithmSpec::VolumeRendering {
                field,
                width: positive(v, "width")?,
                height: positive(v, "height")?,
                images: positive(v, "images")?,
            },
        })
    }
}

/// The required integer ≥ 1 at `field`: a count or an image dimension a
/// constructor would otherwise assert on.
fn positive(v: &Value, field: &'static str) -> Result<usize, JsonError> {
    match v.usize(field)? {
        0 => Err(JsonError::wrong(field, "a positive integer")),
        n => Ok(n),
    }
}

/// The required number > 0 at `field` (a JSON number is finite): a
/// radius or step length a constructor would otherwise assert on.
fn positive_number(v: &Value, field: &'static str) -> Result<f64, JsonError> {
    match v.f64(field)? {
        x if x > 0.0 => Ok(x),
        _ => Err(JsonError::wrong(field, "a positive finite number")),
    }
}

/// Canonical encoding of a non-default [`FlowScenario`], appended after
/// the base advection encoding. Never emitted for the default scenario,
/// which keeps every pre-scenario fingerprint byte-stable.
fn write_scenario(out: &mut impl Write, s: &FlowScenario) -> fmt::Result {
    write!(
        out,
        "|scenario(mode={},seeding={},step=",
        s.mode.wire_name(),
        s.seeding.wire_name()
    )?;
    match s.step_control {
        StepControl::Fixed => out.write_str("fixed")?,
        StepControl::Adaptive { tol } => write!(out, "adaptive:{}", F64Hex(tol))?,
    }
    out.write_str(",term=")?;
    match s.termination {
        Termination::MaxSteps => out.write_str("max_steps")?,
        Termination::ExitDomain => out.write_str("exit_domain")?,
        Termination::MaxTime { t_end } => write!(out, "max_time:{}", F64Hex(t_end))?,
    }
    out.write_str(")")
}

/// Canonical encoding of a [`ScalarBand`].
fn write_band(out: &mut impl Write, band: &ScalarBand) -> fmt::Result {
    match band {
        ScalarBand::UpperFraction(frac) => write!(out, "upper_fraction:{}", F64Hex(*frac)),
        ScalarBand::MiddleBand(frac) => write!(out, "middle_band:{}", F64Hex(*frac)),
        ScalarBand::Range { min, max } => {
            write!(out, "range:{},{}", F64Hex(*min), F64Hex(*max))
        }
    }
}

/// The IEEE-754 bit pattern of a float, displayed as fixed-width hex.
struct F64Hex(f64);

impl fmt::Display for F64Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advection::{FlowMode, Seeding};
    use crate::fingerprint::fingerprint48;
    use vizmesh::{json, Association, Field, UniformGrid};

    fn dataset() -> DataSet {
        let grid = UniformGrid::cube_cells(6);
        let np = grid.num_points();
        let vals: Vec<f64> = (0..np).map(|p| grid.point_coord_id(p).x).collect();
        DataSet::uniform(grid)
            .with_field(Field::scalar("energy", Association::Points, vals))
            .with_field(Field::vector(
                "velocity",
                Association::Points,
                vec![Vec3::X; np],
            ))
    }

    /// What a filter of either backend does with an input it cannot run
    /// on — today a panic raised at the one preamble in `filter.rs`
    /// (the ROADMAP's fallible-filters item turns it into a typed
    /// error): an explicit mesh names the filter; a grid without the
    /// field names the filter and the field, except where the field is
    /// optional.
    #[test]
    fn every_filter_meets_a_bad_input_at_the_one_preamble() {
        // `None` when `execute` returns; otherwise whether the panic
        // message opens with the filter's name, and whether it quotes
        // the field.
        let outcome = |filter: &dyn Filter, field: &str, input: &DataSet| {
            let run = std::panic::AssertUnwindSafe(|| filter.execute(input));
            let payload = std::panic::catch_unwind(run).err()?;
            let text = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            let names_filter = text.starts_with(&format!("{}: ", filter.name()));
            Some((names_filter, text.contains(&format!("'{field}'"))))
        };
        const RUNS: Option<(bool, bool)> = None;
        const NAMES_FILTER: Option<(bool, bool)> = Some((true, false));
        const NAMES_FILTER_AND_FIELD: Option<(bool, bool)> = Some((true, true));

        let good = dataset();
        let mut filters: Vec<(Box<dyn Filter>, &str)> = Vec::new();
        for alg in Algorithm::ALL {
            let spec = alg.default_spec();
            let field = match alg {
                Algorithm::ParticleAdvection => "velocity",
                _ => "energy",
            };
            for backend in Backend::ALL.into_iter().filter(|b| b.supports(alg)) {
                filters.push((spec.build_with(backend, &good), field));
            }
        }
        filters.push((Box::new(crate::gradient::Gradient::new("energy")), "energy"));
        assert_eq!(filters.len(), 8 + 4 + 1);

        let explicit = DataSet::explicit(vec![Vec3::ZERO], vizmesh::CellSet::new());
        let grid = UniformGrid::cube_cells(3);
        let bare = DataSet::uniform(grid.clone());
        let cell_only = DataSet::uniform(grid.clone()).with_field(Field::scalar(
            "energy",
            Association::Cells,
            vec![1.0; grid.num_cells()],
        ));
        for (filter, field) in &filters {
            let who = filter.name();
            let on = |input| outcome(filter.as_ref(), field, input);
            assert_eq!(on(&explicit), NAMES_FILTER, "{who} on an explicit mesh");
            let (without_field, with_cell_field) = match who {
                // The field is optional: slice vertices read 0, the clip
                // carries its own signed distance.
                "Slice" | "Spherical Clip" => (RUNS, RUNS),
                // A cell *or* a point field.
                "Threshold" => (NAMES_FILTER_AND_FIELD, RUNS),
                _ => (NAMES_FILTER_AND_FIELD, NAMES_FILTER_AND_FIELD),
            };
            assert_eq!(on(&bare), without_field, "{who} on a bare grid");
            assert_eq!(on(&cell_only), with_cell_field, "{who} with a cell field");
        }
    }

    /// One spec per variant, exercising the data-independent arms too.
    fn every_variant() -> Vec<AlgorithmSpec> {
        let mut specs: Vec<AlgorithmSpec> =
            Algorithm::ALL.iter().map(|a| a.default_spec()).collect();
        specs.push(AlgorithmSpec::Contour {
            field: "energy".into(),
            isovalues: IsoValues::Explicit(vec![0.25, 0.5]),
        });
        specs.push(AlgorithmSpec::Threshold {
            field: "energy".into(),
            band: ScalarBand::Range { min: 0.2, max: 0.8 },
        });
        specs.push(AlgorithmSpec::SphericalClip {
            field: "energy".into(),
            sphere: SphereSpec::Explicit {
                center: Vec3::splat(0.5),
                radius: 0.3,
            },
        });
        specs.push(AlgorithmSpec::Isovolume {
            field: "energy".into(),
            band: ScalarBand::Range { min: 0.3, max: 0.6 },
        });
        specs.push(AlgorithmSpec::ParticleAdvection {
            field: "velocity".into(),
            particles: 9,
            steps: 12,
            step_fraction: 1e-3,
            seed: 7,
            scenario: FlowScenario {
                mode: FlowMode::Pathline,
                seeding: Seeding::SparseGrid,
                step_control: StepControl::Adaptive { tol: 1e-5 },
                termination: Termination::ExitDomain,
            },
        });
        specs
    }

    /// The streamed fingerprint hashes exactly the canonical bytes, on
    /// both backends, for the default (paper) specs, their quick-study
    /// sizes, and explicit isovalue, band, sphere and non-default flow
    /// variants; and those bytes hash to the fingerprints the formatted
    /// encoding gave, pinned here.
    #[test]
    fn the_streamed_fingerprint_is_that_of_the_canonical_bytes() {
        let quick = Algorithm::ALL.map(|a| {
            let mut spec = a.default_spec();
            match &mut spec {
                AlgorithmSpec::Contour { isovalues, .. } => *isovalues = IsoValues::Spanning(5),
                AlgorithmSpec::ParticleAdvection {
                    particles, steps, ..
                } => (*particles, *steps) = (120, 150),
                AlgorithmSpec::RayTracing {
                    width,
                    height,
                    images,
                    ..
                }
                | AlgorithmSpec::VolumeRendering {
                    width,
                    height,
                    images,
                    ..
                } => (*width, *height, *images) = (32, 32, 4),
                _ => {}
            }
            spec
        });
        let mut specs = every_variant();
        specs.push(AlgorithmSpec::Threshold {
            field: "energy".into(),
            band: ScalarBand::MiddleBand(0.25),
        });
        specs.push(AlgorithmSpec::ParticleAdvection {
            field: "velocity".into(),
            particles: 120,
            steps: 150,
            step_fraction: 1e-3,
            seed: 7,
            scenario: FlowScenario {
                termination: Termination::MaxTime { t_end: 0.25 },
                ..FlowScenario::default()
            },
        });
        for spec in specs.iter().chain(&quick) {
            let canonical = spec.canonical();
            assert_eq!(
                spec.fingerprint(),
                fingerprint48(canonical.as_bytes()),
                "{canonical}"
            );
            let dpp = format!("{canonical}|backend=dpp");
            assert_eq!(
                spec.fingerprint_with(Backend::Dpp),
                fingerprint48(dpp.as_bytes()),
                "{canonical}"
            );
        }
        let fps: Vec<u64> = specs.iter().map(AlgorithmSpec::fingerprint).collect();
        let pinned: [u64; 15] = [
            25748076515438,
            198155684065227,
            51625820889582,
            190826306224919,
            6955886948687,
            102724157222056,
            148484733657807,
            17724296029121,
            3057441097846,
            127734315115603,
            276736842327399,
            181048534047308,
            138535446981910,
            54803652193092,
            187940667695713,
        ];
        assert_eq!(fps, pinned);
    }

    #[test]
    fn every_spec_builds_and_runs() {
        let ds = dataset();
        for spec in every_variant() {
            let filter = spec.build(&ds);
            assert_eq!(filter.name(), spec.algorithm().name());
            let out = filter.execute(&ds);
            assert!(
                !out.kernels.is_empty(),
                "{} produced no kernels",
                spec.canonical()
            );
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let specs = every_variant();
        for spec in &specs {
            assert_eq!(spec.fingerprint(), spec.clone().fingerprint());
            assert!(spec.fingerprint() <= 0xFFFF_FFFF_FFFF, "fits in 48 bits");
            let as_f64 = spec.fingerprint() as f64;
            assert_eq!(as_f64 as u64, spec.fingerprint(), "exact through f64");
        }
        let mut fps: Vec<u64> = specs.iter().map(AlgorithmSpec::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), specs.len(), "no collisions across variants");
    }

    #[test]
    fn fingerprint_tracks_parameters() {
        let a = AlgorithmSpec::Contour {
            field: "energy".into(),
            isovalues: IsoValues::Spanning(10),
        };
        let b = AlgorithmSpec::Contour {
            field: "energy".into(),
            isovalues: IsoValues::Spanning(11),
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn build_with_traditional_is_build() {
        let ds = dataset();
        for spec in every_variant() {
            let a = spec.build(&ds).execute(&ds);
            let b = spec.build_with(Backend::Traditional, &ds).execute(&ds);
            assert_eq!(a.kernels.len(), b.kernels.len(), "{}", spec.canonical());
            assert!(
                b.primitives.is_empty(),
                "traditional journals no primitives"
            );
        }
    }

    #[test]
    fn build_with_dpp_covers_supported_kernels() {
        let ds = dataset();
        for spec in every_variant() {
            let alg = spec.algorithm();
            if !Backend::Dpp.supports(alg) {
                continue;
            }
            let filter = spec.build_with(Backend::Dpp, &ds);
            assert_eq!(filter.name(), alg.name(), "{}", spec.canonical());
            let out = filter.execute(&ds);
            assert!(
                !out.primitives.is_empty(),
                "{} on dpp journals primitive counters",
                spec.canonical()
            );
        }
    }

    #[test]
    fn both_backends_run_the_same_resolved_parameters() {
        // The four DPP defaults (Spanning, UpperFraction, MiddleBand,
        // the centered slice) all resolve against the data.
        let ds = dataset();
        for alg in crate::dpp::dpp_algorithms() {
            let spec = alg.default_spec();
            let [t, d] = Backend::ALL.map(|b| {
                let out = spec.build_with(b, &ds).execute(&ds);
                out.dataset.expect("geometry")
            });
            assert!(t.num_cells() > 0, "{alg}");
            assert_eq!(t.num_cells(), d.num_cells(), "{alg}");
            assert_eq!(t.num_points(), d.num_points(), "{alg}");
            assert_eq!(t.point_scalars("energy"), d.point_scalars("energy"));
        }
    }

    #[test]
    fn fingerprint_with_tags_backend() {
        for spec in every_variant() {
            assert_eq!(
                spec.fingerprint_with(Backend::Traditional),
                spec.fingerprint(),
                "traditional fingerprints are unchanged"
            );
            let dpp = spec.fingerprint_with(Backend::Dpp);
            assert_ne!(dpp, spec.fingerprint(), "{}", spec.canonical());
            assert!(dpp <= 0xFFFF_FFFF_FFFF, "fits in 48 bits");
        }
    }

    #[test]
    fn default_spec_matches_its_algorithm() {
        for a in Algorithm::ALL {
            assert_eq!(a.default_spec().algorithm(), a);
        }
    }

    /// The wire text of each [`every_variant`] entry, in order.
    const EVERY_VARIANT_WIRE: [&str; 13] = [
        r#"{"type": "contour", "field": "energy", "isovalues": {"spanning": 10}}"#,
        r#"{"type": "threshold", "field": "energy", "band": {"upper_fraction": 0.5}}"#,
        r#"{"type": "spherical_clip", "field": "energy", "sphere": {"radius_fraction": 0.3}}"#,
        r#"{"type": "isovolume", "field": "energy", "band": {"middle_band": 0.5}}"#,
        r#"{"type": "slice", "field": "energy"}"#,
        r#"{"type": "particle_advection", "field": "velocity", "particles": 1000, "steps": 1000,
            "step_fraction": 5e-4, "seed": 1592594996,
            "scenario": {"mode": "Streamline", "seeding": "DenseBox",
                         "step_control": "Fixed", "termination": "MaxSteps"}}"#,
        r#"{"type": "ray_tracing", "field": "energy", "width": 128, "height": 128, "images": 50}"#,
        r#"{"type": "volume_rendering", "field": "energy",
            "width": 128, "height": 128, "images": 50}"#,
        r#"{"type": "contour", "field": "energy", "isovalues": {"explicit": [0.25, 0.5]}}"#,
        r#"{"type": "threshold", "field": "energy", "band": {"range": {"min": 0.2, "max": 0.8}}}"#,
        r#"{"type": "spherical_clip", "field": "energy",
            "sphere": {"explicit": {"center": {"x": 0.5, "y": 0.5, "z": 0.5}, "radius": 0.3}}}"#,
        r#"{"type": "isovolume", "field": "energy", "band": {"range": {"min": 0.3, "max": 0.6}}}"#,
        r#"{"type": "particle_advection", "field": "velocity", "particles": 9, "steps": 12,
            "step_fraction": 1e-3, "seed": 7,
            "scenario": {"mode": "Pathline", "seeding": "SparseGrid",
                         "step_control": {"Adaptive": {"tol": 1e-5}},
                         "termination": "ExitDomain"}}"#,
    ];

    #[test]
    fn json_round_trip_every_variant() {
        let specs = every_variant();
        assert_eq!(specs.len(), EVERY_VARIANT_WIRE.len());
        for (text, spec) in EVERY_VARIANT_WIRE.into_iter().zip(specs) {
            let decoded = AlgorithmSpec::from_json(&json::parse(text).expect("valid JSON"));
            assert_eq!(decoded, Ok(spec), "{text}");
        }
    }

    #[test]
    fn json_round_trip_defaults_fill_advection() {
        // Old-style JSON without step_fraction/seed parses with the
        // paper defaults (wire compatibility with the pre-registry
        // in situ FilterSpec).
        let json = r#"{"type":"particle_advection","field":"velocity","particles":7,"steps":9}"#;
        let spec = AlgorithmSpec::from_json(&json::parse(json).expect("valid JSON"))
            .expect("defaults fill");
        assert_eq!(
            spec,
            AlgorithmSpec::ParticleAdvection {
                field: "velocity".into(),
                particles: 7,
                steps: 9,
                step_fraction: 5e-4,
                seed: 0x5eed_1234,
                scenario: FlowScenario::default(),
            }
        );
    }

    #[test]
    fn scenario_extends_the_canonical_encoding_only_when_non_default() {
        let base = Algorithm::ParticleAdvection.default_spec();
        assert!(
            !base.canonical().contains("|scenario("),
            "default scenario must not move pre-scenario fingerprints: {}",
            base.canonical()
        );
        let with_scenario = |scenario: FlowScenario| AlgorithmSpec::ParticleAdvection {
            field: "velocity".into(),
            particles: 1000,
            steps: 1000,
            step_fraction: DEFAULT_STEP_FRACTION,
            seed: DEFAULT_SEED,
            scenario,
        };
        // Every scenario axis moves the fingerprint, and each encoding
        // is distinct.
        let variants = [
            with_scenario(FlowScenario {
                mode: FlowMode::Pathline,
                ..FlowScenario::default()
            }),
            with_scenario(FlowScenario {
                seeding: Seeding::AlongFeature,
                ..FlowScenario::default()
            }),
            with_scenario(FlowScenario {
                step_control: StepControl::Adaptive { tol: 1e-6 },
                ..FlowScenario::default()
            }),
            with_scenario(FlowScenario {
                termination: Termination::MaxTime { t_end: 0.25 },
                ..FlowScenario::default()
            }),
        ];
        let mut fps = vec![base.fingerprint()];
        for v in &variants {
            assert!(v.canonical().contains("|scenario("), "{}", v.canonical());
            fps.push(v.fingerprint());
        }
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), variants.len() + 1, "scenario axes collide");
    }

    #[test]
    fn json_round_trip_preserves_scenario() {
        let spec = AlgorithmSpec::ParticleAdvection {
            field: "velocity".into(),
            particles: 11,
            steps: 13,
            step_fraction: 2e-4,
            seed: 5,
            scenario: FlowScenario {
                mode: FlowMode::Pathline,
                seeding: Seeding::AlongFeature,
                step_control: StepControl::Adaptive { tol: 1e-4 },
                termination: Termination::MaxTime { t_end: 0.5 },
            },
        };
        let json = r#"{"type": "particle_advection", "field": "velocity",
            "particles": 11, "steps": 13, "step_fraction": 0.0002, "seed": 5,
            "scenario": {"mode": "Pathline", "seeding": "AlongFeature",
                         "step_control": {"Adaptive": {"tol": 0.0001}},
                         "termination": {"MaxTime": {"t_end": 0.5}}}}"#;
        let back =
            AlgorithmSpec::from_json(&json::parse(json).expect("valid JSON")).expect("spec parses");
        assert_eq!(back, spec, "{json}");
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }
}
