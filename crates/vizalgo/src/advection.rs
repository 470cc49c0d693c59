//! Particle advection (§III-B6): advect massless particles through a
//! vector field with 4th-order Runge–Kutta.
//!
//! As in the paper, the seed count, step length and step count are held
//! constant regardless of the data set size, so particles may exit the
//! bounding box early and terminate — which is why the algorithm's work
//! (and hence its IPC, Fig. 6) is independent of the data set size.
//!
//! The paper's workload is the steady-state case — one frozen velocity
//! field, streamlines. It is the default scenario of one kernel that
//! generalizes along the four dimensions "A Guide to Particle Advection
//! Performance" (arXiv:2201.08440) identifies, and whose default output
//! `tests/output_fingerprints.rs` pins bit for bit:
//!
//! * [`FlowMode`] — streamlines (field frozen at the start time) vs
//!   pathlines (particles advect through a time-varying
//!   [`FieldSeries`], sampling the linear temporal interpolation
//!   between bracketing snapshots).
//! * [`Seeding`] — dense random box (the paper's placement), a sparse
//!   deterministic lattice, or seeds placed along a feature (the
//!   fastest-flow candidate sites).
//! * [`StepControl`] — fixed step length vs step-doubling adaptive
//!   control with a per-step error tolerance.
//! * [`Termination`] — max-steps (the paper's bound), exit-domain, or
//!   max integrated time.
//!
//! The temporal sampling rule is exact at snapshots: when a query time
//! brackets to a single snapshot (single-snapshot series, or at/outside
//! the retained span) the sample *is* that snapshot's trilinear sample,
//! with no interpolation arithmetic — which is what makes a pathline on
//! a frozen series byte-identical to the steady streamline.

use crate::filter::{self, Filter, FilterOutput, KernelClass, KernelReport};
use vizmesh::json::{JsonError, Value};
use vizmesh::{
    par, Association, CellSet, CellShape, DataSet, Field, FieldSeries, UniformGrid, Vec3,
    WorkCounters, XorShift,
};

/// Streamline (frozen field) vs pathline (time-varying field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowMode {
    /// Sample the field at the trajectory's start time for every stage:
    /// the steady-state streamline of the paper.
    #[default]
    Streamline,
    /// Advance field time along with the particle: a pathline through
    /// the series' linear temporal interpolation.
    Pathline,
}

impl FlowMode {
    /// Stable lower-case name used in canonical spec strings and spans.
    pub fn wire_name(&self) -> &'static str {
        match self {
            FlowMode::Streamline => "streamline",
            FlowMode::Pathline => "pathline",
        }
    }

    /// Decode the wire form: the variant name as a string.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.variant("mode")? {
            "Streamline" => Ok(FlowMode::Streamline),
            "Pathline" => Ok(FlowMode::Pathline),
            other => Err(JsonError::unknown_tag("flow mode", other)),
        }
    }
}

/// Where the seeds come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Seeding {
    /// The paper's placement: uniform random over the bounding box from
    /// the kernel's seeded RNG.
    #[default]
    DenseBox,
    /// A deterministic near-cubic lattice of cell-centered fractions —
    /// the sparse, evenly-spread strategy.
    SparseGrid,
    /// Rank a candidate lattice (4× oversampled) by flow speed at the
    /// start time and keep the fastest sites: seeds along the dominant
    /// feature of the field.
    AlongFeature,
}

impl Seeding {
    /// Stable lower-case name used in canonical spec strings and spans.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Seeding::DenseBox => "dense-box",
            Seeding::SparseGrid => "sparse-grid",
            Seeding::AlongFeature => "along-feature",
        }
    }

    /// Decode the wire form: the variant name as a string.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.variant("seeding")? {
            "DenseBox" => Ok(Seeding::DenseBox),
            "SparseGrid" => Ok(Seeding::SparseGrid),
            "AlongFeature" => Ok(Seeding::AlongFeature),
            other => Err(JsonError::unknown_tag("seeding", other)),
        }
    }
}

/// Fixed vs adaptive integration step length.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StepControl {
    /// Every step uses the configured length (the paper's control).
    #[default]
    Fixed,
    /// Step doubling: compare one full step against two half steps; if
    /// they disagree by more than `tol` halve and retry (at most 4
    /// times), if they agree far within `tol` grow the next step (up to
    /// 8× the configured length). The accepted position is the
    /// two-half-steps result.
    Adaptive {
        /// Per-step positional error tolerance, in domain length units.
        tol: f64,
    },
}

impl StepControl {
    /// Stable lower-case name used in spans (parameters are carried by
    /// the spec fingerprint, not the label).
    pub(crate) fn wire_name(&self) -> &'static str {
        match self {
            StepControl::Fixed => "fixed",
            StepControl::Adaptive { .. } => "adaptive",
        }
    }

    /// Decode `"Fixed"` or `{"Adaptive": {"tol": ..}}`.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.variant("step_control")? {
            "Fixed" => Ok(StepControl::Fixed),
            "Adaptive" => Ok(StepControl::Adaptive {
                tol: v.field("Adaptive")?.f64("tol")?,
            }),
            other => Err(JsonError::unknown_tag("step control", other)),
        }
    }
}

/// When a trajectory stops.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Termination {
    /// Stop after the configured step count (the paper's bound);
    /// domain exit still terminates early.
    #[default]
    MaxSteps,
    /// Integrate until the particle leaves the domain, with a safety
    /// ceiling of 8× the configured step count so closed orbits (e.g.
    /// rigid rotation) cannot spin forever.
    ExitDomain,
    /// Stop once the integrated parameter time reaches `t_end` (the
    /// configured step count stays a hard ceiling).
    MaxTime {
        /// Integrated-time horizon, in field time units.
        t_end: f64,
    },
}

impl Termination {
    /// Stable lower-case name used in spans (parameters are carried by
    /// the spec fingerprint, not the label).
    pub fn wire_name(&self) -> &'static str {
        match self {
            Termination::MaxSteps => "max-steps",
            Termination::ExitDomain => "exit-domain",
            Termination::MaxTime { .. } => "max-time",
        }
    }

    /// Decode `"MaxSteps"`, `"ExitDomain"` or `{"MaxTime": {"t_end": ..}}`.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.variant("termination")? {
            "MaxSteps" => Ok(Termination::MaxSteps),
            "ExitDomain" => Ok(Termination::ExitDomain),
            "MaxTime" => Ok(Termination::MaxTime {
                t_end: v.field("MaxTime")?.f64("t_end")?,
            }),
            other => Err(JsonError::unknown_tag("termination", other)),
        }
    }
}

/// The full advection scenario: flow mode × seeding × step control ×
/// termination. The default scenario is exactly the paper's workload,
/// and the kernel's default-scenario path is bit-identical to the
/// pre-scenario implementation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowScenario {
    /// Streamline vs pathline.
    pub mode: FlowMode,
    /// Seed placement strategy.
    pub seeding: Seeding,
    /// Step-size control.
    pub step_control: StepControl,
    /// Termination criterion.
    pub termination: Termination,
}

impl FlowScenario {
    /// Whether this is the paper's default scenario (streamline,
    /// dense-box, fixed step, max-steps).
    pub(crate) fn is_default(&self) -> bool {
        *self == FlowScenario::default()
    }

    /// Compact `mode/seeding/step/termination` label for spans and
    /// reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.mode.wire_name(),
            self.seeding.wire_name(),
            self.step_control.wire_name(),
            self.termination.wire_name()
        )
    }

    /// Decode the wire form, one key per axis (`mode`, `seeding`,
    /// `step_control`, `termination`); an absent axis takes the paper's
    /// default.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        fn axis<T: Default>(
            v: Option<&Value>,
            decode: fn(&Value) -> Result<T, JsonError>,
        ) -> Result<T, JsonError> {
            Ok(v.map(decode).transpose()?.unwrap_or_default())
        }
        if !matches!(v, Value::Object(_)) {
            return Err(JsonError::wrong("scenario", "an object"));
        }
        Ok(FlowScenario {
            mode: axis(v.get("mode"), FlowMode::from_json)?,
            seeding: axis(v.get("seeding"), Seeding::from_json)?,
            step_control: axis(v.get("step_control"), StepControl::from_json)?,
            termination: axis(v.get("termination"), Termination::from_json)?,
        })
    }
}

/// One resolved snapshot of the flow: a structured grid plus its
/// point-centered velocity array, tagged with the snapshot time.
struct Frame<'a> {
    time: f64,
    grid: &'a UniformGrid,
    vel: &'a [Vec3],
}

impl<'a> Frame<'a> {
    fn resolve(time: f64, ds: &'a DataSet, field: &str) -> Frame<'a> {
        Frame {
            time,
            grid: filter::structured(ds, "Particle Advection"),
            vel: filter::point_vectors(ds, "Particle Advection", field),
        }
    }
}

/// The particle advection filter.
#[derive(Debug, Clone)]
pub struct ParticleAdvection {
    /// Point-centered vector field to advect through.
    pub(crate) field: String,
    pub(crate) num_particles: usize,
    pub(crate) num_steps: usize,
    /// Integration step length, in fractions of the grid diagonal.
    pub(crate) step_fraction: f64,
    /// Seed for deterministic particle placement.
    pub(crate) seed: u64,
    /// Flow mode, seeding, step control, termination. Defaults to the
    /// paper's scenario: steady streamlines from a dense random box.
    pub(crate) scenario: FlowScenario,
}

impl ParticleAdvection {
    pub fn new(
        field: impl Into<String>,
        num_particles: usize,
        num_steps: usize,
        step_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(num_particles > 0 && num_steps > 0);
        assert!(step_fraction > 0.0);
        ParticleAdvection {
            field: field.into(),
            num_particles,
            num_steps,
            step_fraction,
            seed,
            scenario: FlowScenario::default(),
        }
    }

    /// The same kernel under a non-default scenario.
    pub fn with_scenario(mut self, scenario: FlowScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Locate `t` among the frame times: bracketing indices and the
    /// interpolation weight. `i == j` means "sample that frame
    /// directly, no interpolation" — the single-snapshot and boundary
    /// cases.
    fn bracket_frames(frames: &[Frame<'_>], t: f64) -> (usize, usize, f64) {
        let n = frames.len();
        if n == 1 || t <= frames[0].time {
            return (0, 0, 0.0);
        }
        if t >= frames[n - 1].time {
            return (n - 1, n - 1, 0.0);
        }
        let mut i = 0;
        while i + 1 < n && frames[i + 1].time <= t {
            i += 1;
        }
        let (t0, t1) = (frames[i].time, frames[i + 1].time);
        if t <= t0 || t1 <= t0 {
            return (i, i, 0.0);
        }
        (i, i + 1, (t - t0) / (t1 - t0))
    }

    /// Sample the time-varying field at `(p, t)`: the bracketing
    /// frames' trilinear samples, lerped — or, when `t` resolves to a
    /// single frame, that frame's sample with no lerp arithmetic (the
    /// bit-exactness guarantee for frozen series).
    fn sample_frames(frames: &[Frame<'_>], p: Vec3, t: f64) -> Option<Vec3> {
        let (i, j, alpha) = Self::bracket_frames(frames, t);
        let a = frames[i].grid.sample_vector(frames[i].vel, p)?;
        if i == j {
            return Some(a);
        }
        let b = frames[j].grid.sample_vector(frames[j].vel, p)?;
        Some(a.lerp(b, alpha))
    }

    /// One RK4 step against the frame series: the next position and
    /// `k1`, the field at `(p, t)` itself. `advance_time` is the
    /// pathline/streamline switch: streamlines hold every stage at `t`.
    /// Counts the 4 field evaluations on success.
    fn rk4_series(
        frames: &[Frame<'_>],
        p: Vec3,
        t: f64,
        h: f64,
        advance_time: bool,
        evals: &mut u64,
    ) -> Option<(Vec3, Vec3)> {
        let (tm, te) = if advance_time {
            (t + h * 0.5, t + h)
        } else {
            (t, t)
        };
        let k1 = Self::sample_frames(frames, p, t)?;
        let k2 = Self::sample_frames(frames, p + k1 * (h * 0.5), tm)?;
        let k3 = Self::sample_frames(frames, p + k2 * (h * 0.5), tm)?;
        // A non-finite k1..k3 puts the next stage's position outside
        // every grid; k4 feeds no stage, so it is vetted here.
        let k4 = Self::sample_frames(frames, p + k3 * h, te).filter(|k| k.is_finite())?;
        *evals += 4;
        Some((p + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0), k1))
    }

    /// One step-doubling adaptive step: accept the two-half-steps
    /// result, halving on disagreement (≤ 4 retries) and growing the
    /// next step (≤ 8× the configured length) on strong agreement.
    /// Returns `(position, k1, used_h, next_h)`, `k1` being the field at
    /// `(p, t)` as every trial's first stage samples it; `None` when
    /// either trial leaves the domain.
    #[allow(clippy::too_many_arguments)]
    fn adaptive_step(
        frames: &[Frame<'_>],
        p: Vec3,
        t: f64,
        h_try: f64,
        h0: f64,
        tol: f64,
        advance_time: bool,
        evals: &mut u64,
    ) -> Option<(Vec3, Vec3, f64, f64)> {
        let mut h = h_try;
        let mut attempt = 0;
        loop {
            let half = h * 0.5;
            let (full, k1) = Self::rk4_series(frames, p, t, h, advance_time, evals)?;
            let (mid, _) = Self::rk4_series(frames, p, t, half, advance_time, evals)?;
            let tm = if advance_time { t + half } else { t };
            let (fine, _) = Self::rk4_series(frames, mid, tm, half, advance_time, evals)?;
            let err = (full - fine).length();
            if err > tol && attempt < 4 {
                h = half;
                attempt += 1;
                continue;
            }
            let next = if err < tol / 32.0 {
                (h * 2.0).min(h0 * 8.0)
            } else {
                h
            };
            return Some((fine, k1, h, next));
        }
    }

    /// Index `i` of an `m`-per-axis cell-centered lattice over `b`.
    fn lattice_point(b: &vizmesh::Aabb, i: usize, m: usize) -> Vec3 {
        let f = |k: usize| (k as f64 + 0.5) / m as f64;
        let (fx, fy, fz) = (f(i % m), f((i / m) % m), f(i / (m * m)));
        Vec3::new(
            b.min.x + (b.max.x - b.min.x) * fx,
            b.min.y + (b.max.y - b.min.y) * fy,
            b.min.z + (b.max.z - b.min.z) * fz,
        )
    }

    /// Smallest `m` with `m³ ≥ n`.
    fn cbrt_ceil(n: usize) -> usize {
        let mut m = 1usize;
        while m * m * m < n {
            m += 1;
        }
        m
    }

    /// Seed positions under the scenario's strategy. `DenseBox` is the
    /// paper's RNG placement, byte-for-byte.
    fn place_seeds(&self, frames: &[Frame<'_>]) -> Vec<Vec3> {
        let b = frames[0].grid.bounds();
        match self.scenario.seeding {
            Seeding::DenseBox => {
                let mut rng = XorShift::from_seed(self.seed);
                (0..self.num_particles)
                    .map(|_| {
                        Vec3::new(
                            rng.range(b.min.x, b.max.x),
                            rng.range(b.min.y, b.max.y),
                            rng.range(b.min.z, b.max.z),
                        )
                    })
                    .collect()
            }
            Seeding::SparseGrid => {
                let m = Self::cbrt_ceil(self.num_particles);
                (0..self.num_particles)
                    .map(|i| Self::lattice_point(&b, i, m))
                    .collect()
            }
            Seeding::AlongFeature => {
                let t0 = frames[0].time;
                let m = Self::cbrt_ceil(self.num_particles * 4);
                let candidates: Vec<Vec3> = (0..m * m * m)
                    .map(|i| Self::lattice_point(&b, i, m))
                    .collect();
                let mut ranked: Vec<(f64, usize)> = candidates
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let speed = Self::sample_frames(frames, p, t0)
                            .map(|u| u.length())
                            .unwrap_or(0.0);
                        (speed, i)
                    })
                    .collect();
                ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                ranked.truncate(self.num_particles);
                ranked.into_iter().map(|(_, i)| candidates[i]).collect()
            }
        }
    }

    /// Advect against a time-varying series of snapshots under the
    /// configured scenario. A frozen single-snapshot series under the
    /// `Pathline` scenario reproduces [`Filter::execute`]'s streamline
    /// output byte-for-byte (differential-tested and checked by the
    /// conformance suite's metamorphic law).
    pub fn execute_series(&self, series: &FieldSeries) -> FilterOutput {
        assert!(!series.is_empty(), "advection needs at least one snapshot");
        let frames: Vec<Frame<'_>> = series
            .snapshots()
            .map(|(t, ds)| Frame::resolve(t, ds, &self.field))
            .collect();
        self.run(&frames)
    }

    /// The kernel over resolved frames; every scenario dimension is
    /// dispatched here. [`Filter::execute`] is the single-frame case.
    fn run(&self, frames: &[Frame<'_>]) -> FilterOutput {
        let grid = frames[0].grid;
        let b = grid.bounds();
        let h0 = b.diagonal() * self.step_fraction;
        let t_start = frames[0].time;
        let advance_time = self.scenario.mode == FlowMode::Pathline;
        let max_iters = match self.scenario.termination {
            Termination::MaxSteps | Termination::MaxTime { .. } => self.num_steps,
            // Safety ceiling: closed orbits never exit the domain.
            Termination::ExitDomain => self.num_steps * 8,
        };

        let seeds = self.place_seeds(frames);

        // Advect each particle (parallel over particles). A trace is
        // the path, the flow speed at each path point, and the
        // field-eval count (4 per accepted or rejected RK4 step). The
        // speed at the point a step starts from is that step's `k1`;
        // only the last point, which starts none, is sampled for it.
        let traces: Vec<(Vec<Vec3>, Vec<f64>, u64)> =
            par::map(seeds.len(), crate::SEED_MIN_LEN, |s| {
                let seed = seeds[s];
                let mut path = Vec::with_capacity(self.num_steps + 1);
                let mut speeds = Vec::with_capacity(self.num_steps + 1);
                path.push(seed);
                let mut p = seed;
                let mut t = t_start;
                let mut elapsed = 0.0f64;
                let mut h = h0;
                let mut evals = 0u64;
                for _ in 0..max_iters {
                    let step = match self.scenario.step_control {
                        StepControl::Fixed => {
                            Self::rk4_series(frames, p, t, h0, advance_time, &mut evals)
                                .map(|(q, k1)| (q, k1, h0))
                        }
                        StepControl::Adaptive { tol } => {
                            Self::adaptive_step(frames, p, t, h, h0, tol, advance_time, &mut evals)
                                .map(|(q, k1, used, next)| {
                                    h = next;
                                    (q, k1, used)
                                })
                        }
                    };
                    match step {
                        Some((next, k1, used)) => {
                            speeds.push(k1.length());
                            p = next;
                            elapsed += used;
                            path.push(p);
                            if advance_time {
                                t += used;
                            }
                            if let Termination::MaxTime { t_end } = self.scenario.termination {
                                if elapsed >= t_end {
                                    break;
                                }
                            }
                        }
                        // Particle displaced outside the bounding box:
                        // terminate (paper §VI-C).
                        None => break,
                    }
                }
                let last = Self::sample_frames(frames, p, t);
                speeds.push(last.map_or(0.0, |u| u.length()));
                (path, speeds, evals)
            });

        let mut work = WorkCounters::new();
        let total_evals: u64 = traces.iter().map(|(_, _, e)| e).sum();
        // Each RK4 step: 4 trilinear vector samples (8 point gathers of
        // 24 B each, ~90 flops) plus the combination arithmetic. Under
        // fixed stepping evals/4 is exactly the accepted step count;
        // under adaptive control it also charges rejected trials.
        work.tally(total_evals / 4, 4 * 110 + 40, 4 * 90 + 24, 4 * 8 * 24, 24);
        work.tally(self.num_particles as u64, 60, 10, 24, 48);
        let resident: usize = frames.iter().map(|f| f.vel.len() * 24).sum();
        work.working_set_bytes = resident.min(1 << 22) as u64;

        // Build polylines. Output sizes are known exactly from the
        // traces, so every buffer is allocated once up front; the
        // connectivity scratch is reused across polylines.
        let total_pts: usize = traces.iter().map(|(p, _, _)| p.len()).sum();
        let mut points: Vec<Vec3> = Vec::with_capacity(total_pts);
        let mut cells = CellSet::with_capacity(traces.len(), total_pts);
        let mut speed: Vec<f64> = Vec::with_capacity(total_pts);
        let mut conn: Vec<u32> = Vec::with_capacity(self.num_steps + 1);
        for (path, speeds, _) in &traces {
            if path.len() < 2 {
                continue;
            }
            let base = points.len() as u32;
            conn.clear();
            conn.extend((0..path.len()).map(|i| base + i as u32));
            points.extend_from_slice(path);
            speed.extend_from_slice(speeds);
            cells.push(CellShape::PolyLine, &conn);
        }

        let mut ds = DataSet::explicit(points, cells);
        ds.add_field(Field::scalar("speed", Association::Points, speed));
        FilterOutput::data(
            ds,
            vec![KernelReport::new(
                "rk4-advect",
                KernelClass::Rk4Advect,
                work,
            )],
        )
    }
}

impl Filter for ParticleAdvection {
    fn name(&self) -> &'static str {
        "Particle Advection"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        let frame = Frame::resolve(0.0, input, &self.field);
        self.run(std::slice::from_ref(&frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Uniform +x flow on a unit grid.
    fn uniform_flow(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vel = vec![Vec3::new(1.0, 0.0, 0.0); grid.num_points()];
        DataSet::uniform(grid).with_field(Field::vector("velocity", Association::Points, vel))
    }

    /// Uniform +x flow scaled by `s`.
    fn scaled_flow(n: usize, s: f64) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vel = vec![Vec3::new(s, 0.0, 0.0); grid.num_points()];
        DataSet::uniform(grid).with_field(Field::vector("velocity", Association::Points, vel))
    }

    /// Rigid rotation around the z axis through the center.
    fn rotating_flow(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let c = grid.bounds().center();
        let vel: Vec<Vec3> = (0..grid.num_points())
            .map(|p| {
                let q = grid.point_coord_id(p) - c;
                Vec3::new(-q.y, q.x, 0.0)
            })
            .collect();
        DataSet::uniform(grid).with_field(Field::vector("velocity", Association::Points, vel))
    }

    fn advector(particles: usize, steps: usize) -> ParticleAdvection {
        ParticleAdvection::new("velocity", particles, steps, 1e-3, 42)
    }

    #[test]
    fn streamlines_follow_uniform_flow() {
        let ds = uniform_flow(4);
        let out = advector(10, 50).execute(&ds);
        let result = out.dataset.unwrap();
        let (points, cells) = result.as_explicit().unwrap();
        assert!(cells.num_cells() > 0);
        for (shape, conn) in cells.iter() {
            assert_eq!(shape, CellShape::PolyLine);
            // Monotone x, constant y/z.
            for w in conn.windows(2) {
                let a = points[w[0] as usize];
                let b = points[w[1] as usize];
                assert!(b.x > a.x);
                assert!((b.y - a.y).abs() < 1e-12);
                assert!((b.z - a.z).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn particles_terminate_at_domain_exit() {
        let ds = uniform_flow(4);
        // Huge steps: every particle exits quickly.
        let adv = ParticleAdvection::new("velocity", 20, 1000, 0.05, 7);
        let out = adv.execute(&ds);
        // Total steps far fewer than 20 * 1000.
        let steps = out.kernels[0].work.items;
        assert!(steps < 20 * 1000, "steps = {steps}");
        // And all endpoints are inside (termination happens before exit).
        let result = out.dataset.unwrap();
        let b = ds.bounds();
        let (points, _) = result.as_explicit().unwrap();
        for p in points {
            assert!(b.contains(*p));
        }
    }

    #[test]
    fn rk4_conserves_radius_in_rotation() {
        // RK4 on rigid rotation keeps particles near their initial radius.
        let ds = rotating_flow(8);
        let frame = Frame::resolve(0.0, &ds, "velocity");
        let frames = std::slice::from_ref(&frame);
        let c = ds.bounds().center();
        let p0 = Vec3::new(0.7, 0.5, 0.5);
        let r0 = (p0 - c).length();
        let mut p = p0;
        for _ in 0..2000 {
            match ParticleAdvection::rk4_series(frames, p, 0.0, 1e-3, false, &mut 0) {
                Some((next, _)) => p = next,
                None => break,
            }
        }
        let r1 = (p - c).length();
        assert!((r1 - r0).abs() < 1e-4, "radius drifted {r0} -> {r1}");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let ds = rotating_flow(4);
        let a = advector(5, 20).execute(&ds);
        let b = advector(5, 20).execute(&ds);
        assert_eq!(a.dataset.unwrap(), b.dataset.unwrap());
    }

    #[test]
    fn work_independent_of_grid_size_when_no_exit() {
        // Rotating flow keeps particles inside: same seeds/steps on 4³
        // and 8³ grids take the same number of RK4 steps (Fig. 6).
        let small = advector(8, 30).execute(&rotating_flow(4));
        let large = advector(8, 30).execute(&rotating_flow(8));
        assert_eq!(small.kernels[0].work.items, large.kernels[0].work.items);
    }

    #[test]
    fn speed_field_matches_flow() {
        let ds = uniform_flow(4);
        let out = advector(5, 10).execute(&ds);
        let result = out.dataset.unwrap();
        for &s in result.point_scalars("speed").unwrap() {
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn a_nan_velocity_ends_the_path_at_the_step_that_read_it() {
        // +x flow at speed 1 over 4³ cells, NaN at the one point
        // (4, 2, 2). The single sparse-grid seed is the box center and
        // walks +x in steps of 0.04 inside cell row (·, 2, 2); the cell
        // touching the NaN point starts at x = 0.75. Steps 0..=5 stay
        // below it; step 6 starts at 0.74 and its last stage lands at
        // 0.78, reads NaN, and must not become a path point.
        let grid = UniformGrid::cube_cells(4);
        let mut vel = vec![Vec3::X; grid.num_points()];
        vel[grid.point_id(4, 2, 2)] = Vec3::new(f64::NAN, 0.0, 0.0);
        let ds =
            DataSet::uniform(grid).with_field(Field::vector("velocity", Association::Points, vel));
        let h = 0.04 / ds.bounds().diagonal();
        let out = ParticleAdvection::new("velocity", 1, 100, h, 1)
            .with_scenario(FlowScenario {
                seeding: Seeding::SparseGrid,
                ..FlowScenario::default()
            })
            .execute(&ds);
        let lines = out.dataset.unwrap();
        let (points, cells) = lines.as_explicit().unwrap();
        assert_eq!(cells.num_cells(), 1);
        assert_eq!(points.len(), 7, "the seed and six completed steps");
        assert!(points.iter().all(|p| p.is_finite()));
        assert!((points[6].x - 0.74).abs() < 1e-12);
        let speeds = lines.point_scalars("speed").unwrap();
        assert!(speeds.iter().all(|&s| (s - 1.0).abs() < 1e-12));
        // Six completed steps (the seventh's evaluations are not
        // charged) plus the per-particle item.
        assert_eq!(out.kernels[0].work.items, 6 + 1);
    }

    #[test]
    fn pathline_on_frozen_series_is_byte_identical_to_streamline() {
        // The tentpole's bit-exactness law: a pathline through a
        // single-snapshot series takes the single-frame sampling
        // shortcut at every stage, so its polylines, speed field, AND
        // work counters match the streamline's exactly.
        for ds in [rotating_flow(6), uniform_flow(4)] {
            let adv = advector(12, 40);
            let steady = adv.execute(&ds);
            let series = FieldSeries::frozen(Arc::new(ds));
            let pathline = adv
                .clone()
                .with_scenario(FlowScenario {
                    mode: FlowMode::Pathline,
                    ..FlowScenario::default()
                })
                .execute_series(&series);
            assert_eq!(steady.dataset, pathline.dataset, "geometry must match");
            assert_eq!(
                format!("{:?}", steady.kernels),
                format!("{:?}", pathline.kernels),
                "work accounting must match"
            );
        }
    }

    #[test]
    fn pathline_tracks_the_time_varying_field() {
        // Flow accelerates from 1 to 3 over t in [0, 1]: a pathline
        // must outrun the t=0 streamline, and the interpolated speed at
        // mid-times must lie strictly between the snapshots.
        let mut series = FieldSeries::with_capacity(2);
        series.record(0.0, Arc::new(scaled_flow(4, 1.0)));
        // push() requires strictly increasing times, so the faster
        // snapshot lands at t = 1.
        series.record(1.0, Arc::new(scaled_flow(4, 3.0)));
        // 100 fixed steps cover ~0.17 time units: no particle reaches
        // the domain boundary, so reach differences are pure physics.
        let adv =
            ParticleAdvection::new("velocity", 6, 100, 1e-3, 42).with_scenario(FlowScenario {
                seeding: Seeding::SparseGrid,
                ..FlowScenario::default()
            });
        let steady = adv.execute(&scaled_flow(4, 1.0));
        let pathline = adv
            .clone()
            .with_scenario(FlowScenario {
                mode: FlowMode::Pathline,
                seeding: Seeding::SparseGrid,
                ..FlowScenario::default()
            })
            .execute_series(&series);
        let reach = |out: FilterOutput| {
            let ds = out.dataset.unwrap();
            let mut dx = 0.0f64;
            {
                let (points, cells) = ds.as_explicit().unwrap();
                for (_, conn) in cells.iter() {
                    let a = points[conn[0] as usize];
                    let b = points[conn[conn.len() - 1] as usize];
                    dx = dx.max(b.x - a.x);
                }
            }
            dx
        };
        let (steady_dx, path_dx) = (reach(steady), reach(pathline));
        assert!(
            path_dx > steady_dx * 1.05,
            "pathline must outrun the frozen field: {steady_dx} vs {path_dx}"
        );
    }

    #[test]
    fn sparse_and_feature_seeding_are_deterministic_and_in_bounds() {
        let ds = rotating_flow(6);
        let b = ds.bounds();
        for seeding in [Seeding::SparseGrid, Seeding::AlongFeature] {
            let adv = advector(9, 10).with_scenario(FlowScenario {
                seeding,
                ..FlowScenario::default()
            });
            let a = adv.execute(&ds);
            let again = adv.execute(&ds);
            assert_eq!(a.dataset, again.dataset, "{seeding:?} must replay");
            let ds_out = a.dataset.unwrap();
            let (points, _) = ds_out.as_explicit().unwrap();
            for p in points {
                assert!(b.contains(*p), "{seeding:?} seed path left the domain");
            }
        }
    }

    #[test]
    fn along_feature_seeds_start_faster_than_sparse() {
        // Rigid rotation is fastest at the rim: feature seeding must
        // pick sites with higher mean initial speed than the lattice.
        let ds = rotating_flow(8);
        let mean_initial_speed = |seeding: Seeding| {
            let out = advector(8, 2)
                .with_scenario(FlowScenario {
                    seeding,
                    ..FlowScenario::default()
                })
                .execute(&ds);
            let result = out.dataset.unwrap();
            let mut total = 0.0;
            let mut n = 0usize;
            {
                let speeds = result.point_scalars("speed").unwrap();
                let (_, cells) = result.as_explicit().unwrap();
                for (_, conn) in cells.iter() {
                    total += speeds[conn[0] as usize];
                    n += 1;
                }
            }
            total / n.max(1) as f64
        };
        assert!(
            mean_initial_speed(Seeding::AlongFeature) > mean_initial_speed(Seeding::SparseGrid),
            "feature seeds should sit in the fast band"
        );
    }

    #[test]
    fn adaptive_control_conserves_radius_with_fewer_accepted_steps() {
        let ds = rotating_flow(8);
        let c = ds.bounds().center();
        let adv =
            ParticleAdvection::new("velocity", 4, 400, 2e-3, 11).with_scenario(FlowScenario {
                step_control: StepControl::Adaptive { tol: 1e-5 },
                seeding: Seeding::SparseGrid,
                ..FlowScenario::default()
            });
        let out = adv.execute(&ds);
        let result = out.dataset.unwrap();
        let (points, cells) = result.as_explicit().unwrap();
        for (_, conn) in cells.iter() {
            let r0 = (points[conn[0] as usize] - c).length();
            let r1 = (points[conn[conn.len() - 1] as usize] - c).length();
            assert!((r1 - r0).abs() < 1e-3, "radius drifted {r0} -> {r1}");
        }
        // Adaptive control charges trial evaluations too: eval-derived
        // items must differ from the fixed-step run's.
        let fixed = ParticleAdvection::new("velocity", 4, 400, 2e-3, 11)
            .with_scenario(FlowScenario {
                seeding: Seeding::SparseGrid,
                ..FlowScenario::default()
            })
            .execute(&ds);
        assert_ne!(out.kernels[0].work.items, fixed.kernels[0].work.items);
    }

    #[test]
    fn exit_domain_runs_past_the_step_bound_until_exit() {
        let ds = uniform_flow(4);
        // Step length exits the unit box in ~1000 fixed steps of
        // sqrt(3)*5e-4; MaxSteps at 200 would stop early, ExitDomain
        // keeps integrating (ceiling 8 × 200 = 1600).
        let capped = ParticleAdvection::new("velocity", 6, 200, 5e-4, 3)
            .with_scenario(FlowScenario {
                seeding: Seeding::SparseGrid,
                ..FlowScenario::default()
            })
            .execute(&ds);
        let exits = ParticleAdvection::new("velocity", 6, 200, 5e-4, 3)
            .with_scenario(FlowScenario {
                seeding: Seeding::SparseGrid,
                termination: Termination::ExitDomain,
                ..FlowScenario::default()
            })
            .execute(&ds);
        assert!(
            exits.kernels[0].work.items > capped.kernels[0].work.items,
            "exit-domain must integrate past the step bound"
        );
    }

    #[test]
    fn max_time_stops_at_the_horizon() {
        let ds = uniform_flow(4);
        let h = ds.bounds().diagonal() * 1e-3;
        // Half-step margin: the 25th step crosses the horizon whatever
        // way the accumulated-time rounding falls.
        let t_end = h * 24.5;
        let out = advector(4, 500)
            .with_scenario(FlowScenario {
                seeding: Seeding::SparseGrid,
                termination: Termination::MaxTime { t_end },
                ..FlowScenario::default()
            })
            .execute(&ds);
        // 25 full steps reach the horizon; +1 for the seed point.
        let result = out.dataset.unwrap();
        let (_, cells) = result.as_explicit().unwrap();
        for (_, conn) in cells.iter() {
            assert_eq!(conn.len(), 26, "fixed steps to the time horizon");
        }
    }

    #[test]
    fn scenario_label_and_default_detection() {
        assert!(FlowScenario::default().is_default());
        let s = FlowScenario {
            mode: FlowMode::Pathline,
            seeding: Seeding::AlongFeature,
            step_control: StepControl::Adaptive { tol: 1e-6 },
            termination: Termination::MaxTime { t_end: 0.5 },
        };
        assert!(!s.is_default());
        assert_eq!(s.label(), "pathline/along-feature/adaptive/max-time");
        assert_eq!(
            FlowScenario::default().label(),
            "streamline/dense-box/fixed/max-steps"
        );
    }
}
