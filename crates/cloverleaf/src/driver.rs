//! The time-step driver orchestrating the hydro kernels.

use crate::kernels::{self, Scratch};
use crate::problems::Problem;
use crate::state::State;
use powersim::trace::{Journal, Scope};
use std::sync::Arc;
use vizmesh::{DataSet, FieldSeries, WorkCounters};

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// CFL safety factor.
    pub(crate) cfl: f64,
    /// Initial (and maximum first-step) time step.
    pub(crate) initial_dt: f64,
    /// Hard ceiling on dt.
    pub(crate) max_dt: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cfl: 0.4,
            initial_dt: 1e-4,
            max_dt: 5e-2,
        }
    }
}

/// What one step did, for logging and for the power instrumentation.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    pub step: u64,
    /// Work done by all kernels this step.
    pub work: WorkCounters,
}

/// A running simulation: state + scratch + time bookkeeping.
pub struct Simulation {
    pub state: State,
    scratch: Scratch,
    config: SimConfig,
    time: f64,
    step: u64,
    dt: f64,
}

impl Simulation {
    /// Build a simulation from a problem on an `n³` grid.
    pub fn new(problem: Problem, n: usize, config: SimConfig) -> Self {
        Self::from_state(problem.build(n), config)
    }

    /// Start from an arbitrary initial state (any grid shape; the tests'
    /// way to a non-cubic run).
    pub fn from_state(state: State, config: SimConfig) -> Self {
        let scratch = Scratch::for_state(&state);
        let dt = config.initial_dt;
        Simulation {
            state,
            scratch,
            config,
            time: 0.0,
            step: 0,
            dt,
        }
    }

    pub fn time(&self) -> f64 {
        self.time
    }

    pub fn step_count(&self) -> u64 {
        self.step
    }

    pub fn current_dt(&self) -> f64 {
        self.dt
    }

    /// Advance one time step: EOS → viscosity → acceleration → PdV →
    /// advection → next-dt, in five parallel sweeps (see
    /// [`crate::kernels`]); the next dt comes from maxima sweeps A and B
    /// keep as they write the sound speeds and the velocities.
    pub fn step(&mut self) -> StepReport {
        self.step_phases(&mut |_, _| {}, &mut Journal::off())
    }

    /// Advance one time step like [`Simulation::step`], invoking
    /// `observer` with each hydro kernel's name and work counters after
    /// the sweep that did its work — the phase-level callback the in-situ
    /// runtime and the power governor characterize per-kernel workloads
    /// from. The sequence is `ideal_gas`, `divergence`, `viscosity`
    /// (sweep A), `acceleration` (B), `divergence`, `pdv` (C), `advect`
    /// (D and E), `calc_dt`. The last is not a pass of its own: the next
    /// dt is [`kernels::calc_dt`]'s number from the largest sound speed
    /// and speed that sweeps A and B return, and the observer gets
    /// `calc_dt`'s counters, which the power model still charges.
    ///
    /// `journal`'s clock advances by the step's simulated duration, and
    /// a live journal gets a [`Scope::Timestep`] span covering it.
    pub fn step_phases(
        &mut self,
        observer: &mut dyn FnMut(&'static str, WorkCounters),
        journal: &mut Journal,
    ) -> StepReport {
        let mut work = WorkCounters::new();
        let mut retire = |phases: &[(&'static str, WorkCounters)]| {
            for &(name, w) in phases {
                observer(name, w);
                work += w;
            }
        };
        let (state, scratch, dt) = (&mut self.state, &mut self.scratch, self.dt);
        let (phases, max_cs) = kernels::eos_and_viscosity(state, &mut scratch.stress);
        retire(&phases);
        let (w, max_u_sq) = kernels::acceleration(state, &scratch.stress, dt);
        retire(&[("acceleration", w)]);
        // Divergence changed with the new velocities; PdV uses the fresh one.
        retire(&kernels::pdv(state, &scratch.stress, dt));
        retire(&[("advect", kernels::advect(state, scratch, dt))]);

        let time_before = self.time;
        self.time += self.dt;
        self.step += 1;

        // PdV and advection write neither the sound speeds nor the
        // velocities, so sweeps A and B's maxima are `calc_dt`'s.
        let (next_dt, w_dt) =
            kernels::cfl_dt(&self.state.grid, max_cs, max_u_sq, self.dt, self.config.cfl);
        retire(&[("calc_dt", w_dt)]);
        self.dt = next_dt.min(self.config.max_dt);

        // The hot working set of a step: every field array.
        work.working_set_bytes =
            (self.state.density.len() * 8 * 4 + self.state.velocity.len() * 24) as u64;

        // The journal has always advanced by the clock difference, which
        // can differ from `dt` in the last bit.
        let t0 = journal.now();
        let step_dt = self.time - time_before;
        journal.advance(step_dt);
        journal.push_span(Scope::Timestep, t0, None, || {
            let args = vec![
                ("step", self.step as f64),
                ("dt", step_dt),
                ("instructions", work.instructions as f64),
            ];
            (format!("step:{}", self.step), args)
        });
        StepReport {
            step: self.step,
            work,
        }
    }

    /// Run `n` steps, returning the accumulated work.
    pub fn run_steps(&mut self, n: u64) -> WorkCounters {
        let mut total = WorkCounters::new();
        for _ in 0..n {
            total += self.step().work;
        }
        total
    }

    /// Run `n` steps, recording a snapshot of the state into `series`
    /// every `every`-th step (by global step count) — the feed for
    /// time-varying consumers (pathline advection). The series' ring
    /// capacity bounds retention, so a long run keeps a sliding window
    /// rather than every exported state. The final state is always
    /// recorded, so the retained window ends at the simulation's
    /// current time even when `n` is off-cadence.
    ///
    /// Each step is journaled as by [`Simulation::step_phases`].
    /// Snapshot recording itself emits nothing: the journal sees exactly
    /// the same timestep spans as an unrecorded run, so recording cannot
    /// perturb golden traces.
    pub fn run_steps_recording(
        &mut self,
        n: u64,
        every: u64,
        series: &mut FieldSeries,
        journal: &mut Journal,
    ) -> WorkCounters {
        // lint: cadence precondition, caller bug
        assert!(every > 0, "recording cadence must be positive");
        let mut total = WorkCounters::new();
        for _ in 0..n {
            total += self.step_phases(&mut |_, _| {}, journal).work;
            if self.step.is_multiple_of(every) {
                series.record(self.time, Arc::new(self.dataset()));
            }
        }
        if n > 0 && series.last_time() != Some(self.time) {
            series.record(self.time, Arc::new(self.dataset()));
        }
        total
    }

    /// Export the current state for visualization.
    pub fn dataset(&self) -> DataSet {
        self.state.to_dataset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_advance_time_monotonically() {
        let mut sim = Simulation::new(Problem::TwoState, 6, SimConfig::default());
        let mut last_t = 0.0;
        for _ in 0..5 {
            sim.step();
            assert!(sim.time() > last_t);
            assert!(sim.current_dt() > 0.0);
            last_t = sim.time();
        }
        assert_eq!(sim.step_count(), 5);
    }

    #[test]
    fn mass_is_conserved_over_many_steps() {
        let mut sim = Simulation::new(Problem::TwoState, 8, SimConfig::default());
        let m0 = sim.state.total_mass();
        sim.run_steps(50);
        let m1 = sim.state.total_mass();
        assert!(((m1 - m0) / m0).abs() < 1e-10, "mass drift {m0} -> {m1}");
    }

    #[test]
    fn energy_front_propagates_outward() {
        let mut sim = Simulation::new(Problem::TwoState, 12, SimConfig::default());
        // Sample a cell on the diagonal, outside the initial source region.
        let probe = sim.state.grid.cell_id(6, 6, 6);
        let e_before = sim.state.energy[probe];
        sim.run_steps(200);
        // After the front passes, pressure/energy at the probe cell should
        // have changed from the quiescent background value.
        let e_after = sim.state.energy[probe];
        assert!(
            (e_after - e_before).abs() > 1e-6,
            "front never reached probe: {e_before} vs {e_after}"
        );
    }

    #[test]
    fn state_remains_physical() {
        let mut sim = Simulation::new(Problem::TwoState, 8, SimConfig::default());
        sim.run_steps(100);
        assert!(sim.state.density.iter().all(|d| d.is_finite() && *d > 0.0));
        assert!(sim.state.energy.iter().all(|e| e.is_finite() && *e > 0.0));
        assert!(sim.state.velocity.iter().all(|u| u.is_finite()));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(Problem::TwoState, 6, SimConfig::default());
            sim.run_steps(20);
            sim.state.energy.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn journaled_steps_advance_journal_clock() {
        use powersim::trace::Event;
        let mut sim = Simulation::new(Problem::TwoState, 6, SimConfig::default());
        let mut journal = Journal::with_capacity(64);
        for _ in 0..5 {
            sim.step_phases(&mut |_, _| {}, &mut journal);
        }
        assert!((journal.now() - sim.time()).abs() < 1e-12);
        let spans = journal
            .events()
            .filter(|e| matches!(e, Event::Span(s) if s.scope == Scope::Timestep))
            .count();
        assert_eq!(spans, 5);
    }

    #[test]
    fn step_phases_reports_every_kernel_and_sums_to_step_work() {
        let mut sim = Simulation::new(Problem::TwoState, 6, SimConfig::default());
        let mut names = Vec::new();
        let mut instructions = 0u64;
        let observer = &mut |name, w: WorkCounters| {
            names.push(name);
            instructions += w.instructions;
        };
        let r = sim.step_phases(observer, &mut Journal::off());
        assert_eq!(
            names,
            vec![
                "ideal_gas",
                "divergence",
                "viscosity",
                "acceleration",
                "divergence",
                "pdv",
                "advect",
                "calc_dt",
            ]
        );
        assert_eq!(instructions, r.work.instructions);
    }

    #[test]
    fn step_phases_matches_plain_step() {
        let mut plain = Simulation::new(Problem::TwoState, 6, SimConfig::default());
        let mut observed = Simulation::new(Problem::TwoState, 6, SimConfig::default());
        let mut journal = Journal::with_capacity(8);
        for _ in 0..5 {
            let a = plain.step();
            let b = observed.step_phases(&mut |_, _| {}, &mut journal);
            assert_eq!(plain.time(), observed.time());
            assert_eq!(a.work.instructions, b.work.instructions);
        }
        assert_eq!(plain.state.energy, observed.state.energy);
    }

    #[test]
    fn recording_retains_a_bounded_ring_past_step_200() {
        let mut sim = Simulation::new(Problem::TwoState, 6, SimConfig::default());
        let mut series = FieldSeries::with_capacity(4);
        sim.run_steps_recording(240, 20, &mut series, &mut Journal::off());
        assert_eq!(sim.step_count(), 240);
        // 12 recorded snapshots (steps 20, 40, ..., 240), ring keeps 4.
        assert_eq!(series.len(), 4);
        assert_eq!(series.evicted(), 8);
        let times: Vec<f64> = series.snapshots().map(|(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "times increase");
        assert_eq!(series.last_time(), Some(sim.time()));
        // The retained snapshots are genuinely different states.
        let energies: Vec<f64> = series
            .snapshots()
            .map(|(_, ds)| {
                ds.point_scalars("energy")
                    .expect("hydro exports energy") // lint: export contract
                    .iter()
                    .sum()
            })
            .collect();
        assert!(
            energies.windows(2).any(|w| w[0] != w[1]),
            "snapshots must not alias one evolving state"
        );
    }

    #[test]
    fn recording_appends_the_final_state_when_off_cadence() {
        let mut sim = Simulation::new(Problem::TwoState, 6, SimConfig::default());
        let mut series = FieldSeries::with_capacity(8);
        sim.run_steps_recording(10, 4, &mut series, &mut Journal::off());
        // Cadence snapshots at steps 4 and 8, plus the final state at 10.
        assert_eq!(series.len(), 3);
        assert_eq!(series.last_time(), Some(sim.time()));
    }

    #[test]
    fn recording_journaled_matches_plain_recording() {
        let run = |journal: &mut Journal| {
            let mut sim = Simulation::new(Problem::TwoState, 6, SimConfig::default());
            let mut series = FieldSeries::with_capacity(4);
            sim.run_steps_recording(24, 8, &mut series, journal);
            let times: Vec<f64> = series.snapshots().map(|(t, _)| t).collect();
            (times, sim.state.energy.clone(), sim.time())
        };
        let mut journal = Journal::with_capacity(256);
        let live = run(&mut journal);
        assert!((journal.now() - live.2).abs() < 1e-12);
        assert_eq!(journal.len(), 24, "one timestep span per step");
        assert_eq!(run(&mut Journal::off()), live);
    }

    /// The dt a step folds out of sweeps A and B is, to the bit,
    /// `calc_dt`'s pass over the stepped state, on a grid `par` cuts
    /// (9177 cells, 10560 nodes) — also when a velocity or an energy, and
    /// so a sound speed, is NaN: the chunked maxima drop it as one fold
    /// does.
    #[test]
    fn the_folded_dt_is_calc_dt_of_the_stepped_state() {
        use vizmesh::{par, Aabb, UniformGrid, Vec3};
        let smooth = || {
            let bounds = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.2, 1.5));
            let grid = UniformGrid::from_cell_dims([23, 21, 19], bounds);
            let mut s = Problem::TwoState.build_on(grid);
            for (id, u) in s.velocity.iter_mut().enumerate() {
                let p = s.grid.point_coord_id(id);
                *u = Vec3::new(0.3 * p.y - 0.1, 0.2 * (p.z - p.x), 0.1 * p.x * p.y);
            }
            s
        };
        let nan_velocity = || {
            let mut s = smooth();
            let id = s.grid.point_id(7, 5, 3);
            s.velocity[id].y = f64::NAN;
            s
        };
        let nan_energy = || {
            let mut s = smooth();
            let id = s.grid.cell_id(11, 2, 17);
            s.energy[id] = f64::NAN;
            s
        };
        let cases: [(&str, &dyn Fn() -> State); 3] = [
            ("smooth", &smooth),
            ("NaN velocity", &nan_velocity),
            ("NaN energy", &nan_energy),
        ];
        for (what, build) in cases {
            for threads in [1, 2, 16] {
                par::with_threads(threads, || {
                    let mut sim = Simulation::from_state(build(), SimConfig::default());
                    for step in 0..3 {
                        let prev_dt = sim.current_dt();
                        sim.step();
                        let (cfl, max_dt) = (sim.config.cfl, sim.config.max_dt);
                        let expect = kernels::calc_dt(&sim.state, prev_dt, cfl).0.min(max_dt);
                        assert_eq!(
                            sim.current_dt().to_bits(),
                            expect.to_bits(),
                            "{what}, step {step}, {threads} threads"
                        );
                        // The NaN is there to be dropped, and it was.
                        let speeds = sim.state.velocity.iter().map(|u| u.length_squared());
                        let nans = speeds.chain(sim.state.soundspeed.iter().copied());
                        assert_eq!(nans.filter(|x| x.is_nan()).count() > 0, what != "smooth");
                        assert!(sim.current_dt().is_finite() && sim.current_dt() > 0.0);
                    }
                });
            }
        }
    }

    #[test]
    fn work_counters_scale_with_grid() {
        let mut small = Simulation::new(Problem::TwoState, 4, SimConfig::default());
        let mut large = Simulation::new(Problem::TwoState, 8, SimConfig::default());
        let ws = small.step().work;
        let wl = large.step().work;
        // 8x the cells → roughly 8x the instructions.
        let ratio = wl.instructions as f64 / ws.instructions as f64;
        assert!(ratio > 5.0 && ratio < 11.0, "ratio = {ratio}");
    }
}
