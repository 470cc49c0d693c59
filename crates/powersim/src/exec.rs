//! The workload executor: advances virtual time through a workload under
//! the programmed power cap, updating counters and energy, and sampling
//! every 100 ms exactly as the study does.
//!
//! Every entry point takes the [`Journal`] it emits typed events into:
//! per-kernel-phase energy spans, the 100 ms counter samples, and RAPL
//! cap changes (schema in `docs/OBSERVABILITY.md`). A caller with
//! nothing to record passes [`Journal::off`].
//!
//! Execution is resumable: [`RunState`] holds all in-flight progress of
//! one workload on one [`Package`], and [`RunState::advance`] runs it
//! for a bounded slice of virtual time. [`Package::run`] is
//! the one-shot wrapper (an unbounded advance); the closed-loop governor
//! steps two `RunState`s in 100 ms windows and reprograms caps between
//! them.

#![deny(missing_docs)]

use crate::counters::{derived, CounterBank};
use crate::cpu::CpuSpec;
use crate::timing::{bw_utilization, phase_time};
use crate::trace::{Journal, Kind, Scope};
use crate::units::{Joules, Watts};
use crate::workload::{KernelPhase, Workload};

/// Sampling period used by the study (§V-B): 100 ms.
pub const SAMPLE_PERIOD_SEC: f64 = 0.100;

/// RAPL power-limit granularity: caps are whole multiples of 1/8 W.
const POWER_UNIT: Watts = Watts(0.125);

/// Energy-status granularity on Broadwell-EP: 2⁻¹⁴ J (61 µJ) per tick.
const ENERGY_UNIT: Joules = Joules(1.0 / 16384.0);

/// Firmware control window: the cap is re-read at every 10 ms edge.
const CONTROL_WINDOW_SEC: f64 = 0.010;

/// One 100 ms sample: the derived metrics of §V-B over the interval.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Mean package power over the interval, from the energy-counter delta.
    pub(crate) power_watts: Watts,
    /// Effective frequency over the interval (APERF/MPERF), in GHz.
    pub(crate) effective_freq_ghz: f64,
    /// Instructions per reference cycle over the interval.
    pub ipc: f64,
    /// LLC miss rate (misses / references) over the interval.
    pub llc_miss_rate: f64,
}

/// Aggregate result of one workload execution.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// The cap programmed when the run started.
    pub cap_watts: Watts,
    /// Total execution time (virtual seconds).
    pub seconds: f64,
    /// Total package energy, accumulated per phase then summed, so the
    /// per-phase journal spans sum to it exactly.
    pub energy_joules: Joules,
    /// `energy_joules / seconds` (zero for an empty run).
    pub avg_power_watts: Watts,
    /// Time-weighted mean of the per-sample effective frequencies.
    pub avg_effective_freq_ghz: f64,
    /// Whole-run instructions per reference cycle.
    pub avg_ipc: f64,
    /// Whole-run LLC miss rate (misses / references).
    pub avg_llc_miss_rate: f64,
}

/// One simulated processor package.
///
/// The RAPL registers the study reads through msr-safe (§V-B) are two
/// plain fields: the programmed cap and the package energy-status
/// counter, each holding exactly what its register field can encode.
pub struct Package {
    /// The package model (V/f curve, DVFS ladder, power coefficients).
    pub(crate) spec: CpuSpec,
    /// The programmed cap, a whole number of [`POWER_UNIT`]s; `None`
    /// until one is set, when the firmware enforces TDP.
    cap: Option<Watts>,
    /// The 32-bit energy-status counter in [`ENERGY_UNIT`] ticks; it
    /// wraps, and readers difference it with `wrapping_sub`.
    energy_ticks: u32,
    /// The package's performance counter bank.
    pub(crate) counters: CounterBank,
    /// Virtual time since construction.
    pub(crate) now: f64,
}

impl Package {
    /// A fresh package (uncapped, zeroed counters, time 0) with the given
    /// model.
    pub fn new(spec: CpuSpec) -> Self {
        Package {
            spec,
            cap: None,
            energy_ticks: 0,
            counters: CounterBank::default(),
            now: 0.0,
        }
    }

    /// Default paper package.
    pub fn broadwell() -> Self {
        Package::new(CpuSpec::broadwell_e5_2695v4())
    }

    /// Program a package cap, clamped to the supported range and rounded
    /// to the power-limit unit; returns the cap actually programmed. A
    /// live journal gets a [`Kind::CapChange`] record of both the
    /// requested and the programmed cap.
    pub fn set_cap(&mut self, watts: Watts, journal: &mut Journal) -> Watts {
        let programmed = (self.spec.clamp_cap(watts) / POWER_UNIT).round() * POWER_UNIT;
        self.cap = Some(programmed);
        journal.push_record(Kind::CapChange, journal.now(), || {
            vec![
                ("requested_watts", watts.into()),
                ("actual_watts", programmed.into()),
            ]
        });
        programmed
    }

    /// Add `joules` to the energy-status counter, rounded to whole ticks.
    fn accumulate_energy(&mut self, joules: Joules) {
        let ticks = (joules / ENERGY_UNIT).round() as u64 as u32;
        self.energy_ticks = self.energy_ticks.wrapping_add(ticks);
    }

    /// Energy counted since the counter read `snapshot`, through at most
    /// one wrap.
    fn energy_since(&self, snapshot: u32) -> Joules {
        self.energy_ticks.wrapping_sub(snapshot) as f64 * ENERGY_UNIT
    }

    /// Firmware frequency decision for a phase: the highest ladder
    /// frequency whose total package power — core dynamic power at the
    /// phase's activity plus the DRAM-traffic term at the bandwidth the
    /// phase would actually achieve at that frequency — fits the cap.
    fn decide_frequency(&self, phase: &KernelPhase) -> (f64, f64) {
        let util = |f| bw_utilization(&self.spec, phase, f);
        self.spec
            .solve_frequency(self.effective_cap(), phase.activity, util)
    }

    /// The cap the firmware enforces: the programmed cap, else TDP — and
    /// never above TDP.
    fn effective_cap(&self) -> Watts {
        let tdp = self.spec.tdp_watts;
        self.cap.unwrap_or(tdp).min(tdp)
    }

    /// Execute `workload` to completion under the currently programmed
    /// cap, returning the aggregate result. A live journal gets a
    /// [`Scope::Kernel`] span per phase carrying that phase's exact
    /// energy, a [`Kind::Counter`] record per 100 ms interval, and a
    /// closing [`Scope::Workload`] span whose joules are the sum of the
    /// kernel spans — the same additions in the same order as
    /// `energy_joules`, so children sum to the parent exactly. The
    /// journal clock advances in lock-step with the package's virtual
    /// time.
    pub fn run(&mut self, workload: &Workload, journal: &mut Journal) -> ExecResult {
        let mut state = RunState::new(self, workload, journal);
        while !state.is_done() {
            state.advance(self, f64::INFINITY, journal);
        }
        state.finish(self)
    }

    fn make_sample(&self, dt: f64, snap: &CounterBank, snap_energy_ticks: u32) -> Sample {
        let d_aperf = CounterBank::delta(snap.aperf, self.counters.aperf);
        let d_mperf = CounterBank::delta(snap.mperf, self.counters.mperf);
        let d_inst = CounterBank::delta(snap.inst_retired, self.counters.inst_retired);
        let d_ref_tsc = CounterBank::delta(snap.ref_tsc, self.counters.ref_tsc);
        let d_llc_ref = CounterBank::delta(snap.llc_ref, self.counters.llc_ref);
        let d_llc_miss = CounterBank::delta(snap.llc_miss, self.counters.llc_miss);
        Sample {
            power_watts: self.energy_since(snap_energy_ticks).over_seconds(dt),
            effective_freq_ghz: derived::effective_frequency_ghz(
                self.spec.base_ghz,
                d_aperf,
                d_mperf,
            ),
            ipc: derived::ipc(d_inst, d_ref_tsc),
            llc_miss_rate: derived::llc_miss_rate(d_llc_miss, d_llc_ref),
        }
    }

    /// Convenience: [`Package::set_cap`], then [`Package::run`].
    pub fn run_capped(
        &mut self,
        workload: &Workload,
        cap_watts: Watts,
        journal: &mut Journal,
    ) -> ExecResult {
        self.set_cap(cap_watts, journal);
        self.run(workload, journal)
    }
}

/// In-flight progress of one workload on one [`Package`].
///
/// Created by [`RunState::new`], driven by repeated calls to
/// [`RunState::advance`] with a virtual-time budget per call (the
/// governor uses the 100 ms sample period), and consumed by
/// [`RunState::finish`] once [`RunState::is_done`]. An unbounded
/// `advance` reproduces [`Package::run`] exactly — same
/// events, same order, same arithmetic.
pub struct RunState<'w> {
    workload: &'w Workload,
    /// Cap programmed at construction (reported in [`ExecResult`]).
    cap: Watts,
    start_t: f64,
    run_t0: f64,
    energy: Joules,
    // Sampling bookkeeping: the newest sample, how many were taken, and
    // the running sum of effective frequency × sample duration.
    latest: Option<Sample>,
    sample_count: usize,
    freq_seconds: f64,
    last_sample_t: f64,
    snap: CounterBank,
    snap_energy_ticks: u32,
    // In-flight phase bookkeeping.
    phase_index: usize,
    progress: f64,
    t_in_phase: f64,
    phase_energy: Joules,
    phase_t0: f64,
    phase_open: bool,
    completed: bool,
}

impl<'w> RunState<'w> {
    /// Begin executing `workload` on `pkg` under its currently
    /// programmed cap. Nothing advances until [`RunState::advance`].
    pub fn new(pkg: &Package, workload: &'w Workload, journal: &Journal) -> Self {
        RunState {
            workload,
            cap: pkg.cap.unwrap_or(pkg.spec.tdp_watts),
            start_t: pkg.now,
            run_t0: journal.now(),
            energy: Joules::ZERO,
            latest: None,
            sample_count: 0,
            freq_seconds: 0.0,
            last_sample_t: pkg.now,
            snap: pkg.counters,
            snap_energy_ticks: pkg.energy_ticks,
            phase_index: 0,
            progress: 0.0,
            t_in_phase: 0.0,
            phase_energy: Joules::ZERO,
            phase_t0: 0.0,
            phase_open: false,
            completed: false,
        }
    }

    /// All phases executed and the closing events emitted.
    pub fn is_done(&self) -> bool {
        self.completed
    }

    /// The most recent 100 ms [`Sample`], if one has been emitted yet.
    pub fn latest_sample(&self) -> Option<&Sample> {
        self.latest.as_ref()
    }

    /// Energy accumulated so far, including the open phase — the
    /// governor differences this per window to track node power.
    pub fn energy_so_far(&self) -> Joules {
        self.energy + self.phase_energy
    }

    /// Run for at most `budget_seconds` of virtual time, mutating `pkg`
    /// (clock, counters, energy counter) and emitting journal events as
    /// they occur. Returns the virtual seconds actually consumed, which
    /// is less than the budget only when the workload completes inside
    /// this slice. The cap is re-read from the package every firmware
    /// control window, so caps reprogrammed between calls take effect
    /// at the next window edge.
    pub fn advance(
        &mut self,
        pkg: &mut Package,
        budget_seconds: f64,
        journal: &mut Journal,
    ) -> f64 {
        let mut consumed = 0.0f64;
        while !self.completed {
            if self.phase_index >= self.workload.phases.len() {
                // All phases done: flush the final partial sample and
                // close the workload span, exactly once.
                if pkg.now - self.last_sample_t > 1e-9 {
                    self.take_sample(pkg, journal);
                }
                journal.push_span(Scope::Workload, self.run_t0, Some(self.energy), || {
                    let args = vec![
                        ("cap_watts", self.cap.value()),
                        ("phases", self.workload.phases.len() as f64),
                        ("samples", self.sample_count as f64),
                    ];
                    (self.workload.name.clone(), args)
                });
                self.completed = true;
                break;
            }
            if budget_seconds - consumed <= 1e-12 {
                break;
            }
            let phase = &self.workload.phases[self.phase_index];
            if !self.phase_open {
                debug_assert!(phase.is_valid(), "invalid phase {phase:?}");
                self.phase_t0 = journal.now();
                self.phase_energy = Joules::ZERO;
                self.progress = 0.0;
                self.t_in_phase = 0.0;
                self.phase_open = true;
            }

            let (f, bw_util) = pkg.decide_frequency(phase);
            let total_t = phase_time(&pkg.spec, phase, f);
            let remaining_t = (1.0 - self.progress) * total_t;
            // Advance to the next control window, sample boundary, or
            // phase end — whichever is first — bounded by the slice.
            let to_window =
                CONTROL_WINDOW_SEC - (pkg.now / CONTROL_WINDOW_SEC).fract() * CONTROL_WINDOW_SEC;
            let to_sample = (self.last_sample_t + SAMPLE_PERIOD_SEC - pkg.now).max(0.0);
            let dt = remaining_t
                .min(if to_window <= 1e-12 {
                    CONTROL_WINDOW_SEC
                } else {
                    to_window
                })
                .min(if to_sample <= 1e-12 {
                    SAMPLE_PERIOD_SEC
                } else {
                    to_sample
                })
                .max(1e-9)
                .min(budget_seconds - consumed);

            let inst_rate = phase.instructions as f64 / total_t;
            let ref_rate = phase.llc_refs as f64 / total_t;
            let miss_rate = phase.llc_misses() as f64 / total_t;
            pkg.counters.advance(
                dt,
                f,
                pkg.spec.base_ghz,
                pkg.spec.cores,
                inst_rate,
                ref_rate,
                miss_rate,
            );
            let p = pkg.spec.power(f, phase.activity, bw_util);
            let de = p.for_duration(dt);
            self.phase_energy += de;
            pkg.accumulate_energy(de);
            pkg.now += dt;
            journal.advance(dt);
            consumed += dt;
            self.t_in_phase += dt;
            self.progress += dt / total_t;

            // Emit a sample at each 100 ms boundary.
            if pkg.now - self.last_sample_t >= SAMPLE_PERIOD_SEC - 1e-12 {
                self.take_sample(pkg, journal);
            }

            if self.progress >= 1.0 {
                self.energy += self.phase_energy;
                journal.push_span(
                    Scope::Kernel,
                    self.phase_t0,
                    Some(self.phase_energy),
                    || {
                        let args = vec![
                            ("phase_index", self.phase_index as f64),
                            ("instructions", phase.instructions as f64),
                        ];
                        (phase.name.clone(), args)
                    },
                );
                self.phase_energy = Joules::ZERO;
                self.phase_open = false;
                self.phase_index += 1;
            }
        }
        consumed
    }

    /// Close the sample interval ending now: read the counter bank and
    /// the energy counter, fold the sample into the run averages, and
    /// mirror it onto the journal as a [`Kind::Counter`] record.
    fn take_sample(&mut self, pkg: &Package, journal: &mut Journal) {
        let dt = pkg.now - self.last_sample_t;
        let s = pkg.make_sample(dt, &self.snap, self.snap_energy_ticks);
        self.freq_seconds += s.effective_freq_ghz * dt;
        self.sample_count += 1;
        journal.push_record(Kind::Counter, journal.now(), || {
            vec![
                ("power_watts", s.power_watts.into()),
                ("effective_freq_ghz", s.effective_freq_ghz.into()),
                ("ipc", s.ipc.into()),
                ("llc_miss_rate", s.llc_miss_rate.into()),
            ]
        });
        self.latest = Some(s);
        self.last_sample_t = pkg.now;
        self.snap = pkg.counters;
        self.snap_energy_ticks = pkg.energy_ticks;
    }

    /// Aggregate the completed run into an [`ExecResult`].
    pub fn finish(self, pkg: &Package) -> ExecResult {
        debug_assert!(self.completed, "finish() before the workload completed");
        let seconds = pkg.now - self.start_t;
        let total_inst = self.workload.total_instructions();
        let total_refs = self.workload.total_llc_refs();
        let total_miss: u64 = self.workload.phases.iter().map(|p| p.llc_misses()).sum();
        // Run-level averages weighted by time (frequency) or totals (IPC).
        let avg_freq = if seconds > 0.0 {
            self.freq_seconds / seconds
        } else {
            0.0
        };
        let avg_ipc = derived::ipc(
            total_inst,
            (pkg.spec.base_ghz * 1e9 * seconds * pkg.spec.cores as f64) as u64,
        );
        ExecResult {
            cap_watts: self.cap,
            seconds,
            energy_joules: self.energy,
            avg_power_watts: if seconds > 0.0 {
                self.energy.over_seconds(seconds)
            } else {
                Watts::ZERO
            },
            avg_effective_freq_ghz: avg_freq,
            avg_ipc,
            avg_llc_miss_rate: derived::llc_miss_rate(total_miss, total_refs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;
    use propcheck::prelude::*;

    fn compute_workload(scale: u64) -> Workload {
        Workload::new("compute").with_phase(KernelPhase::compute("c", scale))
    }

    fn memory_workload(scale: u64) -> Workload {
        Workload::new("memory").with_phase(KernelPhase::memory("m", scale, scale * 30))
    }

    /// The frequency the firmware picks on a fresh package, programmed to
    /// `cap` (or never), for a phase at `activity` with no DRAM traffic.
    fn control_frequency(cap: Option<Watts>, activity: f64) -> f64 {
        let mut pkg = Package::broadwell();
        if let Some(cap) = cap {
            pkg.set_cap(cap, &mut Journal::off());
        }
        let phase = KernelPhase {
            activity,
            dram_bytes: 0,
            ..KernelPhase::compute("p", 1_000_000_000)
        };
        let (f, util) = pkg.decide_frequency(&phase);
        assert_eq!(util, 0.0);
        f
    }

    /// A capped run on a fresh package, its 100 ms samples read back from
    /// the journal's counter records, and each sample's duration.
    fn sampled_run(w: &Workload, cap: Watts) -> (ExecResult, Vec<Sample>, Vec<f64>) {
        let mut journal = Journal::with_capacity(1 << 16);
        let r = Package::broadwell().run_capped(w, cap, &mut journal);
        assert_eq!(journal.dropped(), 0);
        let mut last_t = 0.0;
        let (samples, durations) = journal
            .records(Kind::Counter)
            .map(|rec| {
                let num = |key| rec.num(key).expect("counter field");
                let s = Sample {
                    power_watts: Watts(num("power_watts")),
                    effective_freq_ghz: num("effective_freq_ghz"),
                    ipc: num("ipc"),
                    llc_miss_rate: num("llc_miss_rate"),
                };
                let d = rec.t - last_t;
                last_t = rec.t;
                (s, d)
            })
            .unzip();
        (r, samples, durations)
    }

    /// Drive a [`RunState`] to completion in slices of at most `budget`
    /// virtual seconds, returning the result and the number of samples
    /// the run took.
    fn run_in_slices(
        pkg: &mut Package,
        w: &Workload,
        budget: f64,
        journal: &mut Journal,
    ) -> (ExecResult, usize) {
        let mut st = RunState::new(pkg, w, journal);
        let mut slices = 0;
        while !st.is_done() {
            let consumed = st.advance(pkg, budget, journal);
            assert!(consumed <= budget + 1e-9);
            slices += 1;
            assert!(slices < 100_000, "advance() must make progress");
        }
        let samples = st.sample_count;
        (st.finish(pkg), samples)
    }

    /// What a journal shows of a run's shape: counter records, kernel
    /// spans, and the `samples` argument of the closing workload span.
    fn journal_shape(journal: &Journal) -> (usize, usize, Option<f64>) {
        let mut kernels = 0;
        let mut samples_arg = None;
        for ev in journal.events() {
            match ev {
                Event::Span(s) if s.scope == Scope::Kernel => kernels += 1,
                Event::Span(s) if s.scope == Scope::Workload => {
                    samples_arg = s.args.iter().find(|(k, _)| *k == "samples").map(|a| a.1);
                }
                _ => {}
            }
        }
        assert_eq!(journal.dropped(), 0);
        (journal.records(Kind::Counter).count(), kernels, samples_arg)
    }

    #[test]
    fn cap_is_quantized_to_an_eighth_of_a_watt() {
        let mut pkg = Package::broadwell();
        for watts in [Watts(40.0), Watts(70.0), Watts(70.06), Watts(99.99)] {
            let got = pkg.set_cap(watts, &mut Journal::off());
            assert_eq!(pkg.cap, Some(got));
            assert_eq!((got / POWER_UNIT).fract(), 0.0, "{watts} -> {got}");
            assert!((got - watts).abs() <= POWER_UNIT / 2.0, "{watts} -> {got}");
        }
    }

    #[test]
    fn cap_is_clamped_to_supported_range() {
        let mut pkg = Package::broadwell();
        assert_eq!(pkg.set_cap(Watts(10.0), &mut Journal::off()), Watts(40.0));
        assert_eq!(pkg.set_cap(Watts(500.0), &mut Journal::off()), Watts(120.0));
    }

    #[test]
    fn nan_cap_request_programs_the_floor() {
        let mut pkg = Package::broadwell();
        let mut journal = Journal::with_capacity(4);
        pkg.set_cap(Watts(f64::NAN), &mut journal);
        let change = journal.records(Kind::CapChange).next().expect("one record");
        assert_eq!(change.num("actual_watts"), Some(40.0));
        assert_eq!(pkg.cap, Some(Watts(40.0)));
    }

    #[test]
    fn unprogrammed_cap_reads_as_none() {
        assert_eq!(Package::broadwell().cap, None);
    }

    #[test]
    fn effective_cap_defaults_to_tdp_and_never_exceeds_it() {
        let mut pkg = Package::broadwell();
        let tdp = pkg.spec.tdp_watts;
        assert_eq!(pkg.effective_cap(), tdp);
        pkg.set_cap(Watts(70.0), &mut Journal::off());
        assert_eq!(pkg.effective_cap(), Watts(70.0));
        pkg.cap = Some(tdp + Watts(20.0));
        assert_eq!(pkg.effective_cap(), tdp);
    }

    #[test]
    fn uncapped_package_runs_turbo() {
        let tdp = CpuSpec::broadwell_e5_2695v4().tdp_watts;
        assert_eq!(control_frequency(None, 0.95), 2.6);
        let r = Package::broadwell().run(&compute_workload(300_000_000_000), &mut Journal::off());
        assert_eq!(r.cap_watts, tdp);
        assert!((r.avg_effective_freq_ghz - 2.6).abs() < 0.01);
    }

    #[test]
    fn capped_package_throttles_by_activity() {
        let hot = control_frequency(Some(Watts(60.0)), 0.95);
        let cold = control_frequency(Some(Watts(60.0)), 0.3);
        assert!(hot < cold, "hot {hot} !< cold {cold}");
        assert_eq!(cold, 2.6);
    }

    #[test]
    fn frequency_decision_reads_the_signature_activity() {
        let mut pkg = Package::broadwell();
        pkg.set_cap(Watts(60.0), &mut Journal::off());
        for phase in [
            KernelPhase::compute("c", 1_000_000_000),
            KernelPhase::memory("m", 1_000_000_000, 30_000_000_000),
        ] {
            let util = |f| bw_utilization(&pkg.spec, &phase, f);
            let direct = pkg.spec.solve_frequency(Watts(60.0), phase.activity, util);
            assert_eq!(pkg.decide_frequency(&phase), direct, "{}", phase.name);
        }
    }

    #[test]
    fn frequency_monotone_in_cap() {
        let mut last = 0.0;
        for cap in [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0] {
            let f = control_frequency(Some(Watts(cap)), 0.9);
            assert!(f >= last, "cap {cap}: {f} < {last}");
            last = f;
        }
    }

    #[test]
    fn energy_unit_is_61_microjoules() {
        assert_eq!((ENERGY_UNIT.value() * 1e6).round(), 61.0);
        let mut pkg = Package::broadwell();
        pkg.accumulate_energy(ENERGY_UNIT * 3.0);
        assert_eq!(pkg.energy_ticks, 3);
    }

    #[test]
    fn energy_accumulates_and_wraps() {
        let mut pkg = Package::broadwell();
        // Park the counter near the wrap point.
        pkg.energy_ticks = 0xFFFF_FFF0;
        pkg.accumulate_energy(ENERGY_UNIT * 32.0);
        assert_eq!(pkg.energy_ticks, 0x10, "counter must wrap");
        assert_eq!(pkg.energy_since(0xFFFF_FFF0), ENERGY_UNIT * 32.0);
    }

    #[test]
    fn energy_delta_without_wrap() {
        let mut pkg = Package::broadwell();
        pkg.energy_ticks = 300;
        assert_eq!(pkg.energy_since(100), ENERGY_UNIT * 200.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any cap in range programs to within half a power unit of itself.
        #[test]
        fn power_limit_round_trip(cap in 40.0f64..120.0) {
            let got = Package::broadwell().set_cap(Watts(cap), &mut Journal::off());
            prop_assert!((got - Watts(cap)).abs() <= POWER_UNIT / 2.0, "{cap} -> {got}");
        }

        /// Energy-counter deltas recover the accumulated energy through at
        /// most one wrap.
        #[test]
        fn energy_status_wrap_delta(start in 0u32..0xFFFF_FFFF, joules in 0.001f64..100.0) {
            let mut pkg = Package::broadwell();
            pkg.energy_ticks = start;
            pkg.accumulate_energy(Joules(joules));
            let delta = pkg.energy_since(start);
            prop_assert!((delta - Joules(joules)).abs() <= ENERGY_UNIT, "{joules} vs {delta}");
        }
    }

    #[test]
    fn uncapped_compute_runs_at_turbo() {
        let mut pkg = Package::broadwell();
        let r = pkg.run_capped(
            &compute_workload(2_000_000_000_000),
            Watts(120.0),
            &mut Journal::off(),
        );
        assert!(r.seconds > 0.0);
        assert!(
            (r.avg_effective_freq_ghz - 2.6).abs() < 0.01,
            "freq = {}",
            r.avg_effective_freq_ghz
        );
        // Power near the hot-workload calibration point.
        assert!(
            (80.0..95.0).contains(&r.avg_power_watts),
            "P = {}",
            r.avg_power_watts
        );
    }

    #[test]
    fn capped_compute_slows_proportionally() {
        let w = compute_workload(2_000_000_000_000);
        let t120 = Package::broadwell()
            .run_capped(&w, Watts(120.0), &mut Journal::off())
            .seconds;
        let r40 = Package::broadwell().run_capped(&w, Watts(40.0), &mut Journal::off());
        let slowdown = r40.seconds / t120;
        // Paper: compute-bound algorithms slow 1.8–3.1× at 40 W.
        assert!((1.8..3.3).contains(&slowdown), "slowdown = {slowdown}");
        // And the cap is respected.
        assert!(r40.avg_power_watts <= 41.0, "P = {}", r40.avg_power_watts);
    }

    #[test]
    fn capped_memory_barely_slows() {
        let w = memory_workload(40_000_000_000);
        let t120 = Package::broadwell()
            .run_capped(&w, Watts(120.0), &mut Journal::off())
            .seconds;
        let t40 = Package::broadwell()
            .run_capped(&w, Watts(40.0), &mut Journal::off())
            .seconds;
        let slowdown = t40 / t120;
        assert!(slowdown < 1.35, "memory slowdown = {slowdown}");
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let (r, samples, durations) = sampled_run(&compute_workload(500_000_000_000), Watts(80.0));
        // Energy ≈ avg power × time by construction; the tick counter
        // (with wraps) must agree with the float accumulation. Track it
        // via samples: sum power × dt.
        let counted: Joules = samples
            .iter()
            .zip(durations)
            .map(|(s, d)| s.power_watts.for_duration(d))
            .sum();
        let rel = (counted - r.energy_joules).abs() / r.energy_joules;
        assert!(rel < 0.01, "counted {counted} vs accum {}", r.energy_joules);
    }

    #[test]
    fn sample_cadence_is_100ms() {
        let (_, samples, durations) =
            sampled_run(&compute_workload(1_000_000_000_000), Watts(120.0));
        assert!(samples.len() >= 3);
        for d in &durations[..durations.len() - 1] {
            assert!((d - SAMPLE_PERIOD_SEC).abs() < 1e-6, "sample dt = {d}");
        }
    }

    #[test]
    fn ipc_definition_drops_with_cap_for_compute() {
        // REF_TSC-based IPC: compute-bound IPC falls when capped (the
        // shape in Fig. 2b for volume rendering / advection).
        let w = compute_workload(1_000_000_000_000);
        let i120 = Package::broadwell()
            .run_capped(&w, Watts(120.0), &mut Journal::off())
            .avg_ipc;
        let i40 = Package::broadwell()
            .run_capped(&w, Watts(40.0), &mut Journal::off())
            .avg_ipc;
        assert!(i40 < 0.6 * i120, "IPC {i120} -> {i40}");
    }

    #[test]
    fn ipc_flat_for_memory_bound() {
        let w = memory_workload(40_000_000_000);
        let i120 = Package::broadwell()
            .run_capped(&w, Watts(120.0), &mut Journal::off())
            .avg_ipc;
        let i50 = Package::broadwell()
            .run_capped(&w, Watts(50.0), &mut Journal::off())
            .avg_ipc;
        assert!((i50 / i120 - 1.0).abs() < 0.1, "IPC {i120} -> {i50}");
    }

    #[test]
    fn phase_seconds_sum_to_total() {
        let w = Workload::new("mix")
            .with_phase(KernelPhase::compute("a", 500_000_000_000))
            .with_phase(KernelPhase::memory("b", 20_000_000_000, 600_000_000_000));
        let mut journal = Journal::with_capacity(1 << 14);
        let r = Package::broadwell().run_capped(&w, Watts(90.0), &mut journal);
        let phases: Vec<f64> = journal
            .events()
            .filter_map(|ev| match ev {
                Event::Span(s) if s.scope == Scope::Kernel => Some(s.t1 - s.t0),
                _ => None,
            })
            .collect();
        let sum: f64 = phases.iter().sum();
        assert!((sum - r.seconds).abs() < 1e-6);
        assert_eq!(phases.len(), 2);
    }

    #[test]
    fn deterministic_execution() {
        let w = compute_workload(300_000_000_000);
        let run = || {
            let mut pkg = Package::broadwell();
            pkg.set_cap(Watts(70.0), &mut Journal::off());
            run_in_slices(&mut pkg, &w, f64::INFINITY, &mut Journal::off())
        };
        let (a, a_samples) = run();
        let (b, b_samples) = run();
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.energy_joules, b.energy_joules);
        assert_eq!(a_samples, b_samples);
    }

    #[test]
    fn journaled_run_attributes_phase_energy_exactly() {
        let w = Workload::new("mix")
            .with_phase(KernelPhase::compute("a", 500_000_000_000))
            .with_phase(KernelPhase::memory("b", 20_000_000_000, 600_000_000_000));
        let mut journal = Journal::with_capacity(1 << 14);
        let mut pkg = Package::broadwell();
        let r = pkg.run_capped(&w, Watts(90.0), &mut journal);
        let mut kernel_sum = Joules::ZERO;
        let mut workload_joules = None;
        for ev in journal.events() {
            match ev {
                Event::Span(s) if s.scope == Scope::Kernel => {
                    kernel_sum += s.joules.unwrap_or(Joules::ZERO);
                }
                Event::Span(s) if s.scope == Scope::Workload => workload_joules = s.joules,
                _ => {}
            }
        }
        // Exact: the run total is accumulated per phase in span order.
        assert_eq!(workload_joules, Some(r.energy_joules));
        assert_eq!(kernel_sum, r.energy_joules);
        let (counters, kernels, samples_arg) = journal_shape(&journal);
        assert_eq!((kernels, samples_arg), (2, Some(counters as f64)));
        assert_eq!(journal.records(Kind::CapChange).count(), 1);
    }

    #[test]
    fn cap_change_and_counter_jsonl_shapes_are_exact() {
        let w = compute_workload(300_000_000_000);
        let mut journal = Journal::with_capacity(1 << 10);
        Package::broadwell().run_capped(&w, Watts(250.0), &mut journal);
        let jsonl = journal.to_jsonl();
        let mut lines = jsonl.lines();
        assert_eq!(
            lines.next(),
            Some(
                "{\"v\":10,\"seq\":0,\"ev\":\"cap_change\",\"t\":0,\
                 \"requested_watts\":250,\"actual_watts\":120}"
            )
        );
        let s = journal.records(Kind::Counter).next().expect("one sample");
        let num = |key| s.num(key).expect("counter field");
        let counter = format!(
            "{{\"v\":10,\"seq\":1,\"ev\":\"counter\",\"t\":{},\"power_watts\":{},\
             \"effective_freq_ghz\":{},\"ipc\":{},\"llc_miss_rate\":{}}}",
            s.t,
            num("power_watts"),
            num("effective_freq_ghz"),
            num("ipc"),
            num("llc_miss_rate")
        );
        assert_eq!(lines.next(), Some(counter.as_str()));
    }

    #[test]
    fn journaled_run_matches_plain_run() {
        let w = compute_workload(300_000_000_000);
        let run = |journal: &mut Journal| Package::broadwell().run_capped(&w, Watts(70.0), journal);
        let plain = run(&mut Journal::off());
        let mut journal = Journal::with_capacity(1 << 14);
        let journaled = run(&mut journal);
        assert_eq!(plain.seconds, journaled.seconds);
        assert_eq!(plain.energy_joules, journaled.energy_joules);
        assert_eq!(
            plain.avg_effective_freq_ghz,
            journaled.avg_effective_freq_ghz
        );
        let (counters, kernels, samples) = journal_shape(&journal);
        assert_eq!((kernels, Some(counters as f64)), (1, samples));
    }

    #[test]
    fn mixed_workload_frequency_tracks_phases() {
        // Under a 70 W cap, the compute phase runs slower than the memory
        // phase (which fits under the cap at turbo).
        let w = Workload::new("mix")
            .with_phase(KernelPhase::compute("hot", 2_000_000_000_000))
            .with_phase(KernelPhase::memory("cold", 20_000_000_000, 600_000_000_000));
        let (_, samples, _) = sampled_run(&w, Watts(70.0));
        // Find per-sample frequencies: early samples (compute) slower
        // than late samples (memory).
        let first = samples.first().unwrap().effective_freq_ghz;
        let last = samples.last().unwrap().effective_freq_ghz;
        assert!(first < last, "first {first} !< last {last}");
    }

    #[test]
    fn windowed_advance_matches_one_shot_run() {
        let w = Workload::new("mix")
            .with_phase(KernelPhase::compute("a", 500_000_000_000))
            .with_phase(KernelPhase::memory("b", 20_000_000_000, 600_000_000_000));
        let run = |budget| {
            let mut pkg = Package::broadwell();
            pkg.set_cap(Watts(90.0), &mut Journal::off());
            let mut journal = Journal::with_capacity(1 << 14);
            let (r, samples) = run_in_slices(&mut pkg, &w, budget, &mut journal);
            (r, samples, journal_shape(&journal))
        };
        let (one, one_samples, one_shape) = run(f64::INFINITY);
        assert_eq!(one_shape.0, one_samples);
        // The governor's 100 ms windows, and windows that cut the sample
        // grid off its edges.
        for budget in [SAMPLE_PERIOD_SEC, 0.037] {
            let (windowed, windowed_samples, windowed_shape) = run(budget);
            // Window boundaries may split a micro-quantum in two, so the
            // trajectories agree to float dust rather than bit-exactly.
            assert!((one.seconds - windowed.seconds).abs() < 1e-6);
            let rel = (one.energy_joules - windowed.energy_joules).abs()
                / one.energy_joules.max(Joules(1.0));
            assert!(
                rel < 1e-6,
                "energy {} vs {}",
                one.energy_joules,
                windowed.energy_joules
            );
            // But a split never adds a partial sample or a phase.
            assert_eq!(one_samples, windowed_samples, "budget {budget}");
            assert_eq!(one_shape, windowed_shape, "budget {budget}");
        }
    }

    #[test]
    fn midstream_cap_change_takes_effect_next_window() {
        // Start a long compute run uncapped, then cap it hard mid-flight:
        // subsequent samples must show lower power and frequency.
        let w = compute_workload(3_000_000_000_000);
        let mut pkg = Package::broadwell();
        pkg.set_cap(Watts(120.0), &mut Journal::off());
        let mut journal = Journal::off();
        let mut st = RunState::new(&pkg, &w, &journal);
        for _ in 0..3 {
            st.advance(&mut pkg, SAMPLE_PERIOD_SEC, &mut journal);
        }
        let before = st.latest_sample().copied().unwrap();
        pkg.set_cap(Watts(40.0), &mut Journal::off());
        for _ in 0..3 {
            st.advance(&mut pkg, SAMPLE_PERIOD_SEC, &mut journal);
        }
        let after = st.latest_sample().copied().unwrap();
        assert!(
            after.power_watts < before.power_watts - Watts(20.0),
            "power {} -> {}",
            before.power_watts,
            after.power_watts
        );
        assert!(after.effective_freq_ghz < before.effective_freq_ghz);
        // Run it out and check the energy rollup still holds together.
        while !st.is_done() {
            st.advance(&mut pkg, SAMPLE_PERIOD_SEC, &mut journal);
        }
        let r = st.finish(&pkg);
        assert!((r.seconds - pkg.now).abs() < 1e-12);
        assert!(r.energy_joules > Joules::ZERO);
    }
}
