//! Pluggable cap-assignment policies behind the [`Policy`] trait.
//!
//! A policy sees one [`Observation`] per 100 ms control window — each
//! side's programmed cap, measured power, and derived counter ratios —
//! and returns the [`CapSplit`] to program for the next window. The
//! governor ([`crate::control::govern`]) enforces the hard invariants
//! (caps within the hardware range, active caps summing to at most the
//! node budget) regardless of what a policy returns; policies only
//! choose *where* inside the feasible region to sit.
//!
//! All splits stay on a whole-watt grid so the RAPL 1/8 W limit field
//! encodes them exactly and journals stay byte-identical across runs.

use crate::pair::WorkloadPair;
use powersim::{CpuSpec, Watts};
use vizpower::advisor;
use vizpower::classify::{classify_sample, PowerClass};

/// A node budget split across the two packages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapSplit {
    /// Cap of the package running the simulation.
    pub(crate) sim: Watts,
    /// Cap of the package running the visualization.
    pub(crate) viz: Watts,
}

impl CapSplit {
    /// The naïve split: half the budget each, clamped to the hardware
    /// range.
    pub(crate) fn uniform(budget: Watts, spec: &CpuSpec) -> CapSplit {
        let per = (budget / 2.0).clamp(spec.min_cap_watts, spec.tdp_watts);
        CapSplit { sim: per, viz: per }
    }

    /// Sum of the two caps.
    pub(crate) fn total(&self) -> Watts {
        self.sim + self.viz
    }
}

/// What the governor observed for one side over the last window.
#[derive(Debug, Clone, Copy)]
pub struct SideObs {
    /// The side was still executing at the end of the window.
    pub(crate) active: bool,
    /// Cap programmed during the window (zero once the side completed).
    pub(crate) cap: Watts,
    /// Mean power drawn while the side was running this window.
    pub(crate) power: Watts,
    /// IPC of the side's newest 100 ms sample (0 before the first).
    pub(crate) ipc: f64,
    /// LLC miss ratio of the side's newest 100 ms sample.
    pub(crate) llc_miss_rate: f64,
}

impl SideObs {
    /// Online phase classification of this side's current sample, using
    /// the thresholds in [`mod@vizpower::classify`].
    pub(crate) fn class(&self) -> PowerClass {
        classify_sample(self.ipc, self.llc_miss_rate)
    }

    /// Cap minus measured draw: power the side is not using.
    pub(crate) fn headroom(&self) -> Watts {
        (self.cap - self.power).max(Watts::ZERO)
    }
}

/// One control-loop observation: both sides plus the node budget.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// The node power budget.
    pub(crate) budget: Watts,
    /// The simulation side.
    pub(crate) sim: SideObs,
    /// The visualization side.
    pub(crate) viz: SideObs,
}

/// A cap-assignment policy driven by the 100 ms observation stream.
pub trait Policy {
    /// Short stable name used in journals and tables.
    fn name(&self) -> &'static str;

    /// The split to program before the first window.
    fn initial(&mut self, pair: &WorkloadPair, budget: Watts, spec: &CpuSpec) -> CapSplit;

    /// The split for the next window, given the last window's
    /// observation.
    fn decide(&mut self, obs: &Observation, spec: &CpuSpec) -> CapSplit;
}

/// Hand the whole budget (bounded by TDP) to the only side still
/// running; keep `split` while both run or both are done.
fn retirement_reassign(split: CapSplit, obs: &Observation, spec: &CpuSpec) -> CapSplit {
    match (obs.sim.active, obs.viz.active) {
        (true, false) => CapSplit {
            sim: obs.budget.min(spec.tdp_watts),
            viz: Watts::ZERO,
        },
        (false, true) => CapSplit {
            sim: Watts::ZERO,
            viz: obs.budget.min(spec.tdp_watts),
        },
        _ => split,
    }
}

// ---------------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------------

/// The naïve baseline: split the budget evenly once and never look at a
/// counter again — not even when one side finishes.
#[derive(Debug, Default)]
pub struct Uniform {
    split: CapSplit,
}

impl Uniform {
    /// A fresh uniform policy.
    pub fn new() -> Self {
        Uniform::default()
    }
}

impl Policy for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn initial(&mut self, _pair: &WorkloadPair, budget: Watts, spec: &CpuSpec) -> CapSplit {
        self.split = CapSplit::uniform(budget, spec);
        self.split
    }

    fn decide(&mut self, _obs: &Observation, _spec: &CpuSpec) -> CapSplit {
        self.split
    }
}

// ---------------------------------------------------------------------------
// StaticAdvisor
// ---------------------------------------------------------------------------

/// Apply the offline [`vizpower::advisor`] plan once, before the run,
/// and hold it: the paper's §VII runtime idea without the feedback loop.
#[derive(Debug, Default)]
pub struct StaticAdvisor {
    split: CapSplit,
}

impl StaticAdvisor {
    /// A fresh static-advisor policy.
    pub fn new() -> Self {
        StaticAdvisor::default()
    }
}

impl Policy for StaticAdvisor {
    fn name(&self) -> &'static str {
        "static-advisor"
    }

    fn initial(&mut self, pair: &WorkloadPair, budget: Watts, spec: &CpuSpec) -> CapSplit {
        let plan = advisor::allocate(&pair.sim, &pair.viz, budget, spec);
        self.split = CapSplit {
            sim: plan.sim_cap_watts,
            viz: plan.viz_cap_watts,
        };
        self.split
    }

    fn decide(&mut self, _obs: &Observation, _spec: &CpuSpec) -> CapSplit {
        self.split
    }
}

// ---------------------------------------------------------------------------
// Reactive
// ---------------------------------------------------------------------------

/// Watts moved per accepted hill-climb step.
pub(crate) const STEP_WATTS: Watts = Watts(5.0);

/// A donor must be leaving at least this much headroom *beyond* the
/// step, so taking the step provably does not slow it down.
pub(crate) const HEADROOM_SLACK_WATTS: Watts = Watts(4.0);

/// A receiver drawing within this margin of its cap counts as
/// power-limited (the margin absorbs DVFS-ladder quantization).
pub(crate) const PINCH_WATTS: Watts = Watts(3.0);

/// Consecutive windows a transfer condition must hold before a step is
/// taken (hysteresis against single-sample phase noise).
pub(crate) const HYSTERESIS_WINDOWS: u32 = 2;

/// The closed-loop policy: a hysteresis hill-climb that steals headroom
/// from memory-bound (power-opportunity) phases for the power-limited
/// side, and hands the entire budget to whichever side outlives the
/// other.
///
/// A 5 W step from X to Y is taken only after `HYSTERESIS_WINDOWS`
/// consecutive windows in which X classifies as a power opportunity
/// with more than `STEP + SLACK` watts of unused headroom while Y is
/// power-sensitive and pinched against its cap — so each step is free
/// for the donor at the moment it is taken, and misclassified windows
/// cannot trigger a transfer on their own.
#[derive(Debug, Default)]
pub struct Reactive {
    split: CapSplit,
    steal_from_viz: u32,
    steal_from_sim: u32,
}

impl Reactive {
    /// A fresh reactive policy.
    pub fn new() -> Self {
        Reactive::default()
    }

    /// Whether `donor` can give a step away for free while `receiver`
    /// wants it.
    fn transfer_wanted(donor: &SideObs, receiver: &SideObs) -> bool {
        donor.class() == PowerClass::PowerOpportunity
            && donor.headroom() > STEP_WATTS + HEADROOM_SLACK_WATTS
            && receiver.class() == PowerClass::PowerSensitive
            && receiver.power > receiver.cap - PINCH_WATTS
    }
}

impl Policy for Reactive {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn initial(&mut self, _pair: &WorkloadPair, budget: Watts, spec: &CpuSpec) -> CapSplit {
        self.split = CapSplit::uniform(budget, spec);
        self.steal_from_viz = 0;
        self.steal_from_sim = 0;
        self.split
    }

    fn decide(&mut self, obs: &Observation, spec: &CpuSpec) -> CapSplit {
        if !(obs.sim.active && obs.viz.active) {
            self.split = retirement_reassign(self.split, obs, spec);
            return self.split;
        }
        let lo = spec.min_cap_watts;
        let hi = spec.tdp_watts;

        if Reactive::transfer_wanted(&obs.viz, &obs.sim) {
            self.steal_from_viz += 1;
        } else {
            self.steal_from_viz = 0;
        }
        if Reactive::transfer_wanted(&obs.sim, &obs.viz) {
            self.steal_from_sim += 1;
        } else {
            self.steal_from_sim = 0;
        }

        if self.steal_from_viz >= HYSTERESIS_WINDOWS
            && self.split.viz - STEP_WATTS >= lo
            && self.split.sim + STEP_WATTS <= hi
        {
            self.split.viz -= STEP_WATTS;
            self.split.sim += STEP_WATTS;
            self.steal_from_viz = 0;
        } else if self.steal_from_sim >= HYSTERESIS_WINDOWS
            && self.split.sim - STEP_WATTS >= lo
            && self.split.viz + STEP_WATTS <= hi
        {
            self.split.sim -= STEP_WATTS;
            self.split.viz += STEP_WATTS;
            self.steal_from_sim = 0;
        }
        self.split
    }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Hold a given split while both sides run, with the same retirement
/// reassignment as [`Reactive`]. The study's oracle holds the best split
/// of [`advisor::splits`], found by exhaustive search in
/// [`crate::study`] — an upper bound no static assignment can beat.
#[derive(Debug)]
pub(crate) struct Oracle(pub(crate) CapSplit);

impl Policy for Oracle {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn initial(&mut self, _pair: &WorkloadPair, _budget: Watts, _spec: &CpuSpec) -> CapSplit {
        self.0
    }

    fn decide(&mut self, obs: &Observation, spec: &CpuSpec) -> CapSplit {
        self.0 = retirement_reassign(self.0, obs, spec);
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::CpuSpec;

    fn spec() -> CpuSpec {
        CpuSpec::broadwell_e5_2695v4()
    }

    fn obs(sim: SideObs, viz: SideObs, budget: f64) -> Observation {
        Observation {
            budget: Watts(budget),
            sim,
            viz,
        }
    }

    fn side(active: bool, cap: f64, power: f64, ipc: f64, miss: f64) -> SideObs {
        SideObs {
            active,
            cap: Watts(cap),
            power: Watts(power),
            ipc,
            llc_miss_rate: miss,
        }
    }

    #[test]
    fn uniform_never_moves() {
        let pair = WorkloadPair::synthetic_for_tests();
        let mut p = Uniform::new();
        let s0 = p.initial(&pair, Watts(160.0), &spec());
        assert_eq!(s0.sim, Watts(80.0));
        assert_eq!(s0.viz, Watts(80.0));
        // Even a retired viz side changes nothing.
        let o = obs(
            side(true, 80.0, 79.0, 2.5, 0.05),
            side(false, 0.0, 0.0, 0.0, 0.0),
            160.0,
        );
        assert_eq!(p.decide(&o, &spec()), s0);
    }

    #[test]
    fn reactive_reassigns_on_retirement() {
        let pair = WorkloadPair::synthetic_for_tests();
        let mut p = Reactive::new();
        p.initial(&pair, Watts(160.0), &spec());
        let o = obs(
            side(true, 80.0, 79.0, 2.5, 0.05),
            side(false, 0.0, 0.0, 0.0, 0.0),
            160.0,
        );
        let s = p.decide(&o, &spec());
        assert_eq!(s.sim, Watts(120.0), "sim gets min(budget, TDP)");
        assert_eq!(s.viz, Watts::ZERO);
    }

    #[test]
    fn reactive_steals_only_after_hysteresis() {
        let pair = WorkloadPair::synthetic_for_tests();
        let mut p = Reactive::new();
        p.initial(&pair, Watts(160.0), &spec());
        // viz memory-bound with lots of headroom, sim pinched & sensitive.
        let o = obs(
            side(true, 80.0, 79.0, 2.5, 0.05),
            side(true, 80.0, 45.0, 0.4, 0.9),
            160.0,
        );
        let s1 = p.decide(&o, &spec());
        assert_eq!(s1.sim, Watts(80.0), "first window: no move yet");
        let s2 = p.decide(&o, &spec());
        assert_eq!(s2.sim, Watts(85.0), "second window: one 5 W step");
        assert_eq!(s2.viz, Watts(75.0));
        assert_eq!(s2.total(), Watts(160.0), "steps conserve the sum");
    }

    #[test]
    fn reactive_never_strands_a_busy_donor() {
        let pair = WorkloadPair::synthetic_for_tests();
        let mut p = Reactive::new();
        p.initial(&pair, Watts(160.0), &spec());
        // viz compute-bound and pinched: no headroom, no steal, ever.
        let o = obs(
            side(true, 80.0, 79.0, 2.5, 0.05),
            side(true, 80.0, 78.5, 2.7, 0.03),
            160.0,
        );
        for _ in 0..10 {
            let s = p.decide(&o, &spec());
            assert_eq!(s.sim, Watts(80.0));
        }
    }

    #[test]
    fn reactive_respects_hardware_floor() {
        let pair = WorkloadPair::synthetic_for_tests();
        let mut p = Reactive::new();
        p.initial(&pair, Watts(80.0), &spec());
        // Both at the 40 W floor: no step can be taken downward.
        let o = obs(
            side(true, 40.0, 39.5, 1.4, 0.05),
            side(true, 40.0, 25.0, 0.4, 0.9),
            80.0,
        );
        for _ in 0..10 {
            let s = p.decide(&o, &spec());
            assert_eq!(s.sim, Watts(40.0));
            assert_eq!(s.viz, Watts(40.0));
        }
    }

    #[test]
    fn fixed_split_holds_then_reassigns() {
        let pair = WorkloadPair::synthetic_for_tests();
        let mut p = Oracle(CapSplit {
            sim: Watts(110.0),
            viz: Watts(50.0),
        });
        let s0 = p.initial(&pair, Watts(160.0), &spec());
        assert_eq!(s0.sim, Watts(110.0));
        let both = obs(
            side(true, 110.0, 100.0, 2.0, 0.1),
            side(true, 50.0, 45.0, 0.5, 0.8),
            160.0,
        );
        assert_eq!(p.decide(&both, &spec()), s0);
        let viz_done = obs(
            side(true, 110.0, 100.0, 2.0, 0.1),
            side(false, 0.0, 0.0, 0.0, 0.0),
            160.0,
        );
        assert_eq!(p.decide(&viz_done, &spec()).sim, Watts(120.0));
    }
}
