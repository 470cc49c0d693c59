//! The closed control loop: run a simulation/visualization pair on two
//! packages, observe each 100 ms window, and let a [`Policy`] reassign
//! the per-package RAPL caps under the node budget.
//!
//! Each iteration advances both sides by one sample period of virtual
//! time through [`powersim::RunState::advance`], differences their
//! energy counters to get per-package window power, builds an
//! [`Observation`] from the newest 100 ms counter samples, asks the
//! policy for the next split, sanitizes it against the hard invariants
//! (hardware cap range, active caps summing to at most the budget), and
//! reprograms only the caps that changed. Every decision is journaled as
//! a [`Kind::PolicyDecision`] record and every reprogramming as a `cap_change`,
//! so the budget contract is auditable from the journal alone.
//!
//! Determinism: the loop consumes only modeled quantities (virtual time,
//! counter deltas) and the journal clock advances once per window by the
//! window's modeled duration, so identical inputs produce byte-identical
//! journals regardless of wall-clock or thread count.

use crate::pair::WorkloadPair;
use crate::policy::{CapSplit, Observation, Policy, SideObs};
use powersim::exec::SAMPLE_PERIOD_SEC;
use powersim::trace::{Journal, Kind, Scope};
use powersim::{CpuSpec, ExecResult, Joules, Package, RunState, Watts};
use vizpower::advisor;

/// Outcome of one governed pair execution.
#[derive(Debug, Clone)]
pub struct GovernorResult {
    /// Name of the policy that governed the run.
    pub(crate) policy: &'static str,
    /// The (feasibility-clamped) node budget that was enforced.
    pub budget_watts: Watts,
    /// Pair completion time: the slower side's execution time.
    pub seconds: f64,
    /// Total node energy (both packages).
    pub energy_joules: Joules,
    /// The simulation side's execution result.
    pub(crate) sim: ExecResult,
    /// The visualization side's execution result.
    pub(crate) viz: ExecResult,
    /// Number of control decisions taken (one per 100 ms window).
    pub decisions: u64,
    /// Number of RAPL reprogrammings (including the two initial ones).
    pub cap_changes: u64,
    /// Highest node power observed over any 100 ms window.
    pub max_window_power_watts: Watts,
}

/// Force a policy's request into the feasible region. Active sides are
/// clamped to the hardware cap range (and, for a lone survivor, to the
/// budget), a NaN request landing on the floor; retired sides are
/// pinned to 0 W. If both sides are active and the clamped caps still
/// exceed the budget, the request is replaced by the uniform split — a
/// deterministic fallback that keeps a buggy policy from ever breaking
/// the budget contract.
fn sanitize(
    raw: CapSplit,
    sim_active: bool,
    viz_active: bool,
    budget: Watts,
    spec: &CpuSpec,
) -> CapSplit {
    let lo = spec.min_cap_watts;
    let hi = spec.tdp_watts;
    let mut split = CapSplit {
        sim: if sim_active {
            raw.sim.max(lo).min(hi)
        } else {
            Watts::ZERO
        },
        viz: if viz_active {
            raw.viz.max(lo).min(hi)
        } else {
            Watts::ZERO
        },
    };
    match (sim_active, viz_active) {
        (true, true) => {
            if split.total() > budget + Watts(1e-9) {
                split = CapSplit::uniform(budget, spec);
            }
        }
        (true, false) => split.sim = split.sim.min(budget.min(hi)),
        (false, true) => split.viz = split.viz.min(budget.min(hi)),
        (false, false) => {}
    }
    split
}

/// Journal one control decision (no-op when the journal is off).
fn push_decision(journal: &mut Journal, obs: &Observation, next: CapSplit) {
    journal.push_record(Kind::PolicyDecision, journal.now(), || {
        vec![
            ("budget_watts", obs.budget.into()),
            ("sim_cap_watts", next.sim.into()),
            ("viz_cap_watts", next.viz.into()),
            ("sim_power_watts", obs.sim.power.into()),
            ("viz_power_watts", obs.viz.power.into()),
            ("sim_ipc", obs.sim.ipc.into()),
            ("viz_ipc", obs.viz.ipc.into()),
            ("sim_llc_miss_rate", obs.sim.llc_miss_rate.into()),
            ("viz_llc_miss_rate", obs.viz.llc_miss_rate.into()),
        ]
    });
}

/// Mean power over a window from the energy delta since `prev`, which
/// advances to `now`. Zero when the side did not run this window.
fn window_power(prev: &mut Joules, now: Joules, dt: f64) -> (Joules, Watts) {
    let de = now - *prev;
    *prev = now;
    if dt > 0.0 {
        (de, de.over_seconds(dt))
    } else {
        (de, Watts::ZERO)
    }
}

/// Build one side's observation from its run state and window power.
fn observe_side(state: &RunState, cap: Watts, power: Watts) -> SideObs {
    let (ipc, miss) = state
        .latest_sample()
        .map(|s| (s.ipc, s.llc_miss_rate))
        .unwrap_or((0.0, 0.0));
    SideObs {
        active: !state.is_done(),
        cap,
        power,
        ipc,
        llc_miss_rate: miss,
    }
}

/// Execute `pair` concurrently on two fresh packages under `policy` and
/// the node `budget_watts` (clamped to the feasible range), journaling
/// every decision, cap change, and a closing [`Scope::Governor`] span.
pub fn govern(
    pair: &WorkloadPair,
    policy: &mut dyn Policy,
    budget_watts: Watts,
    spec: &CpuSpec,
    journal: &mut Journal,
) -> GovernorResult {
    let budget = advisor::clamp_budget(budget_watts, spec);
    let t0 = journal.now();

    let mut sim_pkg = Package::new(spec.clone());
    let mut viz_pkg = Package::new(spec.clone());

    let initial = sanitize(policy.initial(pair, budget, spec), true, true, budget, spec);
    sim_pkg.set_cap(initial.sim, journal);
    viz_pkg.set_cap(initial.viz, journal);
    let mut cap_changes = 2u64;
    let mut split = initial;

    // Each side journals into its own disabled journal: per-package
    // spans/counters would interleave two clocks, and the shared journal
    // clock must advance exactly once per window (below).
    let mut sim_off = Journal::off();
    let mut viz_off = Journal::off();
    let mut sim_state = RunState::new(&sim_pkg, &pair.sim, &sim_off);
    let mut viz_state = RunState::new(&viz_pkg, &pair.viz, &viz_off);
    let mut sim_energy = Joules::ZERO;
    let mut viz_energy = Joules::ZERO;

    let mut decisions = 0u64;
    let mut max_window_power = Watts::ZERO;

    while !(sim_state.is_done() && viz_state.is_done()) {
        let sim_dt = if sim_state.is_done() {
            0.0
        } else {
            sim_state.advance(&mut sim_pkg, SAMPLE_PERIOD_SEC, &mut sim_off)
        };
        let viz_dt = if viz_state.is_done() {
            0.0
        } else {
            viz_state.advance(&mut viz_pkg, SAMPLE_PERIOD_SEC, &mut viz_off)
        };
        let dt = sim_dt.max(viz_dt);
        if dt <= 0.0 {
            // Both sides completed without consuming time (e.g. an empty
            // workload): nothing to observe.
            continue;
        }
        journal.advance(dt);

        let (de_sim, sim_power) = window_power(&mut sim_energy, sim_state.energy_so_far(), sim_dt);
        let (de_viz, viz_power) = window_power(&mut viz_energy, viz_state.energy_so_far(), viz_dt);
        max_window_power = max_window_power.max((de_sim + de_viz).over_seconds(dt));

        if sim_state.is_done() && viz_state.is_done() {
            // This window finished the pair: there is no next window to
            // cap, so deciding would only zero the journaled final split.
            break;
        }

        let obs = Observation {
            budget,
            sim: observe_side(&sim_state, split.sim, sim_power),
            viz: observe_side(&viz_state, split.viz, viz_power),
        };
        let next = sanitize(
            policy.decide(&obs, spec),
            obs.sim.active,
            obs.viz.active,
            budget,
            spec,
        );
        decisions += 1;
        push_decision(journal, &obs, next);
        if obs.sim.active && next.sim != split.sim {
            sim_pkg.set_cap(next.sim, journal);
            cap_changes += 1;
        }
        if obs.viz.active && next.viz != split.viz {
            viz_pkg.set_cap(next.viz, journal);
            cap_changes += 1;
        }
        split = next;
    }

    let sim = sim_state.finish(&sim_pkg);
    let viz = viz_state.finish(&viz_pkg);
    let energy = sim.energy_joules + viz.energy_joules;
    let seconds = sim.seconds.max(viz.seconds);
    journal.push_span(Scope::Governor, t0, Some(energy), || {
        let args = vec![
            ("budget_watts", budget.value()),
            ("decisions", decisions as f64),
            ("cap_changes", cap_changes as f64),
        ];
        (
            format!("governor:{}:{:.0}W", policy.name(), budget.value()),
            args,
        )
    });
    GovernorResult {
        policy: policy.name(),
        budget_watts: budget,
        seconds,
        energy_joules: energy,
        sim,
        viz,
        decisions,
        cap_changes,
        max_window_power_watts: max_window_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Reactive, Uniform};

    fn spec() -> CpuSpec {
        CpuSpec::broadwell_e5_2695v4()
    }

    fn pair() -> WorkloadPair {
        WorkloadPair::synthetic_for_tests()
    }

    #[test]
    fn governed_run_completes_both_sides() {
        let mut j = Journal::off();
        let r = govern(&pair(), &mut Uniform::new(), Watts(160.0), &spec(), &mut j);
        assert!(r.sim.seconds > 0.0 && r.viz.seconds > 0.0);
        assert_eq!(r.seconds, r.sim.seconds.max(r.viz.seconds));
        assert!(r.decisions > 10, "decisions = {}", r.decisions);
        assert!(r.energy_joules > Joules(0.0));
    }

    #[test]
    fn budget_is_clamped_to_feasible_range() {
        let mut j = Journal::off();
        let r = govern(&pair(), &mut Uniform::new(), Watts(10.0), &spec(), &mut j);
        assert_eq!(r.budget_watts, Watts(80.0));
        let r = govern(&pair(), &mut Uniform::new(), Watts(999.0), &spec(), &mut j);
        assert_eq!(r.budget_watts, Watts(240.0));
    }

    #[test]
    fn reactive_beats_uniform_on_the_synthetic_pair() {
        let mut j = Journal::off();
        let budget = Watts(120.0);
        let uni = govern(&pair(), &mut Uniform::new(), budget, &spec(), &mut j);
        let rea = govern(&pair(), &mut Reactive::new(), budget, &spec(), &mut j);
        assert!(
            rea.seconds < uni.seconds,
            "reactive {} !< uniform {}",
            rea.seconds,
            uni.seconds
        );
    }

    #[test]
    fn every_decision_respects_the_budget_and_cap_range() {
        let spec = spec();
        let lo = spec.min_cap_watts;
        let hi = spec.tdp_watts;
        let budget = Watts(100.0);
        let mut j = Journal::with_capacity(1 << 14);
        let r = govern(&pair(), &mut Reactive::new(), budget, &spec, &mut j);
        assert!(r.max_window_power_watts <= budget + Watts(0.5));
        let mut seen = 0;
        for d in j.records(Kind::PolicyDecision) {
            let watts = |key| Watts(d.num(key).expect("decision field"));
            seen += 1;
            assert!(watts("sim_power_watts") + watts("viz_power_watts") <= budget + Watts(0.5));
            let mut active_total = Watts::ZERO;
            for cap in [watts("sim_cap_watts"), watts("viz_cap_watts")] {
                if cap > Watts(1e-9) {
                    assert!(cap >= lo - Watts(1e-9) && cap <= hi + Watts(1e-9));
                    active_total += cap;
                }
            }
            assert!(active_total <= budget + Watts(1e-9));
        }
        assert_eq!(seen as u64, r.decisions);
    }

    #[test]
    fn policy_decision_jsonl_shape_is_exact() {
        let side = |power, ipc, llc_miss_rate| SideObs {
            active: true,
            cap: Watts(80.0),
            power,
            ipc,
            llc_miss_rate,
        };
        let obs = Observation {
            budget: Watts(160.0),
            sim: side(Watts(88.25), 1.8, 0.05),
            viz: side(Watts(46.5), 0.4, 0.9),
        };
        let next = CapSplit {
            sim: Watts(110.0),
            viz: Watts(50.0),
        };
        let mut j = Journal::with_capacity(4);
        j.advance(0.1);
        push_decision(&mut j, &obs, next);
        assert_eq!(
            j.to_jsonl().trim_end(),
            "{\"v\":10,\"seq\":0,\"ev\":\"policy_decision\",\"t\":0.1,\"budget_watts\":160,\
             \"sim_cap_watts\":110,\"viz_cap_watts\":50,\"sim_power_watts\":88.25,\
             \"viz_power_watts\":46.5,\"sim_ipc\":1.8,\"viz_ipc\":0.4,\
             \"sim_llc_miss_rate\":0.05,\"viz_llc_miss_rate\":0.9}"
        );
        // All-numeric, so the chrome trace plots it as a counter track.
        let trace = j.to_chrome_trace();
        assert!(
            trace.contains("\"ph\":\"C\",\"name\":\"policy_decision\""),
            "{trace}"
        );
    }

    #[test]
    fn governed_journal_is_byte_identical_across_runs() {
        let run = || {
            let mut j = Journal::with_capacity(1 << 14);
            govern(&pair(), &mut Reactive::new(), Watts(140.0), &spec(), &mut j);
            j.to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sanitize_zero_headroom_budget_forces_the_floor_split() {
        // The tightest feasible budget is exactly two hardware floors
        // (advisor::clamp_budget's lower bound). Any both-active request
        // that overshoots must collapse to the uniform split at the
        // floor — zero headroom means zero discretion.
        let spec = spec();
        let budget = 2.0 * spec.min_cap_watts;
        assert_eq!(advisor::clamp_budget(Watts(0.0), &spec), budget);
        let greedy = CapSplit {
            sim: spec.tdp_watts,
            viz: spec.tdp_watts,
        };
        let split = sanitize(greedy, true, true, budget, &spec);
        assert_eq!(split.sim, spec.min_cap_watts);
        assert_eq!(split.viz, spec.min_cap_watts);
        assert_eq!(split.total(), budget);
    }

    #[test]
    fn sanitize_single_package_caps_at_budget_and_tdp() {
        // A lone survivor (the service's single-package admission path):
        // the cap is min(clamp(request), budget, TDP).
        let spec = spec();
        let lone = |req: f64, budget: f64| {
            sanitize(
                CapSplit {
                    sim: Watts(req),
                    viz: Watts::ZERO,
                },
                true,
                false,
                Watts(budget),
                &spec,
            )
        };
        // Over-TDP request under a generous budget clamps to TDP.
        let s = lone(200.0, 150.0);
        assert_eq!(s.sim, spec.tdp_watts);
        assert_eq!(s.viz, Watts::ZERO, "inactive side stays pinned to 0 W");
        // A tight budget wins over the hardware range.
        assert_eq!(lone(200.0, 100.0).sim, Watts(100.0));
        // An in-range request under an ample budget passes through.
        assert_eq!(lone(75.0, 100.0).sim, Watts(75.0));
        // Below-floor requests rise to the floor first.
        assert_eq!(lone(10.0, 100.0).sim, spec.min_cap_watts);
        // The viz-survivor arm mirrors the sim one.
        let s = sanitize(
            CapSplit {
                sim: Watts::ZERO,
                viz: Watts(200.0),
            },
            false,
            true,
            Watts(90.0),
            &spec,
        );
        assert_eq!(s.viz, Watts(90.0));
        assert_eq!(s.sim, Watts::ZERO);
    }

    #[test]
    fn sanitize_lone_survivor_below_floor_budget_returns_the_budget() {
        // Documented caveat: a budget below min_cap comes back as-is
        // for a lone survivor — below the hardware floor. The RAPL
        // layer would round it UP to the floor when programmed,
        // breaking the budget, which is why the service refuses to
        // admit onto nodes whose budget share is below min_cap.
        let spec = spec();
        let s = sanitize(
            CapSplit {
                sim: Watts(80.0),
                viz: Watts::ZERO,
            },
            true,
            false,
            Watts(25.0),
            &spec,
        );
        assert_eq!(s.sim, Watts(25.0));
        assert!(s.sim < spec.min_cap_watts);
    }

    #[test]
    fn sanitize_both_retired_is_all_zero() {
        let spec = spec();
        let s = sanitize(
            CapSplit {
                sim: Watts(120.0),
                viz: Watts(120.0),
            },
            false,
            false,
            Watts(160.0),
            &spec,
        );
        assert_eq!(s.sim, Watts::ZERO);
        assert_eq!(s.viz, Watts::ZERO);
    }

    #[test]
    fn a_nan_policy_never_programs_outside_the_cap_range() {
        const NAN: CapSplit = CapSplit {
            sim: Watts(f64::NAN),
            viz: Watts(f64::NAN),
        };
        struct NanPolicy;
        impl Policy for NanPolicy {
            fn name(&self) -> &'static str {
                "nan"
            }
            fn initial(&mut self, _: &WorkloadPair, _: Watts, _: &CpuSpec) -> CapSplit {
                NAN
            }
            fn decide(&mut self, _: &Observation, _: &CpuSpec) -> CapSplit {
                NAN
            }
        }
        let spec = spec();
        let mut j = Journal::with_capacity(1 << 14);
        govern(&pair(), &mut NanPolicy, Watts(160.0), &spec, &mut j);
        let mut changes = 0;
        for change in j.records(Kind::CapChange) {
            for key in ["requested_watts", "actual_watts"] {
                let cap = Watts(change.num(key).expect("cap field"));
                assert!(
                    cap >= spec.min_cap_watts && cap <= spec.tdp_watts,
                    "{key} {cap}"
                );
            }
            changes += 1;
        }
        // Both sides sit on the floor from the start, so nothing changes.
        assert_eq!(changes, 2);
    }

    #[test]
    fn retirement_hands_the_survivor_the_budget() {
        let mut j = Journal::with_capacity(1 << 14);
        let r = govern(&pair(), &mut Reactive::new(), Watts(160.0), &spec(), &mut j);
        // The viz side retires first; afterwards the sim cap is the
        // budget bounded by TDP.
        assert!(r.viz.seconds < r.sim.seconds);
        let last = j.records(Kind::PolicyDecision).last().expect("decisions");
        assert_eq!(last.num("sim_cap_watts"), Some(120.0));
        assert_eq!(last.num("viz_cap_watts"), Some(0.0));
    }
}
