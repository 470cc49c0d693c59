//! Property tests for the governor's hard invariants: no matter the
//! budget, workload shape, or policy, active caps stay within the
//! hardware range and never sum past the node budget, and the journal is
//! byte-identical across runs and `par` thread counts.

use governor::{govern, Reactive, StaticAdvisor, Uniform, WorkloadPair};
use powersim::trace::{Journal, Kind};
use powersim::{CpuSpec, KernelPhase, Watts, Workload};
use propcheck::prelude::*;

fn spec() -> CpuSpec {
    CpuSpec::broadwell_e5_2695v4()
}

/// A small synthetic pair parameterized by instruction counts, so
/// the sampler can vary relative side lengths and phase mixes.
fn pair(sim_ginst: u64, viz_ginst: u64, viz_heavy: bool) -> WorkloadPair {
    let sim = Workload::new("p-sim")
        .with_phase(KernelPhase::compute("hydro-a", sim_ginst * 1_000_000_000))
        .with_phase(KernelPhase::memory(
            "halo",
            sim_ginst * 250_000_000,
            sim_ginst * 6_000_000_000,
        ))
        .with_phase(KernelPhase::compute("hydro-b", sim_ginst * 1_000_000_000));
    let viz = if viz_heavy {
        Workload::new("p-viz").with_phase(KernelPhase::compute("render", viz_ginst * 1_000_000_000))
    } else {
        Workload::new("p-viz").with_phase(KernelPhase::memory(
            "contour",
            viz_ginst * 1_000_000_000,
            viz_ginst * 25_000_000_000,
        ))
    };
    WorkloadPair { sim, viz }
}

/// Every decision in the journal satisfies the budget and range
/// contract.
fn assert_decisions_feasible(journal: &Journal, budget: Watts, spec: &CpuSpec) {
    let lo = spec.min_cap_watts;
    let hi = spec.tdp_watts;
    let mut decisions = 0;
    for d in journal.records(Kind::PolicyDecision) {
        let watts = |key| Watts(d.num(key).expect("decision field"));
        decisions += 1;
        let mut active_total = Watts::ZERO;
        for cap in [watts("sim_cap_watts"), watts("viz_cap_watts")] {
            if cap > Watts(1e-9) {
                assert!(
                    cap >= lo - Watts(1e-9) && cap <= hi + Watts(1e-9),
                    "cap {cap} outside [{lo}, {hi}]"
                );
                active_total += cap;
            }
        }
        assert!(
            active_total <= budget + Watts(1e-9),
            "active caps {active_total} exceed budget {budget}"
        );
        assert!(
            watts("sim_power_watts") + watts("viz_power_watts") <= budget + Watts(0.5),
            "window power {} + {} exceeds budget {budget}",
            watts("sim_power_watts"),
            watts("viz_power_watts")
        );
    }
    assert!(decisions > 0, "governed run emitted no decisions");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn caps_always_feasible_under_any_budget(
        budget in 60.0f64..300.0,
        sim_ginst in 40u64..160,
        viz_ginst in 10u64..80,
        viz_heavy in any::<bool>(),
        policy_id in 0usize..3,
    ) {
        let spec = spec();
        let pair = pair(sim_ginst, viz_ginst, viz_heavy);
        let mut journal = Journal::with_capacity(1 << 15);
        let budget = Watts(budget);
        let r = match policy_id {
            0 => govern(&pair, &mut Uniform::new(), budget, &spec, &mut journal),
            1 => govern(&pair, &mut StaticAdvisor::new(), budget, &spec, &mut journal),
            _ => govern(&pair, &mut Reactive::new(), budget, &spec, &mut journal),
        };
        // The enforced budget is the feasibility-clamped one.
        prop_assert!(r.budget_watts >= 2.0 * spec.min_cap_watts - Watts(1e-9));
        prop_assert!(r.budget_watts <= 2.0 * spec.tdp_watts + Watts(1e-9));
        prop_assert!(r.max_window_power_watts <= r.budget_watts + Watts(0.5));
        prop_assert!(r.seconds > 0.0);
        assert_decisions_feasible(&journal, r.budget_watts, &spec);
    }

    #[test]
    fn journal_is_byte_identical_across_runs_and_thread_counts(
        budget in 80.0f64..240.0,
        sim_ginst in 40u64..120,
        viz_ginst in 10u64..60,
    ) {
        let run_with = |threads: usize| {
            vizmesh::par::with_threads(threads, || {
                let spec = spec();
                let pair = pair(sim_ginst, viz_ginst, false);
                let mut journal = Journal::with_capacity(1 << 15);
                govern(&pair, &mut Reactive::new(), Watts(budget), &spec, &mut journal);
                journal.to_jsonl()
            })
        };
        let one = run_with(1);
        let four = run_with(4);
        prop_assert_eq!(one, four);
    }
}
