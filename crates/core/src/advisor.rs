//! The power advisor: the paper's motivating runtime use case (§VII).
//!
//! "Our findings may be integrated into a runtime system that assigns
//! power between a simulation and visualization application running
//! concurrently under a power budget, such that overall performance is
//! maximized."
//!
//! Given a node budget and the two characterized workloads (one per
//! package: the simulation on one socket, the visualization on the
//! other), the advisor searches the cap split minimizing completion time
//! of the concurrent pair, and reports the gain over the naïve uniform
//! split. Because visualization workloads are mostly power-opportunity,
//! the advisor typically steals nearly all headroom above 40 W for the
//! power-hungry simulation.

use powersim::trace::Journal;
use powersim::{CpuSpec, Package, Watts, Workload};

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct AllocationPlan {
    pub budget_watts: Watts,
    /// Chosen caps.
    pub sim_cap_watts: Watts,
    pub viz_cap_watts: Watts,
    /// Completion time (both workloads run concurrently; the pair
    /// finishes when the slower one does).
    pub predicted_seconds: f64,
    /// Completion time under the naïve uniform split.
    pub naive_seconds: f64,
}

impl AllocationPlan {
    /// Speedup of the optimized split over the uniform split. A
    /// degenerate plan (zero predicted time, e.g. from empty workloads)
    /// reports no improvement rather than a meaningless ∞/NaN ratio.
    pub fn improvement(&self) -> f64 {
        debug_assert!(
            self.predicted_seconds > 0.0,
            "improvement() on a plan with zero predicted_seconds"
        );
        if self.predicted_seconds <= 0.0 {
            return 1.0;
        }
        self.naive_seconds / self.predicted_seconds
    }
}

/// Predicted execution time of `workload` under `cap`.
pub fn predict_seconds(workload: &Workload, cap: Watts, spec: &CpuSpec) -> f64 {
    let mut pkg = Package::new(spec.clone());
    pkg.run_capped(workload, cap, &mut Journal::off()).seconds
}

/// Clamp a node budget to the feasible range: each package cap lies in
/// `min_cap ..= TDP`, so the budget lies in `2 × min_cap ..= 2 × TDP`.
pub fn clamp_budget(budget_watts: Watts, spec: &CpuSpec) -> Watts {
    budget_watts.clamp(2.0 * spec.min_cap_watts, 2.0 * spec.tdp_watts)
}

/// The feasible `(sim, viz)` cap splits of the clamped `budget_watts`
/// on the 5 W grid, by ascending simulation cap: `sim` climbs from
/// `min_cap` to TDP, `viz` takes the rest of the budget clamped to the
/// hardware range, and a split whose caps sum past the budget is
/// skipped.
pub fn splits(budget_watts: Watts, spec: &CpuSpec) -> impl Iterator<Item = (Watts, Watts)> {
    let (lo, hi) = (spec.min_cap_watts, spec.tdp_watts);
    let budget = clamp_budget(budget_watts, spec);
    std::iter::successors(Some(lo), |&sim| Some(sim + Watts(5.0)))
        .take_while(move |&sim| sim <= hi + Watts(1e-9))
        .map(move |sim| (sim, (budget - sim).clamp(lo, hi)))
        .filter(move |&(sim, viz)| sim + viz <= budget + Watts(1e-9))
}

/// Search [`splits`] for the split of `budget_watts` (clamped by
/// [`clamp_budget`]) that finishes the concurrent pair soonest.
pub fn allocate(
    sim: &Workload,
    viz: &Workload,
    budget_watts: Watts,
    spec: &CpuSpec,
) -> AllocationPlan {
    let budget = clamp_budget(budget_watts, spec);
    let naive_cap = (budget / 2.0).clamp(spec.min_cap_watts, spec.tdp_watts);
    let naive_seconds =
        predict_seconds(sim, naive_cap, spec).max(predict_seconds(viz, naive_cap, spec));

    // Keep the naive split unless a candidate is strictly better; with
    // flat workloads every split ties and re-shuffling power would be
    // arbitrary churn.
    let mut best = (naive_cap, naive_cap, naive_seconds);
    for (sim_cap, viz_cap) in splits(budget, spec) {
        let t = predict_seconds(sim, sim_cap, spec).max(predict_seconds(viz, viz_cap, spec));
        if t < best.2 * (1.0 - 1e-6) {
            best = (sim_cap, viz_cap, t);
        }
    }

    AllocationPlan {
        budget_watts: budget,
        sim_cap_watts: best.0,
        viz_cap_watts: best.1,
        predicted_seconds: best.2,
        naive_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::KernelPhase;

    fn hot_sim() -> Workload {
        Workload::new("sim").with_phase(KernelPhase::compute("hydro", 3_000_000_000_000))
    }

    fn cold_viz() -> Workload {
        Workload::new("viz").with_phase(KernelPhase::memory(
            "contour",
            60_000_000_000,
            1_500_000_000_000,
        ))
    }

    fn spec() -> CpuSpec {
        CpuSpec::broadwell_e5_2695v4()
    }

    #[test]
    fn advisor_gives_power_to_the_hungry_simulation() {
        let plan = allocate(&hot_sim(), &cold_viz(), Watts(160.0), &spec());
        assert!(
            plan.sim_cap_watts > plan.viz_cap_watts,
            "sim {} !> viz {}",
            plan.sim_cap_watts,
            plan.viz_cap_watts
        );
        assert!(plan.improvement() >= 1.0);
    }

    #[test]
    fn advisor_beats_naive_split_under_tight_budget() {
        // 140 W across two sockets: uniform gives each 70 W, throttling
        // the compute-bound simulation while the memory-bound viz wastes
        // headroom. The advisor should recover most of the loss.
        let plan = allocate(&hot_sim(), &cold_viz(), Watts(140.0), &spec());
        assert!(
            plan.improvement() > 1.05,
            "improvement = {}",
            plan.improvement()
        );
        // Viz gets close to the floor.
        assert!(plan.viz_cap_watts <= 60.0);
    }

    #[test]
    fn symmetric_workloads_split_evenly_ish() {
        let plan = allocate(&hot_sim(), &hot_sim(), Watts(160.0), &spec());
        assert!((plan.sim_cap_watts - plan.viz_cap_watts).abs() <= 10.0);
    }

    #[test]
    fn budget_is_clamped_to_hardware_range() {
        let plan = allocate(&hot_sim(), &cold_viz(), Watts(10.0), &spec());
        assert!((plan.budget_watts - Watts(80.0)).abs() < 1e-9);
        assert!(plan.sim_cap_watts >= 40.0 && plan.viz_cap_watts >= 40.0);
    }

    #[test]
    fn splits_walk_the_5w_grid() {
        let spec = spec();
        let walk = |budget| splits(Watts(budget), &spec).collect::<Vec<_>>();
        assert_eq!(walk(80.0), [(Watts(40.0), Watts(40.0))]);
        let mid = walk(150.0);
        assert_eq!(mid.len(), 15);
        assert_eq!(mid.first(), Some(&(Watts(40.0), Watts(110.0))));
        assert_eq!(mid.last(), Some(&(Watts(110.0), Watts(40.0))));
        let top = walk(240.0);
        assert_eq!(top.len(), 17);
        assert!(top.iter().all(|&(_, viz)| viz == Watts(120.0)));
    }

    #[test]
    fn zero_time_plan_improvement_is_guarded() {
        let plan = AllocationPlan {
            budget_watts: Watts(160.0),
            sim_cap_watts: Watts(80.0),
            viz_cap_watts: Watts(80.0),
            predicted_seconds: 0.0,
            naive_seconds: 5.0,
        };
        if cfg!(debug_assertions) {
            // Debug builds flag the degenerate plan loudly.
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.improvement()));
            assert!(caught.is_err(), "debug_assert on zero predicted_seconds");
        } else {
            // Release builds degrade to "no improvement", never ∞/NaN.
            assert_eq!(plan.improvement(), 1.0);
        }
    }

    #[test]
    fn positive_time_plan_improvement_is_the_plain_ratio() {
        let plan = AllocationPlan {
            budget_watts: Watts(160.0),
            sim_cap_watts: Watts(110.0),
            viz_cap_watts: Watts(50.0),
            predicted_seconds: 4.0,
            naive_seconds: 5.0,
        };
        assert_eq!(plan.improvement(), 1.25);
    }

    #[test]
    fn generous_budget_removes_the_tradeoff() {
        let plan = allocate(&hot_sim(), &cold_viz(), Watts(240.0), &spec());
        // With 120 W available per socket nothing throttles; naive and
        // optimized coincide.
        assert!((plan.improvement() - 1.0).abs() < 0.02);
    }
}
