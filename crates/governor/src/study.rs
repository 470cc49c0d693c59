//! The budget-sweep study: the governed cloverleaf + visualization pair
//! across node budgets from 80 W to 240 W, one governed run
//! ([`GovernorResult`]) per (budget, policy).
//!
//! Four policies run at every budget: the three online policies
//! ([`Uniform`], [`StaticAdvisor`], [`Reactive`]) plus an *oracle* upper
//! bound — the best fixed split found by exhaustive search over the 5 W
//! grid (with journaling off), re-run journaled under the name
//! `"oracle"`. The oracle bounds what any static assignment can achieve;
//! `Reactive` may beat it, because reassigning the retired side's power
//! mid-run is outside the static space.

use crate::control::{govern, GovernorResult};
use crate::pair::{coupled_pair, WorkloadPair};
use crate::policy::{CapSplit, Oracle, Policy, Reactive, StaticAdvisor, Uniform};
use powersim::trace::{Journal, Scope};
use powersim::{CpuSpec, Watts};
use vizpower::advisor;

/// The studied node budgets: 80 W (both packages at the floor) to 240 W
/// (both at TDP) in 20 W steps.
pub fn budgets() -> Vec<Watts> {
    (0..9).map(|i| Watts(80.0 + 20.0 * i as f64)).collect()
}

/// The full sweep: every policy at every budget.
#[derive(Debug, Clone)]
pub struct BudgetSweep {
    /// Grid size the pair was characterized from (cells per axis).
    pub(crate) grid_cells: usize,
    /// The governed runs in budget-major order: for each budget,
    /// `uniform`, `static-advisor`, `reactive`, `oracle`.
    pub rows: Vec<GovernorResult>,
}

impl BudgetSweep {
    /// The row for a given budget and policy, if present.
    pub fn row(&self, budget: Watts, policy: &str) -> Option<&GovernorResult> {
        self.rows
            .iter()
            .find(|r| (r.budget_watts - budget).abs() < Watts(1e-9) && r.policy == policy)
    }
}

/// Exhaustively search the best fixed split for `budget` among
/// [`advisor::splits`] (journaling off). The splits come by ascending
/// simulation cap and a later split replaces the best only when it is
/// faster by more than a relative 1e-9, so ties go to the smallest
/// simulation cap.
fn oracle_split(pair: &WorkloadPair, budget: Watts, spec: &CpuSpec) -> CapSplit {
    let mut best: Option<(CapSplit, f64)> = None;
    for (sim, viz) in advisor::splits(budget, spec) {
        let split = CapSplit { sim, viz };
        let r = govern(pair, &mut Oracle(split), budget, spec, &mut Journal::off());
        if best.is_none_or(|(_, t)| r.seconds < t * (1.0 - 1e-9)) {
            best = Some((split, r.seconds));
        }
    }
    best.map_or_else(|| CapSplit::uniform(budget, spec), |(s, _)| s)
}

/// Sweep one already-characterized pair across `budgets`, journaling
/// each governed run.
pub fn sweep_pair(
    pair: &WorkloadPair,
    budgets: &[Watts],
    spec: &CpuSpec,
    journal: &mut Journal,
) -> Vec<GovernorResult> {
    let mut rows = Vec::with_capacity(budgets.len() * 4);
    for &budget in budgets {
        // Fresh per budget: Reactive carries state across windows and
        // must start each budget point cold.
        let mut online = online_policies();
        for policy in online.iter_mut() {
            rows.push(govern(pair, policy.as_mut(), budget, spec, journal));
        }
        let mut oracle = Oracle(oracle_split(pair, budget, spec));
        rows.push(govern(pair, &mut oracle, budget, spec, journal));
    }
    rows
}

/// The three online policies of the sweep, newly constructed (Reactive
/// is stateful, so each budget point needs a cold instance).
fn online_policies() -> [Box<dyn Policy>; 3] {
    [
        Box::new(Uniform::new()),
        Box::new(StaticAdvisor::new()),
        Box::new(Reactive::new()),
    ]
}

/// The full study: characterize the coupled pair at `grid_cells`³ and
/// sweep it across [`budgets`], under a [`Scope::Study`] span.
pub fn budget_sweep(grid_cells: usize, spec: &CpuSpec, journal: &mut Journal) -> BudgetSweep {
    let t0 = journal.now();
    let pair = coupled_pair(grid_cells, spec);
    let rows = sweep_pair(&pair, &budgets(), spec, journal);
    journal.push_span(Scope::Study, t0, None, || {
        let args = vec![
            ("grid_cells", grid_cells as f64),
            ("budgets", budgets().len() as f64),
            ("rows", rows.len() as f64),
        ];
        (format!("governor-sweep:{grid_cells}"), args)
    });
    BudgetSweep { grid_cells, rows }
}

/// Render the sweep as a paper-style fixed-width table.
pub fn render_table(sweep: &BudgetSweep) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96 * (sweep.rows.len() + 2));
    let _ = writeln!(
        out,
        "Budget sweep: governed cloverleaf + visualization pair ({}^3 grid)",
        sweep.grid_cells
    );
    out.push_str(
        "budget_W  policy          time_s   energy_J   avg_W  max_win_W  sim_s   viz_s  caps\n",
    );
    let mut last_budget = Watts(-1.0);
    for row in &sweep.rows {
        if (row.budget_watts - last_budget).abs() > Watts(1e-9) && last_budget >= Watts::ZERO {
            out.push('\n');
        }
        last_budget = row.budget_watts;
        let avg_power_watts = if row.seconds > 0.0 {
            row.energy_joules.over_seconds(row.seconds)
        } else {
            Watts::ZERO
        };
        let _ = writeln!(
            out,
            "{:>8.0}  {:<14} {:>7.2} {:>10.0} {:>7.1} {:>10.1} {:>6.2} {:>7.2} {:>5}",
            row.budget_watts,
            row.policy,
            row.seconds,
            row.energy_joules,
            avg_power_watts,
            row.max_window_power_watts,
            row.sim.seconds,
            row.viz.seconds,
            row.cap_changes,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::Workload;
    use vizpower::advisor::clamp_budget;

    fn spec() -> CpuSpec {
        CpuSpec::broadwell_e5_2695v4()
    }

    #[test]
    fn budgets_cover_floor_to_tdp() {
        let b = budgets();
        assert_eq!(b.len(), 9);
        assert_eq!(b[0], Watts(80.0));
        assert_eq!(b[8], Watts(240.0));
    }

    #[test]
    fn sweep_of_synthetic_pair_orders_policies_sanely() {
        let pair = WorkloadPair::synthetic_for_tests();
        let budgets = [Watts(120.0), Watts(160.0)];
        let mut j = Journal::off();
        let rows = sweep_pair(&pair, &budgets, &spec(), &mut j);
        assert_eq!(rows.len(), 8);
        for &budget in &budgets {
            // A missing row yields NaN, which fails every assert below.
            let get = |p: &str| {
                rows.iter()
                    .find(|r| r.budget_watts == budget && r.policy == p)
                    .map(|r| r.seconds)
                    .unwrap_or(f64::NAN)
            };
            let uniform = get("uniform");
            let reactive = get("reactive");
            let oracle = get("oracle");
            assert!(
                reactive < uniform,
                "at {budget}: reactive {reactive} !< uniform {uniform}"
            );
            assert!(
                oracle <= uniform * (1.0 + 1e-9),
                "at {budget}: oracle {oracle} !<= uniform {uniform}"
            );
        }
    }

    #[test]
    fn oracle_ties_go_to_the_smallest_simulation_cap() {
        // Two empty workloads finish in 0 s under every split, so every
        // split ties and the first one the ascending walk tries is kept.
        let pair = WorkloadPair {
            sim: Workload::new("empty-sim"),
            viz: Workload::new("empty-viz"),
        };
        let spec = spec();
        let (lo, hi) = (spec.min_cap_watts, spec.tdp_watts);
        for budget in [Watts(80.0), Watts(150.0), Watts(240.0)] {
            let split = oracle_split(&pair, budget, &spec);
            assert_eq!(split.sim, lo, "at {budget}");
            assert_eq!(split.viz, (clamp_budget(budget, &spec) - lo).clamp(lo, hi));
        }
    }

    #[test]
    fn table_renders_one_line_per_row() {
        let pair = WorkloadPair::synthetic_for_tests();
        let mut j = Journal::off();
        let rows = sweep_pair(&pair, &[Watts(160.0)], &spec(), &mut j);
        let sweep = BudgetSweep {
            grid_cells: 32,
            rows,
        };
        let table = render_table(&sweep);
        assert!(table.contains("reactive"));
        assert!(table.contains("oracle"));
        assert!(table.lines().filter(|l| l.contains("160")).count() >= 4);
    }
}
