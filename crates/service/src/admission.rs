//! Admission control: a service-side budget gate.
//!
//! The fleet budget divides evenly across the simulated nodes; each
//! node's share must admit at least one package at the hardware floor
//! (`min_cap`), otherwise the node could never legally run anything —
//! [`Admission::new`] rejects such configurations up front, so the
//! clamp below never has a budget under its floor.
//!
//! A request's cap is admitted by one expression: clamped into the
//! hardware range `[min_cap, tdp]`, then held to the node budget (the
//! clamp the governor applies to the lone surviving side of a pair).
//! The service builds its cache key from the *admitted* cap — a 120 W
//! ask on a 90 W node is served, journaled, and cached at 90 W, so
//! over-budget requests still dedupe with each other.

use powersim::{CpuSpec, Watts};

use crate::engine::ServiceError;

/// Per-node admission gate under a fleet-wide power budget.
#[derive(Debug, Clone)]
pub struct Admission {
    node_budget: Watts,
    spec: CpuSpec,
}

impl Admission {
    /// Split `fleet_budget` across `nodes` and validate that each share
    /// clears the hardware floor of `spec`.
    pub fn new(
        fleet_budget: Watts,
        nodes: usize,
        spec: CpuSpec,
    ) -> Result<Admission, ServiceError> {
        let nodes = nodes.max(1);
        let node_budget = fleet_budget / nodes as f64;
        // Accept-if-clears, so a NaN budget is rejected (`+inf` clamps at TDP).
        if node_budget >= spec.min_cap_watts {
            Ok(Admission { node_budget, spec })
        } else {
            Err(ServiceError::BudgetBelowFloor {
                node_budget,
                floor: spec.min_cap_watts,
                nodes,
            })
        }
    }

    /// The per-node share of the fleet budget.
    pub(crate) fn node_budget(&self) -> Watts {
        self.node_budget
    }

    /// Admit a requested cap onto one node. The result is always within
    /// `[min_cap, min(node_budget, tdp)]`; `min` drops a NaN operand, so
    /// a NaN ask is admitted at that upper end.
    pub fn admit(&self, requested: Watts) -> Watts {
        let (lo, hi) = (self.spec.min_cap_watts, self.spec.tdp_watts);
        requested.clamp(lo, hi).min(self.node_budget.min(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CpuSpec {
        CpuSpec::broadwell_e5_2695v4()
    }

    #[test]
    fn admitted_caps_stay_inside_budget_and_hardware_range() {
        let adm = Admission::new(Watts(360.0), 4, spec()).expect("feasible");
        assert_eq!(adm.node_budget(), Watts(90.0));
        assert_eq!(adm.admit(Watts(120.0)), Watts(90.0), "budget-capped");
        assert_eq!(adm.admit(Watts(80.0)), Watts(80.0), "within budget");
        assert_eq!(adm.admit(Watts(10.0)), Watts(40.0), "floor-clamped");
        assert_eq!(adm.admit(Watts(500.0)), Watts(90.0), "tdp then budget");
        assert_eq!(adm.admit(Watts(f64::NAN)), Watts(90.0), "NaN ask: budget");
    }

    #[test]
    fn roomy_budget_caps_at_tdp_not_budget() {
        let adm = Admission::new(Watts(400.0), 2, spec()).expect("feasible");
        assert_eq!(adm.node_budget(), Watts(200.0));
        assert_eq!(adm.admit(Watts(500.0)), spec().tdp_watts);
    }

    #[test]
    fn infeasible_share_is_rejected_at_construction() {
        let err = Admission::new(Watts(100.0), 4, spec()).expect_err("25 W/node < 40 W floor");
        match err {
            ServiceError::BudgetBelowFloor {
                node_budget,
                floor,
                nodes,
            } => {
                assert_eq!(node_budget, Watts(25.0));
                assert_eq!(floor, Watts(40.0));
                assert_eq!(nodes, 4);
            }
            other => panic!("wrong error: {other:?}"),
        }
        let nan = Admission::new(Watts(f64::NAN), 4, spec());
        assert!(
            matches!(nan, Err(ServiceError::BudgetBelowFloor { nodes: 4, .. })),
            "a NaN budget clears no floor: {nan:?}"
        );
        Admission::new(Watts(f64::INFINITY), 4, spec()).expect("unbounded budget is admissible");
    }
}
