//! Property-based tests for the hydrodynamics proxy.

use cloverleaf::{Problem, SimConfig, Simulation};
use propcheck::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mass is conserved to rounding for every problem, grid size and
    /// step count (the donor-cell advection is conservative and the
    /// boundaries are closed).
    #[test]
    fn mass_conserved(
        n in 4usize..10,
        steps in 1u64..40,
        problem in prop_oneof![
            Just(Problem::TwoState),
            Just(Problem::HotSphere),
            Just(Problem::TripleSlab),
        ],
    ) {
        let mut sim = Simulation::new(problem, n, SimConfig::default());
        let m0 = sim.state.total_mass();
        sim.run_steps(steps);
        let m1 = sim.state.total_mass();
        prop_assert!(((m1 - m0) / m0).abs() < 1e-9, "{m0} -> {m1}");
    }

    /// The state stays physical: positive density and energy, finite
    /// velocity, and the CFL time step stays positive.
    #[test]
    fn state_stays_physical(n in 4usize..9, steps in 1u64..60) {
        let mut sim = Simulation::new(Problem::TwoState, n, SimConfig::default());
        sim.run_steps(steps);
        prop_assert!(sim.state.density.iter().all(|d| d.is_finite() && *d > 0.0));
        prop_assert!(sim.state.energy.iter().all(|e| e.is_finite() && *e > 0.0));
        prop_assert!(sim.state.velocity.iter().all(|u| u.is_finite()));
        prop_assert!(sim.current_dt() > 0.0);
    }

    /// Total (internal + kinetic) energy stays bounded: the scheme may
    /// dissipate through the artificial viscosity and the energy floor,
    /// but it must not blow up.
    #[test]
    fn energy_bounded(steps in 5u64..50) {
        let mut sim = Simulation::new(Problem::TwoState, 8, SimConfig::default());
        let e0 = sim.state.total_internal_energy() + sim.state.total_kinetic_energy();
        sim.run_steps(steps);
        let e1 = sim.state.total_internal_energy() + sim.state.total_kinetic_energy();
        prop_assert!(e1 < e0 * 1.2, "energy grew {e0} -> {e1}");
        prop_assert!(e1 > e0 * 0.3, "energy collapsed {e0} -> {e1}");
    }

    /// Determinism: the same problem and step count give bitwise equal
    /// states regardless of when they run.
    #[test]
    fn bitwise_deterministic(n in 4usize..8, steps in 1u64..20) {
        let run = || {
            let mut sim = Simulation::new(Problem::HotSphere, n, SimConfig::default());
            sim.run_steps(steps);
            (sim.state.energy.clone(), sim.state.velocity.clone(), sim.time())
        };
        prop_assert_eq!(run(), run());
    }

    /// Symmetry: the HotSphere problem is symmetric under mirroring all
    /// three axes, and the solver preserves that symmetry.
    #[test]
    fn hot_sphere_stays_symmetric(steps in 1u64..25) {
        let n = 6;
        let mut sim = Simulation::new(Problem::HotSphere, n, SimConfig::default());
        sim.run_steps(steps);
        let g = &sim.state.grid;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let a = sim.state.energy[g.cell_id(i, j, k)];
                    let b = sim.state.energy[g.cell_id(n - 1 - i, n - 1 - j, n - 1 - k)];
                    prop_assert!(
                        (a - b).abs() < 1e-9 * a.abs().max(1.0),
                        "asymmetry at ({i},{j},{k}): {a} vs {b}"
                    );
                }
            }
        }
    }
}
