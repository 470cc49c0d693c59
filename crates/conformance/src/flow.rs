//! Time-varying flow checks: the pathline generalization against a
//! closed-form unsteady rotation, plus the frozen-series metamorphic law.
//!
//! * **Pathline oracle** — a [`FieldSeries`] of rigid-rotation snapshots
//!   whose angular rate grows linearly, `ω(t) = ω₀ + a·t`. The field is
//!   linear in space (trilinear sampling is exact) and linear in `t`
//!   between snapshots (the series' temporal lerp is exact), so the RK4
//!   pathline integrates the true ODE `dθ/dt = ω(t)`, `dr/dt = 0`:
//!   trajectories stay planar to the bit, conserve radius to integrator
//!   order, and turn through exactly `Δθ(T) = ω₀·T + a·T²/2` where `T`
//!   is the polyline's integrated time. The angle check documents RK4's
//!   global `O(h⁴)` error: at the suite's step sizes (`h ≈ 1.7·10⁻³`
//!   diagonals) the drift is ≲ 10⁻¹¹, pinned at 10⁻⁸ relative.
//! * **Frozen metamorphic law** — a pathline on a single-snapshot
//!   [`FieldSeries::frozen`] series must be *byte-identical* to the
//!   steady streamline on the same dataset (the kernel's documented
//!   bit-exactness guarantee): same output dataset, same kernel report.
//!
//! Kernels are built through [`AlgorithmSpec::build_flow`], the
//! sanctioned registry arm for series execution.

use crate::fields;
use crate::{CheckKind, CheckResult, Checks, ConformanceConfig, Group, SEED, STEP_FRACTION};
use std::sync::Arc;
use vizalgo::{Algorithm, AlgorithmSpec, FlowMode, FlowScenario, ParticleAdvection};
use vizmesh::{DataSet, FieldSeries};

/// Initial angular rate of the unsteady rotation.
const OMEGA0: f64 = 1.0;
/// dω/dt — linear in `t`, so piecewise-linear temporal lerp is exact.
const OMEGA_RATE: f64 = 0.5;
/// Snapshot spacing and count: knots at `t = 0, 0.05, …, 0.45`, past the
/// longest pathline the full config integrates (200 steps × √3·10⁻³ ≈
/// 0.35 time units).
const SNAP_DT: f64 = 0.05;
const SNAPSHOTS: usize = 10;

/// The two time-varying flow groups, run at the largest configured grid:
/// the unsteady-rotation pathline oracle and the frozen-series
/// metamorphic law.
pub(crate) fn groups(cfg: &ConformanceConfig) -> Vec<Group> {
    let n = cfg.grids.last().copied().unwrap_or(32);
    let alg = Algorithm::ParticleAdvection;
    let at = |kind| Checks {
        algorithm: alg,
        kind,
        grid: n,
    };
    let oracle = pathline_oracle(cfg, at(CheckKind::Oracle));
    let frozen = frozen_pathline_exact(cfg, at(CheckKind::Metamorphic));
    let group = |checks| Group::traditional(alg, n, checks);
    vec![group(oracle), group(vec![frozen])]
}

/// The canonical advection spec under `scenario` (identical to
/// [`crate::spec_for`]'s advection arm apart from the scenario).
fn advection_spec(cfg: &ConformanceConfig, scenario: FlowScenario) -> AlgorithmSpec {
    AlgorithmSpec::ParticleAdvection {
        field: fields::VELOCITY.into(),
        particles: cfg.particles,
        steps: cfg.advect_steps,
        step_fraction: STEP_FRACTION,
        seed: SEED,
        scenario,
    }
}

fn pathline_kernel(cfg: &ConformanceConfig) -> Option<ParticleAdvection> {
    let scenario = FlowScenario {
        mode: FlowMode::Pathline,
        ..FlowScenario::default()
    };
    advection_spec(cfg, scenario).build_flow()
}

/// Pathlines through the accelerating rotation, checked against the
/// closed-form answer.
fn pathline_oracle(cfg: &ConformanceConfig, c: Checks) -> Vec<CheckResult> {
    let mut series = FieldSeries::with_capacity(SNAPSHOTS);
    for k in 0..SNAPSHOTS {
        let t = k as f64 * SNAP_DT;
        let omega = OMEGA0 + OMEGA_RATE * t;
        series.record(t, Arc::new(fields::rotation_dataset_scaled(c.grid, omega)));
    }
    let Some(kernel) = pathline_kernel(cfg) else {
        return vec![c.failed("pathline-angle")];
    };
    let out = kernel.execute_series(&series);
    let parts = out.dataset.as_ref().and_then(DataSet::as_explicit);
    let Some((points, cells)) = parts else {
        return vec![c.failed("pathline-angle")];
    };
    // Step length and start time match the kernel: h in fractions of the
    // input diagonal, integration starting at the first knot.
    let Some((_, first)) = series.get(0) else {
        return vec![c.failed("pathline-angle")];
    };
    let h = first.bounds().diagonal() * STEP_FRACTION;
    // Closed form: Δθ = ω₀·T + a·T²/2 over the polyline's own
    // integrated span (early domain exits shorten T, not the law).
    let (max_z, max_radius_drift, max_angle_err) =
        crate::oracle::orbit_errors(points, cells, h, |t_total| {
            OMEGA0 * t_total + 0.5 * OMEGA_RATE * t_total * t_total
        });
    vec![
        c.check("pathline-planar", max_z, 0.0, 0.0),
        c.check("pathline-radius-drift", max_radius_drift, 0.0, 1e-9),
        c.check("pathline-angle", max_angle_err, 0.0, 1e-8),
    ]
}

/// Streamline ≡ pathline-on-frozen-series: the steady kernel's output and
/// the pathline executed over `FieldSeries::frozen` of the same dataset
/// must match byte-for-byte, kernel report included.
fn frozen_pathline_exact(cfg: &ConformanceConfig, c: Checks) -> CheckResult {
    let check = "frozen-pathline-exact";
    let input = fields::rotation_dataset(c.grid);
    let steady = advection_spec(cfg, FlowScenario::default())
        .build(&input)
        .execute(&input);
    let Some(kernel) = pathline_kernel(cfg) else {
        return c.failed(check);
    };
    let frozen = kernel.execute_series(&FieldSeries::frozen(Arc::new(input)));
    let identical = steady.dataset == frozen.dataset
        && format!("{:?}", steady.kernels) == format!("{:?}", frozen.kernels);
    let measured = if identical { 0.0 } else { 1.0 };
    c.check(check, measured, 0.0, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_groups_pass_at_quick_resolution() {
        let cfg = ConformanceConfig::quick();
        let groups = groups(&cfg);
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert_eq!(g.algorithm, Algorithm::ParticleAdvection);
            assert_eq!(g.grid, 32);
            for c in &g.checks {
                assert!(
                    c.pass(),
                    "{}: measured {} vs {} ± {}",
                    c.check,
                    c.measured,
                    c.expected,
                    c.tolerance
                );
            }
        }
        let names: Vec<_> = groups
            .iter()
            .flat_map(|g| g.checks.iter().map(|c| c.check.clone()))
            .collect();
        assert_eq!(
            names,
            [
                "oracle:pathline-planar",
                "oracle:pathline-radius-drift",
                "oracle:pathline-angle",
                "metamorphic:frozen-pathline-exact",
            ]
        );
    }

    #[test]
    fn scaled_rotation_matches_the_unit_field_at_omega_one() {
        let a = fields::rotation_dataset(8);
        let b = fields::rotation_dataset_scaled(8, 1.0);
        assert_eq!(a, b);
    }
}
