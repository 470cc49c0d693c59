//! Ideal-gas equation of state.

/// Ratio of specific heats for the ideal gas (CloverLeaf uses 1.4).
pub(crate) const GAMMA: f64 = 1.4;

/// Pressure from density and specific internal energy:
/// `p = (γ − 1) ρ e`.
#[inline]
pub(crate) fn pressure(density: f64, energy: f64) -> f64 {
    (GAMMA - 1.0) * density * energy
}

/// Adiabatic sound speed: `c² = γ p / ρ` (with the pressure already
/// computed from the same `ρ`, `e`). Clamped at zero for robustness
/// against transient negative energies.
#[inline]
pub(crate) fn sound_speed(density: f64, pressure: f64) -> f64 {
    if density <= 0.0 || pressure <= 0.0 {
        0.0
    } else {
        (GAMMA * pressure / density).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_matches_ideal_gas_law() {
        assert!((pressure(1.0, 1.0) - 0.4).abs() < 1e-12);
        assert!((pressure(2.0, 3.0) - 2.4).abs() < 1e-12);
    }

    #[test]
    fn sound_speed_positive_and_scales() {
        let c1 = sound_speed(1.0, 0.4);
        let c2 = sound_speed(1.0, 1.6);
        assert!(c1 > 0.0);
        assert!((c2 / c1 - 2.0).abs() < 1e-12, "c ∝ sqrt(p)");
    }

    #[test]
    fn sound_speed_degenerate_inputs() {
        assert_eq!(sound_speed(0.0, 1.0), 0.0);
        assert_eq!(sound_speed(1.0, -0.1), 0.0);
    }
}
