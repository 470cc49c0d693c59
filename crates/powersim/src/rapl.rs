//! The RAPL power limiter: `MSR_PKG_POWER_LIMIT` encoding and the
//! running-average control loop.
//!
//! Real RAPL measures a running average of package energy over a
//! configurable window and modulates the P-state so the average stays at
//! or below the programmed limit. The simulation reproduces the
//! steady-state behaviour: each control window, the firmware picks the
//! highest DVFS frequency whose predicted power under the *current
//! workload phase* fits the cap. Uncapped (or with the limit disabled),
//! the package runs all-core turbo subject to TDP.

use crate::cpu::CpuSpec;
use crate::msr::{addr, MsrError, MsrFile};
use crate::units::Watts;

/// Power-limit field unit: 1/8 W (bits 3:0 = 3 in `MSR_RAPL_POWER_UNIT`).
const POWER_UNIT: Watts = Watts(0.125);

/// RAPL control window used by the firmware model.
pub(crate) const CONTROL_WINDOW_SEC: f64 = 0.010;

/// Encode/decode and apply package power limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerLimiter;

impl PowerLimiter {
    /// Program a package power cap in watts (clamped to the supported
    /// range) through the MSR interface, with the enable bit set.
    pub fn set_cap(msr: &mut MsrFile, spec: &CpuSpec, watts: Watts) -> Result<(), MsrError> {
        let clamped = spec.clamp_cap(watts);
        let field = (clamped / POWER_UNIT).round() as u64 & 0x7FFF;
        // Bit 15: enable. Bits 23:17: time window (encoded, fixed here).
        let value = field | 1 << 15 | 0x6 << 17;
        msr.write(addr::MSR_PKG_POWER_LIMIT, value)
    }

    /// The currently programmed cap, if enabled.
    pub fn get_cap(msr: &MsrFile) -> Option<Watts> {
        let v = msr.hw_get(addr::MSR_PKG_POWER_LIMIT);
        if v & 1 << 15 == 0 {
            return None;
        }
        Some((v & 0x7FFF) as f64 * POWER_UNIT)
    }

    /// The cap the firmware actually enforces this window: the
    /// programmed limit if enabled, else TDP — and never above TDP.
    pub(crate) fn effective_cap(msr: &MsrFile, spec: &CpuSpec) -> Watts {
        Self::get_cap(msr)
            .unwrap_or(spec.tdp_watts)
            .min(spec.tdp_watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MsrFile, CpuSpec) {
        (MsrFile::new(), CpuSpec::broadwell_e5_2695v4())
    }

    /// Clear the limit register: enable bit off, no cap programmed.
    fn disable(msr: &mut MsrFile) {
        msr.write(addr::MSR_PKG_POWER_LIMIT, 0).unwrap();
    }

    /// The frequency the firmware model picks for one control window at
    /// the enforced cap and the given activity factor, with no DRAM
    /// traffic.
    fn control_frequency(msr: &MsrFile, spec: &CpuSpec, activity: f64) -> f64 {
        let cap = PowerLimiter::effective_cap(msr, spec);
        spec.solve_frequency(cap, activity, |_| 0.0).0
    }

    #[test]
    fn cap_round_trips_through_msr() {
        let (mut msr, spec) = setup();
        for watts in [Watts(40.0), Watts(70.0), Watts(120.0)] {
            PowerLimiter::set_cap(&mut msr, &spec, watts).unwrap();
            let got = PowerLimiter::get_cap(&msr).unwrap();
            assert!((got - watts).abs() < POWER_UNIT, "{watts} -> {got}");
        }
    }

    #[test]
    fn cap_is_clamped_to_supported_range() {
        let (mut msr, spec) = setup();
        PowerLimiter::set_cap(&mut msr, &spec, Watts(10.0)).unwrap();
        assert!((PowerLimiter::get_cap(&msr).unwrap() - Watts(40.0)).abs() < 0.2);
        PowerLimiter::set_cap(&mut msr, &spec, Watts(500.0)).unwrap();
        assert!((PowerLimiter::get_cap(&msr).unwrap() - Watts(120.0)).abs() < 0.2);
    }

    #[test]
    fn effective_cap_defaults_to_tdp_and_never_exceeds_it() {
        let (mut msr, spec) = setup();
        disable(&mut msr);
        assert_eq!(PowerLimiter::effective_cap(&msr, &spec), spec.tdp_watts);
        PowerLimiter::set_cap(&mut msr, &spec, Watts(70.0)).unwrap();
        assert!((PowerLimiter::effective_cap(&msr, &spec) - Watts(70.0)).abs() < POWER_UNIT);
    }

    #[test]
    fn disabled_limit_reads_as_none() {
        let (mut msr, _spec) = setup();
        disable(&mut msr);
        assert_eq!(PowerLimiter::get_cap(&msr), None);
    }

    #[test]
    fn uncapped_control_runs_turbo() {
        let (mut msr, spec) = setup();
        disable(&mut msr);
        assert_eq!(control_frequency(&msr, &spec, 0.95), 2.6);
    }

    #[test]
    fn capped_control_throttles_by_activity() {
        let (mut msr, spec) = setup();
        PowerLimiter::set_cap(&mut msr, &spec, Watts(60.0)).unwrap();
        let hot = control_frequency(&msr, &spec, 0.95);
        let cold = control_frequency(&msr, &spec, 0.3);
        assert!(hot < cold, "hot {hot} !< cold {cold}");
        assert_eq!(cold, 2.6);
    }

    #[test]
    fn frequency_monotone_in_cap() {
        let (mut msr, spec) = setup();
        let mut last = 0.0;
        for cap in [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0] {
            let cap = Watts(cap);
            PowerLimiter::set_cap(&mut msr, &spec, cap).unwrap();
            let f = control_frequency(&msr, &spec, 0.9);
            assert!(f >= last, "cap {cap}: {f} < {last}");
            last = f;
        }
    }
}
