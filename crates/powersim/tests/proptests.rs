//! Property-based tests for the simulated processor.

use powersim::cpu::CpuSpec;
use powersim::timing::{bw_utilization, memory_time, phase_time};
use powersim::trace::Journal;
use powersim::units::Watts;
use powersim::{KernelPhase, Package, Workload};
use propcheck::prelude::*;

fn phase_strategy() -> impl Strategy<Value = KernelPhase> {
    (
        1_000_000u64..5_000_000_000,
        0.3f64..2.8,
        0.05f64..1.0,
        0u64..100_000_000,
        0.0f64..1.0,
        0u64..50_000_000_000,
    )
        .prop_map(|(instr, cpi, act, refs, miss, bytes)| KernelPhase {
            name: "p".into(),
            instructions: instr,
            cpi_core: cpi,
            activity: act,
            llc_refs: refs,
            llc_miss_rate: miss,
            dram_bytes: bytes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Power is monotone in frequency and activity for every spec.
    #[test]
    fn power_monotone(f1 in 0.8f64..2.5, df in 0.01f64..0.5, a in 0.0f64..1.0, da in 0.01f64..0.4) {
        for spec in [
            CpuSpec::broadwell_e5_2695v4(),
            CpuSpec::skylake_8160_like(),
            CpuSpec::lowpower_d_like(),
        ] {
            prop_assert!(spec.power(f1 + df, a, 0.0) > spec.power(f1, a, 0.0));
            prop_assert!(spec.power(f1, a + da, 0.0) > spec.power(f1, a, 0.0));
        }
    }

    /// The frequency solver respects its cap whenever any ladder
    /// frequency fits, and is monotone in the cap.
    #[test]
    fn solver_respects_cap(cap in 40.0f64..120.0, act in 0.05f64..1.0) {
        let spec = CpuSpec::broadwell_e5_2695v4();
        let cap = Watts(cap);
        let (f, util) = spec.solve_frequency(cap, act, |_| 0.0);
        prop_assert_eq!(util, 0.0);
        prop_assert!(f >= spec.min_ghz - 1e-9 && f <= spec.turbo_ghz + 1e-9);
        if spec.power(spec.min_ghz, act, 0.0) <= cap {
            prop_assert!(spec.power(f, act, 0.0) <= cap + Watts(1e-9));
        }
        let (f_higher, _) = spec.solve_frequency(cap + Watts(10.0), act, |_| 0.0);
        prop_assert!(f_higher >= f - 1e-9);
    }

    /// The executor's decision under DRAM traffic: the chosen P-state's
    /// power at the phase's utilization there fits the cap whenever the
    /// lowest P-state's does, and the choice is monotone in the cap.
    #[test]
    fn solver_respects_cap_under_traffic(phase in phase_strategy(), cap in 40.0f64..120.0) {
        let spec = CpuSpec::broadwell_e5_2695v4();
        let (cap, act) = (Watts(cap), phase.activity);
        let util = |f| bw_utilization(&spec, &phase, f);
        let (f, u) = spec.solve_frequency(cap, act, util);
        prop_assert_eq!(u, util(f));
        if spec.power(spec.min_ghz, act, util(spec.min_ghz)) <= cap {
            prop_assert!(spec.power(f, act, u) <= cap, "{} W at {} GHz", spec.power(f, act, u), f);
        } else {
            prop_assert_eq!(f, spec.min_ghz);
        }
        for higher in [cap + Watts(0.5), cap + Watts(10.0)] {
            let (f_higher, _) = spec.solve_frequency(higher, act, util);
            prop_assert!(f_higher >= f, "{} W: {} < {}", higher, f_higher, f);
        }
    }

    /// Phase time is monotone non-increasing in frequency and never
    /// below either roofline component.
    #[test]
    fn phase_time_monotone_in_frequency(phase in phase_strategy(), f in 0.8f64..2.5) {
        let spec = CpuSpec::broadwell_e5_2695v4();
        let t_slow = phase_time(&spec, &phase, f);
        let t_fast = phase_time(&spec, &phase, f + 0.1);
        prop_assert!(t_fast <= t_slow + 1e-15);
        prop_assert!(t_slow >= memory_time(&spec, &phase) * 0.999);
    }

    /// Executing any workload under a lower cap never takes less time,
    /// and the average power never exceeds the cap by more than rounding.
    #[test]
    fn execution_monotone_in_cap(phase in phase_strategy()) {
        let workload = Workload::new("w").with_phase(phase);
        let hi = Package::broadwell().run_capped(&workload, Watts(120.0), &mut Journal::off());
        let lo = Package::broadwell().run_capped(&workload, Watts(40.0), &mut Journal::off());
        prop_assert!(lo.seconds >= hi.seconds * 0.999_999);
        // RAPL cannot throttle below the lowest P-state; at minimum
        // frequency with saturated DRAM bandwidth the package can exceed
        // a 40 W cap by a couple of watts, as real parts do.
        prop_assert!(lo.avg_power_watts <= 43.5, "P = {}", lo.avg_power_watts);
        prop_assert!(hi.seconds > 0.0 && hi.energy_joules > 0.0);
    }

    /// Energy accounting: avg power × time ≈ energy.
    #[test]
    fn energy_accounting_consistent(phase in phase_strategy(), cap in 45.0f64..120.0) {
        let workload = Workload::new("w").with_phase(phase);
        let mut pkg = Package::broadwell();
        let r = pkg.run_capped(&workload, Watts(cap), &mut Journal::off());
        let pt = r.avg_power_watts.for_duration(r.seconds);
        prop_assert!((pt - r.energy_joules).abs() < 1e-6 * r.energy_joules.value().max(1.0));
    }
}
