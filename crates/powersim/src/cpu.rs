//! The package (processor) model: V/f curve, DVFS ladder, and the
//! analytic power model.

use crate::units::Watts;

/// Static description of one processor package.
///
/// The default, [`CpuSpec::broadwell_e5_2695v4`], models the paper's
/// RZTopaz processor: 18 cores, 2.1 GHz base, 2.6 GHz all-core turbo,
/// 120 W TDP, cappable down to 40 W, 45 MB LLC.
#[derive(Debug, Clone)]
pub struct CpuSpec {
    pub name: String,
    pub(crate) cores: u32,
    pub base_ghz: f64,
    /// All-core turbo ceiling.
    pub turbo_ghz: f64,
    pub min_ghz: f64,
    /// DVFS step between available frequencies.
    pub(crate) dvfs_step_ghz: f64,
    pub tdp_watts: Watts,
    /// Lowest RAPL cap the package accepts.
    pub min_cap_watts: Watts,
    pub llc_bytes: u64,
    /// Sustained DRAM bandwidth per package.
    pub(crate) dram_bytes_per_sec: f64,
    /// DRAM access latency.
    pub(crate) mem_latency_sec: f64,
    /// Memory-level parallelism: outstanding misses per core.
    pub(crate) mlp: f64,
    /// Constant uncore power.
    pub(crate) uncore_watts: Watts,
    /// Additional package power at full DRAM-bandwidth utilization
    /// (memory controllers, LLC and ring traffic). Scales linearly with
    /// the utilization fraction.
    pub mem_power_watts: Watts,
    /// Leakage coefficient: `P_leak = leak_per_volt * V`.
    pub(crate) leak_per_volt: f64,
    /// Dynamic coefficient: `P_dyn = cores * c_dyn * V² * f_ghz * α`.
    pub(crate) c_dyn: f64,
    /// Voltage at `min_ghz`.
    pub(crate) v_min: f64,
    /// Voltage slope per GHz above `min_ghz`.
    pub(crate) v_slope: f64,
}

impl CpuSpec {
    /// The paper's processor: Intel Xeon E5-2695 v4 (Broadwell-EP).
    ///
    /// Power-model coefficients are calibrated so that an FP-dense
    /// workload (activity ≈ 0.95) draws ≈ 88 W at the 2.6 GHz all-core
    /// turbo — matching §VI-B's "roughly 85 W per processor" for volume
    /// rendering and particle advection — and a stall-dominated workload
    /// (activity ≈ 0.3) draws ≈ 55 W, the low end the paper reports.
    pub fn broadwell_e5_2695v4() -> Self {
        CpuSpec {
            name: "Intel Xeon E5-2695 v4 (simulated)".into(),
            cores: 18,
            base_ghz: 2.1,
            turbo_ghz: 2.6,
            min_ghz: 0.8,
            dvfs_step_ghz: 0.1,
            tdp_watts: Watts(120.0),
            min_cap_watts: Watts(40.0),
            llc_bytes: 45 * 1024 * 1024,
            dram_bytes_per_sec: 68.0e9,
            mem_latency_sec: 89e-9,
            mlp: 10.0,
            uncore_watts: Watts(24.0),
            mem_power_watts: Watts(7.0),
            leak_per_volt: 5.0,
            c_dyn: 1.335,
            v_min: 0.65,
            v_slope: 0.19,
        }
    }

    /// A Skylake-SP-class preset for the paper's cross-architecture
    /// future work (§VIII): more cores, higher TDP, a smaller
    /// non-inclusive LLC, and more memory bandwidth. Power caps reach
    /// further down relative to the draw of hot workloads, and the
    /// bandwidth headroom shrinks memory-bound cushions.
    pub fn skylake_8160_like() -> Self {
        CpuSpec {
            name: "Skylake-SP class (simulated)".into(),
            cores: 24,
            base_ghz: 2.1,
            turbo_ghz: 2.8,
            min_ghz: 1.0,
            dvfs_step_ghz: 0.1,
            tdp_watts: Watts(150.0),
            min_cap_watts: Watts(50.0),
            llc_bytes: 33 * 1024 * 1024,
            dram_bytes_per_sec: 100.0e9,
            mem_latency_sec: 94e-9,
            mlp: 12.0,
            uncore_watts: Watts(30.0),
            mem_power_watts: Watts(9.0),
            leak_per_volt: 6.0,
            c_dyn: 1.30,
            v_min: 0.62,
            v_slope: 0.17,
        }
    }

    /// A low-power dense-node preset (Xeon-D flavour): few cores, small
    /// power range, low bandwidth. Even "cold" visualization kernels sit
    /// near its TDP, so the power-opportunity window shrinks.
    pub fn lowpower_d_like() -> Self {
        CpuSpec {
            name: "Xeon-D class (simulated)".into(),
            cores: 8,
            base_ghz: 2.0,
            turbo_ghz: 2.4,
            min_ghz: 0.8,
            dvfs_step_ghz: 0.1,
            tdp_watts: Watts(45.0),
            min_cap_watts: Watts(20.0),
            llc_bytes: 12 * 1024 * 1024,
            dram_bytes_per_sec: 30.0e9,
            mem_latency_sec: 85e-9,
            mlp: 8.0,
            uncore_watts: Watts(9.0),
            mem_power_watts: Watts(4.0),
            leak_per_volt: 3.0,
            c_dyn: 1.95,
            v_min: 0.60,
            v_slope: 0.15,
        }
    }

    /// Operating voltage at frequency `f_ghz`.
    pub(crate) fn voltage(&self, f_ghz: f64) -> f64 {
        self.v_min + self.v_slope * (f_ghz - self.min_ghz).max(0.0)
    }

    /// Package power at frequency `f_ghz` with dynamic activity `alpha`,
    /// including the DRAM-traffic term. `bw_utilization` is the fraction
    /// of peak DRAM bandwidth in flight (clamped to [0, 1]).
    pub fn power(&self, f_ghz: f64, alpha: f64, bw_utilization: f64) -> Watts {
        let v = self.voltage(f_ghz);
        self.uncore_watts
            + self.mem_power_watts * bw_utilization.clamp(0.0, 1.0)
            + Watts(self.leak_per_volt * v)
            + Watts(self.cores as f64 * self.c_dyn * v * v * f_ghz * alpha)
    }

    /// The DVFS ladder, descending from turbo to minimum.
    pub(crate) fn frequencies(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut f = self.turbo_ghz;
        while f >= self.min_ghz - 1e-9 {
            out.push((f * 100.0).round() / 100.0);
            f -= self.dvfs_step_ghz;
        }
        out
    }

    /// The firmware's frequency decision: the highest ladder frequency
    /// whose power at activity `alpha` and DRAM utilization `util(f)`
    /// fits under `cap_watts`, with that utilization; the minimum
    /// frequency and its utilization if none does (RAPL cannot throttle
    /// below the lowest P-state). `|_| 0.0` models no memory traffic.
    pub fn solve_frequency(
        &self,
        cap_watts: Watts,
        alpha: f64,
        util: impl Fn(f64) -> f64,
    ) -> (f64, f64) {
        for f in self.frequencies() {
            let u = util(f);
            if self.power(f, alpha, u) <= cap_watts {
                return (f, u);
            }
        }
        (self.min_ghz, util(self.min_ghz))
    }

    /// Clamp a requested cap into the supported range (the paper sweeps
    /// 120 W down to 40 W). A NaN request lands on the floor, which no
    /// budget can be below.
    pub(crate) fn clamp_cap(&self, cap_watts: Watts) -> Watts {
        cap_watts.max(self.min_cap_watts).min(self.tdp_watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CpuSpec {
        CpuSpec::broadwell_e5_2695v4()
    }

    /// The solver's frequency with no DRAM traffic.
    fn solve(s: &CpuSpec, cap: Watts, alpha: f64) -> f64 {
        s.solve_frequency(cap, alpha, |_| 0.0).0
    }

    #[test]
    fn voltage_monotone_in_frequency() {
        let s = spec();
        let mut last = 0.0;
        for f in [0.8, 1.2, 2.1, 2.6] {
            let v = s.voltage(f);
            assert!(v > last);
            last = v;
        }
        assert!((s.voltage(0.8) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn power_monotone_in_frequency_and_activity() {
        let s = spec();
        assert!(s.power(2.6, 0.9, 0.0) > s.power(2.1, 0.9, 0.0));
        assert!(s.power(2.1, 0.9, 0.0) > s.power(2.1, 0.3, 0.0));
        // Idle-ish floor: uncore + leakage only.
        let idle = s.power(0.8, 0.0, 0.0);
        assert!(idle > 15.0 && idle < 35.0, "idle = {idle}");
    }

    #[test]
    fn calibration_matches_paper_power_ranges() {
        let s = spec();
        // FP-dense workload at all-core turbo ≈ 85–92 W (§VI-B2).
        let hot = s.power(2.6, 0.95, 0.0);
        assert!((84.0..=93.0).contains(&hot), "hot = {hot}");
        // Stall-dominated workload ≈ 50–58 W (§VI-B1).
        let cold = s.power(2.6, 0.38, 0.0);
        assert!((48.0..=60.0).contains(&cold), "cold = {cold}");
        // Idle-ish floor stays well under the 40 W minimum cap.
        assert!(s.power(s.min_ghz, 0.05, 0.0) < 40.0);
        // Nothing exceeds TDP at max turbo and activity 1.1.
        assert!(s.power(s.turbo_ghz, 1.1, 0.0) <= s.tdp_watts);
    }

    #[test]
    fn ladder_spans_turbo_to_min() {
        let s = spec();
        let f = s.frequencies();
        assert_eq!(f[0], 2.6);
        assert_eq!(*f.last().unwrap(), 0.8);
        // Descending in 0.1 steps.
        for w in f.windows(2) {
            assert!((w[0] - w[1] - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn solver_uncapped_runs_turbo() {
        let s = spec();
        assert_eq!(solve(&s, Watts(120.0), 0.95), 2.6);
        assert_eq!(solve(&s, Watts(120.0), 0.3), 2.6);
    }

    #[test]
    fn solver_throttles_hot_workloads_first() {
        let s = spec();
        // At 70 W, a hot workload must slow below turbo…
        let hot = solve(&s, Watts(70.0), 0.95);
        assert!(hot < 2.6, "hot freq = {hot}");
        // …while a cold workload still runs at turbo.
        assert_eq!(solve(&s, Watts(70.0), 0.35), 2.6);
    }

    #[test]
    fn solver_at_40w_matches_paper_shape() {
        let s = spec();
        // Paper Table I: contour (cold) at 40 W drops to ≈ 2.07 GHz
        // (Fratio 1.23); advection (hot) drops to ≈ 0.95 GHz (Fratio 2.69).
        let cold = solve(&s, Watts(40.0), 0.38);
        assert!((1.8..=2.3).contains(&cold), "cold 40 W freq = {cold}");
        let hot = solve(&s, Watts(40.0), 0.95);
        assert!((0.8..=1.2).contains(&hot), "hot 40 W freq = {hot}");
    }

    #[test]
    fn solver_never_returns_below_min() {
        let s = spec();
        assert_eq!(solve(&s, Watts(1.0), 1.0), s.min_ghz);
    }

    #[test]
    fn traffic_power_adds_at_full_bandwidth() {
        let s = spec();
        let quiet = s.power(2.6, 0.4, 0.0);
        let streaming = s.power(2.6, 0.4, 1.0);
        assert!((streaming - quiet - s.mem_power_watts).abs() < 1e-12);
        // Utilization is clamped.
        assert_eq!(s.power(2.6, 0.4, 5.0), streaming);
    }

    #[test]
    fn alternative_architectures_are_self_consistent() {
        for spec in [CpuSpec::skylake_8160_like(), CpuSpec::lowpower_d_like()] {
            // Hot workloads fit under TDP at max turbo.
            assert!(
                spec.power(spec.turbo_ghz, 1.0, 0.0) <= spec.tdp_watts,
                "{}: peak power exceeds TDP",
                spec.name
            );
            // The ladder spans turbo down to min.
            let ladder = spec.frequencies();
            assert_eq!(ladder[0], spec.turbo_ghz);
            assert!((ladder.last().unwrap() - spec.min_ghz).abs() < 1e-9);
            // Capping to the floor forces a real slowdown for hot work.
            let f = solve(&spec, spec.min_cap_watts, 0.95);
            assert!(f < spec.turbo_ghz, "{}: no throttle at floor", spec.name);
        }
    }

    #[test]
    fn clamp_cap_bounds() {
        let s = spec();
        assert_eq!(s.clamp_cap(Watts(500.0)), 120.0);
        assert_eq!(s.clamp_cap(Watts(10.0)), 40.0);
        assert_eq!(s.clamp_cap(Watts(90.0)), 90.0);
    }
}
