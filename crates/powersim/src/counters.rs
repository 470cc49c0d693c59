//! Performance counters and the paper's derived metrics (§V-B).
//!
//! The counter bank mirrors what the study samples: APERF/MPERF for the
//! effective frequency, fixed counters for instructions retired and
//! unhalted reference cycles, and two programmable counters configured
//! for last-level-cache references and misses. Counters are 48 bits wide
//! and wrap, as on real Intel parts.

/// Width mask for performance counters (48 bits on Broadwell).
const CTR_MASK: u64 = (1 << 48) - 1;

/// The per-package counter bank.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CounterBank {
    pub(crate) aperf: u64,
    pub(crate) mperf: u64,
    /// INST_RETIRED.ANY.
    pub(crate) inst_retired: u64,
    /// CPU_CLK_UNHALTED.REF_TSC.
    pub(crate) ref_tsc: u64,
    /// LONGEST_LAT_CACHE.REFERENCE.
    pub(crate) llc_ref: u64,
    /// LONGEST_LAT_CACHE.MISS.
    pub(crate) llc_miss: u64,
}

impl CounterBank {
    /// Advance the counters for `dt` seconds of execution at actual
    /// frequency `f_ghz` on `cores` cores, retiring instructions and LLC
    /// events at the given rates (events/second, package-aggregate).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        dt: f64,
        f_ghz: f64,
        base_ghz: f64,
        cores: u32,
        inst_per_sec: f64,
        llc_ref_per_sec: f64,
        llc_miss_per_sec: f64,
    ) {
        let cores = cores as f64;
        let add = |ctr: &mut u64, amount: f64| {
            *ctr = (*ctr + amount.round() as u64) & CTR_MASK;
        };
        add(&mut self.aperf, f_ghz * 1e9 * dt * cores);
        add(&mut self.mperf, base_ghz * 1e9 * dt * cores);
        add(&mut self.ref_tsc, base_ghz * 1e9 * dt * cores);
        add(&mut self.inst_retired, inst_per_sec * dt);
        add(&mut self.llc_ref, llc_ref_per_sec * dt);
        add(&mut self.llc_miss, llc_miss_per_sec * dt);
    }

    /// Wrap-aware counter delta.
    pub(crate) fn delta(before: u64, after: u64) -> u64 {
        if after >= before {
            after - before
        } else {
            after + (CTR_MASK + 1) - before
        }
    }
}

/// Derived metrics exactly as §V-B defines them.
pub(crate) mod derived {
    /// Effective CPU frequency = base × APERF / MPERF.
    pub(crate) fn effective_frequency_ghz(base_ghz: f64, d_aperf: u64, d_mperf: u64) -> f64 {
        if d_mperf == 0 {
            return 0.0;
        }
        base_ghz * d_aperf as f64 / d_mperf as f64
    }

    /// Instructions per cycle = INST_RETIRED.ANY / CPU_CLK_UNHALT.REF_TSC.
    ///
    /// Both counters are package aggregates (instructions summed over
    /// cores; reference cycles tick at the base clock on every unhalted
    /// core), so the ratio is the average per-core IPC — the quantity the
    /// paper plots in Fig. 2b.
    pub(crate) fn ipc(d_inst: u64, d_ref_tsc: u64) -> f64 {
        if d_ref_tsc == 0 {
            return 0.0;
        }
        d_inst as f64 / d_ref_tsc as f64
    }

    /// LLC miss rate = LONG_LAT_CACHE.MISS / LONG_LAT_CACHE.REF.
    pub(crate) fn llc_miss_rate(d_miss: u64, d_ref: u64) -> f64 {
        if d_ref == 0 {
            return 0.0;
        }
        d_miss as f64 / d_ref as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates_rates() {
        let mut c = CounterBank::default();
        c.advance(0.1, 2.6, 2.1, 18, 1e9, 1e8, 2e7);
        assert_eq!(c.aperf, (2.6e9f64 * 0.1 * 18.0).round() as u64);
        assert_eq!(c.mperf, (2.1e9f64 * 0.1 * 18.0).round() as u64);
        assert_eq!(c.inst_retired, 100_000_000);
        assert_eq!(c.llc_ref, 10_000_000);
        assert_eq!(c.llc_miss, 2_000_000);
    }

    #[test]
    fn counters_wrap_at_48_bits() {
        let mut c = CounterBank {
            aperf: CTR_MASK - 10,
            ..Default::default()
        };
        c.advance(1e-9, 50.0, 2.1, 1, 0.0, 0.0, 0.0);
        assert!(c.aperf < 1 << 48);
        assert!(c.aperf < CTR_MASK - 10, "must have wrapped");
        // Delta still recovers the true increment.
        let d = CounterBank::delta(CTR_MASK - 10, c.aperf);
        assert_eq!(d, 50);
    }

    #[test]
    fn effective_frequency_from_aperf_mperf() {
        // Running at 2.6 of base 2.1: APERF/MPERF = 2.6/2.1.
        let f = derived::effective_frequency_ghz(2.1, 26_000, 21_000);
        assert!((f - 2.6).abs() < 1e-9);
        assert_eq!(derived::effective_frequency_ghz(2.1, 5, 0), 0.0);
    }

    #[test]
    fn ipc_is_per_core_average() {
        // 18 cores each with 2.1e9 reference cycles retiring 1 IPC.
        let d_ref = (2.1e9 * 18.0) as u64;
        let d_inst = (2.1e9 * 18.0) as u64;
        assert!((derived::ipc(d_inst, d_ref) - 1.0).abs() < 1e-9);
        assert_eq!(derived::ipc(5, 0), 0.0);
    }

    #[test]
    fn miss_rate_bounds() {
        assert_eq!(derived::llc_miss_rate(0, 0), 0.0);
        assert!((derived::llc_miss_rate(25, 100) - 0.25).abs() < 1e-12);
    }
}
