//! Execution-time model: a smoothed roofline of core time vs memory time.
//!
//! A phase with `I` instructions at core CPI `c` on `N` cores at `f` GHz
//! needs `t_core = I·c / (N·f·10⁹)` seconds of core time. Its memory
//! side needs the larger of the bandwidth time (`bytes / BW`) and the
//! latency time (`misses · L / (N · MLP)`), which do **not** scale with
//! core frequency. The phase time blends the two with a p-norm so the
//! compute↔memory knee is gradual, as on real machines:
//!
//! `t = (t_core^p + t_mem^p)^(1/p)`, p = 3.
//!
//! This is the mechanism behind the paper's headline observation: when
//! the cap lowers `f`, only `t_core` stretches, so memory-bound phases
//! (t_mem dominant) barely slow down while compute-bound phases slow
//! proportionally.

use crate::cpu::CpuSpec;
use crate::workload::KernelPhase;

/// Blend exponent for the roofline max.
const P_NORM: f64 = 3.0;

/// Core-limited time of a phase at `f_ghz`.
pub(crate) fn core_time(spec: &CpuSpec, phase: &KernelPhase, f_ghz: f64) -> f64 {
    phase.instructions as f64 * phase.cpi_core / (spec.cores as f64 * f_ghz * 1e9)
}

/// Memory-limited time of a phase (frequency independent).
pub fn memory_time(spec: &CpuSpec, phase: &KernelPhase) -> f64 {
    let bw_time = phase.dram_bytes as f64 / spec.dram_bytes_per_sec;
    let lat_time =
        phase.llc_misses() as f64 * spec.mem_latency_sec / (spec.cores as f64 * spec.mlp);
    bw_time.max(lat_time)
}

/// Wall-clock time of a phase at `f_ghz`.
pub fn phase_time(spec: &CpuSpec, phase: &KernelPhase, f_ghz: f64) -> f64 {
    let tc = core_time(spec, phase, f_ghz);
    let tm = memory_time(spec, phase);
    (tc.powf(P_NORM) + tm.powf(P_NORM)).powf(1.0 / P_NORM)
}

/// DRAM bandwidth utilization of a phase when running at `f_ghz`.
pub fn bw_utilization(spec: &CpuSpec, phase: &KernelPhase, f_ghz: f64) -> f64 {
    let t = phase_time(spec, phase, f_ghz);
    if t <= 0.0 {
        return 0.0;
    }
    (phase.dram_bytes as f64 / t / spec.dram_bytes_per_sec).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CpuSpec {
        CpuSpec::broadwell_e5_2695v4()
    }

    fn compute_phase() -> KernelPhase {
        KernelPhase {
            name: "compute".into(),
            instructions: 1_000_000_000_000,
            cpi_core: 0.4,
            activity: 0.95,
            llc_refs: 1_000_000,
            llc_miss_rate: 0.02,
            dram_bytes: 1_000_000,
        }
    }

    fn memory_phase() -> KernelPhase {
        KernelPhase {
            name: "memory".into(),
            instructions: 10_000_000_000,
            cpi_core: 0.8,
            activity: 0.4,
            llc_refs: 2_000_000_000,
            llc_miss_rate: 0.7,
            dram_bytes: 400_000_000_000,
        }
    }

    #[test]
    fn compute_time_scales_inverse_frequency() {
        let s = spec();
        let p = compute_phase();
        let t_fast = phase_time(&s, &p, 2.6);
        let t_slow = phase_time(&s, &p, 1.3);
        let ratio = t_slow / t_fast;
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn memory_time_insensitive_to_frequency() {
        let s = spec();
        let p = memory_phase();
        let t_fast = phase_time(&s, &p, 2.6);
        let t_slow = phase_time(&s, &p, 1.3);
        let ratio = t_slow / t_fast;
        assert!(ratio < 1.15, "memory-bound slowdown = {ratio}");
    }

    #[test]
    fn memory_time_uses_max_of_bandwidth_and_latency() {
        let s = spec();
        let mut p = memory_phase();
        // Huge bytes, few misses → bandwidth bound.
        p.llc_refs = 10;
        let bw = p.dram_bytes as f64 / s.dram_bytes_per_sec;
        assert!((memory_time(&s, &p) - bw).abs() < 1e-12);
        // Few bytes, many misses → latency bound.
        p.dram_bytes = 10;
        p.llc_refs = 50_000_000_000;
        p.llc_miss_rate = 1.0;
        let lat = p.llc_misses() as f64 * s.mem_latency_sec / (s.cores as f64 * s.mlp);
        assert!((memory_time(&s, &p) - lat).abs() < 1e-9 * lat);
    }

    #[test]
    fn phase_time_at_least_both_components() {
        let s = spec();
        for p in [compute_phase(), memory_phase()] {
            for f in [0.8, 1.7, 2.6] {
                let t = phase_time(&s, &p, f);
                assert!(t >= core_time(&s, &p, f) * 0.999);
                assert!(t >= memory_time(&s, &p) * 0.999);
            }
        }
    }
}
