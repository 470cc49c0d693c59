//! Workload descriptions consumed by the simulated processor.
//!
//! A [`Workload`] is a sequence of [`KernelPhase`]s. The counts come from
//! instrumented executions of the real algorithms; the per-phase
//! microarchitectural parameters (`cpi_core`, `activity`,
//! `llc_miss_rate`) come from the characterization bridge in the
//! `vizpower` crate, which assigns an instruction-mix signature per
//! kernel class.

/// One homogeneous stretch of execution.
#[derive(Debug, Clone)]
pub struct KernelPhase {
    pub name: String,
    /// Total instructions retired by the phase (across all cores).
    pub instructions: u64,
    /// Core-limited cycles-per-instruction: the CPI the phase would
    /// achieve with an infinitely fast memory system.
    pub cpi_core: f64,
    /// Dynamic-power activity factor in `[0, ~1.1]`; FP-dense kernels are
    /// high, stall-dominated kernels low.
    pub activity: f64,
    /// Last-level cache references issued by the phase.
    pub llc_refs: u64,
    /// Fraction of LLC references that miss to DRAM.
    pub llc_miss_rate: f64,
    /// Total DRAM traffic in bytes (read + write).
    pub dram_bytes: u64,
}

impl KernelPhase {
    /// LLC misses implied by the reference count and miss rate.
    pub(crate) fn llc_misses(&self) -> u64 {
        (self.llc_refs as f64 * self.llc_miss_rate).round() as u64
    }

    /// Basic sanity checks; used by `debug_assert` in the executor.
    pub fn is_valid(&self) -> bool {
        self.instructions > 0
            && self.cpi_core > 0.0
            && (0.0..=1.5).contains(&self.activity)
            && (0.0..=1.0).contains(&self.llc_miss_rate)
    }
}

/// An ordered list of phases, executed back to back.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    pub(crate) name: String,
    pub phases: Vec<KernelPhase>,
}

impl Workload {
    pub fn new(name: impl Into<String>) -> Self {
        Workload {
            name: name.into(),
            phases: Vec::new(),
        }
    }

    pub fn push(&mut self, phase: KernelPhase) {
        debug_assert!(phase.is_valid(), "invalid phase: {phase:?}");
        self.phases.push(phase);
    }

    pub fn with_phase(mut self, phase: KernelPhase) -> Self {
        self.push(phase);
        self
    }

    pub fn total_instructions(&self) -> u64 {
        self.phases.iter().map(|p| p.instructions).sum()
    }

    pub(crate) fn total_llc_refs(&self) -> u64 {
        self.phases.iter().map(|p| p.llc_refs).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

/// Convenience constructors for tests and benchmarks.
impl KernelPhase {
    /// A pure compute phase: negligible memory traffic, high activity.
    pub fn compute(name: impl Into<String>, instructions: u64) -> Self {
        KernelPhase {
            name: name.into(),
            instructions,
            cpi_core: 0.4,
            activity: 0.95,
            llc_refs: instructions / 100,
            llc_miss_rate: 0.02,
            dram_bytes: instructions / 50,
        }
    }

    /// A streaming memory phase: one LLC ref every few instructions,
    /// nearly all missing to DRAM.
    pub fn memory(name: impl Into<String>, instructions: u64, bytes: u64) -> Self {
        KernelPhase {
            name: name.into(),
            instructions,
            cpi_core: 0.8,
            activity: 0.35,
            llc_refs: instructions / 4,
            llc_miss_rate: 0.6,
            dram_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_follow_rate() {
        let p = KernelPhase {
            name: "x".into(),
            instructions: 1000,
            cpi_core: 0.5,
            activity: 0.5,
            llc_refs: 200,
            llc_miss_rate: 0.25,
            dram_bytes: 0,
        };
        assert_eq!(p.llc_misses(), 50);
        assert!(p.is_valid());
    }

    #[test]
    fn invalid_phases_detected() {
        let mut p = KernelPhase::compute("c", 100);
        p.llc_miss_rate = 1.5;
        assert!(!p.is_valid());
        p.llc_miss_rate = 0.5;
        p.instructions = 0;
        assert!(!p.is_valid());
    }

    #[test]
    fn workload_totals() {
        let w = Workload::new("test")
            .with_phase(KernelPhase::compute("a", 1000))
            .with_phase(KernelPhase::memory("b", 3000, 64_000));
        assert_eq!(w.total_instructions(), 4000);
        assert!(w.phases[1].dram_bytes >= 64_000);
        assert_eq!(w.phases.len(), 2);
    }

    #[test]
    fn empty_workload() {
        let w = Workload::new("empty");
        assert!(w.is_empty());
        assert_eq!(w.total_instructions(), 0);
    }
}
