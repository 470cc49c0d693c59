//! Kernel work instrumentation.
//!
//! Every visualization / simulation kernel in the workspace fills in a
//! [`WorkCounters`] record while it runs: how many domain items it
//! processed, an estimate of the instructions and floating-point operations
//! it retired, and how many bytes it moved. The `vizpower` crate translates
//! these measured counts into a workload for the simulated processor — the
//! counts are *observed from real executions*, only the hardware response
//! is modeled.

use std::ops::{Add, AddAssign};

/// Additive work counters for one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkCounters {
    /// Domain items processed (cells classified, rays traced, particle
    /// steps taken, ...). Defines the paper's elements/sec rate.
    pub items: u64,
    /// Estimated retired instructions (all kinds).
    pub instructions: u64,
    /// Floating-point operations (a subset of `instructions`).
    pub flops: u64,
    /// Bytes read from arrays.
    pub bytes_read: u64,
    /// Bytes written to arrays.
    pub bytes_written: u64,
    /// Bytes of data the kernel revisits (hot working set); drives the
    /// LLC capacity model. Combined with `max` on merge, not `+`.
    pub working_set_bytes: u64,
}

impl WorkCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes moved.
    #[inline]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Record `n` items each costing `instr` instructions, `flops` flops,
    /// `read`/`written` bytes.
    pub fn tally(&mut self, n: u64, instr: u64, flops: u64, read: u64, written: u64) {
        self.items += n;
        self.instructions += n * instr;
        self.flops += n * flops;
        self.bytes_read += n * read;
        self.bytes_written += n * written;
    }
}

impl Add for WorkCounters {
    type Output = WorkCounters;
    fn add(mut self, o: WorkCounters) -> WorkCounters {
        self += o;
        self
    }
}

/// Merge another counter set produced by a parallel partition of the
/// same kernel: sums everything except `working_set_bytes`, which the
/// partitions share (max).
impl AddAssign for WorkCounters {
    fn add_assign(&mut self, o: WorkCounters) {
        self.items += o.items;
        self.instructions += o.instructions;
        self.flops += o.flops;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.working_set_bytes = self.working_set_bytes.max(o.working_set_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates_per_item() {
        let mut c = WorkCounters::new();
        c.tally(10, 100, 20, 64, 8);
        assert_eq!(c.items, 10);
        assert_eq!(c.instructions, 1000);
        assert_eq!(c.flops, 200);
        assert_eq!(c.bytes_read, 640);
        assert_eq!(c.bytes_written, 80);
        assert_eq!(c.bytes_total(), 720);
    }

    #[test]
    fn merge_sums_but_maxes_working_set() {
        let mut a = WorkCounters {
            items: 1,
            instructions: 10,
            flops: 5,
            bytes_read: 100,
            bytes_written: 10,
            working_set_bytes: 1000,
        };
        let b = WorkCounters {
            items: 2,
            instructions: 20,
            flops: 1,
            bytes_read: 50,
            bytes_written: 5,
            working_set_bytes: 500,
        };
        a += b;
        assert_eq!(a.items, 3);
        assert_eq!(a.instructions, 30);
        assert_eq!(a.working_set_bytes, 1000);
    }

    #[test]
    fn add_operator_matches_merge() {
        let a = WorkCounters {
            items: 1,
            instructions: 2,
            flops: 3,
            bytes_read: 4,
            bytes_written: 5,
            working_set_bytes: 6,
        };
        let sum = a + a;
        assert_eq!(sum.items, 2);
        assert_eq!(sum.working_set_bytes, 6);
    }
}
