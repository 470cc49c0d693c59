//! The dual-socket node: two packages sharing a workload, as on the
//! paper's RZTopaz nodes ("each node contains … two Intel Xeon E5-2695
//! v4 dual-socket processors"; the study applies the same cap to each
//! processor and reports per-processor power).

use crate::cpu::CpuSpec;
use crate::exec::Package;
use crate::units::Watts;
use crate::workload::{KernelPhase, Workload};

/// Aggregate result of a node run.
#[derive(Debug, Clone)]
pub struct NodeResult {
    /// The slower package defines completion (the workload is split and
    /// both halves must finish).
    pub seconds: f64,
    /// Combined average node power while running.
    pub avg_power_watts: Watts,
}

/// A two-package node with a uniform per-package cap, the paper's
/// configuration ("a uniform power cap to all nodes").
pub struct Node {
    pub(crate) sockets: [Package; 2],
}

impl Node {
    pub(crate) fn new(spec: CpuSpec) -> Self {
        Node {
            sockets: [Package::new(spec.clone()), Package::new(spec)],
        }
    }

    /// The paper's node: two simulated Broadwell packages.
    pub fn rztopaz() -> Self {
        Node::new(CpuSpec::broadwell_e5_2695v4())
    }

    /// Split a workload evenly across the sockets (each phase's counts
    /// halve; shared-memory parallel sections split this way on the real
    /// machine too).
    pub(crate) fn split(workload: &Workload) -> [Workload; 2] {
        let half = |w: &Workload| -> Workload {
            let mut out = Workload::new(format!("{}:half", w.name));
            for p in &w.phases {
                out.push(KernelPhase {
                    name: p.name.clone(),
                    instructions: (p.instructions / 2).max(1),
                    cpi_core: p.cpi_core,
                    activity: p.activity,
                    llc_refs: p.llc_refs / 2,
                    llc_miss_rate: p.llc_miss_rate,
                    dram_bytes: p.dram_bytes / 2,
                });
            }
            out
        };
        [half(workload), half(workload)]
    }

    /// Run a workload split across both sockets under a uniform
    /// per-package cap.
    pub fn run_capped(&mut self, workload: &Workload, cap_per_package: Watts) -> NodeResult {
        let halves = Self::split(workload);
        let a = self.sockets[0].run_capped(&halves[0], cap_per_package);
        let b = self.sockets[1].run_capped(&halves[1], cap_per_package);
        let seconds = a.seconds.max(b.seconds);
        let energy = a.energy_joules + b.energy_joules;
        NodeResult {
            seconds,
            avg_power_watts: if seconds > 0.0 {
                energy.over_seconds(seconds)
            } else {
                Watts::ZERO
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msr::addr;
    use crate::rapl::PowerLimiter;

    fn workload() -> Workload {
        Workload::new("w")
            .with_phase(KernelPhase::compute("hot", 800_000_000_000))
            .with_phase(KernelPhase::memory("cold", 50_000_000_000, 900_000_000_000))
    }

    #[test]
    fn split_halves_the_counts() {
        let w = workload();
        let [a, b] = Node::split(&w);
        assert_eq!(a.total_instructions(), b.total_instructions());
        assert_eq!(a.total_instructions(), w.total_instructions() / 2);
        assert_eq!(a.phases.len(), w.phases.len());
    }

    #[test]
    fn node_time_is_half_of_single_package() {
        let w = workload();
        let single = Package::broadwell().run_capped(&w, Watts(120.0)).seconds;
        let node = Node::rztopaz().run_capped(&w, Watts(120.0)).seconds;
        let speedup = single / node;
        assert!((1.8..=2.2).contains(&speedup), "speedup = {speedup}");
    }

    #[test]
    fn node_power_is_roughly_double_package_power() {
        let w = workload();
        let pkg = Package::broadwell().run_capped(&w, Watts(120.0));
        let node = Node::rztopaz().run_capped(&w, Watts(120.0));
        let ratio = node.avg_power_watts / pkg.avg_power_watts;
        assert!((1.7..=2.2).contains(&ratio), "ratio = {ratio}");
        // Paper: both processors' 120 W is ~88 % of node power; without a
        // modeled motherboard/DRAM-DIMM budget ours is the full node.
        assert!(node.avg_power_watts <= 2.0 * 120.0);
    }

    #[test]
    fn uniform_cap_applies_to_both_sockets() {
        let w = workload();
        let mut node = Node::rztopaz();
        node.run_capped(&w, Watts(50.0));
        for pkg in &node.sockets {
            // Each socket's average power, from its energy register over
            // its run time (fresh packages: both start at zero).
            let energy = pkg
                .msr
                .energy_delta_joules(0, pkg.msr.hw_get(addr::MSR_PKG_ENERGY_STATUS));
            let p = energy.over_seconds(pkg.now);
            assert!(p <= 51.5, "P = {p}");
            let cap = PowerLimiter::get_cap(&pkg.msr).expect("cap programmed");
            assert!((cap - Watts(50.0)).abs() < 0.5);
        }
    }

    #[test]
    fn symmetric_split_gives_symmetric_results() {
        let w = workload();
        let mut node = Node::rztopaz();
        node.run_capped(&w, Watts(80.0));
        let [a, b] = &node.sockets;
        assert!((a.now - b.now).abs() < 1e-12);
        let energy = |p: &Package| p.msr.hw_get(addr::MSR_PKG_ENERGY_STATUS);
        assert_eq!(energy(a), energy(b));
    }
}
