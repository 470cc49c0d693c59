//! The paper's two algorithm classes (§I, §VI-B).

use crate::metrics::{first_slowdown_cap, Ratios};
use powersim::units::Watts;

/// The paper's classification of visualization algorithms under a cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerClass {
    /// Memory/data-bound: insensitive to the cap until severe values —
    /// power can be taken away "for free".
    PowerOpportunity,
    /// Compute-bound: performance degrades almost proportionally with
    /// the cap.
    PowerSensitive,
}

impl std::fmt::Display for PowerClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PowerClass::PowerOpportunity => "power opportunity",
            PowerClass::PowerSensitive => "power sensitive",
        })
    }
}

/// Cap boundary: the paper's sensitive algorithms first slow ≥ 10 % at
/// 70–80 W ("roughly 67 % of TDP"), the opportunity algorithms at 60 W or
/// below. A first slowdown at or above this cap ⇒ power sensitive.
pub(crate) const SENSITIVE_CAP_WATTS: Watts = Watts(70.0);

/// Classify an algorithm from its cap-sweep ratios.
pub fn classify(rows: &[Ratios]) -> PowerClass {
    match first_slowdown_cap(rows) {
        Some(cap) if cap >= SENSITIVE_CAP_WATTS => PowerClass::PowerSensitive,
        _ => PowerClass::PowerOpportunity,
    }
}

/// Online IPC boundary (the divide visible in Fig. 2b): compute-bound
/// phases retire more than one instruction per reference cycle even
/// under deep caps, while memory-bound phases sit below it at any cap.
pub(crate) const SENSITIVE_IPC: f64 = 1.0;

/// Online LLC miss-ratio boundary: when misses dominate references the
/// phase is memory-bound regardless of its apparent IPC.
pub(crate) const OPPORTUNITY_LLC_MISS_RATE: f64 = 0.5;

/// Classify a single 100 ms counter sample online, without a cap sweep.
///
/// This is the governor's per-window view of [`classify`]: a phase
/// whose LLC misses dominate its references, or whose IPC is below
/// `SENSITIVE_IPC`, is a power opportunity (capping it is nearly
/// free); anything else is power sensitive.
pub fn classify_sample(ipc: f64, llc_miss_rate: f64) -> PowerClass {
    if llc_miss_rate >= OPPORTUNITY_LLC_MISS_RATE || ipc < SENSITIVE_IPC {
        PowerClass::PowerOpportunity
    } else {
        PowerClass::PowerSensitive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(f64, f64)]) -> Vec<Ratios> {
        pairs
            .iter()
            .map(|&(cap, tratio)| Ratios {
                cap_watts: Watts(cap),
                pratio: 120.0 / cap,
                tratio,
                fratio: 1.0,
                seconds: tratio,
                freq_ghz: 2.6,
            })
            .collect()
    }

    #[test]
    fn contour_like_is_opportunity() {
        // Table II contour: no 10 % slowdown until 40 W.
        let r = rows(&[
            (120.0, 1.0),
            (80.0, 1.0),
            (60.0, 0.91),
            (50.0, 0.93),
            (40.0, 1.17),
        ]);
        assert_eq!(classify(&r), PowerClass::PowerOpportunity);
    }

    #[test]
    fn advection_like_is_sensitive() {
        // Table II particle advection: 1.11 at 80 W already.
        let r = rows(&[
            (120.0, 1.0),
            (90.0, 1.05),
            (80.0, 1.11),
            (70.0, 1.21),
            (40.0, 3.12),
        ]);
        assert_eq!(classify(&r), PowerClass::PowerSensitive);
    }

    #[test]
    fn volren_like_at_70w_is_sensitive() {
        let r = rows(&[(120.0, 1.0), (70.0, 1.12), (40.0, 1.86)]);
        assert_eq!(classify(&r), PowerClass::PowerSensitive);
    }

    #[test]
    fn never_slowing_is_opportunity() {
        let r = rows(&[(120.0, 1.0), (40.0, 1.05)]);
        assert_eq!(classify(&r), PowerClass::PowerOpportunity);
    }

    #[test]
    fn boundary_cap_counts_as_sensitive() {
        let r = rows(&[(120.0, 1.0), (70.0, 1.10), (40.0, 2.0)]);
        assert_eq!(classify(&r), PowerClass::PowerSensitive);
    }

    #[test]
    fn sample_compute_bound_is_sensitive() {
        // Uncapped compute phase: IPC ≈ 3, almost no LLC misses.
        assert_eq!(classify_sample(3.0, 0.02), PowerClass::PowerSensitive);
        // Still sensitive when a deep cap has dragged the IPC down.
        assert_eq!(classify_sample(1.3, 0.02), PowerClass::PowerSensitive);
    }

    #[test]
    fn sample_memory_bound_is_opportunity() {
        assert_eq!(classify_sample(0.4, 0.9), PowerClass::PowerOpportunity);
        // High miss ratio wins even with inflated IPC.
        assert_eq!(classify_sample(1.8, 0.8), PowerClass::PowerOpportunity);
        // Low IPC alone is enough.
        assert_eq!(classify_sample(0.6, 0.1), PowerClass::PowerOpportunity);
    }
}
