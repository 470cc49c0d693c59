//! The derived ratios of §V-A and the first-slowdown rule of §VI.

use powersim::units::Watts;

/// The paper's significance threshold: a 10 % slowdown.
pub(crate) const SLOWDOWN_THRESHOLD: f64 = 1.10;

/// The §V-A ratios for one (cap, measurement) pair relative to the
/// default-power baseline.
///
/// `Pratio = P_D / P_R` and `Fratio = F_D / F_R` put the default in the
/// numerator; `Tratio = T_R / T_D` is inverted so that all three ratios
/// are ≥ 1 when capping hurts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratios {
    pub cap_watts: Watts,
    pub pratio: f64,
    pub tratio: f64,
    pub fratio: f64,
    /// Absolute values backing the ratios.
    pub(crate) seconds: f64,
    pub(crate) freq_ghz: f64,
}

impl Ratios {
    /// Compute the ratios of a capped run against the default run.
    pub(crate) fn new(
        default_cap_watts: Watts,
        default_seconds: f64,
        default_freq_ghz: f64,
        cap_watts: Watts,
        seconds: f64,
        freq_ghz: f64,
    ) -> Self {
        assert!(default_seconds > 0.0 && seconds > 0.0);
        Ratios {
            cap_watts,
            pratio: default_cap_watts / cap_watts,
            tratio: seconds / default_seconds,
            fratio: if freq_ghz > 0.0 {
                default_freq_ghz / freq_ghz
            } else {
                f64::INFINITY
            },
            seconds,
            freq_ghz,
        }
    }

    /// §V-A: the algorithm was "sufficiently data intensive" at this cap
    /// when the slowdown is smaller than the power reduction.
    pub fn data_intensive(&self) -> bool {
        self.tratio < self.pratio
    }

    /// Does this row carry the paper's red marker (≥ 10 % slowdown)?
    pub(crate) fn significant_slowdown(&self) -> bool {
        self.tratio >= SLOWDOWN_THRESHOLD
    }
}

/// The highest (first, when sweeping downward) cap at which the slowdown
/// reaches 10 % — the quantity the paper's red highlights encode.
/// Returns `None` when no cap slows the algorithm significantly.
pub fn first_slowdown_cap(rows: &[Ratios]) -> Option<Watts> {
    rows.iter()
        .filter(|r| r.significant_slowdown())
        .map(|r| r.cap_watts)
        .fold(None, |acc: Option<Watts>, cap| {
            Some(match acc {
                Some(best) => best.max(cap),
                None => cap,
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cap: f64, tratio: f64) -> Ratios {
        Ratios {
            cap_watts: Watts(cap),
            pratio: 120.0 / cap,
            tratio,
            fratio: 1.0,
            seconds: tratio * 10.0,
            freq_ghz: 2.6,
        }
    }

    #[test]
    fn ratios_match_paper_definitions() {
        // Paper's worked example: halving the cap gives Pratio 2; an
        // algorithm that takes twice as long has Tratio 2.
        let r = Ratios::new(Watts(120.0), 10.0, 2.6, Watts(60.0), 20.0, 1.3);
        assert!((r.pratio - 2.0).abs() < 1e-12);
        assert!((r.tratio - 2.0).abs() < 1e-12);
        assert!((r.fratio - 2.0).abs() < 1e-12);
        assert!(!r.data_intensive());
    }

    #[test]
    fn data_intensive_when_slowdown_below_power_cut() {
        // Cap cut 3×, time grew only 1.17× (Table I's 40 W contour row).
        let r = Ratios::new(Watts(120.0), 33.477, 2.55, Watts(40.0), 39.198, 2.07);
        assert!(r.data_intensive());
        assert!(r.significant_slowdown());
        assert!((r.fratio - 1.2319).abs() < 1e-3);
    }

    #[test]
    fn first_slowdown_picks_highest_cap() {
        let rows = vec![
            row(120.0, 1.0),
            row(100.0, 1.02),
            row(80.0, 1.12),
            row(60.0, 1.05), // non-monotone dip, like the paper's data
            row(40.0, 1.5),
        ];
        assert_eq!(first_slowdown_cap(&rows), Some(Watts(80.0)));
    }

    #[test]
    fn no_slowdown_returns_none() {
        let rows = vec![row(120.0, 1.0), row(40.0, 1.09)];
        assert_eq!(first_slowdown_cap(&rows), None);
    }

    #[test]
    fn zero_frequency_gives_infinite_fratio() {
        let r = Ratios::new(Watts(120.0), 1.0, 2.6, Watts(40.0), 1.0, 0.0);
        assert!(r.fratio.is_infinite());
    }

    #[test]
    #[should_panic]
    fn zero_time_panics() {
        let _ = Ratios::new(Watts(120.0), 0.0, 2.6, Watts(40.0), 1.0, 1.0);
    }
}
