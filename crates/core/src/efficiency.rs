//! The Moreland–Oldfield rate of §V-C: elements processed per second.
//!
//! The paper compares the cell-centered algorithms with `n / T(n, p)`
//! (data-set cells over execution time) rather than classical speedup,
//! because serial baselines are impractical at scale.

use powersim::units::Watts;

/// Elements/second for one (cap, time) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate {
    pub cap_watts: Watts,
    /// Millions of elements (input cells) processed per second.
    pub melements_per_sec: f64,
}

/// The Moreland–Oldfield rate: `n / T`, reported in millions/s.
pub fn rate(input_cells: usize, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "rate needs a positive execution time");
    input_cells as f64 / seconds / 1.0e6
}

/// Rates across a cap sweep.
pub fn rates(input_cells: usize, rows: &[(Watts, f64)]) -> Vec<Rate> {
    rows.iter()
        .map(|&(cap_watts, seconds)| Rate {
            cap_watts,
            melements_per_sec: rate(input_cells, seconds),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_matches_definition() {
        // 128³ cells in 33.477 s (Table I) ≈ 0.0626 M elements/s per
        // visualization cycle set.
        let r = rate(128 * 128 * 128, 33.477);
        assert!((r - 2097152.0 / 33.477 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn higher_rate_means_more_efficient() {
        assert!(rate(1000, 1.0) > rate(1000, 2.0));
        assert!(rate(2000, 1.0) > rate(1000, 1.0));
    }

    #[test]
    fn sweep_rates_preserve_order() {
        let rows = vec![
            (Watts(120.0), 10.0),
            (Watts(80.0), 10.0),
            (Watts(40.0), 14.0),
        ];
        let rs = rates(1_000_000, &rows);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].cap_watts, 120.0);
        // Flat until the severe cap, then the rate declines (Fig. 3).
        assert_eq!(rs[0].melements_per_sec, rs[1].melements_per_sec);
        assert!(rs[2].melements_per_sec < rs[1].melements_per_sec);
    }

    #[test]
    #[should_panic]
    fn zero_time_panics() {
        let _ = rate(10, 0.0);
    }
}
