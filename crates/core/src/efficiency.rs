//! The Moreland–Oldfield rate of §V-C: elements processed per second.
//!
//! The paper compares the cell-centered algorithms with `n / T(n, p)`
//! (data-set cells over execution time) rather than classical speedup,
//! because serial baselines are impractical at scale.

/// The Moreland–Oldfield rate: `n / T`, reported in millions/s.
pub(crate) fn rate(input_cells: usize, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "rate needs a positive execution time");
    input_cells as f64 / seconds / 1.0e6
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
    #[should_panic]
    fn zero_time_panics() {
        let _ = rate(10, 0.0);
    }
}
