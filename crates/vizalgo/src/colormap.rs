//! Scalar → color transfer functions shared by the renderers.

/// A piecewise-linear color map over `[0, 1]` with per-stop opacity.
#[derive(Debug, Clone)]
pub struct ColorMap {
    /// `(position, rgba)` stops sorted by position.
    stops: Vec<(f64, [f32; 4])>,
}

impl ColorMap {
    /// Build from stops; they are sorted by position.
    ///
    /// # Panics
    /// If fewer than 2 stops are given or positions are outside `[0, 1]`.
    pub(crate) fn new(mut stops: Vec<(f64, [f32; 4])>) -> Self {
        assert!(stops.len() >= 2, "a color map needs at least two stops");
        assert!(
            stops.iter().all(|&(p, _)| (0.0..=1.0).contains(&p)),
            "stop positions must be in [0, 1]"
        );
        stops.sort_by(|a, b| a.0.total_cmp(&b.0));
        ColorMap { stops }
    }

    /// The "cool to warm" diverging map (blue → white → red) used for the
    /// paper-style energy renderings, fully opaque.
    pub fn cool_to_warm() -> Self {
        ColorMap::new(vec![
            (0.0, [0.23, 0.30, 0.75, 1.0]),
            (0.5, [0.87, 0.87, 0.87, 1.0]),
            (1.0, [0.71, 0.02, 0.15, 1.0]),
        ])
    }

    /// A volume-rendering transfer function: low values transparent blue,
    /// high values opaque orange/red.
    pub fn volume_default() -> Self {
        ColorMap::new(vec![
            (0.0, [0.1, 0.1, 0.8, 0.0]),
            (0.35, [0.2, 0.6, 0.9, 0.02]),
            (0.6, [0.9, 0.8, 0.2, 0.25]),
            (0.85, [0.95, 0.4, 0.1, 0.6]),
            (1.0, [0.8, 0.05, 0.05, 0.9]),
        ])
    }

    /// Sample the map at normalized scalar `t` (clamped to `[0, 1]`).
    #[expect(
        clippy::unwrap_used,
        reason = "every constructor produces at least one stop"
    )]
    pub(crate) fn sample(&self, t: f64) -> [f32; 4] {
        let t = t.clamp(0.0, 1.0);
        #[expect(
            clippy::unwrap_used,
            reason = "every constructor produces at least one stop"
        )]
        let first = self.stops.first().unwrap();
        if t <= first.0 {
            return first.1;
        }
        for w in self.stops.windows(2) {
            let (p0, c0) = w[0];
            let (p1, c1) = w[1];
            if t == p1 {
                return c1;
            }
            if t < p1 {
                let f = if p1 > p0 {
                    ((t - p0) / (p1 - p0)) as f32
                } else {
                    1.0
                };
                return [
                    c0[0] + (c1[0] - c0[0]) * f,
                    c0[1] + (c1[1] - c0[1]) * f,
                    c0[2] + (c1[2] - c0[2]) * f,
                    c0[3] + (c1[3] - c0[3]) * f,
                ];
            }
        }
        self.stops.last().unwrap().1
    }

    /// Normalize `v` into `[0, 1]` over `(lo, hi)` and sample. Degenerate
    /// ranges map to the middle of the map.
    pub fn sample_range(&self, v: f64, lo: f64, hi: f64) -> [f32; 4] {
        let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
        self.sample(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_exact() {
        let m = ColorMap::cool_to_warm();
        assert_eq!(m.sample(0.0), [0.23, 0.30, 0.75, 1.0]);
        assert_eq!(m.sample(1.0), [0.71, 0.02, 0.15, 1.0]);
    }

    #[test]
    fn midpoint_interpolates() {
        let m = ColorMap::new(vec![(0.0, [0.0; 4]), (1.0, [1.0; 4])]);
        let mid = m.sample(0.5);
        for c in mid {
            assert!((c - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn out_of_range_clamps() {
        let m = ColorMap::cool_to_warm();
        assert_eq!(m.sample(-3.0), m.sample(0.0));
        assert_eq!(m.sample(7.0), m.sample(1.0));
    }

    #[test]
    fn sample_range_normalizes() {
        let m = ColorMap::new(vec![(0.0, [0.0; 4]), (1.0, [1.0; 4])]);
        assert_eq!(m.sample_range(5.0, 0.0, 10.0), m.sample(0.5));
        // Degenerate range → middle.
        assert_eq!(m.sample_range(5.0, 5.0, 5.0), m.sample(0.5));
    }

    #[test]
    fn unsorted_stops_are_sorted() {
        let m = ColorMap::new(vec![(1.0, [1.0; 4]), (0.0, [0.0; 4])]);
        assert_eq!(m.sample(0.0), [0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn single_stop_panics() {
        let _ = ColorMap::new(vec![(0.5, [0.0; 4])]);
    }

    /// Piecewise linearity is checked analytically: inside every segment
    /// the sample must be the exact affine blend of the two surrounding
    /// stops, for an irregularly spaced map.
    #[test]
    fn segments_interpolate_affinely() {
        let stops = vec![
            (0.0, [0.1, 0.9, 0.3, 1.0]),
            (0.2, [0.5, 0.1, 0.7, 0.4]),
            (0.9, [0.0, 0.6, 0.2, 0.8]),
            (1.0, [1.0, 0.0, 0.0, 0.0]),
        ];
        let m = ColorMap::new(stops.clone());
        for w in stops.windows(2) {
            let (p0, c0) = w[0];
            let (p1, c1) = w[1];
            for i in 0..=10 {
                let f = i as f64 / 10.0;
                let t = p0 + (p1 - p0) * f;
                let got = m.sample(t);
                for ch in 0..4 {
                    let want = c0[ch] + (c1[ch] - c0[ch]) * f as f32;
                    assert!(
                        (got[ch] - want).abs() < 1e-6,
                        "t={t}: channel {ch} {} vs {want}",
                        got[ch]
                    );
                }
            }
        }
    }

    #[test]
    fn monotone_opacity_in_volume_map() {
        let m = ColorMap::volume_default();
        let mut last = -1.0f32;
        for i in 0..=20 {
            let a = m.sample(i as f64 / 20.0)[3];
            assert!(a >= last - 1e-6, "opacity must be non-decreasing");
            last = a;
        }
    }
}
