//! Order statistics over small samples.

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them — the rule the
/// benchmark contract uses for run-to-run spread — so `compare` and the
/// driver agree on what a spread is. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest sample; 0 for an empty sample.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// A pass's time with the machine's disturbances left out. `passes`
/// holds each pass's lap times; per lap the fastest time any pass took
/// for it, summed over the laps. `None` without passes or when they
/// disagree on how many laps a pass has.
pub fn undisturbed_pass(passes: &[Vec<f64>]) -> Option<f64> {
    let laps = passes.first()?.len();
    if passes.iter().any(|p| p.len() != laps) {
        return None;
    }
    Some(
        (0..laps)
            .map(|lap| min(&passes.iter().map(|p| p[lap]).collect::<Vec<_>>()))
            .sum(),
    )
}

/// The highest percentile that still has at least ten samples beyond
/// it, with its nearest-rank value; `None` below twenty samples, where
/// that percentile would not lie above the median.
pub fn high_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 10; // ten samples lie above index rank-1
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let median = median(values);
        let [q1, _, q3] = quartiles(values).unwrap_or([median; 3]);
        Summary {
            n: values.len(),
            median,
            q1,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}
