//! Fixture: watt-/joule-named quantities carried as raw `f64`.

pub struct Row {
    pub cap_watts: f64,
    pub seconds: f64,
}

pub fn peak_power_watts(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.cap_watts).fold(0.0, f64::max)
}

pub fn average(energy_joules: f64, seconds: f64) -> f64 {
    energy_joules / seconds
}

pub fn total_energy_joules(
    rows: &[Row],
) -> f64 {
    let sum_joules: f64 = rows.iter().map(|r| r.cap_watts * r.seconds).sum();
    sum_joules
}
