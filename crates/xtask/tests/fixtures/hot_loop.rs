//! Fixture: hot-loop-alloc. Allocation-shaped calls inside loop bodies
//! fire; the same calls outside loops, in test code, or in pre-sized
//! functions stay quiet.

pub fn flagged(points: &[f64]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let label = format!("p{i}");
        names.push(label);
        let copy = points.to_vec();
        drop(copy);
        let boxed = Box::new(*p);
        drop(boxed);
    }
    names
}

pub fn nested(rows: &[Vec<f64>]) -> f64 {
    let mut acc = 0.0;
    for row in rows {
        for v in row {
            let scratch: Vec<f64> = row.iter().map(|x| x * v).collect();
            acc += scratch[0];
        }
    }
    acc
}

pub fn presized(points: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(points.len());
    for p in points {
        out.push(*p * 2.0);
    }
    out
}

pub fn outside_loops(points: &[f64]) -> Vec<f64> {
    let doubled: Vec<f64> = points.iter().map(|p| p * 2.0).collect();
    doubled
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let mut v = Vec::new();
        for i in 0..4 {
            v.push(format!("{i}"));
        }
        assert_eq!(v.len(), 4);
    }
}
