//! Named data arrays attached to mesh points or cells.

use crate::par;
use crate::vec3::Vec3;

/// Whether a field's values live on mesh points or on cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Association {
    Points,
    Cells,
}

/// Storage for a field: scalar (`f64`) or vector ([`Vec3`]) arrays.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldData {
    Scalar(Vec<f64>),
    Vector(Vec<Vec3>),
}

impl FieldData {
    pub(crate) fn len(&self) -> usize {
        match self {
            FieldData::Scalar(v) => v.len(),
            FieldData::Vector(v) => v.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of payload, used by the instrumentation layer.
    pub fn num_bytes(&self) -> u64 {
        match self {
            FieldData::Scalar(v) => (v.len() * std::mem::size_of::<f64>()) as u64,
            FieldData::Vector(v) => (v.len() * std::mem::size_of::<Vec3>()) as u64,
        }
    }
}

/// A named, associated data array.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub name: String,
    pub association: Association,
    pub data: FieldData,
}

impl Field {
    pub fn scalar(name: impl Into<String>, association: Association, values: Vec<f64>) -> Self {
        Field {
            name: name.into(),
            association,
            data: FieldData::Scalar(values),
        }
    }

    pub fn vector(name: impl Into<String>, association: Association, values: Vec<Vec3>) -> Self {
        Field {
            name: name.into(),
            association,
            data: FieldData::Vector(values),
        }
    }

    /// Scalar values, or `None` if this is a vector field.
    pub(crate) fn as_scalar(&self) -> Option<&[f64]> {
        match &self.data {
            FieldData::Scalar(v) => Some(v),
            FieldData::Vector(_) => None,
        }
    }

    /// Vector values, or `None` if this is a scalar field.
    pub(crate) fn as_vector(&self) -> Option<&[Vec3]> {
        match &self.data {
            FieldData::Vector(v) => Some(v),
            FieldData::Scalar(_) => None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(min, max)` of a scalar field's finite values; `None` for vector
    /// fields and fields with no finite value. The first value to reach
    /// each extreme is the one returned (so the sign of a zero extreme is
    /// the first zero's): chunks fold with strict comparisons on `par`,
    /// and their extremes are folded in chunk order with the same ones.
    pub fn scalar_range(&self) -> Option<(f64, f64)> {
        let v = self.as_scalar()?;
        let chunks = par::map_chunks(v.len(), RANGE_MIN_LEN, |chunk| {
            let finite = v[chunk].iter().filter(|x| x.is_finite());
            vec![extremes(finite.map(|&x| (x, x)))]
        });
        let (lo, hi) = extremes(chunks.into_iter());
        (lo <= hi).then_some((lo, hi))
    }
}

/// Values per chunk below which [`Field::scalar_range`] stays on one
/// thread: a scan costs well under a nanosecond a value.
const RANGE_MIN_LEN: usize = 1 << 15;

/// The smallest first and largest second of `pairs`, each the first to
/// reach it (strict comparisons; NaNs never win; no pair: `(inf, -inf)`).
fn extremes(pairs: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (low, high) in pairs {
        if low < lo {
            lo = low;
        }
        if high > hi {
            hi = high;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        let f = Field::scalar("energy", Association::Points, vec![1.0, 3.0, -2.0]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.as_scalar().unwrap()[1], 3.0);
        assert!(f.as_vector().is_none());
        assert_eq!(f.scalar_range(), Some((-2.0, 3.0)));
    }

    #[test]
    fn vector_accessors() {
        let f = Field::vector(
            "velocity",
            Association::Points,
            vec![Vec3::X, Vec3::new(0.0, 3.0, 4.0)],
        );
        assert!(f.as_scalar().is_none());
        assert_eq!(f.as_vector().unwrap().len(), 2);
    }

    #[test]
    fn scalar_range_is_the_sequential_fold_at_every_thread_count() {
        // The fold the chunked scan replaced, over the finite values.
        let sequential = |v: &[f64]| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &x in v.iter().filter(|x| x.is_finite()) {
                if x < lo {
                    lo = x;
                }
                if x > hi {
                    hi = x;
                }
            }
            (lo <= hi).then_some((lo.to_bits(), hi.to_bits()))
        };
        let n_cut = 2 * RANGE_MIN_LEN;
        for n in [
            1,
            RANGE_MIN_LEN - 1,
            n_cut,
            n_cut + 1,
            9 * RANGE_MIN_LEN + 5,
        ] {
            // Zeros of both signs, NaNs, infinities of both signs, and
            // ties of the extremes spread over every chunk: the first of
            // each finite extreme must win.
            let v: Vec<f64> = (0..n)
                .map(|i| match i % 11 {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    _ => ((i * 37) % 11) as f64 - 5.0 * ((i / 13) % 2) as f64,
                })
                .collect();
            let zeros: Vec<f64> = (0..n)
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                .collect();
            let nans = vec![f64::NAN; n];
            for values in [v, zeros, nans] {
                let f = Field::scalar("x", Association::Points, values.clone());
                for threads in [1, 2, 7, 16] {
                    let range = par::with_threads(threads, || f.scalar_range());
                    let got = range.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
                    assert_eq!(got, sequential(&values), "n {n}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn empty_ranges_are_none() {
        let f = Field::scalar("x", Association::Cells, vec![]);
        assert!(f.scalar_range().is_none());
        // No finite value: the range is empty too, never inverted.
        let f = Field::scalar("x", Association::Cells, vec![f64::NAN, f64::INFINITY]);
        assert!(f.scalar_range().is_none());
    }

    #[test]
    fn num_bytes() {
        let f = Field::scalar("x", Association::Points, vec![0.0; 10]);
        assert_eq!(f.data.num_bytes(), 80);
        let g = Field::vector("v", Association::Points, vec![Vec3::ZERO; 10]);
        assert_eq!(g.data.num_bytes(), 240);
    }
}
