//! Content fingerprints: the 48-bit FNV-1a construction behind
//! [`AlgorithmSpec::fingerprint`](crate::spec::AlgorithmSpec::fingerprint),
//! exposed as a reusable hasher, plus a dataset fingerprint over mesh
//! geometry and field payloads.
//!
//! The study service (`crates/service`) addresses cached results by
//! `(spec_fp, data_fp, cap, backend)`. The spec half has existed since
//! journal schema v4; this module supplies the data half with the same
//! properties: deterministic across runs and thread counts, 48 bits so
//! the value is exact in an `f64` journal arg, and derived from IEEE-754
//! bit patterns rather than any formatted representation, so two
//! datasets fingerprint equal iff their geometry and fields are
//! bit-identical.
//!
//! The hasher is incremental and allocation-free: a 256³ grid carries
//! hundreds of megabytes of field payload, and fingerprinting must not
//! clone or buffer it.

use vizmesh::dataset::Geometry;
use vizmesh::{DataSet, Field, FieldData, FieldSeries};

/// The 48-bit mask every fingerprint is reduced by: the largest width
/// that stays exact in an `f64`, so journals can carry fingerprints as
/// plain JSON numbers.
pub(crate) const FINGERPRINT_MASK: u64 = 0xFFFF_FFFF_FFFF;

/// Incremental 64-bit FNV-1a hasher. Feed byte slices with
/// [`Fnv1a::update`]; reduce to the journal-exact 48-bit form with
/// [`Fnv1a::finish48`].
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }

    /// Absorb a `u64` as little-endian bytes.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorb an `f64` by its IEEE-754 bit pattern (distinguishes
    /// `-0.0` from `0.0` and every NaN payload — bit-identity, not
    /// numeric equality).
    pub fn update_f64(&mut self, v: f64) {
        self.update_u64(v.to_bits());
    }

    /// The hash masked to 48 bits (exact in `f64`).
    pub fn finish48(&self) -> u64 {
        self.0 & FINGERPRINT_MASK
    }
}

/// A formatting sink: `write!` into a hasher absorbs the formatted
/// bytes without building a string.
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// One-shot 48-bit FNV-1a of a byte slice — the exact construction of
/// [`AlgorithmSpec::fingerprint`](crate::spec::AlgorithmSpec::fingerprint).
pub fn fingerprint48(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish48()
}

/// 48-bit content fingerprint of a dataset: geometry (kind tag, grid
/// dims/origin/spacing or explicit points + connectivity) followed by
/// every field (name, association, payload bit patterns), in stored
/// order. Bit-identical datasets — and only those — fingerprint equal.
pub fn dataset_fingerprint(ds: &DataSet) -> u64 {
    let mut h = Fnv1a::new();
    match &ds.geometry {
        Geometry::Uniform(grid) => {
            h.update(b"uniform\0");
            let dims = grid.point_dims();
            h.update_u64(dims[0] as u64);
            h.update_u64(dims[1] as u64);
            h.update_u64(dims[2] as u64);
            let (o, s) = (grid.origin(), grid.spacing());
            h.update_f64(o.x);
            h.update_f64(o.y);
            h.update_f64(o.z);
            h.update_f64(s.x);
            h.update_f64(s.y);
            h.update_f64(s.z);
        }
        Geometry::Explicit { points, cells } => {
            h.update(b"explicit\0");
            h.update_u64(points.len() as u64);
            for p in points {
                h.update_f64(p.x);
                h.update_f64(p.y);
                h.update_f64(p.z);
            }
            h.update_u64(cells.num_cells() as u64);
            for cell in 0..cells.num_cells() {
                h.update_u64(cells.shape(cell) as u64);
                for &pt in cells.cell_points(cell) {
                    h.update_u64(u64::from(pt));
                }
            }
        }
    }
    h.update_u64(ds.fields.len() as u64);
    for field in &ds.fields {
        field_fingerprint_into(&mut h, field);
    }
    h.finish48()
}

/// 48-bit content fingerprint of a field series: the snapshot count,
/// then each retained snapshot's time bit pattern followed by its
/// dataset fingerprint, in order. This is the `data_fp` of a
/// time-varying run — two series fingerprint equal iff they hold
/// bit-identical snapshots at bit-identical times.
pub fn series_fingerprint(series: &FieldSeries) -> u64 {
    let mut h = Fnv1a::new();
    h.update(b"series\0");
    h.update_u64(series.len() as u64);
    for (t, ds) in series.snapshots() {
        h.update_f64(t);
        h.update_u64(dataset_fingerprint(ds));
    }
    h.finish48()
}

/// Absorb one field: name bytes, association tag, then every value's
/// bit pattern in storage order.
fn field_fingerprint_into(h: &mut Fnv1a, field: &Field) {
    h.update(field.name.as_bytes());
    h.update(b"\0");
    h.update_u64(field.association as u64);
    match &field.data {
        FieldData::Scalar(values) => {
            h.update(b"scalar\0");
            h.update_u64(values.len() as u64);
            for &v in values {
                h.update_f64(v);
            }
        }
        FieldData::Vector(values) => {
            h.update(b"vector\0");
            h.update_u64(values.len() as u64);
            for v in values {
                h.update_f64(v.x);
                h.update_f64(v.y);
                h.update_f64(v.z);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizmesh::{Association, UniformGrid, Vec3};

    fn sample(n: usize, scale: f64) -> DataSet {
        let grid =
            UniformGrid::from_cell_dims([n, n, n], vizmesh::Aabb::new(Vec3::ZERO, Vec3::ONE));
        let num_points = grid.num_points();
        let values: Vec<f64> = (0..num_points).map(|i| i as f64 * scale).collect();
        DataSet::uniform(grid).with_field(Field::scalar("energy", Association::Points, values))
    }

    #[test]
    fn incremental_matches_one_shot() {
        let bytes = b"contour|field=energy|isovalues=spanning:10";
        let mut h = Fnv1a::new();
        h.update(&bytes[..7]);
        h.update(&bytes[7..]);
        assert_eq!(h.finish48(), fingerprint48(bytes));
    }

    #[test]
    fn matches_spec_fingerprint_construction() {
        let spec = crate::filter::Algorithm::Contour.default_spec();
        assert_eq!(
            spec.fingerprint(),
            fingerprint48(spec.canonical().as_bytes())
        );
    }

    #[test]
    fn dataset_fingerprint_is_stable_and_48_bit() {
        let a = dataset_fingerprint(&sample(4, 0.5));
        let b = dataset_fingerprint(&sample(4, 0.5));
        assert_eq!(a, b, "same content, same fingerprint");
        assert!(a <= FINGERPRINT_MASK, "fits in 48 bits");
        let exact = a as f64;
        assert_eq!(exact as u64, a, "exact in f64");
    }

    #[test]
    fn dataset_fingerprint_tracks_content() {
        let base = dataset_fingerprint(&sample(4, 0.5));
        assert_ne!(
            base,
            dataset_fingerprint(&sample(5, 0.5)),
            "geometry change moves the fingerprint"
        );
        assert_ne!(
            base,
            dataset_fingerprint(&sample(4, 0.25)),
            "field payload change moves the fingerprint"
        );
        let mut renamed = sample(4, 0.5);
        renamed.fields[0].name = "density".into();
        assert_ne!(
            base,
            dataset_fingerprint(&renamed),
            "field name change moves the fingerprint"
        );
    }

    #[test]
    fn series_fingerprint_tracks_snapshots_and_times() {
        use std::sync::Arc;
        let series_at = |times: &[f64], scale: f64| {
            let mut s = FieldSeries::with_capacity(8);
            for &t in times {
                s.record(t, Arc::new(sample(4, scale)));
            }
            s
        };
        let a = series_at(&[0.0, 1.0], 0.5);
        let fp = series_fingerprint(&a);
        assert_eq!(
            fp,
            series_fingerprint(&series_at(&[0.0, 1.0], 0.5)),
            "same content, same fingerprint"
        );
        assert!(fp <= FINGERPRINT_MASK);
        assert_ne!(
            fp,
            series_fingerprint(&series_at(&[0.0, 2.0], 0.5)),
            "snapshot time moves the fingerprint"
        );
        assert_ne!(
            fp,
            series_fingerprint(&series_at(&[0.0, 1.0], 0.25)),
            "snapshot payload moves the fingerprint"
        );
        assert_ne!(
            fp,
            series_fingerprint(&series_at(&[0.0], 0.5)),
            "snapshot count moves the fingerprint"
        );
    }

    #[test]
    fn negative_zero_is_distinguished() {
        let mut pos = Fnv1a::new();
        pos.update_f64(0.0);
        let mut neg = Fnv1a::new();
        neg.update_f64(-0.0);
        assert_ne!(pos.finish48(), neg.finish48());
    }
}
