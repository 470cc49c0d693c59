//! The service cache key: the four components that make a study
//! execution content-addressable.
//!
//! Two requests are the *same work* iff all four components agree:
//!
//! 1. `spec_fp` — the 48-bit [`AlgorithmSpec`] fingerprint (what plan),
//! 2. `data_fp` — the 48-bit dataset fingerprint (what data),
//! 3. `cap_milliwatts` — the admitted power cap (what machine regime),
//! 4. `backend` — the execution backend (which formulation).
//!
//! The spec fingerprint here is the backend-*independent*
//! [`AlgorithmSpec::fingerprint`], so the backend is its own key axis
//! rather than being folded into the hash — perturbing any single
//! component must force a distinct key (the property the service's
//! invariants suite checks). The cap is stored in integer milliwatts so
//! the key is `Eq`/`Hash`/`Ord` without floating-point equality; the
//! conversion truncates toward zero so a keyed cap never quantizes
//! *above* the admitted value (the budget law holds for the key's cap,
//! not just the pre-quantization one).

use powersim::Watts;
use vizalgo::{AlgorithmSpec, Backend, Fnv1a};

/// The four-component fingerprint address of one unit of service work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Backend-independent 48-bit spec fingerprint.
    pub spec_fp: u64,
    /// 48-bit dataset content fingerprint.
    pub data_fp: u64,
    /// Admitted power cap in integer milliwatts.
    pub(crate) cap_milliwatts: u64,
    /// Execution backend.
    pub(crate) backend: Backend,
}

impl CacheKey {
    /// Key for `spec` against the dataset fingerprinted as `data_fp`,
    /// under the (already admitted) `cap`, on `backend`.
    pub fn new(spec: &AlgorithmSpec, data_fp: u64, cap: Watts, backend: Backend) -> CacheKey {
        CacheKey {
            spec_fp: spec.fingerprint(),
            data_fp,
            cap_milliwatts: (cap.value() * 1000.0).floor() as u64,
            backend,
        }
    }

    /// The cap component as [`Watts`].
    pub fn cap(&self) -> Watts {
        Watts(self.cap_milliwatts as f64 / 1000.0)
    }

    /// 48-bit FNV-1a over the four components — the hash behind
    /// [`shard`](CacheKey::shard) and node placement.
    pub(crate) fn hash48(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update_u64(self.spec_fp);
        h.update_u64(self.data_fp);
        h.update_u64(self.cap_milliwatts);
        h.update_u64(self.backend as u64);
        h.finish48()
    }

    /// The key's hash bucket of `shards` — the journal's `shard` field.
    pub(crate) fn shard(&self, shards: usize) -> usize {
        (self.hash48() % shards.max(1) as u64) as usize
    }

    /// Deterministic seeded node placement: the simulated node (of
    /// `nodes`) an execution of this key is scheduled onto. A
    /// splitmix64 finalizer over `hash48 ^ seed` spreads consecutive
    /// keys across the fleet while staying replay-identical.
    pub(crate) fn placement(&self, seed: u64, nodes: usize) -> usize {
        (mix64(self.hash48() ^ seed) % nodes.max(1) as u64) as usize
    }
}

/// splitmix64 finalizer: a full-avalanche bijection on `u64`.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizalgo::Algorithm;

    fn key() -> CacheKey {
        CacheKey::new(
            &Algorithm::Contour.default_spec(),
            0xABCD_EF01_2345,
            Watts(80.0),
            Backend::Traditional,
        )
    }

    #[test]
    fn cap_round_trips_through_milliwatts() {
        let k = key();
        assert_eq!(k.cap_milliwatts, 80_000);
        assert_eq!(k.cap(), Watts(80.0));
        let fractional = CacheKey::new(
            &Algorithm::Contour.default_spec(),
            1,
            Watts(72.5),
            Backend::Traditional,
        );
        assert_eq!(fractional.cap(), Watts(72.5));
        // Sub-milliwatt caps truncate toward zero: the keyed cap must
        // never exceed the admitted value it encodes.
        let awkward = CacheKey::new(
            &Algorithm::Contour.default_spec(),
            1,
            Watts(51.403_633_367_795_926),
            Backend::Traditional,
        );
        assert_eq!(awkward.cap_milliwatts, 51_403);
        assert!(awkward.cap().value() <= 51.403_633_367_795_926);
    }

    #[test]
    fn every_component_moves_the_key_and_its_hash() {
        let base = key();
        let variants = [
            CacheKey::new(
                &Algorithm::Threshold.default_spec(),
                base.data_fp,
                base.cap(),
                base.backend,
            ),
            CacheKey {
                data_fp: base.data_fp ^ 1,
                ..base
            },
            CacheKey::new(
                &Algorithm::Contour.default_spec(),
                base.data_fp,
                Watts(79.0),
                base.backend,
            ),
            CacheKey {
                backend: Backend::Dpp,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(base, v);
            assert_ne!(base.hash48(), v.hash48());
        }
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let k = key();
        for nodes in [1, 3, 8] {
            let n = k.placement(42, nodes);
            assert!(n < nodes);
            assert_eq!(n, k.placement(42, nodes), "replay-identical");
        }
        assert_eq!(k.placement(7, 1), 0, "single node takes everything");
    }
}
