//! Property laws for the data-parallel primitive vocabulary
//! (`vizalgo::dpp::primitives`): one algebraic law per primitive,
//! checked against an independent reference formulation. These are the
//! contracts the DPP kernel formulations (and the differential
//! conformance suite) lean on — see docs/DPP.md.

use propcheck::prelude::*;
use std::collections::HashMap;
use vizalgo::dpp::primitives::{self, DppTrace};

/// Deterministic Fisher–Yates permutation of `0..n` from a seed
/// (`propcheck` has no shuffle strategy; xorshift64 keeps runs
/// reproducible).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let j = (s % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `map` is length-preserving and elementwise: `out[i] = f(in[i])`.
    #[test]
    fn map_is_elementwise(xs in prop::collection::vec(-1000i64..1000, 0..64)) {
        let mut tr = DppTrace::new();
        let out = primitives::map(&mut tr, &xs, |&x| 3 * x + 1);
        prop_assert_eq!(out.len(), xs.len());
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out[i], 3 * x + 1);
        }
    }

    /// `inclusive_scan` is the monotone prefix sum: same length, each
    /// entry the running total, last entry the full sum.
    #[test]
    fn inclusive_scan_is_monotone_prefix_sum(xs in prop::collection::vec(0u32..16, 0..64)) {
        let mut tr = DppTrace::new();
        let out = primitives::inclusive_scan(&mut tr, &xs);
        prop_assert_eq!(out.len(), xs.len());
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]), "scan must be monotone");
        let mut acc = 0u32;
        for (i, &x) in xs.iter().enumerate() {
            acc += x;
            prop_assert_eq!(out[i], acc);
        }
        prop_assert_eq!(out.last().copied().unwrap_or(0), xs.iter().sum::<u32>());
    }

    /// `gather` is definitionally `out[i] = src[idx[i]]`.
    #[test]
    fn gather_reads_through_indices(
        src in prop::collection::vec(-1e6f64..1e6, 1..64),
        raw in prop::collection::vec(0u32..1_000_000, 0..64),
    ) {
        let idx: Vec<u32> = raw.iter().map(|&r| r % src.len() as u32).collect();
        let mut tr = DppTrace::new();
        let out = primitives::gather(&mut tr, &src, &idx);
        prop_assert_eq!(out.len(), idx.len());
        for (i, &j) in idx.iter().enumerate() {
            prop_assert_eq!(out[i].to_bits(), src[j as usize].to_bits());
        }
    }

    /// `scatter` through a permutation inverts `gather` through the same
    /// permutation (the unique-indices scatter contract).
    #[test]
    fn scatter_inverts_gather_on_permutations(
        src in prop::collection::vec(-1e6f64..1e6, 1..64),
        seed in 0u64..10_000,
    ) {
        let idx = permutation(src.len(), seed);
        let mut tr = DppTrace::new();
        let gathered = primitives::gather(&mut tr, &src, &idx);
        let mut out = vec![0.0f64; src.len()];
        primitives::scatter(&mut tr, &gathered, &idx, &mut out);
        for (a, b) in out.iter().zip(&src) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// `compact` keeps exactly the flagged elements, in order; the index
    /// form returns the strictly ascending flagged positions.
    #[test]
    fn compact_keeps_flagged_in_order(
        pairs in prop::collection::vec((any::<bool>(), -1000i64..1000), 0..64),
    ) {
        let flags: Vec<bool> = pairs.iter().map(|&(f, _)| f).collect();
        let src: Vec<i64> = pairs.iter().map(|&(_, v)| v).collect();
        let mut tr = DppTrace::new();
        let out = primitives::compact(&mut tr, &src, &flags);
        let expect: Vec<i64> = src
            .iter()
            .zip(&flags)
            .filter(|&(_, &f)| f)
            .map(|(&v, _)| v)
            .collect();
        prop_assert_eq!(out, expect);
        let ids = primitives::compact_indices(&mut tr, &flags);
        prop_assert_eq!(ids.len(), flags.iter().filter(|&&f| f).count());
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "indices strictly ascending");
        prop_assert!(ids.iter().all(|&i| flags[i as usize]));
    }

    /// `sort_by_key` yields a sorted permutation: ordered output, same
    /// pair multiset as the input.
    #[test]
    fn sort_by_key_is_a_sorted_permutation(
        pairs in prop::collection::vec((0u64..16, 0u32..16), 0..64),
    ) {
        let mut sorted = pairs.clone();
        let mut tr = DppTrace::new();
        primitives::sort_by_key(&mut tr, &mut sorted);
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "output must be ordered");
        let mut counts: HashMap<(u64, u32), i64> = HashMap::new();
        for &p in &pairs {
            *counts.entry(p).or_insert(0) += 1;
        }
        for &p in &sorted {
            *counts.entry(p).or_insert(0) -= 1;
        }
        prop_assert!(counts.values().all(|&c| c == 0), "output must be a permutation");
    }

    /// `reduce_by_key` over sorted pairs emits each distinct key once,
    /// in ascending order, with the payloads folded — for `+`, the same
    /// per-key sums an order-independent hash accumulation produces.
    #[test]
    fn reduce_by_key_folds_each_key_once(
        pairs in prop::collection::vec((0u64..8, 0u32..100), 0..64),
    ) {
        let mut sorted = pairs.clone();
        let mut tr = DppTrace::new();
        primitives::sort_by_key(&mut tr, &mut sorted);
        let reduced = primitives::reduce_by_key(&mut tr, &sorted, |a, b| a + b);
        prop_assert!(
            reduced.windows(2).all(|w| w[0].0 < w[1].0),
            "keys strictly ascending"
        );
        let mut sums: HashMap<u64, u32> = HashMap::new();
        for &(k, v) in &pairs {
            *sums.entry(k).or_insert(0) += v;
        }
        prop_assert_eq!(reduced.len(), sums.len());
        for &(k, v) in &reduced {
            prop_assert_eq!(sums.get(&k).copied(), Some(v));
        }
    }
}
