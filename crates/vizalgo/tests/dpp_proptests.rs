//! Property laws for the data-parallel primitive vocabulary
//! (`vizalgo::dpp::primitives`): one algebraic law per primitive,
//! checked against an independent reference formulation. These are the
//! contracts the DPP kernel formulations (and the differential
//! conformance suite) lean on — see docs/DPP.md.

use propcheck::prelude::*;
use std::collections::HashMap;
use vizalgo::arena::pack_edge;
use vizalgo::dpp::primitives::{self, DppTrace};
use vizmesh::par;

/// The primitives' `par` chunk length (`vizalgo`'s per-cell
/// `CELL_MIN_LEN`): `sort_by_key` takes its bucketed parallel path from
/// `2 * MIN_LEN` pairs on.
const MIN_LEN: usize = 4096;

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

    /// `compact_indices` keeps exactly the flagged positions, strictly
    /// ascending.
    #[test]
    fn compact_keeps_flagged_in_order(flags in prop::collection::vec(any::<bool>(), 0..64)) {
        let mut tr = DppTrace::new();
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

/// `len` pairs drawn from `seed` with one of three key shapes: `0` all
/// keys equal (one bucket), `1` the weld's `pack_edge` keys on a 129³
/// point grid, `2` keys anywhere in `u64` including both ends (the
/// shift edge). Payloads repeat, and so do whole pairs.
fn weld_like_pairs(len: usize, shape: usize, seed: u64) -> Vec<(u64, u32)> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let one_key = next();
    let mut pairs: Vec<(u64, u32)> = (0..len)
        .map(|_| {
            let r = next();
            let key = match shape {
                0 => one_key,
                1 => {
                    let lo = (r % 2_146_688) as u32;
                    pack_edge(lo, lo + [1, 129, 129 * 129][(r >> 40) as usize % 3])
                }
                _ => [0, u64::MAX, r][(r >> 62) as usize % 3],
            };
            (key, (next() % 64) as u32)
        })
        .collect();
    for i in (1..len).step_by(7) {
        pairs[i] = pairs[i / 2];
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Around the cutoff where `sort_by_key` turns parallel, at any
    /// thread count, it is `sort_unstable` of the same pairs, and
    /// `reduce_by_key` on top folds the same runs in the same order;
    /// the recorded traffic does not depend on the thread count either.
    #[test]
    fn sort_and_reduce_by_key_are_sequential_at_the_parallel_cutoff(
        shape in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        for len in [0, 1, 2 * MIN_LEN - 1, 2 * MIN_LEN, 2 * MIN_LEN + 1, 9 * MIN_LEN + 5] {
            let pairs = weld_like_pairs(len, shape, seed);
            let mut expect = pairs.clone();
            expect.sort_unstable();
            let fold = |a: u32, b: u32| a.wrapping_mul(31).wrapping_add(b);
            let mut reports = Vec::new();
            for threads in [1, 2, 7, 16] {
                let mut tr = DppTrace::new();
                let mut sorted = pairs.clone();
                let reduced = par::with_threads(threads, || {
                    primitives::sort_by_key(&mut tr, &mut sorted);
                    primitives::reduce_by_key(&mut tr, &sorted, fold)
                });
                prop_assert!(sorted == expect, "len {} threads {}: sort", len, threads);
                let mut tr_ref = DppTrace::new();
                let reduced_ref = primitives::reduce_by_key(&mut tr_ref, &expect, fold);
                prop_assert!(reduced == reduced_ref, "len {} threads {}: reduce", len, threads);
                reports.push(tr.reports());
            }
            prop_assert!(reports.iter().all(|r| *r == reports[0]), "len {}: reports", len);
        }
    }
}
