//! The data-parallel primitive vocabulary (Bethel et al.,
//! arXiv:2010.02361): seven deterministic building blocks every DPP
//! kernel formulation is composed from, each instrumented with
//! element/byte counters so a formulation's *shape* — how much data each
//! primitive touches — is observable in the run journal as `primitive`
//! records (see docs/OBSERVABILITY.md and docs/DPP.md).
//!
//! The maps ([`map`], `map_n`, `map_cells`),
//! [`inclusive_scan`] and [`compact_indices`] run on
//! [`vizmesh::par`]: contiguous chunks, each producing its piece, joined
//! in chunk order. [`sort_by_key`] buckets its pairs by the key's top
//! bits and sorts groups of buckets on `par` (a plain `sort_unstable`
//! below `2 * MIN_LEN` pairs). [`gather`], [`scatter`] and
//! [`reduce_by_key`] are sequential (docs/PERFORMANCE.md has the phase
//! profile that left them so). Output and recorded traffic cannot
//! depend on the thread count: an element is a function of its own
//! index (the scan's carry is an exact integer prefix), a full-tuple
//! sort of a multiset has one result, and every count recorded is
//! computed from input and output lengths, not from the cut. That keeps
//! the differential conformance suite exact where the math is exact.

use crate::filter::{KernelClass, KernelReport};
use vizmesh::{par, GridCell, UniformGrid, WorkCounters};

/// One primitive operation in the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveOp {
    /// Elementwise transform (worklet application).
    Map,
    /// Inclusive prefix sum over `u32` counts.
    InclusiveScan,
    /// `out[i] = src[idx[i]]`.
    Gather,
    /// `out[idx[i]] = src[i]`.
    Scatter,
    /// Keep flagged elements, preserving order.
    Compact,
    /// Full-tuple ordering of (key, payload) pairs: ties on a key break
    /// on the payload, never on input position.
    SortByKey,
    /// Collapse runs of equal keys in sorted pairs.
    ReduceByKey,
}

/// One row per op, in discriminant (= canonical report) order: the op,
/// its wire/report name, its static `dpp-<op>` kernel name, the
/// power-model class its traffic is characterized as (`Map` carries the
/// worklet math, classification-shaped; everything else is data
/// movement) and its modeled instruction cost per element (compare/loop
/// overhead for movement ops, branch-heavy merge work for sort).
#[rustfmt::skip]
const OPS: [(PrimitiveOp, &str, &str, KernelClass, u64); 7] = {
    use KernelClass::{CellClassify, GatherScatter};
    [
        (PrimitiveOp::Map,           "map",            "dpp-map",            CellClassify,  12),
        (PrimitiveOp::InclusiveScan, "inclusive_scan", "dpp-inclusive-scan", GatherScatter,  6),
        (PrimitiveOp::Gather,        "gather",         "dpp-gather",         GatherScatter,  5),
        (PrimitiveOp::Scatter,       "scatter",        "dpp-scatter",        GatherScatter,  5),
        (PrimitiveOp::Compact,       "compact",        "dpp-compact",        GatherScatter,  9),
        (PrimitiveOp::SortByKey,     "sort_by_key",    "dpp-sort-by-key",    GatherScatter, 40),
        (PrimitiveOp::ReduceByKey,   "reduce_by_key",  "dpp-reduce-by-key",  GatherScatter, 10),
    ]
};

// Row order == enum discriminant order, checked at compile time so
// `OPS[op as usize]` can never pick the wrong row.
const _: () = {
    let mut i = 0;
    while i < OPS.len() {
        assert!(
            OPS[i].0 as usize == i,
            "OPS rows must follow PrimitiveOp discriminant order"
        );
        i += 1;
    }
};

impl PrimitiveOp {
    /// Wire/report name.
    pub fn name(self) -> &'static str {
        OPS[self as usize].1
    }

    /// The power-model kernel class the op's traffic is characterized as.
    pub(crate) fn kernel_class(self) -> KernelClass {
        OPS[self as usize].3
    }
}

/// Accumulated traffic for one op across a filter execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrimitiveCounters {
    /// Number of primitive invocations.
    pub invocations: u64,
    /// Total elements processed.
    pub elements: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Floating-point ops performed inside `Map` worklets (zero for the
    /// pure data-movement ops).
    pub flops: u64,
}

/// One op's counters, labelled — the per-execution record a DPP filter
/// returns in [`FilterOutput::primitives`](crate::FilterOutput) and the
/// payload of a journal `primitive` record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveReport {
    pub op: PrimitiveOp,
    pub counters: PrimitiveCounters,
}

/// The per-execution trace a DPP formulation records into: one counter
/// slot per op, merged across every primitive invocation.
#[derive(Debug, Clone, Default)]
pub struct DppTrace {
    slots: [PrimitiveCounters; OPS.len()],
}

impl DppTrace {
    pub fn new() -> Self {
        DppTrace::default()
    }

    /// Record one invocation of `op` over `elements` elements.
    #[inline]
    pub(crate) fn record(
        &mut self,
        op: PrimitiveOp,
        elements: u64,
        bytes_read: u64,
        bytes_written: u64,
    ) {
        let s = &mut self.slots[op as usize];
        s.invocations += 1;
        s.elements += elements;
        s.bytes_read += bytes_read;
        s.bytes_written += bytes_written;
    }

    /// Attribute worklet floating-point work to `op` (normally `Map`).
    #[inline]
    pub(crate) fn record_flops(&mut self, op: PrimitiveOp, flops: u64) {
        self.slots[op as usize].flops += flops;
    }

    /// Reports for every op that saw traffic, in declaration order.
    pub fn reports(&self) -> Vec<PrimitiveReport> {
        let mut out = Vec::with_capacity(OPS.len());
        for (i, &(op, ..)) in OPS.iter().enumerate() {
            if self.slots[i].invocations > 0 {
                out.push(PrimitiveReport {
                    op,
                    counters: self.slots[i],
                });
            }
        }
        out
    }

    /// The same traffic as power-model kernel reports (`dpp-<op>`), so a
    /// DPP execution feeds `characterize` → powersim exactly like a
    /// traditional one — with a data-movement-heavy mix instead of the
    /// traditional fused-loop mix. That shift is the quantity the
    /// Bethel-style study measures.
    pub(crate) fn kernel_reports(&self) -> Vec<KernelReport> {
        let active = self.reports();
        let mut out = Vec::with_capacity(active.len());
        for r in active {
            out.push(KernelReport::new(
                OPS[r.op as usize].2,
                r.op.kernel_class(),
                work_counters(r),
            ));
        }
        out
    }
}

/// Lower a primitive report into the shared work-counter currency.
fn work_counters(r: PrimitiveReport) -> WorkCounters {
    let c = r.counters;
    let mut w = WorkCounters::new();
    w.items = c.elements;
    // Sort does O(n log n) comparisons; everything else is linear.
    let per = OPS[r.op as usize].4;
    w.instructions = if r.op == PrimitiveOp::SortByKey {
        let lg = (c.elements.max(2) as f64).log2().ceil() as u64;
        c.elements * per.max(1) * lg.max(1) / 8
    } else {
        c.elements * per
    };
    w.flops = c.flops;
    w.bytes_read = c.bytes_read;
    w.bytes_written = c.bytes_written;
    w.working_set_bytes = c.bytes_read.max(c.bytes_written);
    w
}

/// Fewest elements worth a `par` chunk in a primitive (a load, a
/// compare or an add each, like the per-cell loops).
const MIN_LEN: usize = crate::CELL_MIN_LEN;

/// `map`: elementwise transform of a slice.
pub fn map<T: Sync, U: Send>(
    trace: &mut DppTrace,
    input: &[T],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let out = par::map_chunks(input.len(), MIN_LEN, |chunk| {
        input[chunk].iter().map(&f).collect()
    });
    trace.record(
        PrimitiveOp::Map,
        input.len() as u64,
        std::mem::size_of_val(input) as u64,
        (std::mem::size_of::<U>() * input.len()) as u64,
    );
    out
}

/// Record a `map` over an index space of `n` elements, each reading
/// `bytes_read_per` bytes of gathered input and writing one `U`.
pub(crate) fn record_map_n<U>(trace: &mut DppTrace, n: usize, bytes_read_per: u64) {
    trace.record(
        PrimitiveOp::Map,
        n as u64,
        bytes_read_per * n as u64,
        (std::mem::size_of::<U>() * n) as u64,
    );
}

/// `map` over an index space `0..n` (a worklet reading `bytes_read_per`
/// bytes of gathered input per element).
pub(crate) fn map_n<U: Send>(
    trace: &mut DppTrace,
    n: usize,
    bytes_read_per: u64,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    record_map_n::<U>(trace, n, bytes_read_per);
    par::map(n, MIN_LEN, f)
}

/// `map` over the cells of a grid, the worklet handed each cell with
/// its corner points (VTK-m's visit-cells-with-points shape): `map_n`
/// over the cell ids without decoding one.
pub(crate) fn map_cells<U: Send>(
    trace: &mut DppTrace,
    grid: &UniformGrid,
    bytes_read_per: u64,
    f: impl Fn(&GridCell<'_>) -> U + Sync,
) -> Vec<U> {
    record_map_n::<U>(trace, grid.num_cells(), bytes_read_per);
    grid.map_cells(MIN_LEN, f)
}

/// `inclusive_scan`: prefix sums; `out[i] = input[0] + … + input[i]`.
///
/// Three steps: per-chunk sums in parallel, a sequential carry over
/// them, then every chunk scanned from its carry in parallel. Integer
/// sums regroup exactly, so the cut never shows in the output.
pub fn inclusive_scan(trace: &mut DppTrace, input: &[u32]) -> Vec<u32> {
    // (chunk start, chunk sum), ascending; then each sum is replaced by
    // the sum of everything before its chunk.
    let mut carries: Vec<(usize, u32)> = par::map_chunks(input.len(), MIN_LEN, |chunk| {
        vec![(chunk.start, input[chunk].iter().sum())]
    });
    let mut before = 0u32;
    for (_, sum) in &mut carries {
        let carry = before;
        before += *sum;
        *sum = carry;
    }
    let out = par::map_chunks(input.len(), MIN_LEN, |chunk| {
        // The chunk of the first sweep this one starts in — the same
        // chunk while both sweeps cut alike, and then `head` is empty.
        let (start, carry) = carries[carries.partition_point(|&(s, _)| s <= chunk.start) - 1];
        let head: u32 = input[start..chunk.start].iter().sum();
        let mut acc = carry + head;
        input[chunk]
            .iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect()
    });
    trace.record(
        PrimitiveOp::InclusiveScan,
        input.len() as u64,
        4 * input.len() as u64,
        4 * input.len() as u64,
    );
    out
}

/// `gather`: `out[i] = src[idx[i]]`.
pub fn gather<T: Copy>(trace: &mut DppTrace, src: &[T], idx: &[u32]) -> Vec<T> {
    let mut out = Vec::with_capacity(idx.len());
    for &i in idx {
        out.push(src[i as usize]);
    }
    trace.record(
        PrimitiveOp::Gather,
        idx.len() as u64,
        (idx.len() * (4 + std::mem::size_of::<T>())) as u64,
        (idx.len() * std::mem::size_of::<T>()) as u64,
    );
    out
}

/// `scatter`: `out[idx[i]] = src[i]` (indices must be unique — the
/// deterministic-scatter contract).
pub fn scatter<T: Copy>(trace: &mut DppTrace, src: &[T], idx: &[u32], out: &mut [T]) {
    assert_eq!(src.len(), idx.len(), "scatter src/idx length mismatch");
    for (v, &i) in src.iter().zip(idx) {
        out[i as usize] = *v;
    }
    trace.record(
        PrimitiveOp::Scatter,
        idx.len() as u64,
        (idx.len() * (4 + std::mem::size_of::<T>())) as u64,
        (idx.len() * std::mem::size_of::<T>()) as u64,
    );
}

/// `compact` over the index space: the indices whose flag is set, in
/// ascending order (each chunk compacted on its own, the pieces joined
/// in chunk order).
pub fn compact_indices(trace: &mut DppTrace, flags: &[bool]) -> Vec<u32> {
    let out = par::map_chunks(flags.len(), MIN_LEN, |chunk| {
        chunk.filter(|&i| flags[i]).map(|i| i as u32).collect()
    });
    trace.record(
        PrimitiveOp::Compact,
        flags.len() as u64,
        flags.len() as u64,
        4 * out.len() as u64,
    );
    out
}

/// `sort_by_key`: order (key, payload) pairs by the full tuple, so equal
/// keys tie-break on payload, never on input position. A multiset has
/// exactly one such order, so the output depends neither on the input
/// order nor on how the work was cut: one `sort_unstable` below
/// `2 * MIN_LEN` pairs, a bucketed sort on `par` from there.
pub fn sort_by_key(trace: &mut DppTrace, pairs: &mut [(u64, u32)]) {
    if pairs.len() < 2 * MIN_LEN {
        pairs.sort_unstable();
    } else {
        bucket_sort(pairs);
    }
    trace.record(
        PrimitiveOp::SortByKey,
        pairs.len() as u64,
        12 * pairs.len() as u64,
        12 * pairs.len() as u64,
    );
}

/// The parallel path of [`sort_by_key`]. The largest key fixes a shift
/// that keeps its top live bits, so bucket order is key order; one
/// counting pass and one scatter fill one bucket per 8–16 pairs (2^14
/// for the ~160 000 weld pairs of a 128³ isovalue, where 2^10 sorted
/// 1.4 × slower and 2^16 no faster); groups of buckets are sorted on
/// `par`, each bucket on its own in L1, and joined in bucket order.
fn bucket_sort(pairs: &mut [(u64, u32)]) {
    let bits = pairs.len().ilog2() - 3;
    let max = pairs.iter().map(|&(k, _)| k).max().unwrap_or(0);
    let shift = (u64::BITS - max.leading_zeros()).saturating_sub(bits);
    let bucket = |k: u64| (k >> shift) as usize;
    // Bucket `b` is `grouped[starts[b]..starts[b + 1]]`.
    let mut starts = vec![0usize; (1 << bits) + 1];
    for &(k, _) in pairs.iter() {
        starts[bucket(k) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut grouped = vec![(0, 0); pairs.len()];
    for &pair in pairs.iter() {
        let b = bucket(pair.0);
        grouped[next[b]] = pair;
        next[b] += 1;
    }
    let sorted = par::map_chunks(1 << bits, 1, |buckets| {
        let base = starts[buckets.start];
        let mut part = grouped[base..starts[buckets.end]].to_vec();
        for b in buckets {
            part[starts[b] - base..starts[b + 1] - base].sort_unstable();
        }
        part
    });
    pairs.copy_from_slice(&sorted);
}

/// `reduce_by_key`: collapse runs of equal keys in key-sorted pairs with
/// `reduce`, yielding one (key, reduced payload) per distinct key in
/// first-appearance (= ascending-key) order.
pub fn reduce_by_key<P: Copy>(
    trace: &mut DppTrace,
    pairs: &[(u64, P)],
    mut reduce: impl FnMut(P, P) -> P,
) -> Vec<(u64, P)> {
    let mut distinct = 0usize;
    let mut prev = None;
    for &(k, _) in pairs {
        if prev != Some(k) {
            distinct += 1;
            prev = Some(k);
        }
    }
    let mut out: Vec<(u64, P)> = Vec::with_capacity(distinct);
    for &(k, p) in pairs {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 = reduce(last.1, p),
            _ => out.push((k, p)),
        }
    }
    trace.record(
        PrimitiveOp::ReduceByKey,
        pairs.len() as u64,
        (pairs.len() * (8 + std::mem::size_of::<P>())) as u64,
        (out.len() * (8 + std::mem::size_of::<P>())) as u64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_empty_and_single() {
        let mut tr = DppTrace::new();
        let empty: Vec<i32> = map(&mut tr, &[] as &[i32], |&x| x * 2);
        assert!(empty.is_empty());
        assert_eq!(map(&mut tr, &[21], |&x: &i32| x * 2), vec![42]);
        let r = tr.reports();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, PrimitiveOp::Map);
        assert_eq!(r[0].counters.invocations, 2);
        assert_eq!(r[0].counters.elements, 1);
    }

    #[test]
    fn scan_identity_and_prefix_sums() {
        let mut tr = DppTrace::new();
        assert!(inclusive_scan(&mut tr, &[]).is_empty());
        assert_eq!(inclusive_scan(&mut tr, &[7]), vec![7]);
        assert_eq!(inclusive_scan(&mut tr, &[1, 0, 2, 3]), vec![1, 1, 3, 6]);
        // Scan of all-zeros is the identity on length.
        assert_eq!(inclusive_scan(&mut tr, &[0, 0, 0]), vec![0, 0, 0]);
    }

    #[test]
    fn compact_all_pass_and_all_fail() {
        let mut tr = DppTrace::new();
        assert_eq!(compact_indices(&mut tr, &[true; 3]), vec![0u32, 1, 2]);
        assert!(compact_indices(&mut tr, &[false; 3]).is_empty());
        assert_eq!(compact_indices(&mut tr, &[false, true, false]), vec![1u32]);
        assert_eq!(
            compact_indices(&mut tr, &[true, false, true]),
            vec![0u32, 2]
        );
        assert!(compact_indices(&mut tr, &[]).is_empty());
    }

    /// Around every chunk boundary the pool can cut — none, the inline
    /// cutoff at two chunks, and a length no chunk size divides — the
    /// parallel scan and compaction are the sequential loops, and record
    /// what they always recorded.
    #[test]
    fn scan_and_compact_are_the_sequential_loops_at_every_thread_count() {
        let lengths = [
            0,
            1,
            MIN_LEN - 1,
            MIN_LEN,
            MIN_LEN + 1,
            2 * MIN_LEN - 1,
            2 * MIN_LEN,
            2 * MIN_LEN + 1,
            9 * MIN_LEN + 5,
        ];
        for n in lengths {
            let input: Vec<u32> = (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) % 5)
                .collect();
            let flags: Vec<bool> = input.iter().map(|&x| x >= 2).collect();
            let mut acc = 0;
            let sums: Vec<u32> = input
                .iter()
                .map(|&x| {
                    acc += x;
                    acc
                })
                .collect();
            let kept_ids: Vec<u32> = (0..n as u32).filter(|&i| flags[i as usize]).collect();
            let mut reports = Vec::new();
            for threads in [1, 2, 7, 16] {
                let mut tr = DppTrace::new();
                par::with_threads(threads, || {
                    assert_eq!(
                        inclusive_scan(&mut tr, &input),
                        sums,
                        "scan n={n} threads={threads}"
                    );
                    assert_eq!(
                        compact_indices(&mut tr, &flags),
                        kept_ids,
                        "indices n={n} threads={threads}"
                    );
                });
                reports.push(tr.reports());
            }
            assert!(reports.iter().all(|r| *r == reports[0]), "n={n}");
            let c = reports[0][1].counters;
            assert_eq!((c.invocations, c.elements), (1, n as u64));
            assert_eq!(c.bytes_read, n as u64);
            assert_eq!(c.bytes_written, 4 * kept_ids.len() as u64);
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut tr = DppTrace::new();
        let src = [1.0f64, 2.0, 3.0, 4.0];
        let idx = [3u32, 1, 0, 2];
        let g = gather(&mut tr, &src, &idx);
        assert_eq!(g, vec![4.0, 2.0, 1.0, 3.0]);
        let mut out = [0.0f64; 4];
        scatter(&mut tr, &g, &idx, &mut out);
        assert_eq!(out, src);
        assert!(gather(&mut tr, &src, &[]).is_empty());
    }

    #[test]
    fn sort_then_reduce_by_key_segments() {
        let mut tr = DppTrace::new();
        let mut pairs = [(5u64, 2u32), (3, 7), (5, 1), (3, 4), (9, 0)];
        sort_by_key(&mut tr, &mut pairs);
        assert_eq!(pairs, [(3, 4), (3, 7), (5, 1), (5, 2), (9, 0)]);
        let uniq = reduce_by_key(&mut tr, &pairs, |a, b| a.min(b));
        assert_eq!(uniq, vec![(3, 4), (5, 1), (9, 0)]);
        // Empty and single-element inputs.
        assert!(reduce_by_key(&mut tr, &[] as &[(u64, u32)], |a, _| a).is_empty());
        assert_eq!(reduce_by_key(&mut tr, &[(1, 8)], |a, _| a), vec![(1, 8)]);
    }

    #[test]
    fn trace_reports_only_active_ops_in_canonical_order() {
        let mut tr = DppTrace::new();
        let _ = inclusive_scan(&mut tr, &[1]);
        let _ = map(&mut tr, &[1u8], |&x| x);
        let r = tr.reports();
        // Map precedes InclusiveScan regardless of call order.
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].op, PrimitiveOp::Map);
        assert_eq!(r[1].op, PrimitiveOp::InclusiveScan);
        let k = tr.kernel_reports();
        assert_eq!(k.len(), 2);
        assert_eq!(k[0].name, "dpp-map");
        assert!(k.iter().all(|kr| kr.work.items > 0));
    }

    #[test]
    fn flops_land_on_the_recorded_op() {
        let mut tr = DppTrace::new();
        let _ = map(&mut tr, &[1.0f64], |&x| x * 2.0);
        tr.record_flops(PrimitiveOp::Map, 17);
        assert_eq!(tr.reports()[0].counters.flops, 17);
    }
}
