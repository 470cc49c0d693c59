//! Marching cubes re-expressed over the primitive vocabulary: the
//! classify → count → scan → compact → generate → sort/reduce weld
//! pipeline of Bethel et al. (arXiv:2010.02361) / VTK-m, shared by the
//! DPP contour and slice filters.
//!
//! The trace records the formulation; the host runs its selection half
//! fused. Classify → count → scan → compact is four sweeps over the
//! whole grid as primitives, and is charged as four; here it is the one
//! `contour::classify` sweep that both backends share, returning the
//! active cells with their cases — what VTK-m's `ClassifyCell` worklet
//! and `ScatterCounting` do inside one dispatch. The host's time is
//! what `benchmarks/` measures; the modeled traffic is what the power
//! study needs to stay the formulation's.
//!
//! The weld is engineered to be **bit-identical** to the traditional
//! first-sight hash weld in [`crate::contour::marching_cubes`]: corner
//! emissions are flattened in the traditional raster order, pairs
//! `(edge key, emission index)` are tuple-sorted so each key segment's
//! minimum payload is its *first* emission, and distinct keys are then
//! ranked by that first-emission index — reproducing the traditional
//! id assignment (and first-sight interpolated position) exactly.

use super::primitives::{self, DppTrace, PrimitiveOp};
use crate::contour::{classify, emit_case, triangle_table};
use vizmesh::{par, CellSet, CellShape, UniformGrid, Vec3};

/// Fewest triangles worth a `par` chunk of the generate walk: each is
/// three edge interpolations and a case-table read, a few dozen times
/// the work of one element of a primitive's sweep.
const GENERATE_MIN_LEN: usize = 1024;

/// Geometry of one DPP marching-cubes pass (work lives in the trace).
pub(crate) struct DppMcOutput {
    pub(crate) points: Vec<Vec3>,
    pub(crate) triangles: CellSet,
    /// Interpolated secondary values (the isovalue, as in the
    /// traditional formulation).
    pub(crate) point_values: Vec<f64>,
}

/// Run the DPP marching-cubes pipeline over a point-centered scalar.
pub(crate) fn dpp_marching_cubes(
    trace: &mut DppTrace,
    grid: &UniformGrid,
    values: &[f64],
    isovalue: f64,
) -> DppMcOutput {
    assert_eq!(
        values.len(),
        grid.num_points(),
        "marching cubes needs a point-centered scalar"
    );
    let table = triangle_table();
    let n = grid.num_cells() as u64;

    // 1–4. Selection, fused (module header), charged as the classify
    // `map` (8 corner loads + compares per cell), tri-count `map`,
    // `inclusive_scan`, active-flag `map` and `compact_indices`.
    let active = classify(grid, values, isovalue);
    trace.record(PrimitiveOp::Map, n, (64 + 32) * n, n);
    trace.record_flops(PrimitiveOp::Map, 8 * n);
    trace.record(PrimitiveOp::Map, n, n, 4 * n);
    trace.record(PrimitiveOp::InclusiveScan, n, 4 * n, 4 * n);
    trace.record(PrimitiveOp::Map, n, 4 * n, n);
    trace.record(PrimitiveOp::Compact, n, n, 4 * active.len() as u64);
    // `first_tri[a]` is active cell `a`'s first triangle; the last entry
    // is the total, which sizes every downstream array exactly.
    let mut first_tri = Vec::with_capacity(active.len() + 1);
    let mut total = 0;
    first_tri.push(total);
    for &(_, case) in &active {
        total += table[case as usize].len();
        first_tri.push(total);
    }

    // 5. generate: each active cell interpolates its case's corner
    // positions and edge keys (the traditional per-case emission)
    // straight into its scan-offset slots, each key paired with its
    // emission index — a map worklet with a counting scatter for its
    // output. Chunks of triangles run on `par`; a chunk starts at the
    // active cell holding its first triangle, part-way into that cell's
    // case when the cut falls inside it.
    let mut pairs: Vec<[(u64, u32); 3]> = vec![[(0, 0); 3]; total];
    let mut pos: Vec<[Vec3; 3]> = vec![[Vec3::ZERO; 3]; total];
    par::for_each_chunk_zip(
        (&mut pairs[..], &mut pos[..]),
        GENERATE_MIN_LEN,
        |tris, (pairs, pos)| {
            let a = first_tri.partition_point(|&t| t <= tris.start) - 1;
            let cells = grid.cells(active[a..].iter().map(|&(id, _)| id as usize));
            let mut t = tris.start;
            for (cell, (&(_, case), &first)) in cells.zip(active[a..].iter().zip(&first_tri[a..])) {
                if t == tris.end {
                    break;
                }
                let case = &table[case as usize];
                let case = &case[t - first..case.len().min(tris.end - first)];
                emit_case(values, isovalue, cell, case, |key, p| {
                    let e = 3 * t as u32;
                    pairs[t - tris.start] = [(key[0], e), (key[1], e + 1), (key[2], e + 2)];
                    pos[t - tris.start] = p;
                    t += 1;
                });
            }
        },
    );
    let (mut pairs, pos) = (pairs.into_flattened(), pos.into_flattened());
    trace.record(
        PrimitiveOp::Map,
        active.len() as u64,
        (active.len() * (64 + 32 + 8)) as u64,
        0,
    );
    // Traditional interp counts 14 flops per emitted corner.
    trace.record_flops(PrimitiveOp::Map, 14 * 3 * total as u64);
    trace.record(
        PrimitiveOp::Scatter,
        3 * total as u64,
        0,
        (3 * total * (8 + 24)) as u64,
    );

    // 6. weld: tuple-sort (key, emission index) pairs, collapse each key
    // segment to its first emission, rank distinct keys by it.
    primitives::sort_by_key(trace, &mut pairs);
    let uniq = primitives::reduce_by_key(trace, &pairs, |a: u32, b: u32| a.min(b));

    // Rank segments in first-emission order: sorting (first emission,
    // segment) tuples reproduces the traditional first-sight ids.
    let mut order: Vec<(u64, u32)> = Vec::with_capacity(uniq.len());
    for (seg, &(_, rep)) in uniq.iter().enumerate() {
        order.push((rep as u64, seg as u32));
    }
    primitives::sort_by_key(trace, &mut order);
    let ranks: Vec<u32> = primitives::map_n(trace, order.len(), 0, |r| r as u32);
    let segs: Vec<u32> = primitives::map(trace, &order, |&(_, s)| s);
    let mut rank_of_seg: Vec<u32> = vec![0; uniq.len()];
    primitives::scatter(trace, &ranks, &segs, &mut rank_of_seg);

    // Welded points: gather each ranked segment's first-emission
    // position (bit-identical to the traditional first-sight push).
    let reps: Vec<u32> = primitives::map(trace, &order, |&(rep, _)| rep as u32);
    let points: Vec<Vec3> = primitives::gather(trace, &pos, &reps);
    let point_values: Vec<f64> = primitives::map(trace, &reps, |_| isovalue);

    // Scatter each corner emission's point id back into raster order.
    let mut corner_ids: Vec<u32> = vec![0; 3 * total];
    scatter_corner_ranks(&pairs, &rank_of_seg, &mut corner_ids);
    trace.record(
        PrimitiveOp::Scatter,
        pairs.len() as u64,
        12 * pairs.len() as u64,
        4 * pairs.len() as u64,
    );

    // 7. compact: assemble triangles, dropping degenerate ones (two
    // case edges welding to the same vertex), as the traditional weld
    // does after id assignment.
    let mut cells = CellSet::with_capacity(total, 3 * total);
    for t in 0..total {
        let tri = [
            corner_ids[3 * t],
            corner_ids[3 * t + 1],
            corner_ids[3 * t + 2],
        ];
        if tri[0] != tri[1] && tri[1] != tri[2] && tri[2] != tri[0] {
            cells.push(CellShape::Triangle, &tri);
        }
    }
    trace.record(
        PrimitiveOp::Compact,
        total as u64,
        12 * total as u64,
        12 * total as u64,
    );

    DppMcOutput {
        points,
        triangles: cells,
        point_values,
    }
}

/// Scatter each sorted pair's segment rank back to its emission slot.
/// Pairs are key-sorted, so the segment index advances on key change.
fn scatter_corner_ranks(pairs: &[(u64, u32)], rank_of_seg: &[u32], corner_ids: &mut [u32]) {
    let mut seg = 0usize;
    for (j, &(k, emission)) in pairs.iter().enumerate() {
        if j > 0 && pairs[j - 1].0 != k {
            seg += 1;
        }
        corner_ids[emission as usize] = rank_of_seg[seg];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contour::marching_cubes;

    fn sphere_values(grid: &UniformGrid) -> Vec<f64> {
        let c = grid.bounds().center();
        (0..grid.num_points())
            .map(|id| grid.point_coord_id(id).distance(c))
            .collect()
    }

    /// At 10³ everything runs inline; at 32³ the two larger isovalues
    /// emit 3512 and 7880 triangles, so generate (> 2 × 1024 triangles)
    /// and the pair sort (> 2 × 4096 pairs) are cut into chunks at 4 and
    /// 16 threads, at cuts that fall inside a cell's case.
    #[test]
    fn dpp_mc_is_bit_identical_to_traditional() {
        for n in [10, 32] {
            let grid = UniformGrid::cube_cells(n);
            let values = sphere_values(&grid);
            for iso in [0.15, 0.3, 0.45] {
                let trad = marching_cubes(&grid, &values, iso);
                let mut reports = Vec::new();
                for threads in [1, 4, 16] {
                    let mut tr = DppTrace::new();
                    let dpp = par::with_threads(threads, || {
                        dpp_marching_cubes(&mut tr, &grid, &values, iso)
                    });
                    let at = format!("{n}³ iso {iso} threads {threads}");
                    assert_eq!(dpp.points.len(), trad.points.len(), "{at}");
                    for (a, b) in dpp.points.iter().zip(&trad.points) {
                        assert_eq!(a.x.to_bits(), b.x.to_bits(), "{at}");
                        assert_eq!(a.y.to_bits(), b.y.to_bits(), "{at}");
                        assert_eq!(a.z.to_bits(), b.z.to_bits(), "{at}");
                    }
                    assert_eq!(dpp.point_values, trad.point_values, "{at}");
                    assert_eq!(dpp.triangles, trad.triangles, "{at}");
                    reports.push(tr.reports());
                }
                assert!(reports.iter().all(|r| *r == reports[0]), "{n}³ {iso}");
            }
        }
    }

    #[test]
    fn dpp_mc_empty_surface_uses_no_geometry() {
        let grid = UniformGrid::cube_cells(4);
        let values = sphere_values(&grid);
        let mut tr = DppTrace::new();
        let out = dpp_marching_cubes(&mut tr, &grid, &values, 100.0);
        assert!(out.points.is_empty());
        assert_eq!(out.triangles.iter().count(), 0);
        // The classify map still ran over every cell.
        let reports = tr.reports();
        assert!(reports
            .iter()
            .any(|r| r.op == PrimitiveOp::Map && r.counters.elements >= 64));
    }
}
