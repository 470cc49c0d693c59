//! The row walk every grid loop of the solver is written over.
//!
//! All five index spaces (cells, nodes, x/y/z faces) are x-fastest boxes
//! `[d0, d1, d2]`, and `vizmesh::par` hands a loop body a contiguous id
//! range of one of them. [`rows`] cuts such a range into runs that stay
//! inside one x-row: the start is decoded once, every later row is a
//! carry, and inside a row the neighbours of an item are `± 1` and
//! `±` a stride away — no `%` or `/` per item.

use std::ops::Range;

/// Fewest cells, nodes or faces worth a parallel chunk: every grid loop
/// of the solver is a few dozen flops per item.
pub(crate) const MIN_LEN: usize = 4096;

/// A run of consecutive ids inside one x-row: the items `(i + n, j, k)`
/// for `n < len`. The first has id `id` and is the `at`-th of the range
/// the walk was started on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) i: usize,
    pub(crate) j: usize,
    pub(crate) k: usize,
    pub(crate) id: usize,
    pub(crate) at: usize,
    pub(crate) len: usize,
}

impl Row {
    /// This row's part of `chunk`, the items of the walked range.
    pub(crate) fn of<'a, T>(&self, chunk: &'a mut [T]) -> &'a mut [T] {
        &mut chunk[self.at..self.at + self.len]
    }
}

/// The rows covering `ids` of a `[d0, d1, _]` index space, in id order.
pub(crate) fn rows([d0, d1, _]: [usize; 3], ids: Range<usize>) -> impl Iterator<Item = Row> {
    let first = ids.start;
    let mut id = first;
    // The one decode.
    let [mut i, mut j, mut k] = [id % d0, (id / d0) % d1, id / (d0 * d1)];
    std::iter::from_fn(move || {
        if id >= ids.end {
            return None;
        }
        let len = (d0 - i).min(ids.end - id);
        let row = Row {
            i,
            j,
            k,
            id,
            at: id - first,
            len,
        };
        id += len;
        i = 0;
        j += 1;
        if j == d1 {
            j = 0;
            k += 1;
        }
        Some(row)
    })
}

/// One cell array's rows around the nodes `(·, j, k)`: the cells
/// `(·, j0 + dj, k0 + dk)`, `dj < NJ`, `dk < NK`, with `j0` and `k0` the
/// nodes' index less one (0 at the grid's low end). A node has two cell
/// layers on an axis inside the grid and one at either end:
/// [`node_layers!`] picks `NJ` and `NK` per row, [`x_runs`] `NI` per
/// node. The rows are one slice and two strides, so sweep B keeps two
/// pointers live for its two arrays instead of eight row slices.
pub(crate) struct Layers<'a, const NJ: usize, const NK: usize> {
    cells: &'a [f64],
    sy: usize,
    sz: usize,
}

impl<'a, const NJ: usize, const NK: usize> Layers<'a, NJ, NK> {
    /// `values`' rows around the nodes `(·, j, k)` of `[cx, cy, _]` cells.
    pub(crate) fn new(values: &'a [f64], [cx, cy, _]: [usize; 3], j: usize, k: usize) -> Self {
        let (sy, sz) = (cx, cx * cy);
        let first = sy * j.saturating_sub(1) + sz * k.saturating_sub(1);
        let end = first + (NJ - 1) * sy + (NK - 1) * sz + cx;
        let cells = &values[first..end];
        Layers { cells, sy, sz }
    }

    #[inline(always)]
    fn at(&self, i0: usize, [di, dj, dk]: [usize; 3]) -> f64 {
        self.cells[i0 + di + dj * self.sy + dk * self.sz]
    }

    /// The mean of the `NI × NJ × NK` cells from x index `i0` on, summed
    /// from `0.0` k outermost, i innermost.
    #[inline(always)]
    pub(crate) fn mean<const NI: usize>(&self, i0: usize) -> f64 {
        let mut sum = 0.0;
        for dk in 0..NK {
            for dj in 0..NJ {
                for di in 0..NI {
                    sum += self.at(i0, [di, dj, dk]);
                }
            }
        }
        sum / (NI * NJ * NK) as f64
    }

    /// The mean of the cells at layer `at` of `AXIS`, summed from `0.0`
    /// over the other two axes, the later one innermost.
    #[inline(always)]
    pub(crate) fn side<const NI: usize, const AXIS: usize>(&self, i0: usize, at: usize) -> f64 {
        let n = [NI, NJ, NK];
        let (a, b) = [(1, 2), (0, 2), (0, 1)][AXIS];
        let mut sum = 0.0;
        for da in 0..n[a] {
            for db in 0..n[b] {
                let mut d = [0; 3];
                (d[AXIS], d[a], d[b]) = (at, da, db);
                sum += self.at(i0, d);
            }
        }
        sum / (n[a] * n[b]) as f64
    }
}

/// `$f::<NJ, NK>($args)` for the node row `(·, $j, $k)` of `$cdims` cells.
macro_rules! node_layers {
    ($cdims:expr, $j:expr, $k:expr, $f:ident($($arg:expr),* $(,)?)) => {{
        let [_, cy, cz] = $cdims;
        match ((1..cy).contains(&$j), (1..cz).contains(&$k)) {
            (true, true) => $f::<2, 2>($($arg),*),
            (false, true) => $f::<1, 2>($($arg),*),
            (true, false) => $f::<2, 1>($($arg),*),
            (false, false) => $f::<1, 1>($($arg),*),
        }
    }};
}
pub(crate) use node_layers;

/// The row's nodes `nodes` (offsets into it), the first with its cells on
/// x from index `i0` on, two layers (`NI = 2`) or one.
pub(crate) struct XRun {
    pub(crate) nodes: Range<usize>,
    pub(crate) i0: usize,
    pub(crate) two: bool,
}

/// The runs of a row of nodes in a grid `cx` cells wide, where the row
/// has them: node 0 (one layer), the nodes `1..cx` (two), node `cx`
/// (one).
pub(crate) fn x_runs(row: Row, cx: usize) -> impl Iterator<Item = XRun> {
    let (i, end) = (row.i, row.i + row.len);
    let (lo, hi) = (i.max(1), end.min(cx));
    let run = |nodes, i0, two| XRun { nodes, i0, two };
    let first = (i == 0).then(|| run(0..1, 0, false));
    let inner = (lo < hi).then(|| run(lo - i..hi - i, lo - 1, true));
    let last = (end == cx + 1).then(|| run(row.len - 1..row.len, cx - 1, false));
    [first, inner, last].into_iter().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cut of every small box: the rows tile the range, stay inside
    /// one x-row, and carry the `(i, j, k)` a decode of each id gives.
    #[test]
    fn rows_tile_any_range_and_agree_with_the_decode() {
        for dims @ [d0, d1, d2] in [[1, 1, 1], [1, 4, 3], [5, 1, 2], [4, 3, 1], [3, 4, 5]] {
            let n = d0 * d1 * d2;
            for start in 0..=n {
                for end in start..=n {
                    let mut next = start;
                    for row in rows(dims, start..end) {
                        assert_eq!(row.id, next, "{dims:?} {start}..{end}");
                        assert_eq!(row.at, row.id - start);
                        assert!(row.len >= 1 && row.i + row.len <= d0);
                        let decoded = [row.id % d0, (row.id / d0) % d1, row.id / (d0 * d1)];
                        assert_eq!([row.i, row.j, row.k], decoded);
                        // A row ends at the range's end or the row's.
                        assert!(row.id + row.len == end || row.i + row.len == d0);
                        next += row.len;
                    }
                    assert_eq!(next, end, "{dims:?} {start}..{end}");
                }
            }
        }
    }
}
