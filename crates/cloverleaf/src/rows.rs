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
