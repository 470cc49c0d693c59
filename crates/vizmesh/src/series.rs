//! Time-varying data: an ordered, bounded ring of timestamped dataset
//! snapshots.
//!
//! The paper's advection workload is steady-state — one frozen velocity
//! field — but real in-situ pipelines see the simulation as a *stream*
//! of timesteps, and pathlines (particles advected through the evolving
//! field) are the paper-scale extension the ROADMAP flags. This module
//! supplies the data-layer half of that extension:
//!
//! * [`FieldSeries`] — an ordered ring of `(time, Arc<DataSet>)`
//!   snapshots with a bounded capacity. Pushing past capacity evicts
//!   the oldest snapshot (and counts it), so a long simulation run can
//!   retain a sliding window without unbounded memory. Snapshots are
//!   `Arc`-shared: a series never clones field payloads, and consumers
//!   (kernels, caches) can hold cheap references.
//! * [`TimeWindow`] — a borrowed contiguous view of a series, the unit
//!   the service cache fingerprints (`data_fp` per window).
//!
//! Temporal *interpolation* lives with the consumer (the advection
//! kernel resolves per-snapshot field arrays once, then lerps between
//! bracketing snapshots), so the data layer stays free of any
//! field-name or sampling policy.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::DataSet;

/// An ordered, bounded ring of timestamped dataset snapshots.
///
/// Times are strictly increasing; capacity is at least one. When a
/// recorded snapshot would exceed capacity the oldest is evicted and
/// counted in [`FieldSeries::evicted`].
#[derive(Debug, Clone)]
pub struct FieldSeries {
    snaps: VecDeque<(f64, Arc<DataSet>)>,
    capacity: usize,
    evicted: u64,
}

impl FieldSeries {
    /// An empty series retaining at most `capacity` snapshots.
    pub fn with_capacity(capacity: usize) -> FieldSeries {
        // lint: constructor precondition, caller bug
        assert!(capacity > 0, "series capacity must be positive");
        FieldSeries {
            snaps: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
        }
    }

    /// A single-snapshot ("frozen") series at time `t = 0` — the bridge
    /// from the steady-state world: pathlines on a frozen series must
    /// reproduce streamlines exactly.
    pub fn frozen(snapshot: Arc<DataSet>) -> FieldSeries {
        let mut s = FieldSeries::with_capacity(1);
        s.record(0.0, snapshot);
        s
    }

    /// Record a snapshot at time `t` (strictly after the last) into the
    /// pre-sized ring. Returns `true` if an old snapshot was evicted to
    /// make room.
    pub fn record(&mut self, t: f64, snapshot: Arc<DataSet>) -> bool {
        if let Some(&(last, _)) = self.snaps.back() {
            // lint: monotonicity precondition, caller bug
            assert!(t > last, "snapshot times must strictly increase");
        }
        self.snaps.push_back((t, snapshot));
        if self.snaps.len() > self.capacity {
            self.snaps.pop_front();
            self.evicted += 1;
            true
        } else {
            false
        }
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether the series holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// How many snapshots have been evicted over the series' lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained snapshots, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = (f64, &Arc<DataSet>)> {
        self.snaps.iter().map(|(t, ds)| (*t, ds))
    }

    /// Snapshot `i` (0 = oldest retained), if present.
    pub fn get(&self, i: usize) -> Option<(f64, &Arc<DataSet>)> {
        self.snaps.get(i).map(|(t, ds)| (*t, ds))
    }

    /// Time of the newest retained snapshot.
    pub fn last_time(&self) -> Option<f64> {
        self.snaps.back().map(|&(t, _)| t)
    }

    /// A borrowed view of the retained snapshots whose times intersect
    /// `[t0, t1]`, widened by one snapshot on each side so interpolation
    /// at the endpoints stays in-window. Empty window on an empty
    /// series.
    pub fn window(&self, t0: f64, t1: f64) -> TimeWindow<'_> {
        if self.snaps.is_empty() {
            return TimeWindow {
                series: self,
                start: 0,
                end: 0,
            };
        }
        let n = self.snaps.len();
        let mut start = 0;
        while start + 1 < n && self.snaps[start + 1].0 <= t0 {
            start += 1;
        }
        let mut end = start;
        while end < n && self.snaps[end].0 < t1 {
            end += 1;
        }
        TimeWindow {
            series: self,
            start,
            end: end.min(n - 1) + 1,
        }
    }

    /// The whole retained span as a window.
    pub fn full_window(&self) -> TimeWindow<'_> {
        TimeWindow {
            series: self,
            start: 0,
            end: self.snaps.len(),
        }
    }
}

/// A borrowed, contiguous view of a [`FieldSeries`]: the snapshots a
/// consumer (kernel, cache key) actually touches. Indexing is relative
/// to the series' retained ring.
#[derive(Debug, Clone, Copy)]
pub struct TimeWindow<'a> {
    series: &'a FieldSeries,
    start: usize,
    end: usize,
}

impl<'a> TimeWindow<'a> {
    /// Number of snapshots in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The snapshots in view, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = (f64, &'a Arc<DataSet>)> + '_ {
        (self.start..self.end).filter_map(|i| self.series.get(i))
    }

    /// The `[first, last]` times of the view, if non-empty.
    pub fn span(&self) -> Option<(f64, f64)> {
        let first = self.series.get(self.start)?.0;
        let last = self.series.get(self.end.checked_sub(1)?)?.0;
        Some((first, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aabb, UniformGrid, Vec3};

    fn snap(scale: f64) -> Arc<DataSet> {
        let grid = UniformGrid::from_cell_dims([2, 2, 2], Aabb::new(Vec3::ZERO, Vec3::ONE));
        let n = grid.num_points();
        let values: Vec<f64> = (0..n).map(|i| i as f64 * scale).collect();
        Arc::new(DataSet::uniform(grid).with_field(crate::Field::scalar(
            "energy",
            crate::Association::Points,
            values,
        )))
    }

    #[test]
    fn ring_evicts_oldest_past_capacity() {
        let mut s = FieldSeries::with_capacity(3);
        for i in 0..5 {
            let evicted = s.record(i as f64, snap(1.0));
            assert_eq!(evicted, i >= 3, "eviction starts at the 4th push");
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        assert_eq!(s.last_time(), Some(4.0));
        let times: Vec<f64> = s.snapshots().map(|(t, _)| t).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn frozen_series_has_one_snapshot_at_time_zero() {
        let s = FieldSeries::frozen(snap(1.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.last_time(), Some(0.0));
    }

    #[test]
    fn snapshots_are_arc_shared_not_cloned() {
        let ds = snap(1.0);
        let s = FieldSeries::frozen(Arc::clone(&ds));
        let (_, held) = s.get(0).expect("non-empty");
        assert!(Arc::ptr_eq(held, &ds), "series holds the same allocation");
    }

    #[test]
    fn monotonicity_is_enforced() {
        let mut s = FieldSeries::with_capacity(4);
        s.record(1.0, snap(1.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.record(1.0, snap(2.0));
        }));
        assert!(result.is_err(), "equal time must be rejected");
    }

    #[test]
    fn window_covers_query_span_with_interpolation_margin() {
        let mut s = FieldSeries::with_capacity(8);
        for i in 0..6 {
            s.record(i as f64, snap(1.0));
        }
        let w = s.window(1.5, 3.5);
        let times: Vec<f64> = w.snapshots().map(|(t, _)| t).collect();
        assert_eq!(
            times,
            vec![1.0, 2.0, 3.0, 4.0],
            "one margin snapshot each side"
        );
        assert_eq!(w.span(), Some((1.0, 4.0)));
        let full = s.full_window();
        assert_eq!(full.len(), 6);
        assert_eq!(full.span(), Some((0.0, 5.0)));
        let empty = FieldSeries::with_capacity(1);
        assert!(empty.window(0.0, 1.0).is_empty());
        assert_eq!(empty.window(0.0, 1.0).span(), None);
    }
}
