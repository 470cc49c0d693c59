//! Time-varying data: an ordered, bounded ring of timestamped dataset
//! snapshots.
//!
//! The paper's advection workload is steady-state — one frozen velocity
//! field — but real in-situ pipelines see the simulation as a *stream*
//! of timesteps, and pathlines (particles advected through the evolving
//! field) are the paper-scale extension the ROADMAP flags. This module
//! supplies the data-layer half of that extension: [`FieldSeries`], an
//! ordered ring of `(time, Arc<DataSet>)` snapshots with a bounded
//! capacity. Pushing past capacity evicts the oldest snapshot (and
//! counts it), so a long simulation run can retain a sliding window
//! without unbounded memory. Snapshots are `Arc`-shared: a series never
//! clones field payloads, and consumers (kernels) can hold cheap
//! references.
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

    /// The `[oldest, newest]` retained times, if any.
    pub fn span(&self) -> Option<(f64, f64)> {
        Some((self.snaps.front()?.0, self.last_time()?))
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
        assert_eq!(s.span(), Some((2.0, 4.0)));
        assert_eq!(FieldSeries::with_capacity(1).span(), None);
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
}
