//! The thread-safe dataset store: the dataset half of the
//! [`StudyContext`](crate::study::StudyContext) cache, extracted so the
//! study service (`crates/service`) can share hydro solves and
//! upsampled grids across worker threads.
//!
//! `StudyContext` is single-threaded by construction (`&mut self`
//! everywhere, one owned journal); the service's worker pool is not.
//! This store keeps the exact caching discipline the context always had
//! — the hydro base solve is computed once per `min(size, 64)` and
//! every size above [`HYDRO_BASE_MAX`]
//! upsamples from it; hits hand back another [`Arc`] handle, never a
//! deep clone — behind interior mutability, and adds a cached 48-bit
//! content fingerprint ([`vizalgo::dataset_fingerprint`]) per size, the
//! `data_fp` component of the service's cache key.
//!
//! Builds are single-flight: the size map's lock is held across the
//! build, so concurrent requests for the same (or any) size serialize
//! onto one solve instead of duplicating it. That is the same trade the
//! service's result cache makes — bounded redundant work beats bounded
//! extra latency here, because a duplicated 64³ hydro solve costs far
//! more than any wait.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cloverleaf::{Problem, SimConfig, Simulation};
use powersim::trace::{Journal, Scope};
use vizmesh::DataSet;

use crate::study::{upsample, HYDRO_BASE_MAX, HYDRO_T_END};

/// Keyed maps of shared dataset handles plus their content
/// fingerprints. See the module docs for the caching discipline.
#[derive(Debug, Default)]
pub struct DatasetStore {
    /// Hydro base solves, keyed by `min(size, HYDRO_BASE_MAX)`.
    base: Mutex<BTreeMap<usize, Arc<DataSet>>>,
    /// Study datasets at full size (the base itself, or its upsample).
    full: Mutex<BTreeMap<usize, Arc<DataSet>>>,
    /// 48-bit dataset fingerprints, keyed by size.
    fingerprints: Mutex<BTreeMap<usize, u64>>,
}

impl DatasetStore {
    /// An empty store.
    pub fn new() -> DatasetStore {
        DatasetStore::default()
    }

    /// Dataset at `size`, computed once; the hydro base is shared, and
    /// a hit returns another handle to the cached allocation.
    pub fn dataset(&self, size: usize) -> Arc<DataSet> {
        self.dataset_journaled(size, &mut Journal::off())
    }

    /// [`dataset`](DatasetStore::dataset), journaling a fresh base
    /// solve the way `StudyContext` always has: per-timestep
    /// [`Scope::Timestep`] spans from the hydro driver plus one
    /// `dataset:{base_n}` [`Scope::Study`] span. Cache hits emit
    /// nothing, so journal bytes are unchanged by the extraction.
    pub fn dataset_journaled(&self, size: usize, journal: &mut Journal) -> Arc<DataSet> {
        let mut full = self.full.lock().expect("dataset store poisoned");
        if let Some(ds) = full.get(&size) {
            return Arc::clone(ds);
        }
        let base_n = size.min(HYDRO_BASE_MAX);
        let base = {
            let mut bases = self.base.lock().expect("dataset store poisoned");
            if let Some(base) = bases.get(&base_n) {
                Arc::clone(base)
            } else {
                let base = Arc::new(solve_base(base_n, journal));
                bases.insert(base_n, Arc::clone(&base));
                base
            }
        };
        let ds = if base_n == size {
            base
        } else {
            Arc::new(upsample(&base, size))
        };
        full.insert(size, Arc::clone(&ds));
        ds
    }

    /// 48-bit content fingerprint of the dataset at `size`
    /// ([`vizalgo::dataset_fingerprint`]), computed once per size —
    /// the `data_fp` component of the service cache key.
    pub fn fingerprint(&self, size: usize) -> u64 {
        if let Some(&fp) = self
            .fingerprints
            .lock()
            .expect("dataset store poisoned")
            .get(&size)
        {
            return fp;
        }
        let ds = self.dataset(size);
        let fp = vizalgo::dataset_fingerprint(&ds);
        self.fingerprints
            .lock()
            .expect("dataset store poisoned")
            .insert(size, fp);
        fp
    }

    /// Number of distinct full-size datasets built so far.
    pub fn len(&self) -> usize {
        self.full.lock().expect("dataset store poisoned").len()
    }

    /// Whether no dataset has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The **one** construction site for study hydro bases: solve the
/// TwoState problem at `base_n` to [`HYDRO_T_END`], journaling
/// per-timestep [`Scope::Timestep`] spans plus one `dataset:{base_n}`
/// [`Scope::Study`] span when the journal is live. Both the store above
/// and the free [`crate::study::dataset_for`] (which passes
/// [`Journal::off`]) build through here, so the solve loop and its
/// journal shape cannot drift apart.
pub(crate) fn solve_base(base_n: usize, journal: &mut Journal) -> DataSet {
    let t0 = journal.now();
    let mut sim = Simulation::new(Problem::TwoState, base_n, SimConfig::default());
    while sim.time() < HYDRO_T_END {
        sim.step_journaled(journal);
    }
    if journal.is_enabled() {
        journal.push_span(
            Scope::Study,
            format!("dataset:{base_n}"),
            t0,
            None,
            vec![
                ("cells", (base_n * base_n * base_n) as f64),
                ("steps", sim.step_count() as f64),
            ],
        );
    }
    sim.dataset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn hits_share_allocations_and_bases_are_reused() {
        let store = DatasetStore::new();
        let a = store.dataset(8);
        let b = store.dataset(8);
        assert!(Arc::ptr_eq(&a, &b), "cache hit must share the allocation");
        assert_eq!(store.len(), 1);
        store.dataset(10);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn fingerprints_are_cached_and_size_distinct() {
        let store = DatasetStore::new();
        let f8 = store.fingerprint(8);
        assert_eq!(f8, store.fingerprint(8));
        assert_ne!(f8, store.fingerprint(10), "sizes fingerprint differently");
        assert_eq!(
            f8,
            vizalgo::dataset_fingerprint(&store.dataset(8)),
            "cached fingerprint matches a fresh computation"
        );
    }

    #[test]
    fn concurrent_requests_converge_on_one_build() {
        let store = Arc::new(DatasetStore::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                thread::spawn(move || store.dataset(9))
            })
            .collect();
        let datasets: Vec<Arc<DataSet>> = handles
            .into_iter()
            .map(|h| h.join().expect("builder thread panicked"))
            .collect();
        for ds in &datasets[1..] {
            assert!(
                Arc::ptr_eq(&datasets[0], ds),
                "all threads must share one build"
            );
        }
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn matches_the_free_function() {
        let store = DatasetStore::new();
        let from_store = store.dataset(6);
        let direct = crate::study::dataset_for(6);
        assert_eq!(
            vizalgo::dataset_fingerprint(&from_store),
            vizalgo::dataset_fingerprint(&direct),
            "store and dataset_for agree bit-for-bit"
        );
    }
}
