//! The workspace's one single-flight memo, and the dataset store built
//! on it.
//!
//! [`Memo`] maps a key to an `Arc<V>` with one structural guarantee:
//! for any key the compute closure runs to completion at most once no
//! matter how many threads ask concurrently. Each key owns a cell — an
//! `Arc<OnceLock<Arc<V>>>` — that a caller clones out of its shard's map
//! and initialises *outside* the shard lock; [`OnceLock`] is the
//! rendezvous: one caller runs its closure, the rest block in
//! `get_or_init` and receive the same `Arc`. Shard locks are held for
//! the map lookup only, so a compute may itself ask the memo for a
//! different key, and a compute that panics does not wedge its key: the
//! cell stays empty, a blocked caller runs its own closure next (the
//! panic still reaches whoever joins the panicking thread).
//!
//! It is used only where two threads can really ask for the same key:
//! [`DatasetStore`] below (datasets and their fingerprints by size,
//! shared by the service's workers) and `service::Engine`'s native runs.
//! Exclusive owners — `StudyContext::runs`, the service's dispatch-owned
//! result map — hold plain maps.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cloverleaf::{Problem, SimConfig, Simulation};
use powersim::trace::{Journal, Scope};
use vizmesh::DataSet;

use crate::study::{upsample, HYDRO_BASE_MAX, HYDRO_T_END};

/// One key's value, empty until a compute for the key has returned.
type Cell<V> = Arc<OnceLock<Arc<V>>>;

/// The sharded single-flight memo. See the module docs for the
/// concurrency contract.
pub struct Memo<K, V> {
    shards: Vec<Mutex<HashMap<K, Cell<V>>>>,
    computes: AtomicU64,
}

/// Concise on purpose: never walks the values (a dataset is megabytes).
impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl<K, V> Memo<K, V> {
    /// A memo with `shards` independent lock domains (minimum 1).
    pub fn new(shards: usize) -> Memo<K, V> {
        Memo {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            computes: AtomicU64::new(0),
        }
    }

    /// Resident values across all shards (empty cells not counted).
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("memo shard poisoned");
                shard.values().filter(|c| c.get().is_some()).count()
            })
            .sum()
    }

    /// How many compute closures have run since the memo was built.
    #[cfg(test)]
    pub(crate) fn computes(&self) -> u64 {
        self.computes.load(Ordering::Relaxed)
    }
}

impl<K: Eq + Hash, V> Memo<K, V> {
    /// Which shard a key lands on is unobservable; any fixed hash does.
    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Cell<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// The value for `key`, computing it with `f` if absent. Exactly one
    /// concurrent caller per key runs `f`; the rest block until it
    /// returns and share the same `Arc`. If the running `f` panics, one
    /// of the blocked callers runs its own `f`.
    pub fn get_or_compute<F>(&self, key: K, f: F) -> Arc<V>
    where
        F: FnOnce() -> V,
    {
        let cell = {
            let mut shard = self.shard(&key).lock().expect("memo shard poisoned");
            Arc::clone(shard.entry(key).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            self.computes.fetch_add(1, Ordering::Relaxed);
            Arc::new(f())
        }))
    }

    /// Whether `key` is resident (computed, not merely being computed).
    pub fn contains(&self, key: &K) -> bool {
        let shard = self.shard(key).lock().expect("memo shard poisoned");
        shard.get(key).is_some_and(|cell| cell.get().is_some())
    }
}

/// Study datasets and their content fingerprints by size, each built
/// once and handed out as the same [`Arc`] to every thread that asks.
/// The hydro solve runs at most at `HYDRO_BASE_MAX`; a larger size
/// upsamples `dataset(HYDRO_BASE_MAX)`, itself an entry of the memo.
#[derive(Debug)]
pub struct DatasetStore {
    datasets: Memo<usize, DataSet>,
    fingerprints: Memo<usize, u64>,
}

impl Default for DatasetStore {
    fn default() -> DatasetStore {
        DatasetStore::new()
    }
}

impl DatasetStore {
    /// An empty store.
    pub fn new() -> DatasetStore {
        DatasetStore {
            datasets: Memo::new(1),
            fingerprints: Memo::new(1),
        }
    }

    /// Dataset at `size`, computed once; a hit returns another handle
    /// to the cached allocation.
    pub fn dataset(&self, size: usize) -> Arc<DataSet> {
        self.dataset_journaled(size, &mut Journal::off())
    }

    /// [`dataset`](DatasetStore::dataset), journaling a fresh base
    /// solve: per-timestep [`Scope::Timestep`] spans from the hydro
    /// driver plus one `dataset:{n}` [`Scope::Study`] span. Hits (and
    /// callers that waited on another thread's build) emit nothing.
    pub(crate) fn dataset_journaled(&self, size: usize, journal: &mut Journal) -> Arc<DataSet> {
        self.datasets.get_or_compute(size, || {
            if size <= HYDRO_BASE_MAX {
                solve_base(size, journal)
            } else {
                upsample(&self.dataset_journaled(HYDRO_BASE_MAX, journal), size)
            }
        })
    }

    /// 48-bit content fingerprint of the dataset at `size`
    /// ([`vizalgo::dataset_fingerprint`]), computed once per size —
    /// the `data_fp` component of the service cache key.
    pub fn fingerprint(&self, size: usize) -> u64 {
        *self
            .fingerprints
            .get_or_compute(size, || vizalgo::dataset_fingerprint(&self.dataset(size)))
    }
}

/// The **one** construction site for study hydro bases: solve the
/// TwoState problem at `base_n` to [`HYDRO_T_END`], journaling
/// per-timestep [`Scope::Timestep`] spans plus one `dataset:{base_n}`
/// [`Scope::Study`] span when the journal is live.
fn solve_base(base_n: usize, journal: &mut Journal) -> DataSet {
    let t0 = journal.now();
    let mut sim = Simulation::new(Problem::TwoState, base_n, SimConfig::default());
    while sim.time() < HYDRO_T_END {
        sim.step_phases(&mut |_, _| {}, journal);
    }
    journal.push_span(Scope::Study, t0, None, || {
        let args = vec![
            ("cells", (base_n * base_n * base_n) as f64),
            ("steps", sim.step_count() as f64),
        ];
        (format!("dataset:{base_n}"), args)
    });
    sim.dataset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread;

    impl DatasetStore {
        /// Distinct datasets built so far.
        fn len(&self) -> usize {
            self.datasets.len()
        }
    }

    fn unreachable_value() -> String {
        panic!("compute must not rerun for a resident key")
    }

    #[test]
    fn second_lookup_is_a_hit_sharing_the_allocation() {
        let memo: Memo<u64, String> = Memo::new(4);
        let a = memo.get_or_compute(1, || "built".to_string());
        let b = memo.get_or_compute(1, unreachable_value);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((memo.computes(), memo.len()), (1, 1));
    }

    #[test]
    fn distinct_keys_occupy_distinct_slots() {
        let memo: Memo<u64, u64> = Memo::new(2);
        for key in 0..16 {
            memo.get_or_compute(key, || key * 10);
        }
        assert_eq!(memo.len(), 16);
        assert_eq!(memo.computes(), 16);
        assert!(memo.contains(&7));
        assert_eq!(*memo.get_or_compute(7, || unreachable!("resident")), 70);
        assert!(!memo.contains(&99));
    }

    #[test]
    fn concurrent_same_key_computes_exactly_once() {
        let memo: Memo<u64, usize> = Memo::new(8);
        let computes = AtomicUsize::new(0);
        let start = Barrier::new(16);
        let results: Vec<Arc<usize>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.get_or_compute(42, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            7usize
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single flight");
        for r in &results {
            assert!(Arc::ptr_eq(r, &results[0]));
        }
        assert_eq!(memo.computes(), 1);
    }

    #[test]
    fn a_panicking_leader_fails_its_flight_instead_of_wedging_the_key() {
        // (callers, how many successive leaders panic)
        for (callers, failing_leaders) in [(1usize, 1usize), (4, 1), (16, 3)] {
            let memo: Memo<u64, usize> = Memo::new(4);
            let computes = AtomicUsize::new(0);
            let arrived = AtomicUsize::new(0);
            let outcomes: Vec<thread::Result<Arc<usize>>> = thread::scope(|scope| {
                let handles: Vec<_> = (0..callers)
                    .map(|_| {
                        scope.spawn(|| {
                            arrived.fetch_add(1, Ordering::SeqCst);
                            memo.get_or_compute(42, || {
                                let nth = computes.fetch_add(1, Ordering::SeqCst);
                                if nth == 0 {
                                    // Hold the cell until every other
                                    // caller is on its way in.
                                    while arrived.load(Ordering::SeqCst) < callers {
                                        thread::yield_now();
                                    }
                                }
                                assert!(nth >= failing_leaders, "leader {nth} dies mid-compute");
                                7usize
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            let survivors: Vec<&Arc<usize>> = outcomes.iter().flatten().collect();
            assert_eq!(
                survivors.len(),
                callers - failing_leaders.min(callers),
                "every caller but the panicking leaders returns ({callers} callers)"
            );
            assert!(survivors.iter().all(|v| ***v == 7));
            assert!(survivors.iter().all(|v| Arc::ptr_eq(v, survivors[0])));
            // The key is resident only if someone succeeded, and computes
            // afterwards either way.
            assert_eq!(memo.len(), usize::from(!survivors.is_empty()));
            assert_eq!(*memo.get_or_compute(42, || 7), 7);
            assert_eq!(memo.len(), 1);
        }
    }

    #[test]
    fn a_leader_may_ask_the_same_shard_for_another_key() {
        // The 128³ → 64³ recursion of `dataset_journaled`, on one shard.
        let memo: Memo<u64, u64> = Memo::new(1);
        let outer = memo.get_or_compute(128, || *memo.get_or_compute(64, || 8) * 2);
        assert_eq!((*outer, memo.len()), (16, 2));
        assert!(memo.contains(&64));
    }

    #[test]
    fn hits_share_allocations_and_bases_are_reused() {
        let store = DatasetStore::new();
        let a = store.dataset(8);
        let b = store.dataset(8);
        assert!(Arc::ptr_eq(&a, &b), "cache hit must share the allocation");
        assert_eq!(store.len(), 1);
        // `{:?}` of a store (and of the engine and service that hold
        // one) must never walk the fields value by value.
        let rendered = format!("{store:?}");
        assert!(rendered.len() < 200, "{rendered}");
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
        assert_eq!(store.fingerprints.computes(), 2);
    }

    #[test]
    fn concurrent_requests_converge_on_one_build() {
        // Four threads per size, released together: two builds in all,
        // and every thread of a size holds the same allocation.
        let store = DatasetStore::new();
        let start = Barrier::new(8);
        let datasets: Vec<Arc<DataSet>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        start.wait();
                        store.dataset(9 + i % 2)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("builder thread panicked"))
                .collect()
        });
        for (i, ds) in datasets.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&datasets[i % 2], ds),
                "all threads of a size must share one build"
            );
        }
        assert!(!Arc::ptr_eq(&datasets[0], &datasets[1]));
        assert_eq!(store.datasets.computes(), 2, "exactly two builds");
        assert_eq!(store.len(), 2);
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

    /// The journal bytes of `dataset_journaled(80)` at the commit before
    /// the store moved onto `Memo`: 174 timestep spans and one
    /// `dataset:64` span from the shared base, nothing for the upsample
    /// and nothing on a hit.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a 64³ hydro solve takes two minutes unoptimized; runs under `cargo test --release`"
    )]
    fn an_upsampled_size_journals_its_base_solve_once() {
        let store = DatasetStore::new();
        let mut journal = Journal::with_capacity(1 << 16);
        store.dataset_journaled(80, &mut journal);
        let first = journal.to_jsonl();
        assert_eq!(first.lines().count(), 175);
        assert_eq!(first.matches("\"dataset:64\"").count(), 1);
        assert_eq!(vizalgo::fingerprint48(first.as_bytes()), 0xe772_ffc1_9a95);
        store.dataset_journaled(80, &mut journal);
        store.dataset_journaled(64, &mut journal);
        assert_eq!(journal.to_jsonl(), first, "hits emit nothing");
    }
}
