//! The workspace's one single-flight memo, and the dataset store built
//! on it.
//!
//! [`Memo`] maps a key to an `Arc<V>` with one structural guarantee:
//! for any key the compute closure runs at most once no matter how many
//! threads ask concurrently. The first caller inserts an in-flight
//! marker and computes *outside* the shard lock; everyone else parks on
//! that marker's condvar and receives the same `Arc`. Shard locks are
//! held for map bookkeeping only, so a leader may itself ask the memo
//! for a different key, and a compute that panics does not wedge its
//! key: a drop guard fails the flight on unwind and a woken waiter
//! becomes the next leader (the panic still reaches whoever joins the
//! leader's thread).
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
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use cloverleaf::{Problem, SimConfig, Simulation};
use powersim::trace::{Journal, Scope};
use vizmesh::DataSet;

use crate::study::{upsample, HYDRO_BASE_MAX, HYDRO_T_END};

/// Counter snapshot: how lookups resolved since the memo was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that computed a new entry.
    pub misses: u64,
    /// Lookups that waited on another thread's in-flight compute.
    pub coalesced: u64,
}

/// A published-or-pending slot.
enum Slot<V> {
    Ready(Arc<V>),
    InFlight(Arc<Flight<V>>),
}

/// Rendezvous for threads waiting on an in-flight compute.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    settled: Condvar,
}

enum FlightState<V> {
    Pending,
    Ready(Arc<V>),
    /// The leader unwound without a value; waiters look the key up again.
    Failed,
}

/// Armed while the leader computes: if the compute unwinds, take the
/// in-flight marker back out of the shard and fail the flight, so no
/// waiter blocks on a value that will never come.
struct LeaderGuard<'a, K: Copy + Eq + Hash, V> {
    memo: &'a Memo<K, V>,
    key: K,
    flight: &'a Arc<Flight<V>>,
    published: bool,
}

impl<K: Copy + Eq + Hash, V> Drop for LeaderGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Runs during an unwind, so it must not panic: a poisoned lock is
        // entered anyway (both maps stay valid at every step).
        let mut shard = (self.memo.shard(&self.key).lock()).unwrap_or_else(PoisonError::into_inner);
        if matches!(shard.get(&self.key), Some(Slot::InFlight(f)) if Arc::ptr_eq(f, self.flight)) {
            shard.remove(&self.key);
        }
        drop(shard);
        *(self.flight.state.lock()).unwrap_or_else(PoisonError::into_inner) = FlightState::Failed;
        self.flight.settled.notify_all();
    }
}

/// The sharded single-flight memo. See the module docs for the
/// concurrency contract.
pub struct Memo<K, V> {
    shards: Vec<Mutex<HashMap<K, Slot<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
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
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Entry count across all shards (in-flight slots included).
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// Snapshot of the outcome counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

impl<K: Copy + Eq + Hash, V> Memo<K, V> {
    /// Which shard a key lands on is unobservable; any fixed hash does.
    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Slot<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// The value for `key`, computing it with `f` if absent. Exactly one
    /// concurrent caller per key runs `f`; the rest block until the
    /// value is published and share the same `Arc`. If the running `f`
    /// panics, the waiters retry and one of them runs its own `f`.
    pub fn get_or_compute<F>(&self, key: K, f: F) -> Arc<V>
    where
        F: FnOnce() -> V,
    {
        loop {
            let flight = {
                let mut shard = self.shard(&key).lock().expect("memo shard poisoned");
                match shard.get(&key) {
                    Some(Slot::Ready(v)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(v);
                    }
                    Some(Slot::InFlight(flight)) => {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        Arc::clone(flight)
                    }
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            settled: Condvar::new(),
                        });
                        shard.insert(key, Slot::InFlight(Arc::clone(&flight)));
                        // Compute outside the shard lock, publish, wake waiters.
                        drop(shard);
                        let mut guard = LeaderGuard {
                            memo: self,
                            key,
                            flight: &flight,
                            published: false,
                        };
                        let value = Arc::new(f());
                        let mut shard = self.shard(&key).lock().expect("memo shard poisoned");
                        shard.insert(key, Slot::Ready(Arc::clone(&value)));
                        drop(shard);
                        *flight.state.lock().expect("flight state poisoned") =
                            FlightState::Ready(Arc::clone(&value));
                        guard.published = true;
                        flight.settled.notify_all();
                        return value;
                    }
                }
            };
            let mut state = flight.state.lock().expect("flight state poisoned");
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = flight.settled.wait(state).expect("flight state poisoned");
                    }
                    FlightState::Ready(value) => return Arc::clone(value),
                    FlightState::Failed => break,
                }
            }
        }
    }

    /// Whether `key` is resident (published, not merely in flight).
    pub fn contains(&self, key: &K) -> bool {
        let shard = self.shard(key).lock().expect("memo shard poisoned");
        matches!(shard.get(key), Some(Slot::Ready(_)))
    }
}

/// Study datasets and their content fingerprints by size, each built
/// once and handed out as the same [`Arc`] to every thread that asks.
/// The hydro solve runs at most at [`HYDRO_BASE_MAX`]; a larger size
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
    pub fn dataset_journaled(&self, size: usize, journal: &mut Journal) -> Arc<DataSet> {
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread;

    impl DatasetStore {
        /// Distinct datasets built (or being built) so far.
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
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 1,
                misses: 1,
                coalesced: 0
            }
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn distinct_keys_occupy_distinct_slots() {
        let memo: Memo<u64, u64> = Memo::new(2);
        for key in 0..16 {
            memo.get_or_compute(key, || key * 10);
        }
        assert_eq!(memo.len(), 16);
        assert_eq!(memo.stats().misses, 16);
        assert!(memo.contains(&7));
        assert_eq!(*memo.get_or_compute(7, || unreachable!("resident")), 70);
        assert!(!memo.contains(&99));
    }

    #[test]
    fn concurrent_same_key_computes_exactly_once() {
        let memo: Memo<u64, usize> = Memo::new(8);
        let computes = AtomicUsize::new(0);
        let results: Vec<Arc<usize>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(|| {
                        memo.get_or_compute(42, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so later arrivals
                            // coalesce instead of missing the flight.
                            thread::sleep(std::time::Duration::from_millis(20));
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
        let stats = memo.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 15);
    }

    #[test]
    fn a_panicking_leader_fails_its_flight_instead_of_wedging_the_key() {
        // (callers, how many successive leaders panic)
        for (callers, failing_leaders) in [(1usize, 1usize), (4, 1), (16, 3)] {
            let memo: Memo<u64, usize> = Memo::new(4);
            let computes = AtomicUsize::new(0);
            let outcomes: Vec<thread::Result<Arc<usize>>> = thread::scope(|scope| {
                let handles: Vec<_> = (0..callers)
                    .map(|_| {
                        scope.spawn(|| {
                            memo.get_or_compute(42, || {
                                let nth = computes.fetch_add(1, Ordering::SeqCst);
                                if nth == 0 {
                                    // Hold the flight until every other
                                    // caller has joined it.
                                    while memo.stats().coalesced < callers as u64 - 1 {
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
            // No in-flight slot leaked, and the key computes afterwards.
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
        assert_eq!(store.fingerprints.stats().misses, 2);
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
        assert_eq!(store.datasets.stats().misses, 2, "exactly two builds");
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
