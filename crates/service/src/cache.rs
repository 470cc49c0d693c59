//! Sharded, fingerprint-addressed, single-flight result cache.
//!
//! The cache maps a [`CacheKey`] to an `Arc<V>`. Its one structural
//! guarantee is **single-flight**: for any key, the compute closure runs
//! at most once no matter how many threads ask concurrently — the first
//! caller inserts an in-flight marker and computes *outside* the shard
//! lock; everyone else parks on that marker's condvar and receives the
//! same `Arc`. Shard locks are therefore only ever held for map
//! bookkeeping, never across a study execution.
//!
//! Sharding is by [`CacheKey::hash48`] modulo the shard count, so
//! unrelated keys contend on different mutexes. Outcome counters
//! (hit / miss / coalesced) are atomics updated at classification time;
//! the service reads them through [`ResultCache::stats`].
//!
//! A compute closure that panics does not wedge its key: a drop guard
//! armed around the call removes the in-flight marker and marks the
//! flight failed on unwind, and each woken waiter re-enters the lookup —
//! one of them becomes the next leader. The panic itself still reaches
//! whoever joins the leader's thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::key::CacheKey;

/// How a request resolved against the cache, decided at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The key was already resident (computed by an earlier batch).
    Hit,
    /// First sight of the key: this request pays for the compute.
    Miss,
    /// The key was already in flight (scheduled earlier in the same
    /// batch or being computed by another thread); this request rides
    /// along without scheduling new work.
    Coalesced,
}

impl Outcome {
    /// Journal spelling of the outcome.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Coalesced => "coalesced",
        }
    }
}

/// Counter snapshot: outcomes observed since the cache was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from a resident entry.
    pub hits: u64,
    /// Requests that computed a new entry.
    pub misses: u64,
    /// Requests coalesced onto an in-flight compute.
    pub coalesced: u64,
}

/// A published-or-pending cache slot.
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
struct LeaderGuard<'a, V> {
    cache: &'a ResultCache<V>,
    key: CacheKey,
    flight: &'a Arc<Flight<V>>,
    published: bool,
}

impl<V> Drop for LeaderGuard<'_, V> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Runs during an unwind, so it must not panic: a poisoned lock is
        // entered anyway (both maps stay valid at every step).
        let mut shard =
            (self.cache.shard(&self.key).lock()).unwrap_or_else(PoisonError::into_inner);
        if matches!(shard.get(&self.key), Some(Slot::InFlight(f)) if Arc::ptr_eq(f, self.flight)) {
            shard.remove(&self.key);
        }
        drop(shard);
        *(self.flight.state.lock()).unwrap_or_else(PoisonError::into_inner) = FlightState::Failed;
        self.flight.settled.notify_all();
    }
}

/// The sharded single-flight cache. See the module docs for the
/// concurrency contract.
pub struct ResultCache<V> {
    shards: Vec<Mutex<HashMap<CacheKey, Slot<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl<V> std::fmt::Debug for ResultCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V> ResultCache<V> {
    /// A cache with `shards` independent lock domains (minimum 1).
    pub fn new(shards: usize) -> ResultCache<V> {
        let shards = shards.max(1);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Slot<V>>> {
        &self.shards[key.shard(self.shards.len())]
    }

    /// The value for `key`, computing it with `f` if absent. Exactly one
    /// concurrent caller per key runs `f`; the rest block until the
    /// value is published and share the same `Arc`. If the running `f`
    /// panics, the waiters retry and one of them runs its own `f`.
    pub fn get_or_compute<F>(&self, key: CacheKey, f: F) -> Arc<V>
    where
        F: FnOnce() -> V,
    {
        loop {
            let flight = {
                let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
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
                            cache: self,
                            key,
                            flight: &flight,
                            published: false,
                        };
                        let value = Arc::new(f());
                        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
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

    /// The resident value for `key`, if already published.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<V>> {
        let shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.get(key) {
            Some(Slot::Ready(v)) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Whether `key` is resident (published, not merely in flight).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.get(key).is_some()
    }

    /// Remove the resident entry for `key`, returning whether one was
    /// dropped. In-flight slots are never removed — the flight owns its
    /// slot until it publishes, so a concurrent compute can't be orphaned.
    /// Outcome counters are untouched: eviction is a capacity decision,
    /// not a request outcome (the service journals it separately).
    pub fn remove(&self, key: &CacheKey) -> bool {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.get(key) {
            Some(Slot::Ready(_)) => {
                shard.remove(key);
                true
            }
            _ => false,
        }
    }

    /// Resident entry count across all shards (in-flight slots included).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether no key has ever been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the outcome counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::Watts;
    use std::sync::atomic::AtomicUsize;
    use vizalgo::{Algorithm, Backend};

    fn key(data_fp: u64) -> CacheKey {
        CacheKey::new(
            &Algorithm::Slice.default_spec(),
            data_fp,
            Watts(100.0),
            Backend::Traditional,
        )
    }

    #[test]
    fn second_lookup_is_a_hit_sharing_the_allocation() {
        let cache: ResultCache<String> = ResultCache::new(4);
        let a = cache.get_or_compute(key(1), || "built".to_string());
        let b = cache.get_or_compute(key(1), unreachable_value);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                coalesced: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    fn unreachable_value() -> String {
        panic!("compute must not rerun for a resident key")
    }

    #[test]
    fn distinct_keys_occupy_distinct_slots() {
        let cache: ResultCache<u64> = ResultCache::new(2);
        for fp in 0..16 {
            cache.get_or_compute(key(fp), || fp * 10);
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.stats().misses, 16);
        assert_eq!(*cache.get(&key(7)).expect("resident"), 70);
        assert!(!cache.contains(&key(99)));
    }

    #[test]
    fn concurrent_same_key_computes_exactly_once() {
        let cache: ResultCache<usize> = ResultCache::new(8);
        let computes = AtomicUsize::new(0);
        let results: Vec<Arc<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(|| {
                        cache.get_or_compute(key(42), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so later arrivals
                            // coalesce instead of missing the flight.
                            std::thread::sleep(std::time::Duration::from_millis(20));
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
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 15);
    }

    #[test]
    fn a_panicking_leader_fails_its_flight_instead_of_wedging_the_key() {
        // (callers, how many successive leaders panic)
        for (callers, failing_leaders) in [(1usize, 1usize), (4, 1), (16, 3)] {
            let cache: ResultCache<usize> = ResultCache::new(4);
            let computes = AtomicUsize::new(0);
            let outcomes: Vec<std::thread::Result<Arc<usize>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..callers)
                    .map(|_| {
                        scope.spawn(|| {
                            cache.get_or_compute(key(42), || {
                                let nth = computes.fetch_add(1, Ordering::SeqCst);
                                if nth == 0 {
                                    // Hold the flight until every other
                                    // caller has joined it.
                                    while cache.stats().coalesced < callers as u64 - 1 {
                                        std::thread::yield_now();
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
            assert_eq!(cache.len(), usize::from(!survivors.is_empty()));
            assert_eq!(*cache.get_or_compute(key(42), || 7), 7);
            assert_eq!(cache.len(), 1);
        }
    }

    #[test]
    fn remove_drops_resident_entries_only() {
        let cache: ResultCache<u64> = ResultCache::new(2);
        cache.get_or_compute(key(1), || 10);
        cache.get_or_compute(key(2), || 20);
        assert!(cache.remove(&key(1)), "resident entry drops");
        assert!(!cache.remove(&key(1)), "second remove is a no-op");
        assert!(!cache.remove(&key(9)), "absent key is a no-op");
        assert!(!cache.contains(&key(1)));
        assert_eq!(cache.len(), 1);
        // A removed key recomputes (and the stats see a fresh miss).
        let v = cache.get_or_compute(key(1), || 11);
        assert_eq!(*v, 11);
        assert_eq!(cache.stats().misses, 3);
    }
}
