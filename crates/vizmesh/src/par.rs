//! Deterministic fork–join over index ranges, on `std::thread::scope`.
//!
//! The kernels' data parallelism is all of one shape: compute something
//! per index (cell, point, slab, seed, image row) and keep the results
//! in index order. This module is exactly that and nothing more:
//! [`map`], [`for_each_mut`], the chunk forms they are written over
//! ([`map_chunks`] and [`for_each_chunk_zip`]: the body gets its index
//! range, and one or several mutable slices cut at the same places), and
//! [`with_threads`].
//!
//! A range is cut into contiguous chunks; the workers (the caller is one
//! of them) pull chunk indices from an atomic counter, and the results
//! are joined **in chunk order**. Every element is a function of its
//! index alone, so the output is the same bytes for every thread count.
//! There is no parallel reduce: callers fold the returned `Vec` in index
//! order, which is the only order the journal goldens were pinned under.
//!
//! `min_len` is the fewest items worth a chunk, fixed per call site:
//! thousands for per-cell and per-point loops (4096 in vizalgo's
//! `CELL_MIN_LEN` and cloverleaf's `MIN_LEN`); fewer for bigger items —
//! `CELL_MIN_LEN.div_ceil(slab)` marching-cubes z-slabs,
//! `RAY_MIN_LEN.div_ceil(width)` image rows (256 rays' worth) and
//! `SEED_MIN_LEN` (8) advection seeds. A range shorter than two chunks
//! runs inline on the caller and spawns nothing, and so does any call
//! made from inside a worker.
//!
//! Task parallelism is the same [`map`] with `min_len` 1, one index per
//! task: the service's native wave, which computes several filters'
//! runs at once (`vizpower::store`), and contour's isovalues and
//! slice's planes (`vizalgo`). Because a nested call runs inline, each
//! task's own `par` calls stay on its thread and take the whole-range
//! path; a filter inside the wave runs its isovalues or planes inline,
//! in order. A single task, or a single thread, keeps the list on the
//! caller, and the inner calls are cut as usual.
//!
//! Thread count: the innermost [`with_threads`] on the calling thread,
//! else the `VIZPOWER_THREADS` environment variable (read once), else
//! `std::thread::available_parallelism()`.

use std::cell::Cell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, LocalKey};

/// Chunks cut per thread, so uneven chunks (image rows that miss the
/// volume, slabs the surface does not cross) still balance.
const CHUNKS_PER_THREAD: usize = 4;

thread_local! {
    /// The `with_threads` override for calls made from this thread.
    static THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread runs chunk bodies: nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Sets a thread-local flag for a scope and puts the old value back on
/// drop, so an unwinding closure cannot leave it behind.
struct Restore<T: Copy + 'static>(&'static LocalKey<Cell<T>>, T);

impl<T: Copy + 'static> Restore<T> {
    fn set(key: &'static LocalKey<Cell<T>>, value: T) -> Self {
        Restore(key, key.replace(value))
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.0.set(self.1);
    }
}

/// Threads a call made from this thread may use (always ≥ 1).
fn threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    THREADS.get().unwrap_or_else(|| {
        *DEFAULT.get_or_init(|| {
            std::env::var("VIZPOWER_THREADS")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
        })
    })
}

/// Run `f` with every `par` call made from this thread limited to `n`
/// threads (`n = 1` is fully sequential). Nests; the previous setting is
/// restored on return and on unwind.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _restore = Restore::set(&THREADS, Some(n.max(1)));
    f()
}

/// Chunk length for a range of `n`, or `None` when the range must run
/// inline: one thread, fewer than two `min_len` chunks, or already on a
/// worker.
fn chunk_len(n: usize, min_len: usize) -> Option<usize> {
    let min_len = min_len.max(1);
    let threads = threads();
    if threads < 2 || n < 2 * min_len || IN_WORKER.get() {
        return None;
    }
    Some(n.div_ceil(threads * CHUNKS_PER_THREAD).max(min_len))
}

/// Run `body(c)` for every chunk index `c < chunks` across the workers
/// and return the results in chunk order. A panic in any body reaches
/// the caller as that panic, after every spawned thread has been joined.
fn chunked<R: Send>(chunks: usize, body: impl Fn(usize) -> R + Sync) -> Vec<R> {
    // The counter publishes nothing but itself (results travel through
    // `join`), so relaxed ordering is enough.
    let next = AtomicUsize::new(0);
    let pull = || {
        let _nested_inline = Restore::set(&IN_WORKER, true);
        let mut done = Vec::with_capacity(CHUNKS_PER_THREAD);
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                return done;
            }
            done.push((c, body(c)));
        }
    };
    let mut done = thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads().min(chunks))
            .map(|_| scope.spawn(pull))
            .collect();
        let mut done = pull();
        for handle in spawned {
            match handle.join() {
                Ok(more) => done.extend(more),
                Err(panic) => resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(c, _)| c);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The chunk form of [`map`]: `body` gets a contiguous index range and
/// returns that range's results, and the per-chunk results are joined in
/// range order. A body may return fewer (or more) items than indices — a
/// compaction is the same call — and may set up per-chunk state (a grid
/// cursor, a scratch buffer) once instead of once per index. The ranges
/// depend on the thread count; the joined output must not, so `body`
/// must produce, item for item, what it would for any other cut.
pub fn map_chunks<T: Send>(
    n: usize,
    min_len: usize,
    body: impl Fn(Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let Some(len) = chunk_len(n, min_len) else {
        return body(0..n);
    };
    let parts = chunked(n.div_ceil(len), |c| body(c * len..((c + 1) * len).min(n)));
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// `(0..n).map(f).collect()`, computed in parallel chunks of at least
/// `min_len` indices and joined in index order.
pub fn map<T: Send>(n: usize, min_len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    map_chunks(n, min_len, |chunk| chunk.map(&f).collect())
}

/// Mutable slices of one length that [`for_each_chunk_zip`] cuts at the
/// same places: a `&mut [T]`, or a pair of `Zip`s — so `(a, b)` zips two
/// slices and `((a, b), (c, d))` four.
pub trait Zip: Send + Sized {
    /// The common length.
    ///
    /// # Panics
    /// If the zipped slices differ in length.
    fn length(&self) -> usize;
    /// `self[..mid]` and `self[mid..]`.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T: Send> Zip for &mut [T] {
    fn length(&self) -> usize {
        self.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: Zip, B: Zip> Zip for (A, B) {
    fn length(&self) -> usize {
        let n = self.0.length();
        assert_eq!(n, self.1.length(), "zipped slices must be the same length");
        n
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.split_at(mid), self.1.split_at(mid));
        ((a0, b0), (a1, b1))
    }
}

/// `body(range, items[range])` over contiguous ranges that together
/// cover the zipped `items` once: every slice of `items` cut at the same
/// places, so one loop writes several outputs per index. Returns the
/// bodies' results in range order (one per chunk, so their number
/// depends on the thread count: fold them with an order-free operation,
/// such as `f64::max`).
///
/// # Panics
/// If the zipped slices differ in length.
pub fn for_each_chunk_zip<Z: Zip, R: Send>(
    items: Z,
    min_len: usize,
    body: impl Fn(Range<usize>, Z) -> R + Sync,
) -> Vec<R> {
    let n = items.length();
    let Some(len) = chunk_len(n, min_len) else {
        return vec![body(0..n, items)];
    };
    // Each chunk goes to exactly one worker. The mutexes are never
    // contended (a chunk index is pulled once); they are the safe way to
    // move a `&mut` chunk out of a shared `Vec`.
    let mut slots = Vec::with_capacity(n.div_ceil(len));
    let mut rest = items;
    while rest.length() > len {
        let (chunk, tail) = rest.split_at(len);
        slots.push(Mutex::new(Some(chunk)));
        rest = tail;
    }
    slots.push(Mutex::new(Some(rest)));
    let done = chunked(slots.len(), |c| {
        let chunk = slots[c]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        chunk.map(|chunk| {
            let start = c * len;
            body(start..start + chunk.length(), chunk)
        })
    });
    done.into_iter().flatten().collect()
}

/// `f(i, &mut items[i])` for every `i`, in parallel chunks of at least
/// `min_len` items.
pub fn for_each_mut<T: Send>(items: &mut [T], min_len: usize, f: impl Fn(usize, &mut T) + Sync) {
    for_each_chunk_zip(items, min_len, |range, chunk| {
        range.zip(chunk).for_each(|(i, x)| f(i, x))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicIsize;

    const MIN_LEN: usize = 64;
    /// 0, 1, below the cutoff, exactly two chunks, and lengths no chunk
    /// size divides.
    const LENGTHS: [usize; 7] = [0, 1, MIN_LEN - 1, 2 * MIN_LEN, 2 * MIN_LEN + 1, 1000, 4099];

    fn value(i: usize) -> f64 {
        ((i * 2_654_435_761) % 1013) as f64 * 1e-3 + 1.0 / (i as f64 + 1.0)
    }

    #[test]
    fn every_form_is_bit_identical_across_thread_counts() {
        for n in LENGTHS {
            let expect: Vec<f64> = (0..n).map(value).collect();
            let expect_sum: f64 = expect.iter().sum();
            for threads in [1, 2, 7, 16] {
                with_threads(threads, || {
                    let mapped = map(n, MIN_LEN, value);
                    assert_eq!(mapped, expect, "map n={n} threads={threads}");
                    let sum: f64 = mapped.iter().sum();
                    assert_eq!(sum.to_bits(), expect_sum.to_bits());

                    let mut a = vec![0.0; n];
                    for_each_mut(&mut a, MIN_LEN, |i, x| *x = value(i));
                    assert_eq!(a, expect, "for_each_mut n={n} threads={threads}");

                    // The chunk forms: whatever ranges the thread count
                    // cuts, the joined output is the per-index one —
                    // also when a body keeps only some of its range.
                    let chunked = map_chunks(n, MIN_LEN, |r| r.map(value).collect());
                    assert_eq!(chunked, expect, "map_chunks n={n} threads={threads}");
                    let evens = map_chunks(n, MIN_LEN, |r| r.filter(|i| i % 2 == 0).collect());
                    assert!(evens.iter().copied().eq((0..n).step_by(2)));
                    let mut c = vec![0.0; n];
                    let starts = for_each_chunk_zip(&mut c[..], MIN_LEN, |r, chunk| {
                        assert_eq!(r.len(), chunk.len());
                        let start = r.start;
                        r.zip(chunk).for_each(|(i, x)| *x = value(i));
                        start
                    });
                    assert_eq!(c, expect, "for_each_chunk_zip n={n} threads={threads}");
                    // One result per chunk, in range order.
                    assert_eq!(starts[0], 0);
                    assert!(starts.windows(2).all(|w| w[0] < w[1]));

                    let mut b = vec![0usize; n];
                    for_each_chunk_zip((&mut a[..], &mut b[..]), MIN_LEN, |r, (ca, cb)| {
                        assert!(r.len() == ca.len() && r.len() == cb.len());
                        for (i, (x, y)) in r.zip(ca.iter_mut().zip(cb)) {
                            *x += 1.0;
                            *y = i;
                        }
                    });
                    assert!(a.iter().zip(&expect).all(|(x, e)| *x == e + 1.0));
                    assert!(b.iter().enumerate().all(|(i, y)| *y == i));

                    // Nested pairs: three slices of two types, one cut.
                    let mut d = vec![0u8; n];
                    let zipped = ((&mut c[..], &mut b[..]), &mut d[..]);
                    for_each_chunk_zip(zipped, MIN_LEN, |r, ((cc, cb), cd)| {
                        assert!(r.len() == cc.len() && r.len() == cb.len() && r.len() == cd.len());
                        for (i, ((x, y), z)) in r.zip(cc.iter_mut().zip(cb).zip(cd)) {
                            *x -= value(i);
                            *y += 1;
                            *z = (i % 251) as u8;
                        }
                    });
                    assert!(c.iter().all(|x| *x == 0.0));
                    assert!(b.iter().enumerate().all(|(i, y)| *y == i + 1));
                    assert!(d
                        .iter()
                        .enumerate()
                        .all(|(i, z)| usize::from(*z) == i % 251));
                });
            }
        }
    }

    #[test]
    fn a_range_below_the_cutoff_stays_on_the_caller() {
        let me = thread::current().id();
        with_threads(8, || {
            let ids = map(2 * MIN_LEN - 1, MIN_LEN, |_| thread::current().id());
            assert!(ids.iter().all(|id| *id == me));
            // At the cutoff the second thread is real.
            let barrier = std::sync::Barrier::new(2);
            let ids = map(2 * MIN_LEN, MIN_LEN, |i| {
                if i % MIN_LEN == 0 {
                    barrier.wait();
                }
                thread::current().id()
            });
            assert!(ids.iter().any(|id| *id != me), "two chunks, two threads");
        });
    }

    #[test]
    fn a_panicking_body_panics_the_caller_and_leaves_nothing_running() {
        let live = AtomicIsize::new(0);
        struct Leave<'a>(&'a AtomicIsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                map(4096, 16, |i| {
                    live.fetch_add(1, Ordering::SeqCst);
                    let _leave = Leave(&live);
                    assert!(i != 1234, "boom at {i}");
                    i
                })
            })
        }));
        let panic = outcome.expect_err("the body's panic must reach the caller");
        let message = panic.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("boom at 1234"));
        assert_eq!(live.load(Ordering::SeqCst), 0, "a body is still running");
        // The override and the worker flag were unwound with the panic.
        assert!(THREADS.get().is_none());
        assert!(!IN_WORKER.get());
    }

    #[test]
    fn a_call_from_inside_a_worker_runs_inline() {
        with_threads(4, || {
            let nested = map(64, 1, |_| {
                let me = thread::current().id();
                let inner = map(256, 1, |_| thread::current().id());
                inner.iter().all(|id| *id == me)
            });
            assert!(nested.iter().all(|&inline| inline));
        });
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(0, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
        });
        assert!(THREADS.get().is_none());
    }
}
