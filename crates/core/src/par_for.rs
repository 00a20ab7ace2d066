//! Parallel loops — the runtime's rendering of `cilk_for`.
//!
//! The paper (§II, footnote 2) describes `cilk_for` as syntactic sugar
//! that "compiles down to binary spawning of iterations using
//! `cilk_spawn` and `cilk_sync`". [`par_for`] is exactly that: recursive
//! halving of the index range via [`join`](crate::join) until the grain
//! size, then a sequential loop. [`par_for_banded`] adds the NUMA-WS
//! locality hints: the range is split into one band per place, and each
//! band's recursion carries that place's hint — the pattern every banded
//! benchmark (heat, cg) uses.

use crate::join::{join, join_at};
use nws_topology::Place;
use std::ops::Range;

/// Runs `body(i)` for every `i` in `range`, in parallel, splitting down to
/// `grain` iterations per task.
///
/// # Panics
///
/// Panics when called outside a [`Pool`](crate::Pool), if `grain == 0`, or
/// if `body` panics (the panic is propagated after outstanding iterations
/// finish).
///
/// # Example
///
/// ```
/// use numa_ws::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = numa_ws::Pool::new(4).expect("pool");
/// let sum = AtomicU64::new(0);
/// pool.install(|| {
///     numa_ws::par_for(0..1000, 16, &|i| {
///         sum.fetch_add(i as u64, Ordering::Relaxed);
///     })
/// });
/// assert_eq!(sum.into_inner(), 999 * 1000 / 2);
/// ```
pub fn par_for<F>(range: Range<usize>, grain: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    assert!(grain > 0, "grain must be positive");
    rec(range, grain, body, Place::ANY);
}

/// Like [`par_for`], but first splits `range` into `places` contiguous
/// bands and hints band `i` at `Place(i)` — co-locating iteration bands
/// with data partitioned the same way (paper §III-A).
///
/// # Panics
///
/// As [`par_for`]; additionally if `places == 0`.
pub fn par_for_banded<F>(range: Range<usize>, grain: usize, places: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    assert!(grain > 0, "grain must be positive");
    assert!(places > 0, "places must be positive");
    bands(range, grain, 0, places, body);
}

fn bands<F>(range: Range<usize>, grain: usize, first: usize, count: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    // More bands than iterations (`places > range.len()`) leaves some
    // bands empty: return before spawning, so the deque never churns on
    // zero-iteration jobs. The band→place arithmetic (`first`, `count`)
    // is untouched — non-empty bands keep exactly the hints they had.
    if range.is_empty() {
        return;
    }
    if count == 1 {
        rec(range, grain, body, Place(first));
        return;
    }
    let left = count / 2;
    let mid = range.start + (range.len() * left) / count;
    let (r1, r2) = (range.start..mid, mid..range.end);
    // A lopsided split (fewer iterations than bands on this side) can make
    // one half empty; recurse into the other directly instead of paying a
    // deque push for a no-op task.
    if r1.is_empty() {
        bands(r2, grain, first + left, count - left, body);
    } else if r2.is_empty() {
        bands(r1, grain, first, left, body);
    } else {
        join_at(
            || bands(r1, grain, first, left, body),
            || bands(r2, grain, first + left, count - left, body),
            Place(first + left),
        );
    }
}

fn rec<F>(range: Range<usize>, grain: usize, body: &F, place: Place)
where
    F: Fn(usize) + Sync,
{
    // Empty ranges do nothing; returning before the grain check keeps the
    // zero-work case off the sequential-loop path entirely.
    if range.is_empty() {
        return;
    }
    if range.len() <= grain {
        for i in range {
            body(i);
        }
        return;
    }
    let mid = range.start + range.len() / 2;
    let (r1, r2) = (range.start..mid, mid..range.end);
    if place.is_any() {
        join(|| rec(r1, grain, body, place), || rec(r2, grain, body, place));
    } else {
        // Within a band the hint is inherited (the paper's default).
        join_at(|| rec(r1, grain, body, place), || rec(r2, grain, body, place), place);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;
    use nws_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = Pool::new(4).unwrap();
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            par_for(0..n, 64, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let pool = Pool::new(2).unwrap();
        let count = AtomicU64::new(0);
        pool.install(|| {
            par_for(5..5, 8, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        pool.install(|| {
            par_for(7..8, 8, &|i| {
                count.fetch_add(i as u64, Ordering::Relaxed);
            })
        });
        assert_eq!(count.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn banded_covers_range_across_places() {
        let pool = Pool::builder().workers(8).places(4).build().unwrap();
        let n = 4096;
        let sum = AtomicU64::new(0);
        pool.install(|| {
            par_for_banded(0..n, 32, 4, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            })
        });
        assert_eq!(sum.into_inner(), (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn banded_works_with_more_bands_than_places() {
        // Hints wrap; correctness unaffected.
        let pool = Pool::builder().workers(4).places(2).build().unwrap();
        let count = AtomicUsize::new(0);
        pool.install(|| {
            par_for_banded(0..1000, 16, 7, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(count.into_inner(), 1000);
    }

    #[test]
    fn banded_with_more_places_than_iterations() {
        // Regression: `places > range.len()` used to spawn empty-range
        // bands, churning the deque for nothing. Coverage must be exact
        // and, on a single worker (where nothing is stolen and `spawns`
        // counts every fork), the spawn count must stay below the
        // non-empty-iteration count — impossible if empty bands still
        // cost a fork each.
        let pool = Pool::builder().workers(1).build().unwrap();
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.reset_stats();
        pool.install(|| {
            par_for_banded(0..3, 1, 16, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let spawns: u64 = pool.stats().workers.iter().map(|w| w.spawns).sum();
        assert!(
            spawns < 3,
            "3 iterations over 16 bands needs at most 2 forks, got {spawns} spawns"
        );
    }

    #[test]
    fn banded_empty_range_is_a_no_op() {
        let pool = Pool::builder().workers(2).places(2).build().unwrap();
        let count = AtomicUsize::new(0);
        pool.install(|| {
            par_for_banded(10..10, 4, 8, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(count.into_inner(), 0);
    }

    #[test]
    fn panic_in_body_propagates() {
        let pool = Pool::new(4).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                par_for(0..100, 4, &|i| {
                    if i == 57 {
                        panic!("iteration 57");
                    }
                })
            })
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| 1), 1, "pool survives");
    }

    #[test]
    #[should_panic(expected = "grain must be positive")]
    fn zero_grain_rejected() {
        let pool = Pool::new(2).unwrap();
        pool.install(|| par_for(0..10, 0, &|_| {}));
    }
}
