//! Completion latches used to join spawned work.
//!
//! A [`SpinLatch`] is one flag, with no reference to the pool's sleep
//! layer: a `join` forks with one latch store, and the side that sets it
//! (a thief finishing a stolen branch) passes its own pool's [`Sleep`] to
//! wake the joiner. Only a pool worker can take a join branch, so the
//! setter always has that pool at hand.

use crate::sleep::Sleep;
use nws_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use nws_sync::{Condvar, Mutex};

/// A one-shot latch: starts unset, becomes set exactly once.
pub(crate) trait Latch {
    /// Marks the latch as set (release semantics) and wakes its waiter.
    /// `sleep` is the sleep layer of the pool whose worker sets the latch,
    /// `None` when the setter is not a pool worker.
    fn set(&self, sleep: Option<&Sleep>);
}

/// A completion condition a worker can steal-while-waiting on
/// ([`WorkerThread::wait_until`](crate::registry::WorkerThread)): `join`
/// waits on a [`SpinLatch`], `scope` on a [`CountLatch`].
pub(crate) trait Probe {
    /// Whether the awaited completion has happened (acquire semantics, so
    /// data written before the completing store is visible after a `true`
    /// probe).
    fn probe(&self) -> bool;
}

/// A latch probed by spinning workers that steal while they wait.
///
/// [`set_and_wake`](SpinLatch::set_and_wake) is an atomic store plus one
/// `Relaxed` sleeper probe — the same trick as the deque-push wake in
/// `WorkerThread::push`. The latch is set on the *steal* path (a thief
/// finishing a stolen job), so it can afford to check whether its waiter
/// went to sleep and broadcast a wake-up; the waiter
/// (`WorkerThread::wait_until`) can therefore deep-sleep on the pool
/// condvar instead of polling in bounded slices. The probe is `Relaxed`: a
/// stale read can only miss a *just*-committed sleeper, which the sleep
/// safety-net timeout then bounds — latency, never a hang (and a
/// `timeout_rescues` count, never silence).
#[derive(Debug)]
pub(crate) struct SpinLatch {
    set: AtomicBool,
}

impl SpinLatch {
    pub(crate) fn new() -> Self {
        SpinLatch { set: AtomicBool::new(false) }
    }

    /// Whether the latch has been set (acquire semantics, so data written
    /// before `set` is visible after a `true` probe).
    #[inline]
    pub(crate) fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// Sets the latch and wakes its joiner if it sleeps on `sleep`, the
    /// sleep layer of the joiner's pool.
    ///
    /// `sleep` is a separate reference, not a field: the instant the store
    /// becomes visible, the joiner may return and pop the stack frame
    /// holding this latch, so nothing of `self` may be touched afterwards
    /// (the classic work-stealing latch hazard). The `Sleep` lives in the
    /// registry, which the setting worker's own `Arc` keeps alive.
    #[inline]
    pub(crate) fn set_and_wake(&self, sleep: &Sleep) {
        self.set.store(true, Ordering::Release);
        // Broadcast, not notify-one: the latch is visible only to its own
        // waiter, so a single notify could land on a different sleeper that
        // cannot make progress from this event.
        if sleep.num_sleepers() > 0 {
            sleep.wake_all();
        }
    }
}

impl Probe for SpinLatch {
    #[inline]
    fn probe(&self) -> bool {
        SpinLatch::probe(self)
    }
}

impl Latch for SpinLatch {
    /// Off-pool (unit tests) nobody can sleep on the latch, so the store
    /// alone sets it.
    #[inline]
    fn set(&self, sleep: Option<&Sleep>) {
        match sleep {
            Some(sleep) => self.set_and_wake(sleep),
            None => self.set.store(true, Ordering::Release),
        }
    }
}

/// A counting latch: "set" once its count returns to zero.
///
/// This is the completion gate of a [`scope`](fn@crate::scope): it starts at
/// one (the scope body itself), each `Scope::spawn` increments it, and each
/// finished spawn — plus the body, on its way out — decrements it. The
/// scope owner steals-while-waiting until the count drains.
///
/// Unlike [`SpinLatch`] the sleeper-aware wake is **not** built into the
/// decrement: the latch lives inside the `Scope` on the owner's stack, and
/// the instant the count hits zero the owner may return and pop that frame,
/// so the completing thread must not touch any `Scope` (or latch) memory
/// afterwards — including a `sleep` reference stored next to the counter.
/// `Scope::complete_one` therefore wakes through the executing worker's
/// [`Sleep`] (the hazard discipline of [`SpinLatch::set_and_wake`]).
#[derive(Debug)]
pub(crate) struct CountLatch {
    counter: AtomicUsize,
}

impl CountLatch {
    /// A latch holding one count for its owner.
    pub(crate) fn new() -> Self {
        CountLatch { counter: AtomicUsize::new(1) }
    }

    /// Adds one count. Callers must already hold a count (the latch must
    /// not have reached zero), which is what makes the relaxed increment
    /// sound: the owner cannot concurrently observe zero.
    #[inline]
    pub(crate) fn increment(&self) {
        self.counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes one count; returns `true` if this was the last one (the
    /// latch is now set). Release on the decrement pairs with the acquire
    /// probe, so everything the completing job wrote is visible to the
    /// owner once it sees zero. **If this returns `true`, `self` may
    /// already be dead to other threads** — see the type docs.
    #[inline]
    pub(crate) fn set_one(&self) -> bool {
        self.counter.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

impl Probe for CountLatch {
    #[inline]
    fn probe(&self) -> bool {
        self.counter.load(Ordering::Acquire) == 0
    }
}

/// A count-down gate that threads block on until `n` passes have opened
/// it (no busy-spin): the pool's `started` and `exited` gates pass once
/// per worker (`n = P`), and [`Pool::install`](crate::Pool::install)'s
/// root is a [`Latch`] of one pass, set by the worker that runs it.
#[derive(Debug)]
pub(crate) struct Gate {
    remaining: Mutex<usize>,
    cond: Condvar,
}

impl Gate {
    /// A gate that opens after `n` passes.
    pub(crate) fn new(n: usize) -> Self {
        Gate { remaining: Mutex::new(n), cond: Condvar::new() }
    }

    /// Counts one pass; the last wakes the waiters under the lock, so none
    /// can return and drop the gate before the notify.
    pub(crate) fn pass(&self) {
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.cond.notify_all();
        }
    }

    /// Blocks until the gate is open.
    pub(crate) fn wait(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining > 0 {
            self.cond.wait(&mut remaining);
        }
    }

    /// Blocks until the gate is open or `timeout` elapses; returns whether
    /// it is open. Used by `Pool::install`'s poisoning-aware wait: the
    /// caller loops, interleaving bounded waits with pool-health checks, so
    /// a pool whose workers all died cannot strand it forever.
    pub(crate) fn wait_for(&self, timeout: std::time::Duration) -> bool {
        let mut remaining = self.remaining.lock();
        if *remaining > 0 {
            let _ = self.cond.wait_for(&mut remaining, timeout);
        }
        *remaining == 0
    }

    /// Whether the gate is open (non-blocking).
    pub(crate) fn is_open(&self) -> bool {
        *self.remaining.lock() == 0
    }
}

impl Latch for Gate {
    /// Passes the gate, which wakes its blocked waiters through its own
    /// condvar; `sleep` is unused.
    fn set(&self, _sleep: Option<&Sleep>) {
        self.pass();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spin_latch_starts_unset() {
        let sleep = Sleep::new();
        let l = SpinLatch::new();
        assert!(!l.probe());
        l.set_and_wake(&sleep);
        assert!(l.probe());
    }

    #[test]
    fn spin_latch_set_wakes_a_sleeper() {
        let sleep = Arc::new(Sleep::new());
        let stop = Arc::new(AtomicBool::new(false));
        let (s2, stop2) = (Arc::clone(&sleep), Arc::clone(&stop));
        let sleeper = std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                s2.sleep(std::time::Duration::from_secs(5), || stop2.load(Ordering::SeqCst));
            }
        });
        while sleep.num_sleepers() == 0 {
            nws_sync::thread::yield_now();
        }
        stop.store(true, Ordering::SeqCst);
        let l = SpinLatch::new();
        let start = std::time::Instant::now();
        l.set_and_wake(&sleep); // must broadcast and release the sleeper well before 5s
        sleeper.join().unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(4));
    }

    #[test]
    fn gate_unblocks_waiter() {
        let l = Arc::new(Gate::new(1));
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            l2.set(None);
        });
        // Poll as install does: bounded waits until the pass lands.
        while !l.wait_for(std::time::Duration::from_millis(50)) {}
        t.join().unwrap();
    }

    #[test]
    fn gate_wait_for_times_out_then_succeeds() {
        let l = Gate::new(1);
        assert!(!l.is_open());
        let start = std::time::Instant::now();
        assert!(!l.wait_for(std::time::Duration::from_millis(10)), "a closed gate must time out");
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        l.set(None);
        assert!(l.is_open());
        assert!(l.wait_for(std::time::Duration::from_secs(5)), "an open gate returns immediately");
    }

    #[test]
    fn gate_opens_after_its_last_pass() {
        let gate = Gate::new(3);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| gate.pass());
            }
            gate.wait();
            assert!(gate.is_open());
        });
    }

    #[test]
    fn count_latch_counts_down_to_set() {
        let l = CountLatch::new();
        assert!(!l.probe(), "owner count keeps it unset");
        l.increment();
        l.increment();
        assert!(!l.set_one(), "3 -> 2");
        assert!(!l.set_one(), "2 -> 1");
        assert!(l.set_one(), "1 -> 0 is the terminal decrement");
        assert!(l.probe());
    }

    #[test]
    fn count_latch_concurrent_decrements_set_exactly_once() {
        for _ in 0..200 {
            let l = CountLatch::new();
            for _ in 0..4 {
                l.increment();
            }
            l.set_one(); // the owner's terminal decrement (4 spawn counts left)
            let terminals = std::thread::scope(|s| {
                let hs: Vec<_> = (0..4).map(|_| s.spawn(|| l.set_one())).collect();
                hs.into_iter().map(|h| h.join().unwrap()).filter(|&terminal| terminal).count()
            });
            assert_eq!(terminals, 1, "exactly one decrement observes 1 -> 0");
            assert!(l.probe());
        }
    }

    #[test]
    fn spin_latch_cross_thread_visibility() {
        let sleep = Sleep::new();
        let l = SpinLatch::new();
        std::thread::scope(|s| {
            s.spawn(|| l.set_and_wake(&sleep));
        });
        assert!(l.probe());
    }
}
