//! The worker sleep/wake layer.
//!
//! Idle workers used to end their backoff in a blind
//! `sleep(Duration::from_micros(50))`, which burned CPU forever on an idle
//! pool and added up to a nap period of latency before injected work was
//! noticed. This module replaces the nap with a condition variable that
//! work *producers* signal: [`Registry::inject`](crate::registry::Registry)
//! on external ingress, PUSHBACK on a mailbox deposit, and
//! [`WorkerThread::push`](crate::registry::WorkerThread) on a deque push
//! made while any worker sleeps (the "first push after quiescence" — the
//! sleeper count is checked with one relaxed load, so the no-sleeper spawn
//! fast path stays free), and `SpinLatch::set_and_wake` when a thief finishes a
//! stolen job whose joiner may have gone to sleep (same relaxed probe;
//! join waiters therefore deep-sleep like everyone else instead of polling
//! their latch in bounded slices).
//!
//! ## Lost-wakeup protocol
//!
//! A sleeper (1) bumps the sleeper count, (2) takes the sleep lock, (3)
//! re-checks all work sources, and only then (4) waits on the condvar. A
//! waker publishes its work first, then checks the sleeper count, and
//! notifies **while holding the sleep lock**. The lock serializes the
//! sleeper's re-check against the waker's notify: either the re-check runs
//! after the publish (and finds the work), or the notify runs after the
//! sleeper started waiting (and wakes it). Waits additionally carry a
//! timeout as a belt-and-braces net — a missed wake-up costs one timeout
//! period, never a hang — and shutdown broadcasts to everyone. A timed-out
//! sleeper re-runs its re-check under the lock; finding work then means a
//! wake-up was lost and the timeout rescued it, which it reports as
//! [`SleepOutcome::Rescued`] (counted as `timeout_rescues`), so degraded
//! wake-ups show up as a count rather than as silent latency.

use nws_sync::atomic::{fence, AtomicUsize, Ordering};
use nws_sync::{Condvar, Mutex};
use std::time::Duration;

// How long a sleeper waits before re-checking on its own is the caller's
// timeout (the worker idle loop passes `WorkerThread::SLEEP_TIMEOUT`,
// 10 ms, in `registry.rs`). It is a pure safety net: every work-producing
// event — ingress, mailbox deposit, first push after quiescence, and a
// join latch set — signals the condvar explicitly; the timeout only bounds
// the cost of a wake lost to a stale relaxed sleeper probe.

/// How one [`Sleep::sleep`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SleepOutcome {
    /// The pre-sleep re-check found work; the worker never blocked.
    Aborted,
    /// A producer's notify (or a spurious OS wake) released the worker.
    /// Only this outcome counts toward the `wakeups` statistic — timeouts
    /// are bookkeeping noise, not wake traffic.
    Notified,
    /// The safety-net timeout elapsed with no signal, and the re-check
    /// after it found no work either: plain idleness.
    TimedOut,
    /// The safety-net timeout elapsed with no signal, but the re-check
    /// after it found work: a wake-up was lost and the timeout rescued it.
    Rescued,
}

/// Sleep/wake state shared by all workers of a pool.
#[derive(Debug, Default)]
pub(crate) struct Sleep {
    /// Workers currently committed to sleeping (between the pre-sleep
    /// announcement and wake-up).
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl Sleep {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Blocks the calling worker until notified or `timeout` elapses.
    ///
    /// `recheck` is evaluated under the sleep lock after the sleeper is
    /// announced; returning `true` aborts the sleep (work appeared between
    /// the caller's last failed search and now). After a timed-out wait it
    /// is evaluated once more, with the lock held again, to tell
    /// [`Rescued`](SleepOutcome::Rescued) from
    /// [`TimedOut`](SleepOutcome::TimedOut).
    pub(crate) fn sleep(
        &self,
        timeout: Duration,
        mut recheck: impl FnMut() -> bool,
    ) -> SleepOutcome {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // Pairs with the fence in `wake_one`/`wake_all`: whichever fence
        // comes first in the SC order, either the waker sees our announce
        // (and notifies under the lock) or our re-check sees its publish.
        // Without the fences this is the store-buffer pattern, where both
        // sides can read stale values and the wake is missed.
        fence(Ordering::SeqCst);
        let mut guard = self.lock.lock();
        let outcome = if recheck() {
            SleepOutcome::Aborted
        } else if self.condvar.wait_for(&mut guard, timeout).timed_out() {
            if recheck() {
                SleepOutcome::Rescued
            } else {
                SleepOutcome::TimedOut
            }
        } else {
            SleepOutcome::Notified
        };
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    /// Wakes one sleeping worker, if any. Callers must have already
    /// published the work being advertised (queue push, mailbox deposit)
    /// before calling this.
    pub(crate) fn wake_one(&self) {
        fence(Ordering::SeqCst); // order the caller's publish before the sleeper check
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock();
            self.condvar.notify_one();
        }
    }

    /// Wakes every sleeping worker (shutdown, or a burst of work).
    pub(crate) fn wake_all(&self) {
        fence(Ordering::SeqCst); // as in `wake_one`
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock();
            self.condvar.notify_all();
        }
    }

    /// Number of workers currently asleep (racy; used for the push-path
    /// quiescence check and by tests).
    #[inline]
    pub(crate) fn num_sleepers(&self) -> usize {
        self.sleepers.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn recheck_true_aborts_the_sleep() {
        let s = Sleep::new();
        let start = Instant::now();
        let outcome = s.sleep(Duration::from_secs(10), || true);
        assert_eq!(outcome, SleepOutcome::Aborted);
        assert!(start.elapsed() < Duration::from_secs(1), "must not have waited");
        assert_eq!(s.num_sleepers(), 0);
    }

    /// Every outcome, decided by how the re-check answers before and after
    /// the wait. For `Notified`, the first re-check starts a waker, which
    /// can take the sleep lock only once the sleeper waits.
    #[test]
    fn recheck_answers_decide_every_outcome() {
        let s = Sleep::new();
        for (answers, expected, checks) in [
            ([true, true], SleepOutcome::Aborted, 1),
            ([false, false], SleepOutcome::TimedOut, 2),
            ([false, true], SleepOutcome::Rescued, 2),
        ] {
            let mut asked = 0;
            let outcome = s.sleep(Duration::from_millis(1), || {
                asked += 1;
                answers[asked - 1]
            });
            assert_eq!((outcome, asked), (expected, checks), "answers {answers:?}");
        }
        std::thread::scope(|scope| {
            let mut asked = 0;
            let outcome = s.sleep(Duration::from_secs(10), || {
                asked += 1;
                scope.spawn(|| s.wake_one());
                false
            });
            assert_eq!((outcome, asked), (SleepOutcome::Notified, 1));
        });
        assert_eq!(s.num_sleepers(), 0);
    }

    #[test]
    fn timeout_bounds_an_unsignaled_sleep() {
        let s = Sleep::new();
        let start = Instant::now();
        let outcome = s.sleep(Duration::from_millis(10), || false);
        assert_eq!(outcome, SleepOutcome::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(s.num_sleepers(), 0);
    }

    #[test]
    fn wake_one_releases_a_sleeper_quickly() {
        let s = Arc::new(Sleep::new());
        let work = Arc::new(AtomicBool::new(false));
        let (s2, work2) = (Arc::clone(&s), Arc::clone(&work));
        let t = std::thread::spawn(move || {
            let start = Instant::now();
            // Long timeout: only an explicit wake can release us fast.
            while !work2.load(Ordering::SeqCst) {
                let outcome = s2.sleep(Duration::from_secs(5), || work2.load(Ordering::SeqCst));
                assert_ne!(outcome, SleepOutcome::TimedOut, "wake must beat the 5s timeout");
            }
            start.elapsed()
        });
        while s.num_sleepers() == 0 {
            nws_sync::thread::yield_now();
        }
        work.store(true, Ordering::SeqCst); // publish, then wake
        s.wake_one();
        let elapsed = t.join().unwrap();
        assert!(elapsed < Duration::from_secs(4), "wake must beat the timeout: {elapsed:?}");
    }

    #[test]
    fn publish_before_announce_is_seen_by_recheck() {
        // The waker publishes and sees no sleepers; the late sleeper's
        // recheck must observe the published work and abort.
        let s = Sleep::new();
        let work = AtomicBool::new(true); // already published
        assert_eq!(s.num_sleepers(), 0); // waker would skip notify here
        let outcome = s.sleep(Duration::from_secs(10), || work.load(Ordering::SeqCst));
        assert_eq!(
            outcome,
            SleepOutcome::Aborted,
            "recheck must catch work published before the announce"
        );
    }

    #[test]
    fn wake_all_releases_every_sleeper() {
        let s = Arc::new(Sleep::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (s2, stop2) = (Arc::clone(&s), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    s2.sleep(Duration::from_secs(5), || stop2.load(Ordering::SeqCst));
                }
            }));
        }
        while s.num_sleepers() < 4 {
            nws_sync::thread::yield_now();
        }
        stop.store(true, Ordering::SeqCst);
        s.wake_all();
        for h in handles {
            h.join().unwrap();
        }
    }
}
