//! Per-place external ingress queues.
//!
//! External threads enter the pool through these queues
//! ([`Pool::install`](crate::Pool::install),
//! [`install_at`](crate::Pool::install_at), [`spawn`](crate::Pool::spawn),
//! [`spawn_at`](crate::Pool::spawn_at) — see `crate::pool`). There is
//! **one queue per virtual place**, and every worker of a place drains its
//! own queue as part of its normal scheduling loop (between its mailbox
//! and a steal attempt), so ingress never funnels
//! through a single worker: a root task blocking worker 0 cannot starve a
//! concurrently injected job. Workers also scan the *other* places' queues
//! as a last resort before going to sleep — starving work beats placed
//! work — which keeps the locality bias without sacrificing progress.
//! DESIGN.md §4 has the full protocol story.

use crate::job::JobRef;
use nws_sync::atomic::{AtomicUsize, Ordering};
use nws_sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Duration;

/// One place's ingress queue: a mutex-guarded FIFO plus a length hint that
/// lets the (hot) empty check skip the lock.
///
/// The hint is updated **while holding the queue lock**. Updated after
/// the unlock, it would leave a window in which a popper's fast-path check
/// reads 0 for an already-enqueued job and naps instead of running it;
/// `len_matches_queue_under_contention` below is the regression test for
/// that window.
///
/// The queue may be **bounded** (the service-scale ingress posture, see
/// `OverflowPolicy`): `push` then bounces jobs back instead of growing
/// without limit, and `push_blocking` waits for space on the `space`
/// condvar, which `pop` signals. An unbounded queue (`capacity ==
/// usize::MAX`, the default) never touches the condvar.
#[derive(Debug)]
pub(crate) struct IngressQueue {
    queue: Mutex<VecDeque<JobRef>>,
    len: AtomicUsize,
    capacity: usize,
    /// Signaled by `pop` when a bounded queue frees a slot.
    space: Condvar,
}

impl IngressQueue {
    /// A queue holding at most `capacity` jobs (`None` = unbounded).
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        IngressQueue {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            capacity: capacity.unwrap_or(usize::MAX),
            space: Condvar::new(),
        }
    }

    #[inline]
    fn bounded(&self) -> bool {
        self.capacity != usize::MAX
    }

    /// Enqueues a job, or hands it back if the queue is at capacity. The
    /// length hint is bumped before the lock is released, so any thread
    /// that subsequently acquires the lock (or synchronizes with its
    /// release) observes a hint covering this job.
    pub(crate) fn push(&self, job: JobRef) -> Result<(), JobRef> {
        let mut q = self.queue.lock();
        if q.len() >= self.capacity {
            return Err(job);
        }
        q.push_back(job);
        self.len.store(q.len(), Ordering::Release);
        Ok(())
    }

    /// As [`push`](Self::push), but waits for space when the queue is full.
    /// `give_up` is polled between bounded waits (workers signal `space` on
    /// every pop, and the timeout covers a signal racing the wait); when it
    /// returns `true` — pool shutting down or poisoned — the job is handed
    /// back rather than queued where no one may ever drain it.
    pub(crate) fn push_blocking(
        &self,
        job: JobRef,
        give_up: impl Fn() -> bool,
    ) -> Result<(), JobRef> {
        let mut q = self.queue.lock();
        while q.len() >= self.capacity {
            if give_up() {
                return Err(job);
            }
            let _ = self.space.wait_for(&mut q, Duration::from_millis(10));
        }
        q.push_back(job);
        self.len.store(q.len(), Ordering::Release);
        Ok(())
    }

    /// Dequeues the oldest job, if any. Returns the job together with the
    /// number of jobs left behind, so the caller can chain wake-ups while
    /// the queue still holds work.
    pub(crate) fn pop(&self) -> Option<(JobRef, usize)> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock();
        let job = q.pop_front()?;
        let remaining = q.len();
        self.len.store(remaining, Ordering::Release);
        if self.bounded() {
            // A blocked pusher may be waiting for this slot. Notify while
            // holding the lock: the waiter either still holds it (and sees
            // the shorter queue) or is parked on the condvar.
            self.space.notify_one();
        }
        Some((job, remaining))
    }

    /// Racy emptiness probe (used by the sleep layer's final re-check,
    /// which runs under the sleep lock — see `crate::sleep`).
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use nws_sync::atomic::AtomicUsize;
    use nws_topology::Place;

    struct CountJob(AtomicUsize);
    impl Job for CountJob {
        // SAFETY: per the `Job::execute` contract, `this` is the pointer the
        // JobRef was built from, still live — upheld by every test below
        // (jobs outlive the queue they are pushed into).
        unsafe fn execute(this: *const ()) {
            let this = &*(this as *const Self);
            this.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn job_ref(j: &CountJob, place: Place) -> JobRef {
        // SAFETY: callers keep `j` alive until the ref executes (all jobs
        // here are locals that outlive the queue operations on them).
        unsafe { JobRef::new(j, place) }
    }

    #[test]
    fn fifo_order_and_remaining_counts() {
        let j = CountJob(AtomicUsize::new(0));
        let q = IngressQueue::new(None);
        assert!(q.is_empty());
        q.push(job_ref(&j, Place(0))).unwrap();
        q.push(job_ref(&j, Place(1))).unwrap();
        q.push(job_ref(&j, Place(2))).unwrap();
        assert!(!q.is_empty());
        let (a, rest) = q.pop().unwrap();
        assert_eq!((a.place(), rest), (Place(0), 2));
        let (b, rest) = q.pop().unwrap();
        assert_eq!((b.place(), rest), (Place(1), 1));
        let (c, rest) = q.pop().unwrap();
        assert_eq!((c.place(), rest), (Place(2), 0));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// Regression for the pre-rework bug: `inject` updated the length hint
    /// after dropping the queue lock, so a popper could observe hint 0 for
    /// an already-enqueued job. With the hint updated under the lock, a
    /// popper that runs entirely after a push completes must find the job:
    /// every job pushed here is eventually popped, with producers and
    /// consumers hammering the queue concurrently.
    #[test]
    fn len_matches_queue_under_contention() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 500;
        let j = CountJob(AtomicUsize::new(0));
        let q = IngressQueue::new(None);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                s.spawn(|| {
                    for _ in 0..PER_PRODUCER {
                        q.push(job_ref(&j, Place::ANY)).unwrap();
                        // Sequential push→pop on one thread: the pop's
                        // fast-path hint check must never miss our own
                        // completed push (some other thread may have taken
                        // the job itself, but then the hint covered it).
                        if let Some(_got) = q.pop() {
                            popped.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        // Drain the leftovers from lost pop races.
        while q.pop().is_some() {
            popped.fetch_add(1, Ordering::SeqCst);
        }
        assert_eq!(popped.load(Ordering::SeqCst), PRODUCERS * PER_PRODUCER);
        assert!(q.is_empty());
    }

    /// The single-producer single-consumer sequential case: after a push
    /// returns, an immediate pop on the same thread must see the job (this
    /// is exactly the window the old post-unlock hint update left open).
    #[test]
    fn pop_never_misses_a_completed_push() {
        let j = CountJob(AtomicUsize::new(0));
        let q = IngressQueue::new(None);
        for _ in 0..10_000 {
            q.push(job_ref(&j, Place::ANY)).unwrap();
            assert!(q.pop().is_some(), "hint must cover a completed push");
        }
    }

    #[test]
    fn bounded_queue_bounces_at_capacity_and_reopens_after_pop() {
        let j = CountJob(AtomicUsize::new(0));
        let q = IngressQueue::new(Some(2));
        q.push(job_ref(&j, Place(0))).unwrap();
        q.push(job_ref(&j, Place(1))).unwrap();
        let back = q.push(job_ref(&j, Place(2))).unwrap_err();
        assert_eq!(back.place(), Place(2), "rejected job handed back intact");
        assert!(q.pop().is_some());
        q.push(job_ref(&j, Place(3))).unwrap();
        assert!(q.push(job_ref(&j, Place(4))).is_err(), "full again at capacity");
    }

    #[test]
    fn push_blocking_waits_for_space_and_honors_give_up() {
        let j = CountJob(AtomicUsize::new(0));
        let q = IngressQueue::new(Some(1));
        q.push(job_ref(&j, Place(0))).unwrap();
        // give_up=true: a full queue hands the job back instead of waiting.
        assert!(q.push_blocking(job_ref(&j, Place(1)), || true).is_err());
        // A concurrent popper frees the slot; the blocked push must land.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                assert!(q.pop().is_some());
            });
            assert!(q.push_blocking(job_ref(&j, Place(2)), || false).is_ok());
        });
        let (got, rest) = q.pop().unwrap();
        assert_eq!((got.place(), rest), (Place(2), 0));
    }
}
