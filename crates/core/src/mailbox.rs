//! The single-entry lock-free mailbox for lazy work pushing.
//!
//! Each worker owns one mailbox holding **at most one job** — the paper's
//! protocol (§III-B), where the single entry is load-bearing for the §IV
//! top-heavy-deques argument. A pusher deposits a ready job for the
//! mailbox's owner without interrupting it; the owner (or a thief, via the
//! coin-flip protocol) takes it later. The slot is one `AtomicPtr`:
//! deposit is a CAS from null, take a swap back to null, so the mailbox is
//! lock-free and a job is taken exactly once.
//!
//! Policies without mailboxes (`mailbox_capacity == 0`, vanilla work
//! stealing) need no separate shape: nothing deposits unless
//! `SchedPolicy::uses_mailboxes`, so their slots simply stay empty.
//! `PoolBuilder::build` rejects capacities above 1; the multi-entry
//! mailbox is a simulator-only ablation.
//!
//! ## Shutdown
//!
//! A deposited job may be a heap job (`Pool::spawn` / `spawn_at`) that was
//! lazily pushed toward its place — a job that *owns* its closure and must
//! run to be reclaimed. The shutdown path therefore drains mailboxes twice:
//! `worker_main` executes anything left in its own mailbox after its main
//! loop exits (and PUSHBACK stops depositing once shutdown is observed, see
//! `WorkerThread::pushback`), and [`Mailbox::drop`] — which runs only after
//! every worker has exited, since workers hold the registry alive —
//! executes a leftover deposit as the final safety net rather than leaking
//! it. Stack jobs can never be stranded here: their owners block inside the
//! pool until the latch is set, which keeps the pool from shutting down
//! around them.

use crate::job::JobRef;
use nws_sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::ptr;

/// A single-slot lock-free mailbox: one CAS target holding a boxed
/// [`JobRef`], or null when empty.
#[derive(Debug)]
pub(crate) struct Mailbox {
    slot: AtomicPtr<JobRef>,
    /// Set when the pool is poisoned: [`Drop`] then *leaks* a leftover
    /// instead of executing it. After a worker dies, a parked `JobRef`
    /// can be a stack job whose owner frame was abandoned (the install
    /// poll's poisoned path) — executing it at registry drop would be a
    /// use-after-free. Leak-not-execute is the safe degradation; the chaos
    /// tier's conservation checks tolerate it (executed ≤ accepted).
    disarmed: AtomicBool,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Mailbox { slot: AtomicPtr::new(ptr::null_mut()), disarmed: AtomicBool::new(false) }
    }

    /// Stops [`Drop`] from executing leftovers (the poisoning path).
    /// Release/Acquire, not SeqCst (the seqcst-budget audit): `Drop` takes
    /// `&mut self` after every worker has exited, so the join/Arc teardown
    /// already orders this sticky store before the read; Release/Acquire
    /// documents the flag's publish direction without a global fence.
    pub(crate) fn disarm(&self) {
        self.disarmed.store(true, Ordering::Release);
    }

    /// Attempts to deposit `job` into the empty slot. Fails (returning the
    /// job back) if the slot is occupied — the PUSHBACK protocol then
    /// retries elsewhere.
    pub(crate) fn try_deposit(&self, job: JobRef) -> Result<(), JobRef> {
        // Chaos-tier fault point (no-op in default builds): `fail` forces a
        // deposit rejection, exercising the PUSHBACK retry/keep paths. It
        // fires before the box allocation, so a `panic` action unwinds with
        // nothing leaked and the job still owned by the caller (which
        // catches it — see `WorkerThread::pushback`).
        if nws_sync::fault::hit("mailbox.deposit") {
            return Err(job);
        }
        let boxed = Box::into_raw(Box::new(job));
        match self.slot.compare_exchange(
            ptr::null_mut(),
            boxed,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            // SAFETY: we just created this box and nobody else saw it (the
            // CAS failed).
            Err(_) => Err(*unsafe { Box::from_raw(boxed) }),
        }
    }

    /// Takes the deposited job, if any. Loads before swapping, so probing
    /// an empty mailbox — the common case for the owner's and the thieves'
    /// checks — reads the slot's cacheline without claiming it for writing.
    pub(crate) fn take(&self) -> Option<JobRef> {
        if self.slot.load(Ordering::Acquire).is_null() {
            return None;
        }
        let p = self.slot.swap(ptr::null_mut(), Ordering::AcqRel);
        if p.is_null() {
            return None;
        }
        // SAFETY: a non-null slot pointer is always a leaked Box that
        // exactly one `take` can observe (swap is atomic).
        Some(*unsafe { Box::from_raw(p) })
    }

    /// A racy occupancy probe (used by the sleep layer's final re-check):
    /// does the slot hold a job?
    pub(crate) fn has_job(&self) -> bool {
        !self.slot.load(Ordering::Acquire).is_null()
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        // Poisoned pool: leak a leftover rather than execute a ref whose
        // owning frame may be gone (see the `disarmed` field docs).
        if self.disarmed.load(Ordering::Acquire) {
            return;
        }
        // Execute — don't leak — a leftover deposit. By the time the
        // registry (and with it this mailbox) drops, every worker has
        // exited, so a job still parked here can only be a self-contained
        // heap job whose deposit raced the final shutdown drain (see the
        // module docs); running it honors the documented guarantee that
        // spawned work is never lost. Stack jobs cannot reach this point:
        // their owners block the pool's shutdown until they are joined.
        if let Some(job) = self.take() {
            // SAFETY: a deposited JobRef is live and unexecuted; workers
            // are gone, so we are the only possible executor.
            unsafe { job.execute() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{HeapJob, Job, JobRef};
    use nws_sync::atomic::AtomicUsize;
    use nws_topology::Place;

    struct CountJob(AtomicUsize);
    impl Job for CountJob {
        // SAFETY: per the `Job::execute` contract, `this` is the pointer the
        // JobRef was built from, still live — upheld by every test below
        // (jobs outlive the mailbox they are deposited into).
        unsafe fn execute(this: *const ()) {
            let this = &*(this as *const Self);
            this.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn job_ref(j: &CountJob, place: Place) -> JobRef {
        // SAFETY: callers keep `j` alive until the ref executes (all jobs
        // here are locals that outlive the mailbox operations on them).
        unsafe { JobRef::new(j, place) }
    }

    #[test]
    fn deposit_then_take() {
        let j = CountJob(AtomicUsize::new(0));
        let m = Mailbox::new();
        assert!(!m.has_job());
        m.try_deposit(job_ref(&j, Place(2))).unwrap();
        assert!(m.has_job());
        let got = m.take().unwrap();
        assert_eq!(got.place(), Place(2));
        assert!(!m.has_job());
        assert!(m.take().is_none());
    }

    #[test]
    fn second_deposit_rejected_at_capacity_one() {
        let j = CountJob(AtomicUsize::new(0));
        let m = Mailbox::new();
        m.try_deposit(job_ref(&j, Place(0))).unwrap();
        let back = m.try_deposit(job_ref(&j, Place(1))).unwrap_err();
        assert_eq!(back.place(), Place(1), "rejected job handed back intact");
        assert_eq!(m.take().unwrap().place(), Place(0), "the loser left the winner in place");
    }

    /// Capacity 0 is a policy property, not a mailbox shape: a vanilla pool
    /// never deposits, so hinted work that crosses places leaves every
    /// mailbox empty.
    #[test]
    fn zero_capacity_rejects_everything() {
        use crate::{join_at, Pool, SchedPolicy};
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 64 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join_at(|| sum(lo, mid), || sum(mid, hi), Place((lo / 64) as usize));
            a + b
        }
        let pool =
            Pool::builder().workers(4).places(2).policy(SchedPolicy::vanilla()).build().unwrap();
        assert_eq!(pool.install(|| sum(0, 1 << 14)), (0..1u64 << 14).sum::<u64>());
        let stats = pool.stats();
        assert_eq!(stats.total_push_attempts(), 0);
        assert_eq!(stats.total_mailbox_takes(), 0);
    }

    #[test]
    fn take_empty_is_none() {
        let m = Mailbox::new();
        assert!(m.take().is_none());
        assert!(!m.has_job());
    }

    #[test]
    fn concurrent_takers_get_exactly_one() {
        let j = CountJob(AtomicUsize::new(0));
        for _ in 0..200 {
            let m = Mailbox::new();
            m.try_deposit(job_ref(&j, Place(0))).unwrap();
            let got = std::thread::scope(|s| {
                let h1 = s.spawn(|| m.take().is_some());
                let h2 = s.spawn(|| m.take().is_some());
                (h1.join().unwrap(), h2.join().unwrap())
            });
            assert!(got.0 ^ got.1, "exactly one taker must win: {got:?}");
        }
    }

    #[test]
    fn drop_executes_leftover_job() {
        // The shutdown-drain guarantee at the mailbox level: dropping a
        // mailbox with a parked job *runs* the job (the old Drop freed the
        // box and leaked/lost the work).
        let j = CountJob(AtomicUsize::new(0));
        let m = Mailbox::new();
        m.try_deposit(job_ref(&j, Place(0))).unwrap();
        drop(m);
        assert_eq!(j.0.load(Ordering::SeqCst), 1, "leftover deposit must run, not leak");
    }

    #[test]
    fn disarmed_drop_leaks_instead_of_executing() {
        // The poisoning degradation: a disarmed mailbox must never execute
        // a parked ref at drop (its frame may be dead); leaking is safe.
        let j = CountJob(AtomicUsize::new(0));
        let m = Mailbox::new();
        m.try_deposit(job_ref(&j, Place(0))).unwrap();
        m.disarm();
        drop(m);
        assert_eq!(j.0.load(Ordering::SeqCst), 0, "disarmed drop must not execute");
    }

    #[test]
    fn drop_executes_leftover_heap_job() {
        // Same, with the representation that actually strands: a
        // fire-and-forget heap job owns its closure, so executing at drop
        // both runs the work and reclaims the allocation (miri-clean).
        use std::sync::Arc;
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let job = HeapJob::new(move || ran2.store(true, Ordering::SeqCst));
        let m = Mailbox::new();
        // SAFETY: the leaked ref is executed exactly once — by the
        // mailbox's own drop-drain, which is the property under test.
        m.try_deposit(unsafe { job.into_job_ref(Place(1)) }).unwrap();
        drop(m);
        assert!(ran.load(Ordering::SeqCst), "heap job parked at shutdown must still run");
    }
}
