//! Type-erased jobs stored in deques and mailboxes.
//!
//! A [`JobRef`] is the runtime's "frame": a raw pointer to a job plus its
//! execute thunk and the **place hint** the NUMA-WS protocol routes by.
//! The shadow-frame/full-frame economy of the paper appears here as: an
//! unhinted `join` records two words of its `JobRef` ([`RawJob`]) in
//! the worker's owner-only frame stack (see `crate::frames`) and runs it in place
//! with [`StackJob::run_in_place`] unless the worker promoted it onto the
//! deque; a *steal* is where the runtime pays for latches, result
//! plumbing, and possibly a PUSHBACK episode (promotion to full).
//!
//! Two concrete representations implement [`Job`]: [`StackJob`] (a
//! `join` branch / `install` root, owned by a caller frame that waits for
//! it) and [`HeapJob`] (a `Pool::spawn` or a `Scope::spawn`, which owns its
//! closure and frees itself when it runs; a scope task's closure reports
//! back to its waiting scope — see `crate::scope`). The ownership split is
//! what the shutdown protocol leans on: stack jobs always have a live
//! waiter, so only heap jobs can be "stranded", and for them executing
//! *is* reclaiming — the drains in `worker_main` and `Mailbox::drop` run
//! leftovers rather than leak them.

use crate::latch::Latch;
use nws_topology::Place;
use std::any::Any;
use std::cell::UnsafeCell;
use std::mem::ManuallyDrop;
use std::panic::{self, AssertUnwindSafe};

/// A type-erased, place-annotated pointer to a job awaiting execution.
///
/// # Safety contract
///
/// The pointee must outlive the `JobRef` and be executed **exactly once**.
/// The join protocol guarantees this: a `StackJob` lives on the stack of a
/// worker that does not return before the job has been executed (inline or
/// by a thief) and its latch set.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
    place: Place,
    /// Trace-recorder task id; `0` means "untraced" (recording off).
    trace: u64,
}

// SAFETY: JobRef hands a stack pointer across threads; the join protocol
// (see module docs) keeps the pointee alive until execution completes.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Wraps a job.
    ///
    /// # Safety
    ///
    /// `data` must stay valid until the job executes, and the job must be
    /// executed exactly once.
    pub(crate) unsafe fn new<T: Job>(data: *const T, place: Place) -> JobRef {
        JobRef { pointer: data as *const (), execute_fn: T::execute, place, trace: 0 }
    }

    /// Trace-recorder id attached at the spawn point (`0` = untraced).
    #[inline]
    pub(crate) fn trace(&self) -> u64 {
        self.trace
    }

    /// Attaches a trace-recorder id (done once, at the spawn point).
    #[inline]
    pub(crate) fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// The ref without its place and trace id (see [`RawJob`]).
    #[inline(always)]
    pub(crate) fn raw(self) -> RawJob {
        RawJob { pointer: self.pointer, execute_fn: self.execute_fn }
    }

    /// The locality hint attached at spawn time.
    #[inline]
    pub(crate) fn place(&self) -> Place {
        self.place
    }

    /// Identity of the underlying job (used to recognize one's own job when
    /// popping the deque).
    #[inline]
    pub(crate) fn id(&self) -> *const () {
        self.pointer
    }

    /// Runs the job.
    ///
    /// # Safety
    ///
    /// Must be called exactly once, while the pointee is alive.
    #[inline]
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.pointer)
    }
}

/// A [`JobRef`] without its place and trace id: the two words a hidden
/// `join` frame stores (a lazily forked job's place is always
/// [`Place::ANY`], and its trace id lives beside it only when the pool
/// records; see `crate::frames`). Two words also pass in registers where a
/// whole `JobRef` passes through memory, which keeps a cold call off the
/// fork's stores. [`with`](RawJob::with) rebuilds the full ref.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawJob {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

impl RawJob {
    /// The [`JobRef`] this was taken [`raw`](JobRef::raw) from, given its
    /// place and trace id back.
    #[inline]
    pub(crate) fn with(self, place: Place, trace: u64) -> JobRef {
        JobRef { pointer: self.pointer, execute_fn: self.execute_fn, place, trace }
    }
}

/// Implemented by concrete job representations.
pub(crate) trait Job {
    /// Runs the job behind the type-erased pointer.
    ///
    /// # Safety
    ///
    /// `this` must be the pointer a [`JobRef::new`] was created from, alive
    /// and not yet executed.
    unsafe fn execute(this: *const ());
}

/// Outcome of a job, including a captured panic to re-throw at the join.
pub(crate) enum JobResult<R> {
    None,
    Ok(R),
    Panicked(Box<dyn Any + Send>),
}

/// A job allocated on the spawning worker's stack (the `join` fast path —
/// no heap allocation on the work path, per the work-first principle).
///
/// Generic over the latch: `join` uses a
/// [`SpinLatch`](crate::latch::SpinLatch) (the waiter steals while
/// spinning), [`Pool::install`](crate::Pool::install) a blocking
/// [`Gate`](crate::latch::Gate) of one pass.
pub(crate) struct StackJob<L, F, R> {
    func: UnsafeCell<ManuallyDrop<F>>,
    result: UnsafeCell<JobResult<R>>,
    /// Set when a thief finishes executing the job.
    pub(crate) latch: L,
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(latch: L, func: F) -> Self {
        StackJob {
            func: UnsafeCell::new(ManuallyDrop::new(func)),
            result: UnsafeCell::new(JobResult::None),
            latch,
        }
    }

    /// A [`JobRef`] pointing at this job.
    ///
    /// # Safety
    ///
    /// Caller must keep `self` alive until the ref is executed, and ensure
    /// single execution.
    pub(crate) unsafe fn as_job_ref(&self, place: Place) -> JobRef {
        JobRef::new(self, place)
    }

    /// Runs the job on the owning worker, in place: its `JobRef` was never
    /// exposed, or was popped back un-stolen. By reference, because the job
    /// must not move while a `JobRef` to it exists (and moving it would copy
    /// the closure for nothing).
    ///
    /// # Safety
    ///
    /// The job must not have been executed, and no other thread may hold a
    /// live `JobRef` to it; this consumes the closure, so it runs once.
    pub(crate) unsafe fn run_in_place(&self) -> R {
        let func = ManuallyDrop::take(&mut *self.func.get());
        func()
    }

    /// Takes the result stored by a thief.
    ///
    /// # Safety
    ///
    /// The job's `JobRef` must have finished executing (the latch was
    /// observed set), so no thief still holds a pointer into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the job never ran (protocol bug).
    pub(crate) unsafe fn into_result(self) -> Result<R, Box<dyn Any + Send>> {
        match self.result.into_inner() {
            JobResult::Ok(r) => Ok(r),
            JobResult::Panicked(payload) => Err(payload),
            JobResult::None => unreachable!("join waited on a latch that was never set"),
        }
    }
}

impl<L, F, R> Job for StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    // SAFETY: per the `Job::execute` contract, `this` came from `as_job_ref` on
    // a StackJob the owner keeps alive until the latch is set, and each
    // JobRef executes at most once.
    unsafe fn execute(this: *const ()) {
        let this = &*(this as *const Self);
        // Move the closure out; the owner will not touch `func` again
        // (single-execution contract).
        let func = ManuallyDrop::take(&mut *this.func.get());
        let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(r) => JobResult::Ok(r),
            Err(e) => JobResult::Panicked(e),
        };
        *this.result.get() = result;
        // Publish counters before publishing completion: whoever observes
        // the latch (and, transitively, whoever observes the root's
        // completion) then sees every counter this job's execution bumped —
        // the exactness half of the deferred-flush protocol (stats module
        // docs). Steal path: the owner's un-stolen jobs never come here.
        // The same worker's pool wakes the joiner.
        match crate::registry::WorkerThread::current() {
            Some(worker) => {
                worker.flush_counters();
                this.latch.set(Some(&worker.registry.sleep));
            }
            None => this.latch.set(None),
        }
    }
}

/// A heap-allocated job that no caller frame waits for: the
/// representation behind [`Pool::spawn`](crate::Pool::spawn) / `spawn_at`
/// and [`Scope::spawn`](crate::Scope::spawn). The box frees itself on
/// execution, so unlike [`StackJob`] there is no owner to report back to:
/// results go through whatever the closure captures (a scope task's
/// closure stores its panic in, and completes, its scope), and a panic that
/// escapes the closure is caught — the pool must survive a panicking
/// spawn — then counted (see `registry::note_job_panic`) instead of being
/// silently discarded.
///
/// `F` need not be `'static`: a scope task borrows from the scope's frame,
/// which its exit wait keeps alive until the task has run (see
/// [`into_job_ref`](HeapJob::into_job_ref)).
pub(crate) struct HeapJob<F> {
    func: F,
}

impl<F> HeapJob<F>
where
    F: FnOnce() + Send,
{
    pub(crate) fn new(func: F) -> Box<Self> {
        Box::new(HeapJob { func })
    }

    /// Converts the box into a [`JobRef`], leaking it until execution.
    ///
    /// # Safety
    ///
    /// The returned ref must be executed exactly once, while everything `F`
    /// borrows is alive; executing reclaims the allocation, so the ref is
    /// dead afterwards. A ref that is never executed leaks the box — the
    /// shutdown path therefore *runs* leftovers wherever one can hide: the
    /// work and mailbox drains in `worker_main`, and `Mailbox::drop` as the
    /// final net for a deposit that raced the drain.
    pub(crate) unsafe fn into_job_ref(self: Box<Self>, place: Place) -> JobRef {
        JobRef::new(Box::into_raw(self), place)
    }

    /// Reclaims the box behind a [`JobRef`] that was handed back unqueued
    /// (a bounded-ingress rejection), undoing [`into_job_ref`]'s leak
    /// without executing the closure.
    ///
    /// # Safety
    ///
    /// `job` must have been produced by `into_job_ref` on a `HeapJob<F>`
    /// with this exact `F`, never executed, and visible to no other thread
    /// (every queue it was offered to rejected it).
    ///
    /// [`into_job_ref`]: HeapJob::into_job_ref
    pub(crate) unsafe fn reclaim_unexecuted(job: JobRef) -> Box<Self> {
        Box::from_raw(job.id() as *mut Self)
    }

    /// Unwraps the closure (to hand back to a `try_spawn_at` caller).
    pub(crate) fn into_func(self) -> F {
        self.func
    }
}

impl<F> Job for HeapJob<F>
where
    F: FnOnce() + Send,
{
    // SAFETY: per the `Job::execute` contract, `this` is the leaked box pointer
    // from `into_job_ref`, executed exactly once, so reclaiming it here is
    // the unique undo of that leak.
    unsafe fn execute(this: *const ()) {
        // Reclaim the box; its closure runs (and drops) here.
        let this = Box::from_raw(this as *mut Self);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(this.func)) {
            // A fire-and-forget job has no joiner to rethrow at, but the
            // panic is not silently discarded either: it is counted
            // (`job_panics`), and debug builds print it.
            crate::registry::note_job_panic(payload.as_ref());
        }
        // No latch to publish through, but flush anyway so counters bumped
        // by a fire-and-forget job are visible as soon as any effect of the
        // job (e.g. a channel send it performed) is.
        if let Some(worker) = crate::registry::WorkerThread::current() {
            worker.flush_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latch::SpinLatch;

    #[test]
    fn stack_job_inline_run() {
        let job = StackJob::new(SpinLatch::new(), || 40 + 2);
        // SAFETY: never turned into a JobRef, so the job has not executed.
        let r = unsafe { job.run_in_place() };
        assert_eq!(r, 42);
    }

    #[test]
    fn stack_job_execute_then_take() {
        let job = StackJob::new(SpinLatch::new(), || "done".to_string());
        // SAFETY: `job` is a local that outlives `jr`.
        let jr = unsafe { job.as_job_ref(Place(1)) };
        assert_eq!(jr.place(), Place(1));
        // SAFETY: executed exactly once, with `job` still alive.
        unsafe { jr.execute() };
        assert!(job.latch.probe());
        // SAFETY: the latch probe above observed execution complete.
        assert_eq!(unsafe { job.into_result() }.ok(), Some("done".to_string()));
    }

    #[test]
    fn stack_job_panic_captured() {
        let job: StackJob<_, _, ()> = StackJob::new(SpinLatch::new(), || panic!("boom"));
        // SAFETY: `job` is a local that outlives `jr`.
        let jr = unsafe { job.as_job_ref(Place::ANY) };
        // SAFETY: executed exactly once; must not propagate the panic here.
        unsafe { jr.execute() };
        assert!(job.latch.probe());
        // SAFETY: the latch probe above observed execution complete.
        let payload = unsafe { job.into_result() }.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn heap_job_runs_and_frees_itself() {
        use nws_sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let job = HeapJob::new(move || ran2.store(true, Ordering::SeqCst));
        // SAFETY: the ref is executed exactly once, just below.
        let jr = unsafe { job.into_job_ref(Place(3)) };
        assert_eq!(jr.place(), Place(3));
        // SAFETY: sole execution of the leaked box — it reclaims itself
        // (miri-clean).
        unsafe { jr.execute() };
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn heap_job_panic_is_contained() {
        let job = HeapJob::new(|| panic!("spawned panic"));
        // SAFETY: the ref is executed exactly once, just below.
        let jr = unsafe { job.into_job_ref(Place::ANY) };
        // SAFETY: sole execution; must neither propagate nor leak.
        unsafe { jr.execute() };
    }

    #[test]
    fn job_ref_identity() {
        let job = StackJob::new(SpinLatch::new(), || 0u8);
        // SAFETY: `job` is a local that outlives `jr`.
        let jr = unsafe { job.as_job_ref(Place::ANY) };
        assert_eq!(jr.id(), &job as *const _ as *const ());
        // SAFETY: executed exactly once, with `job` still alive.
        unsafe { jr.execute() };
        // SAFETY: execute returned on this same thread, so the job ran.
        let _ = unsafe { job.into_result() };
    }
}
