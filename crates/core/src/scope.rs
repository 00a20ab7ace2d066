//! Structured, place-aware task scopes — dynamic task sets under the
//! work-first principle.
//!
//! [`join`](crate::join) expresses exactly two-way forks whose closures may
//! borrow from the enclosing stack. Workloads that discover *N* children at
//! runtime (a graph flood such as gcmark's, a request handler fanning out
//! subqueries) need the other classic shape:
//! [`scope`] / [`scope_at`] run a closure that may call
//! [`Scope::spawn`] / [`Scope::spawn_at`] any number of times — from the
//! body, from spawned tasks (siblings spawning siblings), or from nested
//! scopes — and return only when every spawned task has finished. Spawned
//! closures may borrow anything that outlives the scope (`'scope`), exactly
//! like Rayon's `scope`: the wait-at-exit is what makes the borrow sound.
//!
//! ## Work-first accounting
//!
//! A `Scope::spawn` costs one heap allocation (the job must survive the
//! spawning frame, unlike a `join` branch) plus one deque push — no locks,
//! no latch traffic, no `Arc` clone. Everything else is paid at the edges:
//! scope *creation* clones one `Arc` and initializes two atomics, and scope
//! *exit* is a greedy steal-while-wait ([`WorkerThread::wait_until`]): the
//! owner executes its own spawns (they are on its deque tail, popped LIFO)
//! and steals anything else until the [`CountLatch`] drains. A scope on a
//! single worker therefore degenerates to depth-first sequential execution
//! of its spawns in reverse spawn order — the same discipline as `join`.
//!
//! ## Demand-driven splitting
//!
//! A task that walks a local work list need not spawn a fixed share of
//! it eagerly: [`split_wanted`] tells it whether its worker's deque is
//! empty, i.e. whether a thief would find anything to take. Spawning only
//! then keeps one exposed split per worker and makes an un-stolen list
//! cost its serial elision (DESIGN.md §5).
//!
//! ## Place awareness
//!
//! [`scope_at`]`(place, f)` sets the scope's *default* place hint: plain
//! [`Scope::spawn`] tags jobs with it, [`Scope::spawn_at`] overrides per
//! spawn. Hints behave exactly as in [`join_at`](crate::join_at) — under
//! [`SchedPolicy::numa_ws`](crate::SchedPolicy::numa_ws) a thief that steals a
//! hinted job on the wrong socket lazily pushes it toward its designated
//! place, and hints wrap modulo the pool's place count.
//!
//! ## Panics
//!
//! A panic in a spawned task is caught, stored (first panic wins), and
//! resumed by the scope owner after **all** tasks have finished, so sibling
//! work is never abandoned half-joined and borrowed data is never observed
//! from a dead frame. A panic in the scope body itself takes precedence —
//! it, too, is resumed only after the spawn count drains.

use crate::latch::CountLatch;
use crate::registry::{Registry, WorkerThread};
use crate::sleep::Sleep;
use nws_sync::atomic::{AtomicPtr, Ordering};
use nws_topology::Place;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::Arc;

/// A structured-concurrency scope: spawn dynamic task sets that may borrow
/// from the enclosing stack. Created by [`scope`] / [`scope_at`] (or the
/// [`Pool::scope`](crate::Pool::scope) conveniences); see the module docs.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    /// Default place hint for [`spawn`](Scope::spawn).
    place: Place,
    /// One count for the body plus one per unfinished spawn.
    latch: CountLatch,
    /// First panic captured from a spawned task (a leaked
    /// `Box<Box<dyn Any + Send>>`; null = none).
    panic: AtomicPtr<Box<dyn Any + Send + 'static>>,
    /// Makes `'scope` invariant: the compiler may neither shrink it (a
    /// spawned closure could outlive borrowed data) nor grow it (the scope
    /// could smuggle shorter-lived references into longer-lived spawns).
    marker: InvariantScope<'scope>,
}

/// The invariance marker behind [`Scope::marker`]: a spawnable-closure type
/// mentioning `&Scope<'scope>` in argument position ties the knot that
/// pins the lifetime (the same device as Rayon's scope).
type InvariantScope<'scope> = PhantomData<Box<dyn FnOnce(&Scope<'scope>) + Send + Sync + 'scope>>;

/// Runs `f`, which may spawn tasks into the scope it receives, and returns
/// once `f` **and every spawned task** (transitively: spawns may spawn)
/// have finished. Equivalent to [`scope_at`] with [`Place::ANY`].
///
/// Spawned closures may borrow anything that outlives the `scope` call:
///
/// ```
/// let pool = numa_ws::Pool::new(4).expect("pool");
/// let mut counts = vec![0u64; 8];
/// pool.install(|| {
///     numa_ws::scope(|s| {
///         // One task per chunk, each mutably borrowing its slice.
///         for chunk in counts.chunks_mut(2) {
///             s.spawn(move |_| {
///                 for c in chunk {
///                     *c += 1;
///                 }
///             });
///         }
///     });
/// });
/// assert_eq!(counts, vec![1u64; 8]);
/// ```
///
/// # Panics
///
/// Panics if called from outside a [`Pool`](crate::Pool) (enter one with
/// [`Pool::install`](crate::Pool::install)). Panics from `f` or from
/// spawned tasks are resumed after all tasks finish (body panic first,
/// else the first task panic — see the module docs).
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    scope_at(Place::ANY, f)
}

/// As [`scope`], but `place` becomes the scope's default spawn hint: every
/// [`Scope::spawn`] tags its job for `place` (wrapping modulo the pool's
/// place count), as if spawned with [`Scope::spawn_at`]`(place, ..)`. The
/// body `f` itself runs inline on the calling worker, matching the paper's
/// rule that the first child runs where its parent runs.
///
/// # Panics
///
/// As [`scope`].
pub fn scope_at<'scope, F, R>(place: Place, f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let worker = WorkerThread::current()
        .expect("numa_ws::scope must be called from within a pool; enter one with Pool::install");
    let scope = Scope::new(worker, place);
    // Hold a body panic until the spawn count drains: spawned tasks may be
    // running right now, borrowing this very frame.
    let body = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
    // The owner's terminal decrement. No wake is needed: this latch has
    // exactly one waiter — us.
    if !scope.latch.set_one() {
        worker.wait_until(&scope.latch);
    }
    scope.conclude(body)
}

/// Whether the calling worker should split off work for a thief now:
/// `true` when its own deque is empty, so nothing it spawned is exposed to
/// thieves. `false` outside a pool. An empty deque first takes the
/// worker's oldest hidden `join` branch (lazy join promotion, DESIGN.md
/// §5); only when there is none does the answer say split.
///
/// This is the signal for *demand-driven splitting* of scope work lists: a
/// task holding a local list spawns part of it only while this returns
/// `true`, so at most one split per worker waits on a deque and a list no
/// thief takes costs what its serial elision does. The answer is advisory
/// and may be stale the moment it is read; correctness never depends on
/// it, only granularity does. Two `Relaxed` loads when no join branch is
/// hidden, one deque push when one is promoted; no allocation.
#[inline]
pub fn split_wanted() -> bool {
    WorkerThread::current().is_some_and(WorkerThread::split_wanted)
}

impl<'scope> Scope<'scope> {
    fn new(worker: &WorkerThread, place: Place) -> Self {
        Scope {
            registry: Arc::clone(&worker.registry),
            place,
            latch: CountLatch::new(),
            panic: AtomicPtr::new(ptr::null_mut()),
            marker: PhantomData,
        }
    }

    /// Spawns `task` into the scope with the scope's default place hint
    /// (that of [`scope_at`], or [`Place::ANY`] for [`scope`]).
    ///
    /// The task receives `&Scope` and may spawn siblings; it runs at the
    /// latest before the enclosing [`scope`] call returns. Work-first cost:
    /// one heap job + one deque push (the owner pops its own spawns back
    /// LIFO when not stolen).
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.spawn_at(self.place, task);
    }

    /// As [`spawn`](Scope::spawn), but hints the task toward `place`
    /// (wrapping modulo the pool's place count) — the scope rendering of
    /// the paper's `@p#` annotation.
    pub fn spawn_at<F>(&self, place: Place, task: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        // Count the task before its JobRef can possibly execute.
        self.latch.increment();
        let job = Box::new(ScopeJob { scope: self as *const Scope<'scope>, task });
        // SAFETY: the JobRef is executed exactly once — by a worker that
        // found it, or inline on the deque-full fallback below — and
        // `conclude`'s wait keeps `self` (and all `'scope` borrows) alive
        // until the CountLatch records that execution.
        let mut job_ref = unsafe { crate::job::JobRef::new(Box::into_raw(job), place) };
        match WorkerThread::current() {
            Some(worker) if Arc::ptr_eq(&worker.registry, &self.registry) => {
                worker.note_scope_spawn();
                job_ref.set_trace(worker.record_spawn(place));
                if let Err(full) = worker.push(job_ref) {
                    // Deque full: run the task now (losing stealability,
                    // never correctness) — same degradation as `join`, in
                    // the task's own trace bracket.
                    // SAFETY: rejected by push, so not executable elsewhere.
                    worker.run_traced(full.0.trace(), || unsafe { full.0.execute() })
                }
            }
            // Spawn from outside the pool (the scope handle crossed
            // threads): enter through the ingress queues like any external
            // submission. The latch count above is already committed, so a
            // task the pool cannot queue (bounded queue full with the pool
            // poisoned, shutdown race, or an `ingress.push` fault-point
            // panic) must still execute exactly once: run it inline on this
            // thread — the scope owner is blocked waiting on the latch, so
            // the `'scope` borrows are alive right here.
            _ => {
                let outcome = if nws_sync::fault::enabled() {
                    match panic::catch_unwind(AssertUnwindSafe(|| {
                        self.registry.inject(job_ref, true)
                    })) {
                        Ok(o) => o,
                        Err(payload) => {
                            // An `ingress.push` fault models this *client*
                            // thread dying at the pool boundary — it fires
                            // before any queueing, so the ref is still ours
                            // (JobRef is Copy) and the pool is healthy. The
                            // committed latch count obliges us to run the
                            // task exactly once before re-raising to the
                            // external caller.
                            // SAFETY: never queued, unexecuted, unshared.
                            unsafe { job_ref.execute() }
                            panic::resume_unwind(payload);
                        }
                    }
                } else {
                    self.registry.inject(job_ref, true)
                };
                match outcome {
                    crate::registry::Inject::Queued => {}
                    crate::registry::Inject::Full(jr) | crate::registry::Inject::Refused(jr) => {
                        // SAFETY: the ref came back unexecuted and
                        // unshared; executing here consumes it exactly
                        // once under the live scope borrow.
                        unsafe { jr.execute() }
                    }
                }
            }
        }
    }

    /// Records a task panic; the first one wins and is resumed at scope
    /// exit. Only the panic path pays for the allocation and CAS.
    fn store_panic(&self, err: Box<dyn Any + Send + 'static>) {
        let p = Box::into_raw(Box::new(err));
        if self
            .panic
            .compare_exchange(ptr::null_mut(), p, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            // A sibling already stored its panic; keep the first.
            // SAFETY: `p` was just leaked above and lost the race, so this
            // thread still owns it exclusively.
            drop(unsafe { Box::from_raw(p) });
        }
    }

    /// Removes one count from the scope's latch on task completion, waking
    /// the owner if it went to sleep waiting.
    ///
    /// The latch-hazard discipline (see [`CountLatch`]): the instant the
    /// terminal decrement lands, the owner may return from [`scope`] and
    /// pop the frame holding `self`, so the [`Sleep`] reference is copied
    /// out *first* and nothing of `self` is touched afterwards. The `Sleep`
    /// itself lives in the registry, which the executing worker's own
    /// `Arc` keeps alive (scope jobs only execute on pool workers, or
    /// inline under the spawner's borrow — both outlive this call).
    fn complete_one(&self) {
        let sleep: *const Sleep = &self.registry.sleep;
        if self.latch.set_one() {
            // SAFETY: `sleep` points into the registry (see above), not
            // into the possibly-dead scope frame.
            let sleep = unsafe { &*sleep };
            if sleep.num_sleepers() > 0 {
                sleep.wake_all();
            }
        }
    }

    /// Resolves the scope after the count has drained: resume the body's
    /// panic, else the first task panic, else hand back the body's value.
    fn conclude<R>(self, body: Result<R, Box<dyn Any + Send>>) -> R {
        let stored = self.panic.swap(ptr::null_mut(), Ordering::Acquire);
        match body {
            Err(body_panic) => {
                if !stored.is_null() {
                    // SAFETY: non-null means a task leaked it via
                    // `store_panic`; the swap above made us the sole owner.
                    drop(unsafe { Box::from_raw(stored) });
                }
                panic::resume_unwind(body_panic)
            }
            Ok(value) => {
                if !stored.is_null() {
                    // SAFETY: as above.
                    panic::resume_unwind(*unsafe { Box::from_raw(stored) });
                }
                value
            }
        }
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        // `conclude` swaps the panic slot empty on every normal exit; this
        // only fires if the scope is abandoned mid-flight (e.g. a panic in
        // the wait machinery itself) and keeps that path leak-free.
        let p = self.panic.swap(ptr::null_mut(), Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: a non-null slot is a leaked `store_panic` box; the
            // swap transferred ownership to us.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").field("place", &self.place).finish_non_exhaustive()
    }
}

/// The heap representation behind one [`Scope::spawn`]: the task closure
/// plus a back-pointer to its scope. Type- and lifetime-erased into a
/// [`JobRef`](crate::job::JobRef); the scope's exit wait is what keeps the
/// erased `'scope` honest.
struct ScopeJob<'scope, F>
where
    F: FnOnce(&Scope<'scope>) + Send + 'scope,
{
    scope: *const Scope<'scope>,
    task: F,
}

impl<'scope, F> crate::job::Job for ScopeJob<'scope, F>
where
    F: FnOnce(&Scope<'scope>) + Send + 'scope,
{
    // SAFETY: per the `Job::execute` contract, `this` is the leaked box pointer
    // from the spawn, executed exactly once; the scope it points into is
    // kept alive by the completion count until this task finishes.
    unsafe fn execute(this: *const ()) {
        // Reclaim the box; the closure moves out and runs here.
        let this = Box::from_raw(this as *mut Self);
        let scope = &*this.scope;
        let task = this.task;
        if let Err(err) = panic::catch_unwind(AssertUnwindSafe(move || task(scope))) {
            scope.store_panic(err);
        }
        // Flush before the completion becomes visible — the same
        // flush-before-latch-set rule as StackJob/HeapJob (stats docs):
        // whoever observes the scope's completion sees every counter this
        // task bumped.
        if let Some(worker) = WorkerThread::current() {
            worker.flush_counters();
        }
        // MUST be last: the owner may pop the scope's frame the moment the
        // count drains.
        scope.complete_one();
    }
}

// SAFETY: the raw scope pointer is what stops the auto-impl; the pointee is
// a `Scope` (Sync — all-atomic interior) kept alive by the scope exit wait,
// and `F: Send` covers the payload.
unsafe impl<'scope, F> Send for ScopeJob<'scope, F> where F: FnOnce(&Scope<'scope>) + Send + 'scope {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;
    use nws_sync::atomic::AtomicUsize;

    #[test]
    fn empty_scope_returns_value() {
        let pool = Pool::new(2).unwrap();
        let r = pool.install(|| scope(|_| 42));
        assert_eq!(r, 42);
    }

    #[test]
    fn spawns_all_run_before_scope_returns() {
        let pool = Pool::new(4).unwrap();
        let hits = AtomicUsize::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..100 {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        });
        assert_eq!(hits.into_inner(), 100);
    }

    #[test]
    fn single_worker_scope_degenerates_to_sequential() {
        // With one worker nothing can be stolen: the owner must drain its
        // own spawns at scope exit (the greedy steal-while-wait includes
        // popping one's own deque).
        let pool = Pool::new(1).unwrap();
        let hits = AtomicUsize::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..50 {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        });
        assert_eq!(hits.into_inner(), 50);
    }

    #[test]
    fn split_wanted_is_false_outside_a_pool() {
        assert!(!split_wanted());
    }

    #[test]
    fn split_wanted_is_true_on_an_idle_worker() {
        let pool = Pool::new(1).unwrap();
        assert!(pool.install(split_wanted));
    }

    #[test]
    fn split_wanted_is_false_while_a_spawn_is_exposed() {
        // One worker, so nothing steals the spawn: it sits on the deque
        // until the scope's exit wait pops it.
        let pool = Pool::new(1).unwrap();
        let (before, exposed) = pool.install(|| {
            scope(|s| {
                let before = split_wanted();
                s.spawn(|_| {});
                (before, split_wanted())
            })
        });
        assert!(before, "empty deque must want a split");
        assert!(!exposed, "an un-run spawn on the deque must suppress splitting");
    }

    #[test]
    fn split_wanted_promotes_a_hidden_join_branch_first() {
        // One worker. The outer join's fork promotes its branch (empty
        // deque); the inner join's branch is then recorded hidden. Taking
        // the outer branch off the deque by hand, as a thief would, leaves
        // an empty deque over a hidden branch: split_wanted must expose
        // that branch and answer "no split".
        let pool = Pool::new(1).unwrap();
        let (answers, ()) = pool.install(|| {
            crate::join(
                || {
                    let (answers, ()) = crate::join(
                        || {
                            let worker = WorkerThread::current().unwrap();
                            let outer = worker.pop().expect("outer branch promoted at its fork");
                            let answers = (split_wanted(), split_wanted());
                            // SAFETY: popped off the own deque, so live and
                            // unexecuted; run once, as a thief would.
                            unsafe { worker.execute(outer) };
                            answers
                        },
                        || (),
                    );
                    answers
                },
                || (),
            )
        });
        assert_eq!(answers, (false, false), "the hidden branch must be exposed, not split past");
        assert_eq!(pool.stats().total_join_promotions(), 2);
    }

    #[test]
    fn deque_full_spawns_degrade_to_inline() {
        // Capacity-8 deque, 100 spawns from a single worker: most pushes
        // are rejected and must run inline, losing nothing.
        let pool = Pool::builder().workers(1).deque_capacity(8).build().unwrap();
        let hits = AtomicUsize::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..100 {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        });
        assert_eq!(hits.into_inner(), 100);
    }
}
