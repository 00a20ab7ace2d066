//! Structured, place-aware task scopes — dynamic task sets under the
//! work-first principle.
//!
//! [`join`](fn@crate::join) expresses exactly two-way forks whose closures may
//! borrow from the enclosing stack. Workloads that discover *N* children at
//! runtime (a graph flood such as gcmark's, a request handler fanning out
//! subqueries) need the other classic shape: [`scope`] runs a closure that
//! may call [`Scope::spawn`] / [`Scope::spawn_at`] any number of times —
//! from the body, from spawned tasks (siblings spawning siblings), or from
//! nested scopes — and returns only when every spawned task has finished.
//! Spawned closures may borrow anything that outlives the scope
//! (`'scope`), exactly like Rayon's `scope`: the wait-at-exit is what makes
//! the borrow sound.
//!
//! ## Work-first accounting
//!
//! A `Scope::spawn` costs one heap allocation (the job must survive the
//! spawning frame, unlike a `join` branch) plus one deque push — no locks,
//! no latch traffic, no `Arc` clone. Everything else is paid at the edges:
//! scope *creation* clones one `Arc` and initializes the latch and the
//! panic slot, and scope *exit* is a greedy steal-while-wait
//! ([`WorkerThread::wait_until`]): the owner executes its own spawns (they
//! are on its deque tail, popped LIFO) and steals anything else until the
//! [`CountLatch`] drains. A scope on a single worker therefore degenerates
//! to depth-first sequential execution of its spawns in reverse spawn
//! order — the same discipline as `join`.
//!
//! A spawn is a worker operation, as `cilk_spawn` is in the paper: it
//! pushes onto the spawning worker's deque. The body and the tasks run on
//! the scope's pool, so they may spawn; any other thread that reaches a
//! `&Scope` panics at `spawn` before the task is counted (it may enter
//! the pool with [`Pool::install`](crate::Pool::install) and spawn there).
//!
//! ## Demand-driven splitting
//!
//! A task that walks a local work list need not spawn a fixed share of
//! it eagerly: [`split_wanted`] tells it whether its worker's deque is
//! empty, i.e. whether a thief would find anything to take. Spawning only
//! then keeps one exposed split per worker and makes an un-stolen list
//! cost its serial elision (DESIGN.md §4, "Demand-driven splitting").
//!
//! ## Place awareness
//!
//! [`Scope::spawn`] leaves its job unhinted ([`Place::ANY`]);
//! [`Scope::spawn_at`] hints one spawn. Hints behave exactly as in
//! [`join_at`](crate::join_at) — under
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

use crate::job::HeapJob;
use crate::latch::CountLatch;
use crate::registry::{Registry, WorkerThread};
use crate::sleep::Sleep;
use nws_sync::Mutex;
use nws_topology::Place;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// A structured-concurrency scope: spawn dynamic task sets that may borrow
/// from the enclosing stack. Created by [`scope`] (or the
/// [`Pool::scope`](crate::Pool::scope) convenience); see the module docs.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    /// One count for the body plus one per unfinished spawn.
    latch: CountLatch,
    /// First panic captured from a spawned task. Only a panicking task and
    /// [`conclude`](Scope::conclude) touch it.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
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
/// have finished. The body `f` runs inline on the calling worker, matching
/// the paper's rule that the first child runs where its parent runs.
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
    let worker = WorkerThread::current()
        .expect("numa_ws::scope must be called from within a pool; enter one with Pool::install");
    let scope = Scope::new(worker);
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
/// §3, "Work-first joins"); only when there is none does the answer say
/// split.
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
    fn new(worker: &WorkerThread) -> Self {
        Scope {
            registry: Arc::clone(&worker.registry),
            latch: CountLatch::new(),
            panic: Mutex::new(None),
            marker: PhantomData,
        }
    }

    /// Spawns `task` into the scope, unhinted ([`Place::ANY`]).
    ///
    /// The task receives `&Scope` and may spawn siblings; it runs at the
    /// latest before the enclosing [`scope`] call returns. Work-first cost:
    /// one heap job + one deque push (the owner pops its own spawns back
    /// LIFO when not stolen).
    ///
    /// # Panics
    ///
    /// Panics, before the task is counted, if the calling thread is not a
    /// worker of the scope's pool (see the module docs).
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.spawn_at(Place::ANY, task);
    }

    /// As [`spawn`](Scope::spawn), but hints the task toward `place`
    /// (wrapping modulo the pool's place count) — the scope rendering of
    /// the paper's `@p#` annotation.
    ///
    /// # Panics
    ///
    /// As [`spawn`](Scope::spawn).
    pub fn spawn_at<F>(&self, place: Place, task: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let worker = WorkerThread::current()
            .filter(|worker| Arc::ptr_eq(&worker.registry, &self.registry))
            .expect(concat!(
                "numa_ws::Scope::spawn must be called from within the scope's pool; ",
                "enter it with Pool::install"
            ));
        // Count the task before its JobRef can possibly execute.
        self.latch.increment();
        let job = HeapJob::new(move || {
            if let Err(err) = panic::catch_unwind(AssertUnwindSafe(|| task(self))) {
                // The first panic wins; a later one is dropped here.
                self.panic.lock().get_or_insert(err);
            }
            // Flush before the completion becomes visible — the same
            // flush-before-latch-set rule as a join branch's (stats docs):
            // whoever observes the scope's completion sees every counter
            // this task bumped.
            let worker = WorkerThread::current();
            if let Some(worker) = worker {
                worker.flush_counters();
            }
            // MUST be last: the owner may pop the scope's frame the moment
            // the count drains.
            self.complete_one(worker.map(|worker| &worker.registry.sleep));
        });
        // SAFETY: the JobRef is executed exactly once — by a worker that
        // found it, or inline on the deque-full fallback below — and
        // `scope`'s exit wait keeps `self` (and all `'scope` borrows) alive
        // until the CountLatch records that execution.
        let mut job_ref = unsafe { job.into_job_ref(place) };
        job_ref.set_trace(worker.record_spawn(place));
        match worker.push(job_ref) {
            // Counted once the deque took it, so scope spawns stay a
            // subset of `spawns`.
            Ok(()) => worker.note_scope_spawn(),
            // Deque full: run the task now (losing stealability, never
            // correctness) — same degradation as `join`, in the task's own
            // trace bracket.
            // SAFETY: rejected by push, so not executable elsewhere.
            Err(full) => worker.run_traced(full.0.trace(), || unsafe { full.0.execute() }),
        }
    }

    /// Removes one count from the scope's latch on task completion, waking
    /// the owner if it went to sleep waiting on `sleep`, the sleep layer of
    /// the executing worker's pool (`None` off a worker).
    ///
    /// The latch-hazard discipline (see [`CountLatch`]): the instant the
    /// terminal decrement lands, the owner may return from [`scope`] and
    /// pop the frame holding `self`, so nothing of `self` is touched
    /// afterwards. `sleep` lives in the registry, which the executing
    /// worker's own `Arc` keeps alive; it is the scope's pool's, since
    /// only that pool's workers run its tasks.
    fn complete_one(&self, sleep: Option<&Sleep>) {
        if self.latch.set_one() {
            if let Some(sleep) = sleep.filter(|sleep| sleep.num_sleepers() > 0) {
                sleep.wake_all();
            }
        }
    }

    /// Resolves the scope after the count has drained: resume the body's
    /// panic, else the first task panic, else hand back the body's value.
    fn conclude<R>(self, body: Result<R, Box<dyn Any + Send>>) -> R {
        match (body, self.panic.into_inner()) {
            (Err(body_panic), _) => panic::resume_unwind(body_panic),
            (Ok(_), Some(task_panic)) => panic::resume_unwind(task_panic),
            (Ok(value), None) => value,
        }
    }
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;
    use nws_sync::atomic::{AtomicUsize, Ordering};

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
        // One worker, so no thief drains the deque: the first
        // `DEQUE_CAPACITY` spawns park on it, and the next 100 find it full
        // and must run inline, before the body returns, losing nothing.
        use crate::registry::DEQUE_CAPACITY;
        let pool = Pool::builder().workers(1).build().unwrap();
        let hits = AtomicUsize::new(0);
        let inline = pool.install(|| {
            scope(|s| {
                for _ in 0..DEQUE_CAPACITY + 100 {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
                hits.load(Ordering::SeqCst)
            })
        });
        assert_eq!(inline, 100);
        assert_eq!(hits.into_inner(), DEQUE_CAPACITY + 100);
        let stats = pool.stats();
        assert_eq!(stats.total_spawn_overflows(), 100, "{stats:?}");
        // Only the accepted pushes count as scope spawns, a subset of
        // `spawns`.
        assert_eq!(stats.total_scope_spawns(), DEQUE_CAPACITY as u64, "{stats:?}");
        assert!(stats.total_spawns() >= stats.total_scope_spawns(), "{stats:?}");
    }

    #[test]
    fn off_pool_spawn_panics_before_it_counts() {
        // A thread outside the pool that reaches the scope handle may not
        // spawn into it; the scope still waits for its on-pool spawns.
        let pool = Pool::new(2).unwrap();
        let hits = AtomicUsize::new(0);
        let payload = pool.install(|| {
            scope(|s| {
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                let outside = std::thread::scope(|ts| {
                    ts.spawn(|| s.spawn(|_| unreachable!("an off-pool spawn must not run"))).join()
                });
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                outside.expect_err("a spawn from outside the pool must panic")
            })
        });
        let message = payload.downcast_ref::<String>().expect("a message payload");
        assert!(
            message
                .starts_with("numa_ws::Scope::spawn must be called from within the scope's pool"),
            "{message}"
        );
        assert_eq!(hits.into_inner(), 2, "both on-pool spawns ran before the scope returned");
        let stats = pool.stats();
        assert_eq!(stats.total_scope_spawns(), 2, "the off-pool spawn is not counted: {stats:?}");
    }
}
