//! Fork-join primitives with locality hints.
//!
//! [`join`] is the Rust rendering of `cilk_spawn`/`cilk_sync`: `join(a, b)`
//! runs `a` on the current worker while `b` waits to be stolen by other
//! workers — the same LIFO/FIFO discipline as Cilk's continuation
//! stealing, with the roles of "continuation" and "child" swapped as
//! Rust's stack model requires (see DESIGN.md §2, "Child stealing"). [`join_at`] attaches a
//! **place hint** to the stealable half; under
//! [`SchedPolicy::numa_ws`](crate::SchedPolicy::numa_ws) a thief that
//! steals it on the wrong socket lazily pushes it toward its designated
//! place.
//!
//! Following the paper's work-first engineering, an unhinted `join` forks
//! lazily: `b` is recorded in the worker's owner-only frame stack, not
//! pushed, and runs in place after `a` unless the worker promoted it onto
//! its deque meanwhile (it does so when the deque is empty, and before it
//! blocks or pushes eagerly; see `crate::frames` and DESIGN.md §3). Its
//! path without promotion inlines whole into the caller and stores only
//! what a later promotion needs: `b`'s closure, its empty result and latch
//! flag, the frame's two words and `top`, and the `spawns` count. It has
//! no deque operation, no fence, no allocation and no out-of-line call
//! but `a` and `b`; promotion, the eager fallback and trace recording are
//! cold functions. A hinted join (the paper's PUSHBACK and mailboxes must
//! see it) and a join forked over a full frame stack push `b` eagerly and
//! pop it back. Both forks share one tail ([`join_forked`]). A
//! trace-recording pool forks the same way; a `b` run in place gets the
//! same Start/End bracket wherever its `JobRef` was.

use crate::job::{JobRef, RawJob, StackJob};
use crate::latch::SpinLatch;
use crate::registry::WorkerThread;
use nws_topology::Place;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

/// Runs `a` and `b` potentially in parallel and returns both results.
///
/// `a` executes on the current worker; `b` may be stolen. Equivalent to
/// [`join_at`] with [`Place::ANY`].
///
/// # Panics
///
/// Panics if called from outside a [`Pool`](crate::Pool) (enter one with
/// [`Pool::install`](crate::Pool::install)). If `a` or `b` panics, the
/// panic is resumed after both halves have finished; `a`'s panic takes
/// precedence.
///
/// # Example
///
/// ```
/// let pool = numa_ws::Pool::new(2).expect("pool");
/// let (a, b) = pool.install(|| numa_ws::join(|| 6 * 7, || "hi"));
/// assert_eq!((a, b), (42, "hi"));
/// ```
#[inline]
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    join_forked(current_worker(), a, b, Place::ANY, fork_lazy)
}

/// Like [`join`], but hints that the stealable half `b` should run at
/// `place` (the paper's `@p#` annotation; the inline half `a` implicitly
/// stays at the current worker's place, matching the paper's rule that the
/// first spawned child runs where its parent runs).
///
/// The hint is best-effort: load balancing always wins, and hints wrap
/// modulo the pool's place count so code written for four places runs
/// unchanged on two (processor obliviousness, §III-A).
///
/// # Panics
///
/// As [`join`].
#[inline]
pub fn join_at<A, B, RA, RB>(a: A, b: B, place: Place) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if place.index().is_none() {
        return join(a, b);
    }
    // A hinted `b` forks eagerly, so PUSHBACK and the mailboxes see it.
    join_forked(current_worker(), a, b, place, |worker, job| {
        fork_eager(worker, job.raw(), job.place(), job.trace())
    })
}

#[inline(always)]
fn current_worker() -> &'static WorkerThread {
    WorkerThread::current()
        .expect("numa_ws::join must be called from within a pool; enter one with Pool::install")
}

/// Where a join's fork put `b`.
enum Fork {
    /// Hidden frame `index` of the worker's frame stack.
    Hidden(usize),
    /// The worker's deque.
    Pushed,
    /// Nowhere: the deque was full, so `b` lost its stealability.
    Unshared,
}

/// The lazy fork: `b` becomes a hidden frame, or, over a full frame stack,
/// an eager push.
#[inline(always)]
fn fork_lazy(worker: &WorkerThread, job: JobRef) -> Fork {
    match worker.fork_lazy(job) {
        Some(frame) => Fork::Hidden(frame),
        None => fork_eager(worker, job.raw(), job.place(), job.trace()),
    }
}

/// The eager fork: `b` goes onto the deque, above every hidden frame. The
/// job comes in parts, which pass in registers: a whole `JobRef` would go
/// through memory, and the lazy fork would pay those stores even when it
/// never calls this.
#[cold]
#[inline(never)]
fn fork_eager(worker: &WorkerThread, job: RawJob, place: Place, trace: u64) -> Fork {
    if worker.push(job.with(place, trace)).is_ok() {
        Fork::Pushed
    } else {
        Fork::Unshared
    }
}

/// The one body of every join: fork `b` with `fork`, run `a`, then resolve
/// `b` (run it in place, pop it back, or wait for the thief), check the
/// exit, and hand back both results or the first panic.
#[inline(always)]
fn join_forked<A, B, RA, RB>(
    worker: &WorkerThread,
    a: A,
    b: B,
    place: Place,
    fork: impl FnOnce(&WorkerThread, JobRef) -> Fork,
) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(SpinLatch::new(), b);
    // The fork's one Spawn record, before `b` lands in a hidden frame, on
    // the deque, or (deque full) nowhere; every copy of the ref carries it.
    let trace = worker.record_spawn(place);
    // SAFETY: job_b stays in place on this stack frame until resolved
    // below, and is executed exactly once (in place xor stolen).
    let mut ref_b = unsafe { job_b.as_job_ref(place) };
    ref_b.set_trace(trace);
    let forked = fork(worker, ref_b);

    // Execute `a`; hold any panic until `b` is resolved, because job_b
    // lives on our stack and a thief may be running it right now.
    let status_a = panic::catch_unwind(AssertUnwindSafe(a));

    let in_place = match forked {
        // A frame still hidden was job_b's only JobRef; a promoted one ends
        // like an eager fork.
        Fork::Hidden(frame) => worker.resolve_frame(frame) || pop_back(worker, ref_b.id()),
        Fork::Pushed => pop_back(worker, ref_b.id()),
        Fork::Unshared => true,
    };
    let result_b: Result<RB, Box<dyn Any + Send>> = if in_place {
        // SAFETY: no other thread holds a JobRef to job_b (never exposed,
        // popped back, or refused by the deque), and it has not run.
        let run_b = || unsafe { job_b.run_in_place() };
        worker.run_traced(trace, || panic::catch_unwind(AssertUnwindSafe(run_b)))
    } else {
        // Stolen: steal-while-waiting until the thief finishes.
        worker.wait_until(&job_b.latch);
        // SAFETY: latch set — the thief stored the result.
        unsafe { job_b.into_result() }
    };
    // The join's exit: if its deque ran dry (`b` was stolen or popped back),
    // expose the oldest frame still hidden below this join.
    worker.promote_if_empty();

    match (status_a, result_b) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) => panic::resume_unwind(payload),
        (Ok(_), Err(payload)) => panic::resume_unwind(payload),
    }
}

/// Pops the own deque until the job `id` comes back (`true`) or the deque
/// runs dry because a thief took it (`false`). Every other job popped on
/// the way runs depth-first: `a` (or a waiting frame below this join)
/// pushed jobs it did not consume, e.g. scope spawns, which outlive the
/// frame that pushed them by design. The join's own entry, if un-stolen,
/// sits further down. Out of line: a lazy join gets here only when its
/// frame was promoted.
#[cold]
#[inline(never)]
fn pop_back(worker: &WorkerThread, id: *const ()) -> bool {
    while let Some(job) = worker.pop() {
        if job.id() == id {
            return true;
        }
        // SAFETY: protocol-found jobs are live and unexecuted.
        unsafe { worker.execute(job) };
    }
    false
}

/// Four-way fork with per-branch place hints — the shape of the paper's
/// Figure 4 mergesort top level (`@p0..@p3`).
///
/// Composed as `join_at(join_at(a, b, places[1]), join_at(c, d, places[3]),
/// places[2])`: the `(c, d)` half is hinted at `places[2]`, then `b` at
/// `places[1]` and `d` at `places[3]`. Branch `a` runs inline at the
/// current place, like the first `cilk_spawn`, so `places[0]` hints
/// nothing.
///
/// # Panics
///
/// As [`join`].
pub fn join4_at<FA, FB, FC, FD, RA, RB, RC, RD>(
    places: [Place; 4],
    a: FA,
    b: FB,
    c: FC,
    d: FD,
) -> (RA, RB, RC, RD)
where
    FA: FnOnce() -> RA + Send,
    FB: FnOnce() -> RB + Send,
    FC: FnOnce() -> RC + Send,
    FD: FnOnce() -> RD + Send,
    RA: Send,
    RB: Send,
    RC: Send,
    RD: Send,
{
    let ((ra, rb), (rc, rd)) =
        join_at(move || join_at(a, b, places[1]), move || join_at(c, d, places[3]), places[2]);
    (ra, rb, rc, rd)
}

/// Four-way fork without hints.
///
/// # Panics
///
/// As [`join`].
pub fn join4<FA, FB, FC, FD, RA, RB, RC, RD>(a: FA, b: FB, c: FC, d: FD) -> (RA, RB, RC, RD)
where
    FA: FnOnce() -> RA + Send,
    FB: FnOnce() -> RB + Send,
    FC: FnOnce() -> RC + Send,
    FD: FnOnce() -> RD + Send,
    RA: Send,
    RB: Send,
    RC: Send,
    RD: Send,
{
    join4_at([Place::ANY; 4], a, b, c, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    #[test]
    fn frame_stack_is_balanced_after_nested_panics() {
        fn nested() -> i32 {
            let (a, b) = join(|| join(|| -> i32 { panic!("deep a") }, || 1), || join(|| 2, || 3));
            a.0 + a.1 + b.0 + b.1
        }
        let pool = Pool::new(1).unwrap();
        let depths = pool.install(|| {
            let (inside, ()) = join(
                || {
                    assert!(panic::catch_unwind(nested).is_err());
                    WorkerThread::current().unwrap().frame_depth()
                },
                || (),
            );
            assert!(panic::catch_unwind(nested).is_err());
            (inside, WorkerThread::current().unwrap().frame_depth())
        });
        assert_eq!(depths, (1, 0), "only the enclosing join's frame may remain");
    }
}
