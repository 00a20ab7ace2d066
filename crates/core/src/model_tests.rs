//! Checked-interleaving tests for the runtime's lock-free protocol pieces,
//! compiled only under `--cfg nws_model` (the `nws_sync` model-checking
//! backend). Each test explores every schedule (bounded preemptions) *and*
//! every weak-memory outcome the facade's orderings admit, so these are
//! proofs over the model where the sibling unit tests are samples.
//!
//! The regression test for the shutdown path stranding a lazily-pushed
//! heap job (fixed by executing leftovers in `Mailbox::drop`) lives here
//! in its natural habitat.

use crate::frames::FrameStack;
use crate::job::{HeapJob, Job, JobRef};
use crate::latch::{CountLatch, Probe, SpinLatch};
use crate::mailbox::Mailbox;
use crate::sleep::{Sleep, SleepOutcome};
use nws_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use nws_deque::the_deque;
use nws_sync::model::{Builder, FailureKind};
use nws_sync::thread;
use nws_topology::Place;
use std::sync::Arc;
use std::time::Duration;

/// A heap job that bumps `hits` when executed. Heap jobs own their
/// closure, so the `JobRef` is `'static` and can cross model threads.
fn counting_job(hits: &Arc<AtomicUsize>, place: Place) -> JobRef {
    let hits = Arc::clone(hits);
    let job = HeapJob::new(move || {
        hits.fetch_add(1, Ordering::SeqCst);
    });
    // SAFETY: every test below executes or drop-drains the ref exactly once.
    unsafe { job.into_job_ref(place) }
}

/// Two concurrent `take`s race for a single deposit: the slot swap must
/// hand the job to exactly one of them on every schedule.
#[test]
fn mailbox_concurrent_takers_get_exactly_one() {
    Builder::exhaustive(2, 200_000).run(|| {
        let hits = Arc::new(AtomicUsize::new(0));
        let m = Arc::new(Mailbox::new());
        m.try_deposit(counting_job(&hits, Place(0))).ok().expect("deposit into empty mailbox");
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || m2.take());
        let mine = m.take();
        let theirs = t.join().unwrap();
        assert!(
            mine.is_some() ^ theirs.is_some(),
            "exactly one taker must win: ({}, {})",
            mine.is_some(),
            theirs.is_some()
        );
        for job in [mine, theirs].into_iter().flatten() {
            // SAFETY: taken refs are live and unexecuted; run to reclaim.
            unsafe { job.execute() }
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    });
}

/// Depositor vs. taker on a full mailbox: on every schedule the second
/// deposit either bounces (slot still occupied) or lands (taker emptied
/// it first), and the total executed job count is exact either way.
#[test]
fn mailbox_deposit_take_interleaving_is_exact() {
    Builder::exhaustive(2, 200_000).run(|| {
        let hits = Arc::new(AtomicUsize::new(0));
        let m = Arc::new(Mailbox::new());
        m.try_deposit(counting_job(&hits, Place(0))).ok().expect("first deposit");
        let (m2, h2) = (Arc::clone(&m), Arc::clone(&hits));
        let t = thread::spawn(move || match m2.try_deposit(counting_job(&h2, Place(1))) {
            Ok(()) => true,
            Err(job) => {
                // SAFETY: a bounced ref is handed back unexecuted; run it
                // here to reclaim (stands in for PUSHBACK retrying elsewhere).
                unsafe { job.execute() }
                false
            }
        });
        if let Some(job) = m.take() {
            // SAFETY: taken ref is live and unexecuted.
            unsafe { job.execute() }
        }
        let _landed = t.join().unwrap();
        drop(Arc::try_unwrap(m).expect("all clones joined")); // drop-drain runs any leftover
        assert_eq!(hits.load(Ordering::SeqCst), 2, "every deposited job runs exactly once");
    });
}

/// PR 4 regression (shutdown stranding): a deposit racing the final
/// shutdown drain must still run exactly once — either the drain takes
/// it, or `Mailbox::drop` (the final safety net) executes the leftover.
#[test]
fn mailbox_drop_never_strands_a_racing_deposit() {
    Builder::exhaustive(2, 200_000).run(|| {
        let hits = Arc::new(AtomicUsize::new(0));
        let m = Arc::new(Mailbox::new());
        let (m2, h2) = (Arc::clone(&m), Arc::clone(&hits));
        let t = thread::spawn(move || {
            if let Err(job) = m2.try_deposit(counting_job(&h2, Place(0))) {
                // SAFETY: bounced refs come back unexecuted.
                unsafe { job.execute() }
            }
        });
        // The shutdown drain (as `worker_main` performs after its loop).
        if let Some(job) = m.take() {
            // SAFETY: taken ref is live and unexecuted.
            unsafe { job.execute() }
        }
        t.join().unwrap();
        // Registry teardown: Mailbox::drop must execute — not leak — any
        // deposit that landed after the drain.
        drop(Arc::try_unwrap(m).expect("all clones joined"));
        assert_eq!(hits.load(Ordering::SeqCst), 1, "lazily pushed job stranded or run twice");
    });
}

/// Three concurrent terminal candidates on a `CountLatch`: exactly one
/// decrement may observe 1 → 0 (it alone may touch owner memory next),
/// and the probe must read zero afterwards.
#[test]
fn count_latch_exactly_one_terminal_decrement() {
    Builder::exhaustive(2, 200_000).run(|| {
        let l = Arc::new(CountLatch::new());
        l.increment();
        l.increment();
        let (l2, l3) = (Arc::clone(&l), Arc::clone(&l));
        let t1 = thread::spawn(move || l2.set_one());
        let t2 = thread::spawn(move || l3.set_one());
        let mine = l.set_one();
        let terminals =
            usize::from(mine) + usize::from(t1.join().unwrap()) + usize::from(t2.join().unwrap());
        assert_eq!(terminals, 1, "exactly one decrement observes 1 -> 0");
        assert!(l.probe());
    });
}

/// A joiner deep-sleeping on the pool condvar while a thief sets its
/// `SpinLatch` through `set_and_wake` with the pool's sleep layer: on every
/// schedule the joiner terminates with the latch observed set. (A
/// `TimedOut` or `Rescued` sleep is legal here — the set-side sleeper probe
/// is deliberately `Relaxed`, and the timeout bounds the stale-read window
/// — so the property is termination + visibility, not wake-path.)
#[test]
fn spin_latch_set_always_releases_the_joiner() {
    Builder::exhaustive(2, 200_000).run(|| {
        let sleep: &'static Sleep = Box::leak(Box::new(Sleep::new()));
        let latch = Arc::new(SpinLatch::new());
        let l2 = Arc::clone(&latch);
        let setter = thread::spawn(move || l2.set_and_wake(sleep));
        while !latch.probe() {
            sleep.sleep(Duration::from_secs(1), || latch.probe());
        }
        setter.join().unwrap();
        assert!(latch.probe());
    });
}

/// The sleep layer's own lost-wakeup litmus, with the strict SeqCst
/// announce/publish handshake: when the producer publishes work and then
/// calls `wake_one`, no explored schedule may end a sleep in `TimedOut` or
/// `Rescued` — either the pre-wait re-check sees the published work, or
/// the notify lands; a timeout that finds the work means the wake was
/// lost. This is exactly the store-buffer pattern the `fence(SeqCst)`
/// pair in `sleep`/`wake_one` exists to forbid.
#[test]
fn sleep_wake_one_is_never_lost() {
    Builder::exhaustive(2, 200_000).run(|| {
        let s = Arc::new(Sleep::new());
        let work = Arc::new(AtomicBool::new(false));
        let (s2, w2) = (Arc::clone(&s), Arc::clone(&work));
        let t = thread::spawn(move || {
            let mut outcomes = Vec::new();
            while !w2.load(Ordering::SeqCst) {
                outcomes.push(s2.sleep(Duration::from_secs(1), || w2.load(Ordering::SeqCst)));
            }
            outcomes
        });
        work.store(true, Ordering::SeqCst); // publish first…
        s.wake_one(); // …then wake
        let outcomes = t.join().unwrap();
        assert!(
            !outcomes.iter().any(|o| matches!(o, SleepOutcome::TimedOut | SleepOutcome::Rescued)),
            "a wake was lost despite the SeqCst handshake: {outcomes:?}"
        );
        assert_eq!(s.num_sleepers(), 0);
    });
}

/// A join branch of the frame-stack model, told apart by address (never
/// executed: the model records who claimed it instead).
struct Branch {
    id: u32,
}

impl Job for Branch {
    // SAFETY: never called; the model compares refs by address.
    unsafe fn execute(_: *const ()) {
        unreachable!("the model claims branches, it does not run them");
    }
}

/// Lazy join promotion (`crate::frames`) over the real THE deque, as a
/// reusable body: the owner forks three nested joins, recording each
/// branch `b` as an unhinted, untraced `JobRef` in `frames` (the two-word
/// record production makes) and promoting the oldest hidden one whenever
/// the deque is empty, then resolves them newest-first. Promotion rebuilds
/// each pushed ref from its two words. A hidden branch runs in place; a
/// promoted one is popped back (whatever else the pop yields runs too) or
/// counts as stolen. Each join's exit promotes on empty again. One thief
/// steals twice meanwhile. Returns every branch run, sorted — `[1, 2, 3]`
/// iff each ran exactly once.
fn lazy_join_promotion(frames: FrameStack) -> Vec<u32> {
    let branches = [Branch { id: 1 }, Branch { id: 2 }, Branch { id: 3 }];
    // SAFETY: the refs are compared by address and never executed.
    let refs = branches.each_ref().map(|b| unsafe { JobRef::new(b, Place::ANY) });
    let id_of = |job: JobRef| {
        let i = refs.iter().position(|r| r.id() == job.id()).expect("a recorded branch");
        assert_eq!((job.place(), job.trace()), (Place::ANY, 0), "rebuilt unhinted, untraced");
        branches[i].id
    };
    let (w, s) = the_deque::<JobRef>(4);
    let t = thread::spawn(move || {
        (0..2).filter_map(|_| s.steal_batch(0, |_| ())).collect::<Vec<JobRef>>()
    });
    let forks: Vec<(JobRef, usize)> = refs
        .iter()
        .map(|&b| {
            let frame = frames.record(b).expect("three frames fit");
            if w.is_empty() {
                frames.promote_oldest(&w);
            }
            (b, frame)
        })
        .collect();
    let mut ran = Vec::new();
    for &(b, frame) in forks.iter().rev() {
        if frames.resolve(frame) {
            ran.push(id_of(b));
        } else {
            while let Some(job) = w.pop() {
                ran.push(id_of(job));
                if job.id() == b.id() {
                    break;
                }
            }
        }
        if w.is_empty() {
            frames.promote_oldest(&w);
        }
    }
    ran.extend(t.join().unwrap().into_iter().map(id_of));
    ran.sort_unstable();
    ran
}

/// Every branch of a lazily forked join runs exactly once on every
/// schedule, whether it stayed hidden, was popped back, or was stolen, and
/// the exploration is complete.
#[test]
fn lazy_join_promotion_runs_each_branch_once() {
    let explored = Builder::exhaustive(2, 200_000)
        .check(|| {
            assert_eq!(
                lazy_join_promotion(FrameStack::new()),
                [1, 2, 3],
                "each branch must run exactly once"
            );
        })
        .expect("lazy join promotion must verify clean");
    assert!(explored.complete, "exploration must be exhaustive, not truncated");
    assert!(explored.schedules > 1);
}

/// The teeth: a promotion that does not advance the promoted mark leaves
/// the frame looking hidden, so its join runs it in place while the thief
/// may take the same branch off the deque. The checker must find the
/// double run.
#[test]
fn lazy_join_promotion_stale_mark_double_run_found() {
    let failure = Builder::exhaustive(2, 200_000)
        .check(|| {
            assert_eq!(
                lazy_join_promotion(FrameStack::stale_mark_for_model()),
                [1, 2, 3],
                "each branch must run exactly once"
            );
        })
        .expect_err("a stale promoted mark must run a branch twice");
    assert!(
        matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("exactly once")),
        "expected the double-run assertion, got: {failure}"
    );
}
