//! Self-tests for the `nws_sync` model-checking backend.
//!
//! The checked-interleaving tier for the runtime's real protocols lives
//! with those crates (`nws_deque`, `numa_ws`); this file checks the
//! *checker*: that it finds the classic bugs it exists to find (store
//! buffering under weak fences, deadlock, data races, lost wakeups),
//! that it does NOT flag the correctly-fenced variants, and that seeds
//! replay deterministically.
//!
//! Everything here is `cfg(nws_model)` except a passthrough smoke test.

#![cfg(nws_model)]

use nws_sync::atomic::{fence, AtomicUsize, Ordering};
use nws_sync::model::{Builder, FailureKind};
use nws_sync::{thread, Condvar, Mutex};
use std::sync::Arc;

/// Dekker/store-buffering litmus: with SeqCst fences, both threads
/// reading 0 is forbidden; the exhaustive checker must not find it.
fn store_buffering(fence_order: Ordering) -> (usize, usize) {
    let x = Arc::new(AtomicUsize::new(0));
    let y = Arc::new(AtomicUsize::new(0));
    let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
    let t = thread::spawn(move || {
        x2.store(1, Ordering::Relaxed);
        fence(fence_order);
        y2.load(Ordering::Relaxed)
    });
    y.store(1, Ordering::Relaxed);
    fence(fence_order);
    let r0 = x.load(Ordering::Relaxed);
    let r1 = t.join().unwrap();
    (r0, r1)
}

#[test]
fn sb_seqcst_fences_forbid_both_stale() {
    let explored = Builder::exhaustive(2, 100_000)
        .check(|| {
            let (r0, r1) = store_buffering(Ordering::SeqCst);
            assert!(r0 == 1 || r1 == 1, "store buffering through SeqCst fences");
        })
        .expect("correct litmus must pass");
    assert!(explored.complete, "litmus small enough to enumerate fully");
    assert!(explored.schedules > 1);
}

/// The checker's raison d'être: weaken the same litmus's fences to
/// AcqRel and the forbidden outcome MUST be found.
#[test]
fn sb_acqrel_fences_found_broken() {
    let failure = Builder::exhaustive(2, 100_000)
        .check(|| {
            let (r0, r1) = store_buffering(Ordering::AcqRel);
            assert!(r0 == 1 || r1 == 1, "store buffering through AcqRel fences");
        })
        .expect_err("AcqRel fences must admit the stale/stale outcome");
    assert!(
        matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("store buffering")),
        "unexpected failure: {failure}"
    );
}

/// Message passing through release/acquire: the classic correct pattern
/// must verify, and demoting the consumer's load to Relaxed must fail.
#[test]
fn message_passing_release_acquire_ok() {
    Builder::exhaustive(2, 100_000).run(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "acquire must see the payload");
        }
        t.join().unwrap();
    });
}

#[test]
fn message_passing_relaxed_found_broken() {
    let failure = Builder::exhaustive(2, 100_000)
        .check(|| {
            let data = Arc::new(AtomicUsize::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42, "relaxed flag lost the payload");
            }
            t.join().unwrap();
        })
        .expect_err("relaxed message passing must be caught");
    assert!(matches!(failure.kind, FailureKind::Panic(_)), "unexpected failure: {failure}");
}

/// RMWs always read the newest store: a relaxed fetch_add counter still
/// counts exactly (atomicity is not the same thing as ordering).
#[test]
fn relaxed_counter_never_loses_increments() {
    Builder::exhaustive(2, 100_000).run(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                    n.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::Relaxed), 4);
    });
}

/// ABBA lock ordering: the checker must find the deadlock.
#[test]
fn abba_deadlock_found() {
    let failure = Builder::exhaustive(2, 100_000)
        .check(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_ga, _gb));
            t.join().unwrap();
        })
        .expect_err("ABBA must deadlock under some schedule");
    assert!(matches!(failure.kind, FailureKind::Deadlock(_)), "unexpected failure: {failure}");
}

/// Unsynchronized cell write/write race must be reported as a data race,
/// and the same accesses under a mutex must verify clean.
#[test]
fn cell_race_found_and_mutexed_version_clean() {
    use nws_sync::cell::UnsafeCell;

    // The facade cell mirrors std's `!Sync`; real call sites (the THE
    // deque's ring) wrap it in a protocol-guarded container.
    struct Racy {
        guard: Mutex<()>,
        cell: UnsafeCell<u32>,
    }
    // SAFETY: deliberately over-permissive so the test can share the cell
    // across threads; the checker — not the type system — is what flags
    // the unsynchronized variant below.
    unsafe impl Sync for Racy {}

    let failure = Builder::exhaustive(2, 100_000)
        .check(|| {
            let r = Arc::new(Racy { guard: Mutex::new(()), cell: UnsafeCell::new(0) });
            let r2 = Arc::clone(&r);
            // SAFETY: intentionally racy write — the model backend tracks
            // the access instead of dereferencing raw shared memory; the
            // race is the expected finding.
            let t = thread::spawn(move || unsafe { r2.cell.with_mut(|p| *p = 1) });
            // SAFETY: the other half of the intended race, same as above.
            unsafe { r.cell.with_mut(|p| *p = 2) };
            t.join().unwrap();
        })
        .expect_err("unsynchronized writes must race");
    assert!(matches!(failure.kind, FailureKind::DataRace(_)), "unexpected failure: {failure}");

    Builder::exhaustive(2, 100_000).run(|| {
        let r = Arc::new(Racy { guard: Mutex::new(()), cell: UnsafeCell::new(0) });
        let r2 = Arc::clone(&r);
        let t = thread::spawn(move || {
            let _g = r2.guard.lock();
            // SAFETY: exclusive access via `guard`, held for the access.
            unsafe { r2.cell.with_mut(|p| *p += 1) };
        });
        {
            let _g = r.guard.lock();
            // SAFETY: exclusive access via `guard`, held for the access.
            unsafe { r.cell.with_mut(|p| *p += 1) };
        }
        t.join().unwrap();
    });
}

/// Condvar protocol: a predicate-guarded wait with a timed fallback never
/// reports a timeout when the wake really was sent — the lost-wakeup
/// assertion shape the runtime's sleep layer uses.
#[test]
fn condvar_wake_is_never_lost_with_predicate() {
    Builder::exhaustive(2, 100_000).run(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            let mut timed_out = false;
            while !*ready {
                timed_out = cv.wait_for(&mut ready, std::time::Duration::from_secs(1)).timed_out();
            }
            timed_out
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        let timed_out = t.join().unwrap();
        // The notify happens-before any quiescence (the waker keeps
        // running until done), so the waiter must be woken, not timed out.
        assert!(!timed_out, "notify_one was lost");
    });
}

/// A broken sleep protocol — check the flag *before* publishing the
/// waiter count, i.e. wait without re-checking the predicate — is caught
/// as a deadlock/timeout shape.
#[test]
fn condvar_unconditional_wait_loses_wakeup() {
    let failure = Builder::exhaustive(2, 100_000)
        .check(|| {
            let pair = Arc::new((Mutex::new(()), Condvar::new()));
            let p2 = Arc::clone(&pair);
            let t = thread::spawn(move || {
                let (m, cv) = &*p2;
                let mut g = m.lock();
                // Bug: waits unconditionally; if the notify already
                // happened, nobody ever wakes this thread.
                cv.wait(&mut g);
            });
            {
                let (_m, cv) = &*pair;
                cv.notify_one();
            }
            t.join().unwrap();
        })
        .expect_err("notify-before-wait must strand the waiter");
    assert!(matches!(failure.kind, FailureKind::Deadlock(_)), "unexpected failure: {failure}");
}

/// Random strategy: finds the SB bug, reports a seed, and replaying that
/// exact seed reproduces the same failure deterministically.
#[test]
fn random_strategy_failure_replays_from_seed() {
    let failure = Builder::random(4096, 0xD_5EA7_5EED)
        .check(|| {
            let (r0, r1) = store_buffering(Ordering::AcqRel);
            assert!(r0 == 1 || r1 == 1, "store buffering through AcqRel fences");
        })
        .expect_err("random exploration must find the SB outcome");
    let seed = failure.seed.expect("random failures carry a seed");

    for _ in 0..3 {
        let replayed = Builder::replay(seed)
            .check(|| {
                let (r0, r1) = store_buffering(Ordering::AcqRel);
                assert!(r0 == 1 || r1 == 1, "store buffering through AcqRel fences");
            })
            .expect_err("replay of a failing seed must fail again");
        assert_eq!(replayed.schedule, failure.schedule, "replay must take the same schedule");
    }
}

/// Spin loops on a facade atomic are voluntary yield points, so a
/// spin-then-observe handshake terminates without livelock.
#[test]
fn spin_wait_handshake_terminates() {
    Builder::exhaustive(2, 100_000).run(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flag);
        let t = thread::spawn(move || {
            while f2.load(Ordering::Acquire) == 0 {
                nws_sync::hint::spin_loop();
            }
        });
        flag.store(1, Ordering::Release);
        t.join().unwrap();
    });
}
