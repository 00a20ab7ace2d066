//! External-ingress tests: the injector-starvation regression, concurrent
//! multi-client stress, fire-and-forget spawns, shutdown draining, the
//! cross-pool install hazard, and the new ingress/wake counters.

use numa_ws::{join, join_at, Place, Pool, SchedPolicy};
use nws_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Waits (bounded) until `cond` holds; panics with `what` on timeout.
fn wait_for(cond: impl Fn() -> bool, what: &str) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        nws_sync::thread::yield_now();
    }
}

/// The starvation regression (the bug this subsystem replaces): a
/// long-running root task occupies a worker, and a trivial `install`
/// submitted *while it runs* must complete within wake latency — not wait
/// for the root to finish. Under the old single-injector design (drained
/// only by worker 0's top-level loop) this test deadlocks: the trivial
/// install waits for the root, and the root spins until the trivial
/// install completes.
#[test]
fn install_completes_while_long_root_runs() {
    let pool = Arc::new(Pool::new(2).unwrap());
    let release = Arc::new(AtomicBool::new(false));
    let root_running = Arc::new(AtomicBool::new(false));

    let (pool2, release2, running2) =
        (Arc::clone(&pool), Arc::clone(&release), Arc::clone(&root_running));
    let root = std::thread::spawn(move || {
        pool2.install(move || {
            running2.store(true, Ordering::SeqCst);
            while !release2.load(Ordering::SeqCst) {
                nws_sync::hint::spin_loop();
            }
            7
        })
    });
    wait_for(|| root_running.load(Ordering::SeqCst), "root task to start");

    // The root is pinned inside a worker and will not finish until we say
    // so. A concurrent trivial install must still go through.
    let (tx, rx) = mpsc::channel();
    let pool3 = Arc::clone(&pool);
    let start = Instant::now();
    std::thread::spawn(move || {
        let v = pool3.install(|| 41 + 1);
        let _ = tx.send(v);
    });
    let v = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("trivial install starved behind the long-running root task");
    assert_eq!(v, 42);
    assert!(
        root_running.load(Ordering::SeqCst) && !release.load(Ordering::SeqCst),
        "the root must still have been running when the trivial install completed"
    );
    // Wake latency, not task duration: the root would have held its worker
    // for 20s+ if we let it; the install must land in milliseconds.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "install latency {:?} not bounded by wake latency",
        start.elapsed()
    );

    release.store(true, Ordering::SeqCst);
    assert_eq!(root.join().unwrap(), 7);
}

/// Same regression for the fire-and-forget path.
#[test]
fn spawn_completes_while_long_root_runs() {
    let pool = Arc::new(Pool::new(2).unwrap());
    let release = Arc::new(AtomicBool::new(false));
    let root_running = Arc::new(AtomicBool::new(false));

    let (pool2, release2, running2) =
        (Arc::clone(&pool), Arc::clone(&release), Arc::clone(&root_running));
    let root = std::thread::spawn(move || {
        pool2.install(move || {
            running2.store(true, Ordering::SeqCst);
            while !release2.load(Ordering::SeqCst) {
                nws_sync::hint::spin_loop();
            }
        })
    });
    wait_for(|| root_running.load(Ordering::SeqCst), "root task to start");

    let ran = Arc::new(AtomicBool::new(false));
    let ran2 = Arc::clone(&ran);
    pool.spawn(move || ran2.store(true, Ordering::SeqCst));
    wait_for(|| ran.load(Ordering::SeqCst), "spawned job while root runs");

    release.store(true, Ordering::SeqCst);
    root.join().unwrap();
}

/// N client threads hammer a small pool with blocking installs and
/// fire-and-forget spawns at once; everything must complete and every
/// ingress job must be accounted for by the `injector_takes` counter.
#[test]
fn concurrent_clients_hammer_small_pool() {
    const CLIENTS: usize = 8;
    const INSTALLS: usize = 40;
    const SPAWNS: usize = 40;
    let pool = Arc::new(Pool::builder().workers(2).places(1).build().unwrap());
    let spawned_ran = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let pool = Arc::clone(&pool);
            let spawned_ran = Arc::clone(&spawned_ran);
            s.spawn(move || {
                for i in 0..INSTALLS {
                    let n = 10 + ((c + i) % 5) as u64;
                    assert_eq!(pool.install(move || fib(n)), fib_serial(n));
                    let spawned_ran = Arc::clone(&spawned_ran);
                    pool.spawn(move || {
                        spawned_ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });
    wait_for(
        || spawned_ran.load(Ordering::SeqCst) == CLIENTS * SPAWNS,
        "all fire-and-forget spawns to run",
    );
    // Every install and spawn entered through an ingress queue and left it
    // through exactly one counted take.
    let takes = pool.stats().total_injector_takes();
    assert_eq!(takes, (CLIENTS * (INSTALLS + SPAWNS)) as u64, "ingress jobs must all be counted");
}

fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_serial(n - 1) + fib_serial(n - 2)
    }
}

/// Dropping the pool while fire-and-forget spawns are still queued must run
/// every job spawned before the drop — no leaks, no lost work, no crash.
#[test]
fn drop_with_spawns_inflight_runs_them_all() {
    const JOBS: usize = 2_000;
    let ran = Arc::new(AtomicUsize::new(0));
    let pool = Pool::builder().workers(2).places(1).build().unwrap();
    for _ in 0..JOBS {
        let ran = Arc::clone(&ran);
        pool.spawn(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    drop(pool); // shutdown drains the ingress queues before workers exit
    assert_eq!(ran.load(Ordering::SeqCst), JOBS, "every pre-drop spawn must have run");
}

/// Regression for the mailbox shutdown-drain hole: a place-hinted spawn
/// taken by a wrong-place worker gets lazily pushed into a *mailbox*, and
/// a pool dropped at that moment used to free the mailbox box without
/// running the job — leaking its closure and silently violating the
/// "spawned work is never lost" guarantee. Heavily cross-hinted spawns +
/// an immediate drop make the window real; the loop keeps the race
/// probable in release mode. Every job must run — whether from a deque,
/// an ingress queue, a drained mailbox, or the `Mailbox::drop` safety net.
#[test]
fn drop_with_jobs_parked_in_mailboxes_loses_nothing() {
    const ROUNDS: usize = 60;
    const JOBS: usize = 48;
    for round in 0..ROUNDS {
        let ran = Arc::new(AtomicUsize::new(0));
        let policy = SchedPolicy { push_threshold: 8, ..SchedPolicy::numa_ws() };
        let pool = Pool::builder().workers(4).places(4).policy(policy).build().unwrap();
        for i in 0..JOBS {
            let ran = Arc::clone(&ran);
            // Deliberately hint every job away from round-robin balance so
            // wrong-place pickups (and thus PUSHBACK mailbox deposits) are
            // common while the drop races the workers.
            pool.spawn_at(Place(i % 4), move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            JOBS,
            "round {round}: a spawn was stranded (mailbox drain hole)"
        );
    }
}

/// Spawned jobs can themselves spawn follow-up work through a shared pool
/// handle, and both generations complete. (The main thread keeps its
/// `Arc<Pool>` until the work is done: letting the *last* handle drop
/// inside a pool job would make `Pool::drop` join the dropping worker's
/// own thread.)
#[test]
fn spawned_jobs_can_spawn() {
    let ran = Arc::new(AtomicUsize::new(0));
    let pool = Arc::new(Pool::new(2).unwrap());
    for _ in 0..50 {
        let ran = Arc::clone(&ran);
        let pool2 = Arc::clone(&pool);
        pool.spawn(move || {
            let ran2 = Arc::clone(&ran);
            pool2.spawn(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            });
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    wait_for(|| ran.load(Ordering::SeqCst) == 100, "both spawn generations");
    // An outer job may still be returning (holding its Arc clone); wait for
    // the workers to release theirs so the final drop happens here.
    wait_for(|| Arc::strong_count(&pool) == 1, "worker pool handles to release");
    drop(pool);
}

/// The documented cross-pool hazard: `install` on pool B from a worker of
/// pool A parks that A-worker, shrinking A by one — but both pools must
/// keep making progress. Pool A (2 workers) serves a second client while
/// one of its workers is parked inside B.
#[test]
fn cross_pool_install_both_pools_progress() {
    let pool_a = Arc::new(Pool::new(2).unwrap());
    let pool_b = Arc::new(Pool::new(2).unwrap());
    let release_b = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicBool::new(false));

    let (a2, b2, rel2, parked2) =
        (Arc::clone(&pool_a), Arc::clone(&pool_b), Arc::clone(&release_b), Arc::clone(&parked));
    let crossing = std::thread::spawn(move || {
        a2.install(move || {
            // We are an A-worker; this blocks us until B runs the closure.
            parked2.store(true, Ordering::SeqCst);
            b2.install(move || {
                while !rel2.load(Ordering::SeqCst) {
                    nws_sync::hint::spin_loop();
                }
                5
            })
        })
    });
    wait_for(|| parked.load(Ordering::SeqCst), "cross-pool installer to park");

    // Pool A has one worker parked; its other worker must still serve
    // clients, and pool B is busy with the held job but must still serve
    // its own second client too.
    let (tx, rx) = mpsc::channel();
    let (a3, b3) = (Arc::clone(&pool_a), Arc::clone(&pool_b));
    std::thread::spawn(move || {
        let ra = a3.install(|| fib(12));
        let rb = b3.install(|| fib(12));
        let _ = tx.send((ra, rb));
    });
    let (ra, rb) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a pool stalled while a cross-pool install was parked");
    assert_eq!((ra, rb), (fib_serial(12), fib_serial(12)));

    release_b.store(true, Ordering::SeqCst);
    assert_eq!(crossing.join().unwrap(), 5);
}

/// `install_at` routes through the hinted place's ingress queue (wrapping
/// out-of-range hints), and place-hinted roots still complete everywhere.
#[test]
fn install_at_routes_and_wraps() {
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    for p in 0..6 {
        assert_eq!(pool.install_at(Place(p), move || p * 3), p * 3);
    }
    assert_eq!(pool.stats().total_injector_takes(), 6);
}

#[test]
fn spawn_at_hinted_jobs_run() {
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    let ran = Arc::new(AtomicUsize::new(0));
    for p in 0..8 {
        let ran = Arc::clone(&ran);
        pool.spawn_at(Place(p), move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    wait_for(|| ran.load(Ordering::SeqCst) == 8, "hinted spawns");
}

/// A panic in a fire-and-forget job is contained: the pool survives and
/// keeps serving.
#[test]
fn spawn_panic_is_contained() {
    let pool = Pool::new(2).unwrap();
    pool.spawn(|| panic!("fire-and-forget panic"));
    let ran = Arc::new(AtomicBool::new(false));
    let ran2 = Arc::clone(&ran);
    pool.spawn(move || ran2.store(true, Ordering::SeqCst));
    wait_for(|| ran.load(Ordering::SeqCst), "spawn after panicked spawn");
    assert_eq!(pool.install(|| 3), 3, "pool must survive a panicking spawn");
}

/// Workers that went idle long enough to deep-sleep are woken by an
/// install, and the sleep/wake cycle shows up in the `wakeups` counter.
#[test]
fn idle_workers_wake_for_ingress() {
    let pool = Pool::new(4).unwrap();
    // Give every worker ample time to pass spin/yield backoff and block.
    std::thread::sleep(Duration::from_millis(100));
    pool.reset_stats();
    assert_eq!(pool.install(|| 17), 17);
    // At least one worker must have gone through a sleep/wake cycle to
    // pick the job up (the rest may still be asleep — that's the point).
    let stats = pool.stats();
    assert!(stats.total_wakeups() > 0, "expected a wake-up, got {stats:?}");
    assert_eq!(stats.total_injector_takes(), 1);
}

/// Only accepted deque pushes count as spawns; overflow fallbacks land in
/// `spawn_overflows`. Place-hinted joins fork eagerly (one push attempt
/// each), so the two counters partition the join count.
#[test]
fn spawn_counter_excludes_overflows() {
    fn count(depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = join_at(|| count(depth - 1), || count(depth - 1), Place(0));
        a + b
    }
    const DEPTH: u32 = 12;
    let joins = (1u64 << DEPTH) - 1; // interior nodes of the binary tree
    let pool = Pool::builder().workers(2).deque_capacity(8).build().unwrap();
    assert_eq!(pool.install(|| count(DEPTH)), 1 << DEPTH);
    let stats = pool.stats();
    assert!(
        stats.total_spawn_overflows() > 0,
        "a capacity-8 deque must overflow on a 2^12 tree: {stats:?}"
    );
    assert_eq!(
        stats.total_spawns() + stats.total_spawn_overflows(),
        joins,
        "spawns + overflows must partition the {joins} joins: {stats:?}"
    );
}

/// The unhinted twin of `spawn_counter_excludes_overflows`: lazy joins keep
/// their branches in the frame stack and promote only into an empty deque
/// (or before blocking), so the same capacity-8 deque never overflows and
/// every join counts one spawn.
#[test]
fn lazy_join_frames_never_overflow_a_small_deque() {
    fn count(depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = join(|| count(depth - 1), || count(depth - 1));
        a + b
    }
    const DEPTH: u32 = 12;
    let joins = (1u64 << DEPTH) - 1;
    let pool = Pool::builder().workers(2).deque_capacity(8).build().unwrap();
    assert_eq!(pool.install(|| count(DEPTH)), 1 << DEPTH);
    let stats = pool.stats();
    assert_eq!(stats.total_spawn_overflows(), 0, "{stats:?}");
    assert_eq!(stats.total_spawns(), joins, "one spawn per join: {stats:?}");
}
