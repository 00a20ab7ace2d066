//! End-to-end tests of the threaded runtime: correctness under real
//! parallelism, hint routing, panic propagation, and statistics.

use numa_ws::{join, join4_at, join_at, scope, Place, Pool, SchedPolicy};
use nws_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn fib_parallel_matches_serial() {
    fn fib_serial(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_serial(n - 1) + fib_serial(n - 2)
        }
    }
    let pool = Pool::new(8).unwrap();
    assert_eq!(pool.install(|| fib(20)), fib_serial(20));
}

#[test]
fn recursive_sum_all_modes_all_shapes() {
    fn sum(xs: &[u64]) -> u64 {
        if xs.len() <= 64 {
            return xs.iter().sum();
        }
        let (lo, hi) = xs.split_at(xs.len() / 2);
        let (a, b) = join_at(|| sum(lo), || sum(hi), Place(1));
        a + b
    }
    let xs: Vec<u64> = (0..100_000).collect();
    let expect: u64 = xs.iter().sum();
    for policy in [SchedPolicy::vanilla(), SchedPolicy::numa_ws()] {
        for (workers, places) in [(1, 1), (2, 1), (4, 2), (8, 4)] {
            let pool =
                Pool::builder().workers(workers).places(places).policy(policy).build().unwrap();
            assert_eq!(pool.install(|| sum(&xs)), expect, "policy={policy} P={workers} S={places}");
        }
    }
}

#[test]
fn join4_at_runs_all_branches() {
    let pool = Pool::builder().workers(8).places(4).build().unwrap();
    let places = [Place(0), Place(1), Place(2), Place(3)];
    let (a, b, c, d) = pool.install(|| join4_at(places, || 1, || 2, || 3, || 4));
    assert_eq!((a, b, c, d), (1, 2, 3, 4));
}

#[test]
fn steals_happen_under_load() {
    // Sized so the workload spans many OS scheduler quanta even on a
    // single-core host: release builds chew through fib(22) in ~1ms,
    // before napping thieves ever get a slice, so give them fib(28) there.
    let n = if cfg!(debug_assertions) { 22 } else { 28 };
    let pool = Pool::builder().workers(8).places(2).build().unwrap();
    pool.install(|| fib(n));
    // fib alone steals only likely: a loaded host can let the owner finish
    // before any thief gets a time slice. This join makes the steal
    // certain: its first branch waits until the second has run, and the
    // owner is busy in that wait, so another worker must take the branch.
    let b_ran = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(60);
    pool.install(|| {
        join(
            || {
                while !b_ran.load(Ordering::Acquire) {
                    assert!(Instant::now() < deadline, "no thief took the branch within 60 s");
                    nws_sync::thread::yield_now();
                }
            },
            || b_ran.store(true, Ordering::Release),
        )
    });
    let stats = pool.stats();
    assert!(stats.total_steals() > 0, "the waiting join's branch must be stolen: {stats:?}");
    assert!(stats.total_spawns() > 10_000);
    // Every steal is counted once by its thief and once by its victim.
    assert_eq!(stats.total_steals(), stats.total_stolen_from(), "{stats:?}");
}

#[test]
fn a_steal_takes_one_job() {
    // The scope body spawns 16 tasks onto its owner's deque, then spins
    // until one of them has run: the owner is busy spinning, so only the
    // other worker — a thief — can run that task. The thief sees all 16
    // entries at once, and still claims exactly one per steal.
    let pool = Pool::builder().workers(2).build().unwrap();
    let runs: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
    let any_ran = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(60);
    pool.install(|| {
        scope(|s| {
            for run in &runs {
                let any_ran = &any_ran;
                s.spawn(move |_| {
                    run.fetch_add(1, Ordering::Relaxed);
                    any_ran.store(true, Ordering::Release);
                });
            }
            while !any_ran.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "no thief took a task within 60 s");
                nws_sync::thread::yield_now();
            }
        })
    });
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run.load(Ordering::Relaxed), 1, "task {i} must run exactly once");
    }
    let stats = pool.stats();
    assert!(stats.total_steals() > 0, "a thief must have run a task: {stats:?}");
    assert_eq!(stats.total_steals(), stats.total_stolen_from(), "{stats:?}");
    assert_eq!(stats.total_batch_stolen_jobs(), 0, "one job per steal: {stats:?}");
}

#[test]
fn numa_mode_generates_mailbox_traffic_for_hinted_work() {
    // Spawn place-hinted leaf work repeatedly; NUMA-WS should deliver some
    // pushes into mailboxes of the designated place.
    fn hinted_tree(depth: u32, place: usize) -> u64 {
        if depth == 0 {
            // enough work per leaf to keep the window for stealing open
            let mut acc = 0u64;
            for x in 0..40_000u64 {
                acc = acc.wrapping_add(x.wrapping_mul(2654435761)).rotate_left(7);
            }
            return acc | 1;
        }
        let (a, b) = join_at(
            || hinted_tree(depth - 1, place),
            || hinted_tree(depth - 1, (place + 1) % 4),
            Place((place + 1) % 4),
        );
        a.wrapping_add(b)
    }
    let pool = Pool::builder().workers(8).places(4).build().unwrap();
    pool.install(|| hinted_tree(10, 0));
    let stats = pool.stats();
    assert!(
        stats.total_push_deliveries() > 0,
        "hinted spawns crossing places should trigger lazy pushes: {stats:?}"
    );
    let takes: u64 = stats.workers.iter().map(|w| w.mailbox_takes).sum();
    assert!(takes >= stats.total_push_deliveries(), "delivered jobs must be consumed");
}

#[test]
fn classic_mode_never_touches_mailboxes() {
    fn tree(depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = join_at(|| tree(depth - 1), || tree(depth - 1), Place(3));
        a + b
    }
    let pool = Pool::builder().workers(8).places(4).policy(SchedPolicy::vanilla()).build().unwrap();
    pool.install(|| tree(12));
    let stats = pool.stats();
    let takes: u64 = stats.workers.iter().map(|w| w.mailbox_takes).sum();
    let pushes: u64 = stats.workers.iter().map(|w| w.push_attempts).sum();
    assert_eq!(takes, 0);
    assert_eq!(pushes, 0);
}

#[test]
fn every_ablation_preset_runs_hinted_joins_and_scope_spawns() {
    // Every preset of the ablation grid builds a real pool and runs both
    // hinted fork paths; a preset without mailboxes never touches them.
    fn hinted_sum(lo: u64, hi: u64, place: usize) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let next = (place + 1) % 2;
        let (a, b) =
            join_at(|| hinted_sum(lo, mid, place), || hinted_sum(mid, hi, next), Place(next));
        a + b
    }
    const N: u64 = 100_000;
    const TASKS: u64 = 1024;
    for (name, policy) in SchedPolicy::ablation_grid() {
        let pool = Pool::builder().workers(2).places(2).policy(policy).build().unwrap();
        assert_eq!(pool.install(|| hinted_sum(0, N, 0)), N * (N - 1) / 2, "{name}: join_at");
        let sum = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..TASKS {
                let sum = &sum;
                s.spawn_at(Place(i as usize % 2), move |_| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.into_inner(), TASKS * (TASKS - 1) / 2, "{name}: spawn_at");
        if policy.mailbox_capacity == 0 {
            let stats = pool.stats();
            let mailbox_use = (stats.total_push_attempts(), stats.total_mailbox_takes());
            assert_eq!(mailbox_use, (0, 0), "{name}: a pool without mailboxes used them");
        }
    }
}

#[test]
fn panic_in_stealable_branch_propagates() {
    let pool = Pool::new(4).unwrap();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            let (_, _) = join(|| 1, || -> i32 { panic!("branch b") });
        })
    }));
    assert!(r.is_err());
    assert_eq!(pool.install(|| 9), 9, "pool survives a panicked task");
}

#[test]
fn panic_in_inline_branch_wins() {
    let pool = Pool::new(4).unwrap();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            let (_, _) = join(|| -> i32 { panic!("branch a") }, || 2);
        })
    }));
    let payload = r.unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"branch a"));
}

#[test]
fn panic_in_inline_branch_wins_over_hidden_branch() {
    // One worker: the outer join's fork promotes its branch (the deque was
    // empty), so the inner join's branch is recorded hidden.
    let pool = Pool::new(1).unwrap();
    let b_runs = AtomicUsize::new(0);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            join(
                || join(|| -> i32 { panic!("branch a") }, || b_runs.fetch_add(1, Ordering::SeqCst)),
                || (),
            )
        })
    }));
    let payload = r.unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"branch a"));
    assert_eq!(b_runs.load(Ordering::SeqCst), 1, "the hidden branch runs exactly once");
    assert_eq!(pool.stats().total_join_promotions(), 1, "only the outer branch is promoted");
}

#[test]
fn panic_in_hidden_branch_propagates() {
    let pool = Pool::new(1).unwrap();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| join(|| join(|| 1, || -> i32 { panic!("hidden b") }), || 2))
    }));
    let payload = r.unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"hidden b"));
    assert_eq!(pool.install(|| fib(10)), 55, "pool survives a panicked hidden branch");
}

#[test]
fn nested_panics_leave_joins_balanced() {
    // Panics from both branches at several depths, caught at different
    // levels. Every join resolves its frame on the way out (debug builds
    // assert the frame stack's top index at each resolve), so later joins
    // on the same workers still fork and resolve correctly.
    fn tree(depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = join(
            || {
                if depth.is_multiple_of(3) {
                    panic!("a at {depth}");
                }
                tree(depth - 1)
            },
            || {
                if depth % 4 == 1 {
                    panic!("b at {depth}");
                }
                tree(depth - 1)
            },
        );
        a + b
    }
    fn guarded(depth: u32) -> u64 {
        let (a, b) = join(
            || std::panic::catch_unwind(|| tree(depth)).unwrap_or(0),
            || std::panic::catch_unwind(|| tree(depth - 1)).unwrap_or(0),
        );
        a + b
    }
    for workers in [1, 2] {
        let pool = Pool::new(workers).unwrap();
        for _ in 0..5 {
            assert_eq!(pool.install(|| guarded(7)), 0, "every subtree of depth >= 3 panics");
        }
        assert_eq!(pool.install(|| fib(16)), 987, "P={workers}");
    }
}

#[test]
fn spawns_count_every_fork_and_promotions_stay_few() {
    fn count(depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = join(|| count(depth - 1), || count(depth - 1));
        a + b
    }
    const DEPTH: u32 = 12;
    for workers in [1, 2] {
        let pool = Pool::new(workers).unwrap();
        assert_eq!(pool.install(|| count(DEPTH)), 1 << DEPTH);
        let stats = pool.stats();
        assert_eq!(stats.total_spawns(), (1 << DEPTH) - 1, "P={workers}: {stats:?}");
        assert_eq!(stats.total_spawn_overflows(), 0, "P={workers}: {stats:?}");
        if workers == 1 {
            // One promotion per level of the rightmost path: a promoted
            // branch is popped back, and the deque it leaves empty takes
            // the next fork's branch.
            assert!(
                stats.total_join_promotions() <= u64::from(DEPTH) + 1,
                "a lone worker promotes about once per level: {stats:?}"
            );
        }
    }
}

#[test]
fn recording_pool_forks_joins_lazily() {
    // Recording does not change the scheduler: a traced lone worker hides
    // its join branches and promotes only a few, as an untraced one does,
    // and every recorded task has its bracket, whether its branch ran in
    // place from a hidden frame or was popped back after a promotion.
    let pool = Pool::builder().workers(1).record_trace(true).build().unwrap();
    assert_eq!(pool.install(|| fib(10)), 55);
    let stats = pool.stats();
    let promotions = stats.total_join_promotions();
    assert!(0 < promotions && promotions < stats.total_spawns(), "{stats:?}");
    let trace = pool.take_trace("fib10").expect("recording was on");
    // 88 joins (one per internal call of fib(10)) plus the install root.
    assert_eq!(stats.total_spawns(), 88, "{stats:?}");
    assert_eq!(trace.tasks.len(), 89);
    assert_eq!(trace.num_started(), 89);
}

#[test]
fn recording_pool_brackets_overflowed_spawns() {
    // One worker, so no thief drains its deque: the first 8,192 scope
    // spawns (the runtime deque's fixed size) fill it, and everything
    // forked after overflows, scope spawns and eager (hinted) forks alike.
    // Each overflowed job runs inline inside its own Start/End bracket.
    let pool = Pool::builder().workers(1).record_trace(true).build().unwrap();
    pool.scope(|s| {
        for _ in 0..8192 {
            s.spawn(|_| ());
        }
        for _ in 0..8 {
            s.spawn(|_| {
                std::hint::black_box(join_at(|| fib(4), || fib(4), Place(0)));
            });
        }
    });
    let stats = pool.stats();
    assert_eq!(stats.total_spawn_overflows(), 16, "8 spawns and 8 hinted forks: {stats:?}");
    let trace = pool.take_trace("overflow").expect("recording was on");
    trace.validate().expect("well-formed trace");
    assert_eq!(trace.num_started(), trace.tasks.len());
}

#[test]
fn thief_takes_hidden_branch_of_a_scope_blocked_owner() {
    // The inner join's branch is recorded while the outer branch sits on
    // the deque (when no thief has taken it yet), so it starts hidden. Its
    // `a` opens a scope whose only task waits for that branch to have run;
    // the owner blocks in the scope, so the branch must become stealable
    // or the pool deadlocks. Repeated so both orders of the outer steal
    // show up.
    let pool = Pool::new(2).unwrap();
    for _ in 0..50 {
        let b_ran = AtomicBool::new(false);
        pool.install(|| {
            join(
                || {
                    join(
                        || {
                            numa_ws::scope(|s| {
                                s.spawn(|_| {
                                    while !b_ran.load(Ordering::Acquire) {
                                        nws_sync::thread::yield_now();
                                    }
                                });
                            })
                        },
                        || b_ran.store(true, Ordering::Release),
                    )
                },
                || (),
            )
        });
        assert!(b_ran.load(Ordering::Acquire));
    }
}

#[test]
fn work_time_dominates_for_compute_bound_job() {
    // fib(27), not something smaller: the startup steal frenzy costs a
    // fixed amount of scheduling time regardless of job size, and on an
    // oversubscribed 1-CPU container a small job occasionally lets that
    // fixed cost reach half the work time. Enough work makes the ratio
    // assertion robust rather than a coin flip under preemption.
    let pool = Pool::builder().workers(4).build().unwrap();
    pool.reset_stats();
    pool.install(|| fib(27));
    let stats = pool.stats();
    let work = stats.total_work_ns();
    let sched = stats.total_sched_ns();
    assert!(work > 0);
    assert!(sched < work / 2, "scheduling time {sched}ns should be far below work {work}ns");
}

#[test]
fn stats_reset_clears_counters() {
    let pool = Pool::new(2).unwrap();
    pool.install(|| fib(15));
    assert!(pool.stats().total_spawns() > 0);
    pool.reset_stats();
    assert_eq!(pool.stats().total_spawns(), 0);
}

#[test]
fn install_from_worker_runs_inline() {
    let pool = std::sync::Arc::new(Pool::new(2).unwrap());
    let p2 = std::sync::Arc::clone(&pool);
    let r = pool.install(move || p2.install(|| 11));
    assert_eq!(r, 11);
}

#[test]
fn concurrent_installs_from_many_threads() {
    let pool = std::sync::Arc::new(Pool::new(4).unwrap());
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..6 {
            let pool = std::sync::Arc::clone(&pool);
            let done = &done;
            s.spawn(move || {
                let r = pool.install(|| fib(15 + (t % 3)));
                assert!(r > 0);
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), 6);
}

#[test]
fn hints_wrap_modulo_places() {
    // Code written for 4 places must run on a 2-place pool unchanged.
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    let (a, b, c, d) =
        pool.install(|| join4_at([Place(0), Place(1), Place(2), Place(3)], || 1, || 2, || 3, || 4));
    assert_eq!((a, b, c, d), (1, 2, 3, 4));
}

#[test]
fn remote_steals_counted_on_multi_place_pool() {
    // See steals_happen_under_load for the debug/release sizing rationale.
    let n = if cfg!(debug_assertions) { 24 } else { 29 };
    let pool = Pool::builder().workers(8).places(4).policy(SchedPolicy::vanilla()).build().unwrap();
    pool.install(|| fib(n));
    let stats = pool.stats();
    assert!(
        stats.total_remote_steals() > 0,
        "uniform stealing across 4 places must cross sockets: {stats:?}"
    );
}

#[test]
fn biased_mode_prefers_local_steals() {
    // With 4 places, NUMA-WS must target local victims far more often than
    // Classic. Compare the remote share of steal *attempts*: attempts
    // mirror the victim distribution directly (uniform vs distance-biased),
    // whereas successful-steal ratios are confounded by which victims
    // happen to hold work and are too noisy at the ~100-steal scale of a
    // unit test.
    fn run(policy: SchedPolicy) -> (u64, u64) {
        let pool = Pool::builder().workers(8).places(4).policy(policy).seed(1234).build().unwrap();
        // 8 roots, not 4: since join waiters deep-sleep instead of polling
        // in 50µs slices, an idle worker makes far fewer (cheaper) steal
        // attempts per unit time, so the >100-attempt sample floor needs
        // more work to clear with margin.
        for _ in 0..8 {
            pool.install(|| fib(23));
        }
        let s = pool.stats();
        (s.total_remote_steal_attempts(), s.total_steal_attempts())
    }
    let (classic_remote, classic_total) = run(SchedPolicy::vanilla());
    let (numa_remote, numa_total) = run(SchedPolicy::numa_ws());
    assert!(classic_total > 100, "expected real stealing pressure: {classic_total} attempts");
    assert!(numa_total > 100, "expected real stealing pressure: {numa_total} attempts");
    let classic_share = classic_remote as f64 / classic_total as f64;
    let numa_share = numa_remote as f64 / numa_total as f64;
    // Uniform stealing over 7 victims (6 remote) sits at 6/7 ≈ 0.857. The
    // pool's places are all 21 apart, so the bias weighs the one local
    // victim 1 and each remote one 10/21, and NUMA-WS sits at 60/81 ≈ 0.741.
    // Require a real gap, not just an inequality, so regressions in the
    // bias cannot hide in noise.
    assert!(
        numa_share < classic_share - 0.05,
        "NUMA-WS remote attempt share {numa_share:.3} should sit well below classic \
         {classic_share:.3} (remote/total: numa {numa_remote}/{numa_total}, \
         classic {classic_remote}/{classic_total})"
    );
}

#[test]
fn join_outside_pool_panics_with_guidance() {
    let r = std::panic::catch_unwind(|| join(|| 1, || 2));
    let payload = r.unwrap_err();
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("Pool::install"), "panic message should guide the user: {msg}");
}
