//! Integration tests for the structured scope subsystem: stack borrows,
//! panic propagation, nested scopes, dynamic sibling spawning, and place
//! hints — the contract surface of `scope`.

use numa_ws::{scope, Place, Pool, SchedPolicy, Scope};
use nws_sync::atomic::{AtomicUsize, Ordering};

#[test]
fn spawned_tasks_borrow_and_mutate_the_stack() {
    // The point of 'scope: tasks mutate disjoint chunks of a stack-owned
    // buffer through plain &mut borrows — no Arc, no channels.
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    let mut data = vec![0u64; 1024];
    pool.install(|| {
        scope(|s| {
            for (i, chunk) in data.chunks_mut(64).enumerate() {
                s.spawn(move |_| {
                    for x in chunk.iter_mut() {
                        *x += i as u64 + 1;
                    }
                });
            }
        })
    });
    for (i, chunk) in data.chunks(64).enumerate() {
        assert!(chunk.iter().all(|&x| x == i as u64 + 1), "chunk {i} wrong: {chunk:?}");
    }
}

#[test]
fn scope_returns_body_value_after_all_spawns() {
    let pool = Pool::new(3).unwrap();
    let done = AtomicUsize::new(0);
    let r = pool.install(|| {
        scope(|s| {
            for _ in 0..32 {
                s.spawn(|_| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            "body result"
        })
    });
    assert_eq!(r, "body result");
    // scope() returning implies every spawn already ran.
    assert_eq!(done.into_inner(), 32);
}

#[test]
fn tasks_spawn_siblings_dynamically() {
    // N discovered at runtime: a task tree where every node spawns its
    // children into the SAME scope — the shape binary join cannot express.
    fn grow<'s>(s: &Scope<'s>, fanout: usize, depth: usize, visits: &'s AtomicUsize) {
        visits.fetch_add(1, Ordering::Relaxed);
        if depth == 0 {
            return;
        }
        for _ in 0..fanout {
            s.spawn(move |s| grow(s, fanout, depth - 1, visits));
        }
    }
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    let visits = AtomicUsize::new(0);
    pool.install(|| scope(|s| grow(s, 3, 5, &visits)));
    // 1 + 3 + 9 + 27 + 81 + 243 nodes.
    assert_eq!(visits.into_inner(), 364);
}

#[test]
fn nested_scopes_wait_independently() {
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    let mut outer_sums = [0u64; 4];
    pool.install(|| {
        scope(|s| {
            for (i, slot) in outer_sums.iter_mut().enumerate() {
                s.spawn(move |_| {
                    // Inner scope: its borrows live on THIS task's stack,
                    // which is sound precisely because the inner scope
                    // waits before the task returns.
                    let mut parts = [0u64; 8];
                    scope(|inner| {
                        for (j, p) in parts.iter_mut().enumerate() {
                            inner.spawn(move |_| *p = (i * 8 + j) as u64);
                        }
                    });
                    *slot = parts.iter().sum();
                });
            }
        })
    });
    for (i, &sum) in outer_sums.iter().enumerate() {
        let expect: u64 = (0..8).map(|j| (i * 8 + j) as u64).sum();
        assert_eq!(sum, expect, "outer slot {i}");
    }
}

#[test]
fn task_panic_resumes_at_scope_exit_and_siblings_finish() {
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    let finished = AtomicUsize::new(0);
    let finished = &finished;
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            scope(|s| {
                for i in 0..64 {
                    s.spawn(move |_| {
                        if i == 13 {
                            panic!("task 13 exploded");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        })
    }));
    let payload = r.expect_err("the task panic must propagate out of scope()");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 13 exploded"));
    // All 63 non-panicking siblings ran to completion before the resume.
    assert_eq!(finished.load(Ordering::SeqCst), 63);
    assert_eq!(pool.install(|| 7), 7, "pool survives a scope panic");
}

#[test]
fn body_panic_waits_for_spawns_then_takes_precedence() {
    let pool = Pool::new(4).unwrap();
    let finished = AtomicUsize::new(0);
    let finished = &finished;
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            scope(|s| {
                for i in 0..16 {
                    s.spawn(move |_| {
                        if i == 3 {
                            panic!("task panic (must lose to the body's)");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("body panic");
            })
        })
    }));
    let payload = r.expect_err("the body panic must propagate");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"body panic"));
    assert_eq!(finished.load(Ordering::SeqCst), 15, "all non-panicking spawns drained first");
}

#[test]
fn nested_scope_panic_does_not_leak_into_outer() {
    let pool = Pool::new(4).unwrap();
    let outer_done = AtomicUsize::new(0);
    let r = pool.install(|| {
        scope(|s| {
            s.spawn(|_| {
                // The inner panic is caught *inside* this task.
                let inner = std::panic::catch_unwind(|| {
                    scope(|s2| {
                        s2.spawn(|_| panic!("inner"));
                    })
                });
                assert!(inner.is_err(), "inner scope must resume its task's panic");
                outer_done.fetch_add(1, Ordering::SeqCst);
            });
            s.spawn(|_| {
                outer_done.fetch_add(1, Ordering::SeqCst);
            });
            "outer ok"
        })
    });
    assert_eq!(r, "outer ok");
    assert_eq!(outer_done.into_inner(), 2);
}

#[test]
fn spawn_at_hints_wrap_and_run_once() {
    // Correctness under heavy hinting: every task runs exactly once no
    // matter where it was earmarked, across both scheduler modes.
    for policy in [SchedPolicy::numa_ws(), SchedPolicy::vanilla()] {
        let pool = Pool::builder().workers(8).places(4).policy(policy).build().unwrap();
        let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            scope(|s| {
                for (i, h) in hits.iter().enumerate() {
                    if i % 2 == 0 {
                        // Unhinted.
                        s.spawn(move |_| {
                            h.fetch_add(1, Ordering::SeqCst);
                        });
                    } else {
                        // Explicit per-spawn hint, wrapping past the place
                        // count to exercise the modulo rule.
                        s.spawn_at(Place(i % 7), move |_| {
                            h.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                }
            })
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
            "every hinted task must run exactly once under {policy}"
        );
    }
}

#[test]
fn pool_scope_convenience_enters_the_pool() {
    // Pool::scope from an external (non-worker) thread.
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    let total = AtomicUsize::new(0);
    let total = &total;
    let r = pool.scope(|s| {
        for i in 0..100 {
            s.spawn(move |_| {
                total.fetch_add(i, Ordering::SeqCst);
            });
        }
        "done"
    });
    assert_eq!(r, "done");
    assert_eq!(total.load(Ordering::SeqCst), 4950);
}

#[test]
fn scope_composes_with_join_in_both_directions() {
    // join inside scope tasks, and scopes inside join branches: the deque
    // interleaving this produces is exactly what join's identity-checking
    // pop loop exists for.
    let pool = Pool::builder().workers(4).places(2).build().unwrap();
    let acc = AtomicUsize::new(0);
    pool.install(|| {
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    let (a, b) = numa_ws::join(
                        || {
                            scope(|s2| {
                                for _ in 0..4 {
                                    s2.spawn(|_| {
                                        acc.fetch_add(1, Ordering::SeqCst);
                                    });
                                }
                                10
                            })
                        },
                        || 1,
                    );
                    acc.fetch_add(a + b, Ordering::SeqCst);
                });
            }
            // The body itself joins while spawns are pending.
            let (x, y) = numa_ws::join(|| 100, || 200);
            acc.fetch_add(x + y, Ordering::SeqCst);
        })
    });
    // 8 * (4 + 11) + 300.
    assert_eq!(acc.into_inner(), 420);
}

/// Runs `body(i)` for every `i` in `range`, one leaf per index, by
/// recursive `join` halving.
fn par_for(range: std::ops::Range<usize>, body: &(impl Fn(usize) + Sync)) {
    if range.len() <= 1 {
        range.for_each(body);
    } else {
        let mid = range.start + range.len() / 2;
        numa_ws::join(|| par_for(range.start..mid, body), || par_for(mid..range.end, body));
    }
}

#[test]
fn many_concurrent_scopes_via_par_for() {
    // Scopes created concurrently on many workers at once (each `par_for`
    // leaf opens its own), hammering CountLatch wake paths.
    let pool = Pool::builder().workers(8).places(4).build().unwrap();
    let total = AtomicUsize::new(0);
    pool.install(|| {
        par_for(0..64, &|_| {
            scope(|s| {
                for _ in 0..8 {
                    s.spawn(|_| {
                        total.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        })
    });
    assert_eq!(total.into_inner(), 64 * 8);
}
