//! Shutdown-under-load regression tests: dropping a pool while external
//! clients are still storming its ingress queues must drain every accepted
//! job exactly once — nothing lost, nothing run twice, no hang. This is
//! the teardown half of the service posture DESIGN.md §9 describes; the
//! chaos tier covers the same invariants under injected faults.

use numa_ws::{Place, Pool, SchedPolicy};
use nws_sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Runs `f` under a watchdog: the whole phase must finish (or panic)
/// within 60 s — a shutdown that strands a client or a worker shows up
/// here as a hang, which is exactly the regression this test exists for.
fn with_watchdog<F>(name: &'static str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => t.join().unwrap(),
        // Disconnected means the phase panicked: join to propagate it.
        Err(mpsc::RecvTimeoutError::Disconnected) => t.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{name}: shutdown hung (>60s)"),
    }
}

/// A touch of work per job, so a storm actually builds an ingress backlog
/// for the drop to drain.
fn busy() {
    for _ in 0..200 {
        numa_ws::sync::hint::spin_loop();
    }
}

#[test]
fn dropping_a_stormed_pool_drains_every_accepted_job() {
    with_watchdog("bounded storm", || {
        const CLIENTS: usize = 6;
        let pool = Pool::builder()
            .workers(4)
            .places(2)
            .policy(SchedPolicy::numa_ws())
            .ingress_capacity(64)
            .build()
            .unwrap();
        let accepted = AtomicUsize::new(0);
        let rejected = AtomicUsize::new(0);
        let executed = Arc::new(AtomicUsize::new(0));
        let stop = AtomicBool::new(false);

        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (pool, accepted, rejected, executed, stop) =
                    (&pool, &accepted, &rejected, &executed, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let executed = Arc::clone(executed);
                        match pool.try_spawn_at(Place(c % 2), move || {
                            busy();
                            executed.fetch_add(1, Ordering::SeqCst);
                        }) {
                            Ok(()) => {
                                accepted.fetch_add(1, Ordering::SeqCst);
                            }
                            // The bounce hands the closure back unrun; it
                            // must stay unrun (never counted as executed).
                            Err(_job) => {
                                rejected.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::SeqCst);
        });

        let accepted = accepted.load(Ordering::SeqCst);
        let rejected = rejected.load(Ordering::SeqCst);
        assert!(accepted > 0, "storm never landed a job");
        let stats = pool.stats();
        assert_eq!(stats.ingress_rejects, rejected as u64, "every bounce is counted");
        assert_eq!(stats.sheds, 0, "Block policy never sheds");

        // Drop with whatever backlog the bounded queues still hold: the
        // drain must run every accepted job before the pool dies.
        drop(pool);
        assert_eq!(
            executed.load(Ordering::SeqCst),
            accepted,
            "accepted jobs lost or duplicated across shutdown (rejected={rejected})"
        );
    });
}

#[test]
fn staggered_handle_drops_never_double_run_or_lose_jobs() {
    with_watchdog("staggered drops", || {
        const CLIENTS: usize = 5;
        const PER_CLIENT: usize = 400;
        let pool = Arc::new(
            Pool::builder().workers(4).places(2).policy(SchedPolicy::numa_ws()).build().unwrap(),
        );
        let slots: Arc<Vec<AtomicU32>> =
            Arc::new((0..CLIENTS * PER_CLIENT).map(|_| AtomicU32::new(0)).collect());
        let accepted = Arc::new(AtomicUsize::new(0));

        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let pool = Arc::clone(&pool);
                let slots = Arc::clone(&slots);
                let accepted = Arc::clone(&accepted);
                std::thread::spawn(move || {
                    for i in 0..PER_CLIENT {
                        let slot = c * PER_CLIENT + i;
                        let slots = Arc::clone(&slots);
                        if pool
                            .try_spawn_at(Place(c % 2), move || {
                                busy();
                                slots[slot].fetch_add(1, Ordering::SeqCst);
                            })
                            .is_ok()
                        {
                            accepted.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    // Staggered exits: each client abandons its handle at a
                    // different time; the last drop tears the pool down
                    // while siblings may still be mid-submission.
                    std::thread::sleep(Duration::from_millis(2 * c as u64));
                    drop(pool);
                })
            })
            .collect();
        drop(pool); // the main handle goes first
        for h in handles {
            h.join().unwrap();
        }

        let executed: u64 = slots.iter().map(|s| u64::from(s.load(Ordering::SeqCst))).sum();
        for (i, s) in slots.iter().enumerate() {
            assert!(s.load(Ordering::SeqCst) <= 1, "slot {i} ran twice");
        }
        assert_eq!(
            executed,
            accepted.load(Ordering::SeqCst) as u64,
            "accepted jobs lost across the staggered teardown"
        );
    });
}
