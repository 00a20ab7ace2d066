//! Service-shaped end-to-end test: one pool serving many concurrent
//! clients through the public API, mixing place-hinted installs,
//! fire-and-forget spawns, and real parallel kernels — the ROADMAP's
//! "many concurrent clients" scenario that the per-place ingress subsystem
//! exists for.

use numa_ws::{join, Place, Pool, SchedPolicy};
use nws_sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sum(xs: &[u64]) -> u64 {
    if xs.len() <= 256 {
        return xs.iter().sum();
    }
    let (lo, hi) = xs.split_at(xs.len() / 2);
    let (a, b) = join(|| sum(lo), || sum(hi));
    a + b
}

#[test]
fn one_pool_serves_many_clients_across_places() {
    const CLIENTS: usize = 6;
    const REQUESTS: usize = 25;
    let pool = Arc::new(
        Pool::builder().workers(4).places(2).policy(SchedPolicy::numa_ws()).build().unwrap(),
    );
    let notifications = Arc::new(AtomicUsize::new(0));
    let xs: Arc<Vec<u64>> = Arc::new((0..20_000).collect());
    let expect: u64 = xs.iter().sum();

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let pool = Arc::clone(&pool);
            let notifications = Arc::clone(&notifications);
            let xs = Arc::clone(&xs);
            s.spawn(move || {
                for r in 0..REQUESTS {
                    // Each client pins its requests to a (wrapped) place,
                    // like a shard-affine frontend would.
                    let got = pool.install_at(Place(c % 3), || sum(&xs));
                    assert_eq!(got, expect, "client {c} request {r}");
                    // Plus a fire-and-forget notification per request.
                    let notifications = Arc::clone(&notifications);
                    pool.spawn_at(Place(c), move || {
                        notifications.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });

    // All notifications eventually run (the pool is still alive).
    let deadline = Instant::now() + Duration::from_secs(20);
    while notifications.load(Ordering::SeqCst) < CLIENTS * REQUESTS {
        assert!(Instant::now() < deadline, "fire-and-forget notifications did not all run");
        numa_ws::sync::thread::yield_now();
    }

    // Conservation: every ingress job (install or spawn) was taken from an
    // ingress queue exactly once.
    let stats = pool.stats();
    assert_eq!(stats.total_injector_takes(), (CLIENTS * REQUESTS * 2) as u64, "{stats:?}");
}
