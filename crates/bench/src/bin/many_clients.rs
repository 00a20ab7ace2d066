//! Many-clients ingress throughput harness: N client threads hammer one
//! pool with blocking `install` requests, plus a bounce-aware `try_spawn`
//! ack and a shed-able `spawn` notification per request — the
//! service-shaped workload the per-place ingress subsystem exists for,
//! now run against *bounded* ingress queues under the shedding overflow
//! policy. Reports request throughput, the accept/bounce/shed ledger, and
//! the ingress/wake counters for several pool shapes.
//!
//! Run: `cargo run --release -p nws_bench --bin many_clients`

use numa_ws::{join, OverflowPolicy, Place, Pool, SchedPolicy};
use nws_sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One "request": a small parallel reduction, big enough to fork a few
/// times but far smaller than a batch job — the regime where ingress
/// latency, not steady-state stealing, dominates.
fn request(xs: &[u64]) -> u64 {
    if xs.len() <= 512 {
        return xs.iter().sum();
    }
    let (lo, hi) = xs.split_at(xs.len() / 2);
    let (a, b) = join(|| request(lo), || request(hi));
    a + b
}

struct RunStats {
    rps: f64,
    acks_ok: usize,
    acks_bounced: usize,
    sheds: u64,
    injector_takes: u64,
    wakeups: u64,
}

fn run(
    workers: usize,
    places: usize,
    capacity: usize,
    clients: usize,
    requests: usize,
) -> RunStats {
    let pool = Arc::new(
        Pool::builder()
            .workers(workers)
            .places(places)
            .policy(SchedPolicy::numa_ws())
            .ingress_capacity(capacity)
            .overflow(OverflowPolicy::Reject)
            .build()
            .expect("pool"),
    );
    let xs: Arc<Vec<u64>> = Arc::new((0..16_384).collect());
    let expect: u64 = xs.iter().sum();
    let acks = Arc::new(AtomicUsize::new(0));
    let notifs = Arc::new(AtomicUsize::new(0));
    let acks_ok = Arc::new(AtomicUsize::new(0));
    let acks_bounced = Arc::new(AtomicUsize::new(0));

    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (pool, xs) = (Arc::clone(&pool), Arc::clone(&xs));
            let (acks, notifs) = (Arc::clone(&acks), Arc::clone(&notifs));
            let (acks_ok, acks_bounced) = (Arc::clone(&acks_ok), Arc::clone(&acks_bounced));
            s.spawn(move || {
                for _ in 0..requests {
                    // Blocking installs always wait for ingress space —
                    // a request in flight is never dropped.
                    let got = pool.install_at(Place(c), || request(&xs));
                    assert_eq!(got, expect);
                    // Bounce-aware ack: a full queue hands the closure
                    // back, and the client decides (here: drop it and
                    // count the bounce).
                    let acks2 = Arc::clone(&acks);
                    match pool.try_spawn(move || {
                        acks2.fetch_add(1, Ordering::Relaxed);
                    }) {
                        Ok(()) => {
                            acks_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_unrun) => {
                            acks_bounced.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Fire-and-forget notification: under the Reject
                    // policy an overflow sheds it (accepted, dropped,
                    // counted) instead of blocking the client.
                    let notifs2 = Arc::clone(&notifs);
                    pool.spawn_at(Place(c), move || {
                        notifs2.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    let elapsed = start.elapsed();

    // The overflow ledger must balance: every accepted ack runs, every
    // notification either runs or is counted shed.
    let total = clients * requests;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let ran = notifs.load(Ordering::Relaxed);
        let shed = pool.stats().sheds as usize;
        if acks.load(Ordering::Relaxed) == acks_ok.load(Ordering::Relaxed) && ran + shed == total {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "ledger never balanced: acks {}/{}, notifications {ran}+{shed} of {total}",
            acks.load(Ordering::Relaxed),
            acks_ok.load(Ordering::Relaxed),
        );
        nws_sync::thread::yield_now();
    }
    let stats = pool.stats();
    assert_eq!(
        stats.ingress_rejects as usize,
        acks_bounced.load(Ordering::Relaxed),
        "every bounced try_spawn is counted"
    );

    RunStats {
        rps: total as f64 / elapsed.as_secs_f64(),
        acks_ok: acks_ok.load(Ordering::Relaxed),
        acks_bounced: acks_bounced.load(Ordering::Relaxed),
        sheds: stats.sheds,
        injector_takes: stats.total_injector_takes(),
        wakeups: stats.total_wakeups(),
    }
}

fn main() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 200;
    println!("Many-clients bounded-ingress throughput: {CLIENTS} clients x {REQUESTS} requests");
    println!("(request = blocking install_at + try_spawn ack + shed-able spawn notification;");
    println!(" bounded ingress queues, OverflowPolicy::Reject)\n");
    let mut table = nws_metrics::Table::new(vec![
        "workers",
        "places",
        "capacity",
        "req/s",
        "acks ok",
        "acks bounced",
        "sheds",
        "injector takes",
        "wakeups",
    ]);
    // The last shape is deliberately overloaded (tiny bound) so the
    // bounce/shed columns show real traffic, not just a balanced zero.
    for (workers, places, capacity) in [(2, 1, 64), (4, 2, 64), (8, 4, 64), (2, 1, 2)] {
        let r = run(workers, places, capacity, CLIENTS, REQUESTS);
        table.row(vec![
            workers.to_string(),
            places.to_string(),
            capacity.to_string(),
            format!("{:.0}", r.rps),
            r.acks_ok.to_string(),
            r.acks_bounced.to_string(),
            r.sheds.to_string(),
            r.injector_takes.to_string(),
            r.wakeups.to_string(),
        ]);
    }
    println!("{table}");
    println!("ledger: acks ok + acks bounced = notifications run + shed = clients x requests;");
    println!("every accepted job is taken from an ingress queue exactly once, every overflow");
    println!("is counted (bounced back to the caller, or shed after acceptance).");
}
