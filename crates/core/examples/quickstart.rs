//! Quickstart: build a NUMA-WS pool, fork work with locality hints, and
//! inspect the scheduler statistics.
//!
//! Run: `cargo run --release --example quickstart`

use numa_ws::{join, join_at, Place, Pool, SchedPolicy};

/// Recursive parallel sum with the stealable half hinted at place 1.
fn sum(xs: &[u64]) -> u64 {
    if xs.len() <= 4096 {
        return xs.iter().sum();
    }
    let (lo, hi) = xs.split_at(xs.len() / 2);
    let (a, b) = join_at(|| sum(lo), || sum(hi), Place(1));
    a + b
}

fn main() {
    // Four workers spread over two virtual places (one per simulated
    // socket). The same program runs unchanged on any worker/place count —
    // the processor-oblivious model of §III-A.
    let pool = Pool::builder()
        .workers(4)
        .places(2)
        .policy(SchedPolicy::numa_ws())
        .build()
        .expect("pool construction");

    let xs: Vec<u64> = (0..2_000_000).collect();
    let total = pool.install(|| sum(&xs));
    assert_eq!(total, 2_000_000u64 * 1_999_999 / 2);
    println!("sum(0..2e6) = {total}");

    // Unhinted forks work too, and compose with hinted ones.
    let (evens, odds) = pool.install(|| {
        join(
            || xs.iter().filter(|x| *x % 2 == 0).count(),
            || xs.iter().filter(|x| *x % 2 == 1).count(),
        )
    });
    println!("evens = {evens}, odds = {odds}");

    // The runtime tracks the paper's §II breakdown per worker.
    let stats = pool.stats();
    println!(
        "steals: {} ({} remote), mailbox deliveries: {}, spawns: {}",
        stats.total_steals(),
        stats.total_remote_steals(),
        stats.total_push_deliveries(),
        stats.total_spawns(),
    );
    for (i, w) in stats.workers.iter().enumerate() {
        println!(
            "  worker {i}: work {:.2}ms, sched {:.3}ms, idle {:.2}ms",
            w.work_ns as f64 / 1e6,
            w.sched_ns as f64 / 1e6,
            w.idle_ns as f64 / 1e6,
        );
    }
}
