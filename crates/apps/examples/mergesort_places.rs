//! The paper's Figure 4 worked end to end: parallel mergesort whose
//! top-level quarters are hinted at places `@p0..@p3`, pair-merges at
//! `@p0`/`@p2`, and the final merge `@ANY`.
//!
//! Run: `cargo run --release --example mergesort_places`

use numa_ws::{Pool, SchedPolicy};
use nws_apps::{cilksort, common};
use std::time::Instant;

fn main() {
    let params = cilksort::Params { n: 1 << 21, sort_base: 1 << 13, merge_base: 1 << 13 };
    let keys = common::random_keys(params.n, 4); // Figure 4's benchmark

    // Serial elision first: the TS baseline.
    let mut serial = keys.clone();
    let mut tmp = vec![0u64; params.n];
    let t0 = Instant::now();
    cilksort::sort_serial(&mut serial, &mut tmp, params);
    let ts = t0.elapsed();

    for (name, policy) in [("classic", SchedPolicy::vanilla()), ("numa-ws", SchedPolicy::numa_ws())]
    {
        let workers = std::thread::available_parallelism().map_or(8, |n| n.get()).min(16);
        let pool = Pool::builder()
            .workers(workers)
            .places(4.min(workers))
            .policy(policy)
            .build()
            .expect("pool");
        let mut data = keys.clone();
        let mut tmp = vec![0u64; params.n];
        let t0 = Instant::now();
        pool.install(|| cilksort::sort_parallel(&mut data, &mut tmp, params, pool.num_places()));
        let tp = t0.elapsed();
        assert_eq!(data, serial, "parallel sort must agree with the serial elision");
        let stats = pool.stats();
        println!(
            "{name:>8}: P={workers} sorted {} keys in {:.0?} (serial {:.0?}, speedup {:.2}x); \
             steals {} ({} remote), pushes {}",
            params.n,
            tp,
            ts,
            ts.as_secs_f64() / tp.as_secs_f64(),
            stats.total_steals(),
            stats.total_remote_steals(),
            stats.total_push_deliveries(),
        );
    }
}
