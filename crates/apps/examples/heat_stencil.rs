//! The paper's highest-leverage workload: iterative Jacobi heat diffusion
//! with place-partitioned row bands. Runs the same grid under both
//! schedulers and compares remote-steal traffic — on a real NUMA box this
//! is where NUMA-WS halves the work inflation (5.24× → 2.25×).
//!
//! Run: `cargo run --release --example heat_stencil`

use numa_ws::{Pool, SchedPolicy};
use nws_apps::heat;
use std::time::Instant;

fn main() {
    let params = heat::Params { rows: 1024, cols: 1024, steps: 50, rows_base: 16 };
    let workers = std::thread::available_parallelism().map_or(8, |n| n.get()).min(16);
    let places = 4.min(workers);

    // Reference result from the serial elision.
    let mut reference = heat::initial_grid(params.rows, params.cols);
    let mut scratch = vec![0.0; reference.len()];
    let t0 = Instant::now();
    heat::run_serial(&mut reference, &mut scratch, params);
    println!("serial elision: {:.0?}", t0.elapsed());

    for (name, policy) in [("classic", SchedPolicy::vanilla()), ("numa-ws", SchedPolicy::numa_ws())]
    {
        let pool = Pool::builder().workers(workers).places(places).policy(policy).build().unwrap();
        let mut grid = heat::initial_grid(params.rows, params.cols);
        let mut scratch = vec![0.0; grid.len()];
        let t0 = Instant::now();
        pool.install(|| heat::run_parallel(&mut grid, &mut scratch, params, places));
        let elapsed = t0.elapsed();
        let diff = nws_apps::common::max_abs_diff(&reference, &grid);
        assert!(diff < 1e-12, "parallel grid diverged: {diff}");
        let stats = pool.stats();
        let remote_share = stats.total_remote_steals() as f64 / stats.total_steals().max(1) as f64;
        println!(
            "{name:>8}: {} steps on {}x{} in {:.0?}; steals {} (remote share {:.2}), \
             mailbox deliveries {}",
            params.steps,
            params.rows,
            params.cols,
            elapsed,
            stats.total_steals(),
            remote_share,
            stats.total_push_deliveries(),
        );
    }
    println!("\n(on this non-NUMA container both modes run at similar speed; the remote-steal");
    println!(" share shows the NUMA-WS protocol at work — see nws_bench reproduce for the");
    println!(" simulated four-socket machine where the locality difference becomes time)");
}
