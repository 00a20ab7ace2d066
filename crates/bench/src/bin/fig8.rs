//! Regenerates the paper's **Figure 8** table: `T1`, `W32`, `S32`, `I32`
//! per platform, with work inflation (`W32/T1`) in parentheses.
//!
//! Run: `cargo run --release -p nws_bench --bin fig8`

use nws_bench::{measure, secs, BenchId};
use nws_topology::SchedPolicy;

fn main() {
    let p = 32;
    println!("Figure 8: work/scheduling/idle on P = {p} (simulated seconds, 2.2 GHz)");
    println!("(parentheses next to W32: work inflation W32/T1)\n");
    let mut table = nws_metrics::Table::new(vec![
        "benchmark",
        "T1 cl",
        "W32 cl",
        "S32 cl",
        "I32 cl",
        "T1 nws",
        "W32 nws",
        "S32 nws",
        "I32 nws",
    ]);
    for bench in BenchId::all() {
        let classic = measure(bench, SchedPolicy::vanilla(), p, 42);
        let numa = measure(bench, SchedPolicy::numa_ws(), p, 42);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", secs(classic.t1)),
            format!("{:.2} ({:.2}x)", secs(classic.report.total_work()), classic.inflation()),
            format!("{:.3}", secs(classic.report.total_sched())),
            format!("{:.3}", secs(classic.report.total_idle())),
            format!("{:.2}", secs(numa.t1)),
            format!("{:.2} ({:.2}x)", secs(numa.report.total_work()), numa.inflation()),
            format!("{:.3}", secs(numa.report.total_sched())),
            format!("{:.3}", secs(numa.report.total_idle())),
        ]);
    }
    println!("{table}");
    println!(
        "paper (Fig 8) inflation, classic -> numa-ws: cg 2.33->1.21, cilksort 1.54->1.21, \
         heat 5.24->2.25, hull1 4.05->3.53, hull2 2.28->1.56, matmul 1.09->1.07, \
         matmul-z 1.02->1.02, strassen 1.50->1.50, strassen-z 1.46->1.45"
    );
}
