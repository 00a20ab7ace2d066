//! Regenerates the paper's **Figure 3**: total processing time of each
//! benchmark on the classic (Cilk Plus) scheduler, normalized to `TS`, at
//! P=1 and P=32, with the P=32 bar split into work / scheduling / idle.
//!
//! Run: `cargo run --release -p nws_bench --bin fig3`

use nws_bench::{measure, BenchId};
use nws_topology::SchedPolicy;

fn main() {
    println!("Figure 3: normalized total processing time on the classic scheduler");
    println!("(each value = total processing time / TS; P=32 split into work+sched+idle)\n");
    let mut table =
        nws_metrics::Table::new(vec!["benchmark", "P=1", "P=32 total", "work", "sched", "idle"]);
    for bench in BenchId::fig3() {
        let m = measure(bench, SchedPolicy::vanilla(), 32, 42);
        let ts = m.ts as f64;
        let b = nws_metrics::Breakdown::new(
            m.report.total_work() as f64,
            m.report.total_sched() as f64,
            m.report.total_idle() as f64,
        )
        .normalized(ts);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", m.t1 as f64 / ts),
            format!("{:.2}", b.total()),
            format!("{:.2}", b.work),
            format!("{:.3}", b.sched),
            format!("{:.3}", b.idle),
        ]);
        // A bar rendering, because Figure 3 is a bar chart.
        let bar = |v: f64, ch: char| ch.to_string().repeat((v * 10.0).round() as usize);
        println!(
            "{:>10} P=32 |{}{}{}|",
            bench.name(),
            bar(b.work, '#'),
            bar(b.sched, '+'),
            bar(b.idle, '.')
        );
    }
    println!("\n(#=work, +=scheduling, .=idle; one char per 0.1*TS)\n");
    println!("{table}");
    println!(
        "paper (Fig 3) P=32 normalized work inflation ranges 1.45x-5.24x except matmul (~1.1x);"
    );
    println!("the P=1 bars sit at ~1.0 (work efficiency).");
}
