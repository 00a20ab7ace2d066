//! Regenerates the paper's **Figure 9**: NUMA-WS scalability `T1/TP` as a
//! function of the core count, with workers packed onto the smallest number
//! of sockets (for 24 cores, 3 sockets).
//!
//! Run: `cargo run --release -p nws_bench --bin fig9`

use nws_bench::{measure, BenchId};
use nws_topology::SchedPolicy;

fn main() {
    let ps = [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 32];
    println!("Figure 9: NUMA-WS scalability T1/TP (packed placement, paper machine)\n");
    let mut header = vec!["benchmark"];
    let p_labels: Vec<String> = ps.iter().map(|p| format!("P={p}")).collect();
    header.extend(p_labels.iter().map(|s| s.as_str()));
    let mut table = nws_metrics::Table::new(header);
    let mut curves: Vec<(&str, Vec<f64>)> = Vec::new();
    for bench in BenchId::fig9() {
        let mut row = vec![bench.name().to_string()];
        let mut curve = Vec::new();
        for &p in &ps {
            let m = measure(bench, SchedPolicy::numa_ws(), p, 42);
            let s = m.scalability();
            row.push(format!("{s:.1}"));
            curve.push(s);
        }
        curves.push((bench.name(), curve.clone()));
        table.row(row);
    }
    println!("{table}");
    // The paper's criterion: "the scalability curves are smooth, indicating
    // the application gains speedup steadily as we increase the number of
    // cores" — flag regressions.
    for (name, curve) in &curves {
        let mut drops = Vec::new();
        for w in curve.windows(2) {
            if w[1] < w[0] * 0.95 {
                drops.push(format!("{:.1}->{:.1}", w[0], w[1]));
            }
        }
        if drops.is_empty() {
            println!("{name:>10}: monotone speedup across socket boundaries");
        } else {
            println!("{name:>10}: speedup dips at {}", drops.join(", "));
        }
    }
    println!("\npaper (Fig 9): all curves rise smoothly; hull1 visibly degrades past one socket.");
}
