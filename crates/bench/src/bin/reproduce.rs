//! Regenerates the paper's simulated 32-core results (arXiv 1806.11128),
//! in order:
//! - **Figure 3**: total processing time on the classic (Cilk Plus)
//!   scheduler, normalized to `TS`, at P=1 and P=32, with the P=32 bar
//!   split into work / scheduling / idle;
//! - **Figure 7**: `TS`, `T1`, `T32` on both platforms, with spawn
//!   overhead (`T1/TS`) and scalability (`T1/T32`) in parentheses;
//! - **Figure 8**: `T1`, `W32`, `S32`, `I32` per platform, with work
//!   inflation (`W32/T1`) in parentheses;
//! - **Figure 9**: NUMA-WS scalability `T1/TP` against the core count,
//!   with workers packed onto the fewest sockets (for 24 cores, 3).
//!
//! All four figures read one [`Cells`] memo, so each (bench, policy, P)
//! cell is simulated once. The output is deterministic and committed as
//! `crates/bench/expected/reproduce.txt`.
//!
//! Run: `cargo run --release -p nws_bench --bin reproduce`

use nws_bench::{BenchId, Cells};
use nws_metrics::cycles_to_seconds as secs;
use nws_topology::SchedPolicy;

/// The seven benchmarks of Figure 3 (no `-z` variants).
const FIG3: [BenchId; 7] = [
    BenchId::Cilksort,
    BenchId::Heat,
    BenchId::Strassen,
    BenchId::Hull1,
    BenchId::Hull2,
    BenchId::Cg,
    BenchId::Matmul,
];

/// The seven curves of Figure 9 (the `-z` variants replace the plain
/// matrix benchmarks, as in the paper's legend).
const FIG9: [BenchId; 7] = [
    BenchId::Cilksort,
    BenchId::Heat,
    BenchId::StrassenZ,
    BenchId::Hull1,
    BenchId::Hull2,
    BenchId::Cg,
    BenchId::MatmulZ,
];

fn main() {
    let mut cells = Cells::default();
    fig3(&mut cells);
    fig7(&mut cells);
    fig8(&mut cells);
    fig9(&mut cells);
}

fn fig3(cells: &mut Cells) {
    println!("Figure 3: normalized total processing time on the classic scheduler");
    println!("(each value = total processing time / TS; P=32 split into work+sched+idle)\n");
    let mut table =
        nws_metrics::Table::new(vec!["benchmark", "P=1", "P=32 total", "work", "sched", "idle"]);
    for bench in FIG3 {
        let m = cells.measure(bench, SchedPolicy::vanilla(), 32);
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

fn fig7(cells: &mut Cells) {
    let p = 32;
    let mut table = nws_metrics::Table::new(vec![
        "benchmark",
        "TS",
        "T1 classic",
        "T32 classic",
        "T1 numa-ws",
        "T32 numa-ws",
    ]);
    println!("Figure 7: execution times in simulated milliseconds (2.2 GHz), P = {p}");
    println!("(parentheses: T1 column = spawn overhead T1/TS; T32 column = scalability T1/T32)\n");
    let ms = |cycles: u64| secs(cycles) * 1e3;
    for bench in BenchId::all() {
        let classic = cells.measure(bench, SchedPolicy::vanilla(), p);
        let numa = cells.measure(bench, SchedPolicy::numa_ws(), p);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", ms(classic.ts)),
            format!("{:.2} ({:.2}x)", ms(classic.t1), classic.spawn_overhead()),
            format!("{:.2} ({:.2}x)", ms(classic.tp()), classic.scalability()),
            format!("{:.2} ({:.2}x)", ms(numa.t1), numa.spawn_overhead()),
            format!("{:.2} ({:.2}x)", ms(numa.tp()), numa.scalability()),
        ]);
    }
    println!("{table}");
}

fn fig8(cells: &mut Cells) {
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
        let classic = cells.measure(bench, SchedPolicy::vanilla(), p);
        let numa = cells.measure(bench, SchedPolicy::numa_ws(), p);
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

fn fig9(cells: &mut Cells) {
    let ps = [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 32];
    println!("Figure 9: NUMA-WS scalability T1/TP (packed placement, paper machine)\n");
    let mut header = vec!["benchmark"];
    let p_labels: Vec<String> = ps.iter().map(|p| format!("P={p}")).collect();
    header.extend(p_labels.iter().map(|s| s.as_str()));
    let mut table = nws_metrics::Table::new(header);
    let mut curves: Vec<(&str, Vec<f64>)> = Vec::new();
    for bench in FIG9 {
        let curve: Vec<f64> = ps
            .iter()
            .map(|&p| cells.measure(bench, SchedPolicy::numa_ws(), p).scalability())
            .collect();
        let mut row = vec![bench.name().to_string()];
        row.extend(curve.iter().map(|s| format!("{s:.1}")));
        table.row(row);
        curves.push((bench.name(), curve));
    }
    println!("{table}");
    // The paper's criterion: "the scalability curves are smooth, indicating
    // the application gains speedup steadily as we increase the number of
    // cores". Flag every step that loses more than 5 % of the speedup.
    for (name, curve) in &curves {
        let mut drops = Vec::new();
        for w in curve.windows(2) {
            if w[1] < w[0] * 0.95 {
                drops.push(format!("{:.1}->{:.1}", w[0], w[1]));
            }
        }
        if drops.is_empty() {
            println!("{name:>10}: no dip over 5 %");
        } else {
            println!("{name:>10}: speedup dips at {}", drops.join(", "));
        }
    }
    println!("\npaper (Fig 9): all curves rise smoothly; hull1 visibly degrades past one socket.");
}
