//! Empirically checks the §IV theory on synthetic DAGs: execution time
//! `T_P ≤ T1/P + O(T∞)` and steals `O(P·T∞)`, for both schedulers.
//!
//! Run: `cargo run --release -p nws_bench --bin bounds`

use nws_sim::{DagBuilder, SchedPolicy, SimConfig, Simulation, Strand};
use nws_topology::Place;

/// A balanced binary spawn tree: work = leaves*cycles, span ≈ cycles*log.
fn tree(leaves: usize, cycles: u64) -> nws_sim::Dag {
    fn rec(b: &mut DagBuilder, n: usize, cycles: u64) -> nws_sim::FrameId {
        if n == 1 {
            return b.leaf(Place::ANY, Strand::compute(cycles));
        }
        let l = rec(b, n / 2, cycles);
        let r = rec(b, n - n / 2, cycles);
        b.frame(Place::ANY).spawn(l).spawn(r).sync().finish()
    }
    let mut b = DagBuilder::new();
    let root = rec(&mut b, leaves, cycles);
    b.build(root)
}

/// A chain of `len` serial phases each forking `width` leaves — long span,
/// bounded parallelism; stresses the O(T∞) term.
fn phased(len: usize, width: usize, cycles: u64) -> nws_sim::Dag {
    let mut b = DagBuilder::new();
    let mut phases = Vec::new();
    for _ in 0..len {
        let leaves: Vec<_> =
            (0..width).map(|_| b.leaf(Place::ANY, Strand::compute(cycles))).collect();
        let mut fb = b.frame(Place::ANY);
        for l in leaves {
            fb = fb.spawn(l);
        }
        phases.push(fb.sync().finish());
    }
    let mut fb = b.frame(Place::ANY);
    for p in phases {
        fb = fb.spawn(p).sync();
    }
    let root = fb.finish();
    b.build(root)
}

fn main() {
    let topo = nws_topology::presets::paper_machine();
    println!("Section IV bounds check: T_P vs T1/P + c*T_inf, steals vs c*P*T_inf\n");
    let mut table = nws_metrics::Table::new(vec![
        "dag",
        "sched",
        "P",
        "T1/P+Tinf",
        "T_P",
        "ratio",
        "steals",
        "P*Tinf/1k",
        "steal-ratio",
    ]);
    let dags: Vec<(&str, nws_sim::Dag)> = vec![
        ("tree-4k", tree(4096, 2_000)),
        ("tree-64", tree(64, 50_000)),
        ("phased", phased(50, 64, 3_000)),
    ];
    for (name, dag) in &dags {
        let work = dag.work();
        let span = dag.span();
        for (sched, policy) in [("cl", SchedPolicy::vanilla()), ("nws", SchedPolicy::numa_ws())] {
            for p in [4usize, 16, 32] {
                let cfg = SimConfig::with_policy(policy, p);
                let r = Simulation::new(&topo, cfg, dag).expect("fits").run();
                let greedy = work as f64 / p as f64 + span as f64;
                let steal_bound = (p as u64 * span) as f64;
                table.row(vec![
                    name.to_string(),
                    sched.to_string(),
                    p.to_string(),
                    format!("{:.0}k", greedy / 1000.0),
                    format!("{:.0}k", r.makespan as f64 / 1000.0),
                    format!("{:.2}", r.makespan as f64 / greedy),
                    r.counters.steal_attempts.to_string(),
                    format!("{:.0}", steal_bound / 1000.0),
                    format!("{:.3}", r.counters.steal_attempts as f64 / steal_bound),
                ]);
            }
        }
    }
    println!("{table}");
    println!(
        "ratio = T_P / (T1/P + T_inf): bounded by a constant across P per the theorem;\n\
         steal-ratio = attempts / (P * T_inf): likewise bounded (the hidden constant is\n\
         larger for NUMA-WS, as Section IV predicts)."
    );
}
