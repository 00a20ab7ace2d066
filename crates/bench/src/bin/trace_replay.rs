//! Replay a recorded DAG trace under every ablation policy.
//!
//! The committed golden trace (`crates/bench/traces/golden_fib.trace`) was
//! recorded once from the real pool (`fib(12)` under join, 4 workers / 2
//! places) and is the fixed input CI replays on every run: the binary
//! validates the trace, lowers it with [`trace_to_dag`], runs it under the
//! four presets of `SchedPolicy::ablation_grid` twice each, and **asserts**
//! that both runs of each policy produce the identical schedule — the
//! record→replay determinism contract (DESIGN.md §8). A schedule drift
//! fails CI.
//!
//! Usage:
//!
//! ```text
//! trace_replay [--quick] [PATH]   # replay PATH (default: committed golden)
//! trace_replay --record PATH      # re-record the golden into PATH
//! ```
//!
//! `--quick` replays at one worker count instead of three.

use nws_bench::machine;
use nws_metrics::Table;
use nws_sim::{trace_to_dag, SchedPolicy, SimConfig, Simulation, DEFAULT_NS_PER_CYCLE};
use nws_trace::Trace;

/// The committed golden trace, resolved relative to this crate.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces/golden_fib.trace");

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = numa_ws::join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Records the golden workload on the real pool and returns its trace.
fn record() -> Trace {
    let pool = numa_ws::Pool::builder()
        .workers(4)
        .places(2)
        .seed(0x5EED)
        .record_trace(true)
        .build()
        .expect("pool");
    let r = pool.install(|| fib(12));
    assert_eq!(r, 144);
    pool.take_trace("golden-fib12").expect("recording was enabled")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(i) = args.iter().position(|a| a == "--record") {
        let path = args.get(i + 1).map_or(GOLDEN, String::as_str);
        let trace = record();
        trace.validate().expect("recorded trace is well-formed");
        std::fs::write(path, trace.to_text()).expect("write trace");
        println!("recorded {} tasks into {path}", trace.tasks.len());
        return;
    }

    let path = args.iter().find(|a| !a.starts_with("--")).map_or(GOLDEN, String::as_str);
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
    let trace = Trace::parse(&text).expect("trace parses");
    trace.validate().expect("trace is well-formed");
    let dag = trace_to_dag(&trace, DEFAULT_NS_PER_CYCLE);
    dag.validate().expect("lowered DAG is well-formed");
    println!(
        "replaying '{}': {} tasks ({} started, {} ns recorded) -> {} frames, work {} cycles",
        trace.meta.label,
        trace.tasks.len(),
        trace.num_started(),
        trace.total_ns(),
        dag.num_frames(),
        dag.work()
    );

    let topo = machine();
    let worker_counts: &[usize] = if quick { &[8] } else { &[4, 8, 32] };
    let mut table = Table::new(vec!["policy", "P", "makespan (cyc)", "steals", "deterministic"]);
    for (name, policy) in SchedPolicy::ablation_grid() {
        for &p in worker_counts {
            let cfg = SimConfig::with_policy(policy, p).with_seed(42).with_log_schedule(true);
            let a = Simulation::new(&topo, cfg.clone(), &dag).expect("fits").run();
            let b = Simulation::new(&topo, cfg, &dag).expect("fits").run();
            assert_eq!(a.schedule, b.schedule, "{name} P={p}: replay must be deterministic");
            assert_eq!(a.makespan, b.makespan, "{name} P={p}: replay must be deterministic");
            table.row(vec![
                name.to_string(),
                p.to_string(),
                a.makespan.to_string(),
                a.counters.steals.to_string(),
                "yes".to_string(),
            ]);
        }
    }
    println!("{table}");
    println!("all replays deterministic");
}
