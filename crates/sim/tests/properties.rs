//! Property tests over random series-parallel DAGs: structural invariants,
//! scheduling-theory sanity (span ≤ makespan, work/P lower bound), and
//! determinism.

use nws_sim::{Dag, DagBuilder, FrameId, SimConfig, Simulation, Step};
use nws_topology::presets;
use proptest::prelude::*;

#[path = "../src/recipe.rs"]
mod recipe;
use recipe::{build, recipe};

/// The simulated machine's work-path costs in cycles: a spawn's deque push
/// plus the pop at its child's return, and a sync that was never stolen.
const SPAWN_PUSH_AND_POP: u64 = 10;
const SYNC_TRIVIAL: u64 = 1;

/// `TS` plus the work-path costs of every spawn and sync: what one worker
/// takes, since it never steals.
fn serial_plus_work_path(dag: &Dag) -> u64 {
    let topo = presets::paper_machine();
    let syncs = (0..dag.num_frames())
        .flat_map(|f| &dag.frame(FrameId(f)).steps)
        .filter(|s| matches!(s, Step::Sync))
        .count() as u64;
    Simulation::serial_elision(&topo, dag)
        + dag.num_spawns() * SPAWN_PUSH_AND_POP
        + syncs * SYNC_TRIVIAL
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_dags_validate(r in recipe()) {
        let dag = build(&r);
        prop_assert!(dag.validate().is_ok());
        prop_assert!(dag.span() <= dag.work(), "span cannot exceed work");
        prop_assert!(dag.work() > 0);
    }

    #[test]
    fn makespan_bounded_below_by_span_and_work_over_p(r in recipe(), p in 1usize..=16) {
        let dag = build(&r);
        let topo = presets::paper_machine();
        let sim = Simulation::new(&topo, SimConfig::numa_ws(p), &dag).unwrap();
        let report = sim.run();
        // Fundamental lower bounds (strand cycles only; overheads only add).
        prop_assert!(report.makespan >= dag.span(),
            "makespan {} below span {}", report.makespan, dag.span());
        prop_assert!(report.makespan as f64 >= dag.work() as f64 / p as f64,
            "makespan {} below work/P {}", report.makespan, dag.work() / p as u64);
    }

    #[test]
    fn both_schedulers_complete_and_account_time(r in recipe()) {
        let dag = build(&r);
        let topo = presets::paper_machine();
        for cfg in [SimConfig::vanilla(8), SimConfig::numa_ws(8)] {
            let report = Simulation::new(&topo, cfg, &dag).unwrap().run();
            // Work conservation: total work >= the DAG's strand cycles
            // (memory stalls and spawn overhead only add on top).
            prop_assert!(report.total_work() >= dag.work());
            // Per-worker times tile the makespan.
            for w in &report.workers {
                prop_assert!(w.work + w.sched + w.idle >= report.makespan);
            }
        }
    }

    #[test]
    fn same_seed_same_result(r in recipe(), seed in any::<u64>()) {
        let dag = build(&r);
        let topo = presets::paper_machine();
        let run = |s| {
            let rep = Simulation::new(&topo, SimConfig::numa_ws(8).with_seed(s), &dag)
                .unwrap()
                .run();
            (rep.makespan, rep.counters)
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn one_worker_run_matches_serial_plus_overhead(r in recipe()) {
        // The engine and the serial elision charge the same memory model,
        // so one worker adds exactly the work-path costs to `TS`.
        let dag = build(&r);
        let topo = presets::paper_machine();
        let want = serial_plus_work_path(&dag);
        for cfg in [SimConfig::vanilla(1), SimConfig::numa_ws(1)] {
            let t1 = Simulation::new(&topo, cfg, &dag).unwrap().run().makespan;
            prop_assert_eq!(t1, want);
        }
    }
}
