//! Property tests over random series-parallel DAGs: structural invariants,
//! scheduling-theory sanity (span ≤ makespan, work/P lower bound), and
//! determinism.

use nws_sim::{Dag, DagBuilder, FrameId, SimConfig, Simulation, Step};
use nws_topology::{presets, Place};
use proptest::prelude::*;

/// A recipe for a random series-parallel computation.
#[derive(Debug, Clone)]
struct Recipe {
    /// Per internal node: number of children (1..=3) at each level.
    fanouts: Vec<u8>,
    leaf_cycles: u64,
    places: Vec<u8>,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec(1u8..=3, 1..5),
        100u64..5_000,
        proptest::collection::vec(0u8..5, 1..8),
    )
        .prop_map(|(fanouts, leaf_cycles, places)| Recipe { fanouts, leaf_cycles, places })
}

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

fn build(recipe: &Recipe) -> Dag {
    fn rec(b: &mut DagBuilder, recipe: &Recipe, depth: usize, idx: &mut usize) {
        let place = match recipe.places[*idx % recipe.places.len()] {
            4 => Place::ANY,
            p => Place(p as usize),
        };
        *idx += 1;
        b.open(place);
        if depth >= recipe.fanouts.len() {
            b.compute(recipe.leaf_cycles);
        } else {
            b.compute(recipe.leaf_cycles / 4);
            for _ in 0..recipe.fanouts[depth] {
                rec(b, recipe, depth + 1, idx);
            }
            b.sync().compute(recipe.leaf_cycles / 4);
        }
        b.close();
    }
    let mut b = DagBuilder::new();
    rec(&mut b, recipe, 0, &mut 0);
    b.build()
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
