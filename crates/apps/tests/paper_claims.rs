//! End-to-end checks of the paper's central claims on the simulated
//! four-socket machine, at test scale (smaller inputs than the figure
//! harness, same structure).
//!
//! Threshold audit (first real run of this suite): the simulator is
//! deterministic per seed and every input here is seeded, so these
//! assertions are exactly reproducible — no statistical slack is needed.
//! The whole suite runs in ~6 s in a debug build (~1 s in release), well
//! under the tier-1 budget, so none of the cases needs `#[ignore]`. If a
//! future change pushes an input size up, prefer shrinking the input back
//! to marking the test `#[ignore]`: these eight assertions are the claims
//! the reproduction exists to check. Full-scale (paper-sized) runs live in
//! the figure binary: `cargo run --release -p nws_bench --bin reproduce`.

use nws_apps::{cg, cilksort, heat, hull, matmul, strassen};
use nws_sim::{Dag, FrameId, SchedPolicy, SimConfig, Simulation, Step};
use nws_topology::presets;

fn inflation(dag: &Dag, dag1: &Dag, policy: SchedPolicy) -> f64 {
    let topo = presets::paper_machine();
    let t1 =
        Simulation::new(&topo, SimConfig::with_policy(policy, 1), dag1).unwrap().run().makespan;
    let r = Simulation::new(&topo, SimConfig::with_policy(policy, 32), dag).unwrap().run();
    r.work_inflation(t1)
}

#[test]
fn heat_numa_ws_mitigates_inflation() {
    let p = heat::Params { rows: 1024, cols: 1024, steps: 6, rows_base: 8 };
    let classic = inflation(&heat::dag(p, 4), &heat::dag(p, 1), SchedPolicy::vanilla());
    let numa = inflation(&heat::dag(p, 4), &heat::dag(p, 1), SchedPolicy::numa_ws());
    assert!(
        numa < classic * 0.8,
        "NUMA-WS must cut heat inflation by >20%: classic {classic:.2}, numa {numa:.2}"
    );
    assert!(classic > 1.5, "classic heat must show real inflation: {classic:.2}");
}

#[test]
fn cg_numa_ws_mitigates_inflation() {
    let p = cg::Params { n: 1 << 15, nnz_per_row: 48, iters: 4, rows_base: 1 << 9 };
    let classic = inflation(&cg::dag(p, 4), &cg::dag(p, 1), SchedPolicy::vanilla());
    let numa = inflation(&cg::dag(p, 4), &cg::dag(p, 1), SchedPolicy::numa_ws());
    assert!(
        numa < classic,
        "NUMA-WS must reduce cg inflation: classic {classic:.2}, numa {numa:.2}"
    );
}

#[test]
fn cilksort_numa_ws_mitigates_inflation() {
    let p = cilksort::Params { n: 1 << 18, sort_base: 1 << 11, merge_base: 1 << 11 };
    let classic = inflation(&cilksort::dag(p, 4), &cilksort::dag(p, 1), SchedPolicy::vanilla());
    let numa = inflation(&cilksort::dag(p, 4), &cilksort::dag(p, 1), SchedPolicy::numa_ws());
    assert!(
        numa < classic,
        "NUMA-WS must reduce cilksort inflation: classic {classic:.2}, numa {numa:.2}"
    );
}

#[test]
fn matmul_is_unharmed_by_numa_ws() {
    // The paper's control: matmul has little inflation to begin with and
    // NUMA-WS must not make it worse.
    let p = matmul::Params { n: 256, block: 32 };
    let dag = matmul::dag(p, matmul::Layout::RowMajor);
    let topo = presets::paper_machine();
    let tc = Simulation::new(&topo, SimConfig::vanilla(32), &dag).unwrap().run().makespan;
    let tn = Simulation::new(&topo, SimConfig::numa_ws(32), &dag).unwrap().run().makespan;
    let ratio = tn as f64 / tc as f64;
    assert!(ratio < 1.15, "NUMA-WS must not slow matmul by more than noise: T32 ratio {ratio:.3}");
}

#[test]
fn hull_inflates_and_numa_ws_helps_both_datasets() {
    // Paper: both hull inputs inflate substantially under classic work
    // stealing, and NUMA-WS recovers part of it. (The paper's *relative*
    // ordering between hull1 and hull2 emerges at full simulator scale —
    // see Figure 8 in `cargo run -p nws_bench --bin reproduce`; at test
    // scale only the direction is stable.)
    let p = hull::Params { n: 1 << 18, base: 1 << 11 };
    for ds in [hull::Dataset::InDisk, hull::Dataset::OnCircle] {
        let dag = hull::dag(p, 4, ds);
        let dag1 = hull::dag(p, 1, ds);
        let c = inflation(&dag, &dag1, SchedPolicy::vanilla());
        let n = inflation(&dag, &dag1, SchedPolicy::numa_ws());
        assert!(c > 1.4, "{ds:?}: classic hull must inflate: {c:.2}");
        assert!(n < c, "{ds:?}: NUMA-WS must reduce hull inflation: {n:.2} vs {c:.2}");
    }
}

#[test]
fn work_efficiency_t1_over_ts_near_one() {
    // The platform's defining property: spawn overhead does not land on
    // the work term (paper Fig 7: T1/TS between 0.99 and 1.07).
    let topo = presets::paper_machine();
    let p = cilksort::Params { n: 1 << 17, sort_base: 1 << 11, merge_base: 1 << 11 };
    let dag = cilksort::dag(p, 1);
    let ts = Simulation::serial_elision(&topo, &dag);
    let t1 = Simulation::new(&topo, SimConfig::numa_ws(1), &dag).unwrap().run().makespan;
    let overhead = t1 as f64 / ts as f64;
    assert!((1.0..1.10).contains(&overhead), "spawn overhead must stay under 10%: {overhead:.3}");
}

/// The simulated machine's work-path costs in cycles: a spawn's deque push
/// plus the pop at its child's return, and a sync that was never stolen.
const SPAWN_PUSH_AND_POP: u64 = 10;
const SYNC_TRIVIAL: u64 = 1;

#[test]
fn one_worker_adds_exactly_the_work_path_costs_to_ts() {
    // One worker never steals, and it charges the same memory model as
    // the serial elision, so `T1 = TS + spawns · (push + pop) + syncs ·
    // trivial sync` holds exactly, hinted DAGs included.
    let topo = presets::paper_machine();
    let dags: [(&str, Dag); 8] = [
        ("cilksort", cilksort::dag(cilksort::Params::sim(), 1)),
        ("cilksort, 4 places", cilksort::dag(cilksort::Params::sim(), 4)),
        ("cg", cg::dag(cg::Params::sim(), 4)),
        ("hull1", hull::dag(hull::Params::sim(), 4, hull::Dataset::InDisk)),
        ("matmul-z", matmul::dag(matmul::Params::sim(), matmul::Layout::BlockedZ)),
        ("strassen", strassen::dag(strassen::Params::sim(), matmul::Layout::RowMajor)),
        ("heat", heat::dag(heat::Params::sim(), 4)),
        ("heat, test shape", heat::dag(heat::Params::test(), 4)),
    ];
    for (name, dag) in &dags {
        let syncs = (0..dag.num_frames())
            .flat_map(|f| &dag.frame(FrameId(f)).steps)
            .filter(|s| matches!(s, Step::Sync))
            .count() as u64;
        let want = Simulation::serial_elision(&topo, dag)
            + dag.num_spawns() * SPAWN_PUSH_AND_POP
            + syncs * SYNC_TRIVIAL;
        for cfg in [SimConfig::vanilla(1), SimConfig::numa_ws(1)] {
            let t1 = Simulation::new(&topo, cfg, dag).unwrap().run().makespan;
            assert_eq!(t1, want, "{name}");
        }
    }
}

#[test]
fn layout_transformation_helps_serial_time() {
    // Paper Fig 7: matmul-z TS = 73.6s vs matmul TS = 190.9s.
    let topo = presets::paper_machine();
    let p = matmul::Params { n: 256, block: 32 };
    let ts_rm = Simulation::serial_elision(&topo, &matmul::dag(p, matmul::Layout::RowMajor));
    let ts_bz = Simulation::serial_elision(&topo, &matmul::dag(p, matmul::Layout::BlockedZ));
    assert!(ts_bz < ts_rm, "blocked Z-Morton must beat row-major serially: {ts_bz} vs {ts_rm}");
}

#[test]
fn simulation_is_deterministic_per_seed() {
    let topo = presets::paper_machine();
    let p = heat::Params { rows: 512, cols: 512, steps: 3, rows_base: 8 };
    let dag = heat::dag(p, 4);
    let run = |seed| {
        let r = Simulation::new(&topo, SimConfig::numa_ws(16).with_seed(seed), &dag).unwrap().run();
        (r.makespan, r.counters)
    };
    assert_eq!(run(7), run(7), "same seed, same run");
}
