//! Empirical checks of the §IV guarantees on synthetic DAGs: the greedy
//! bound `T_P ≤ c1·T1/P + c2·T∞` and the steal bound `O(P·T∞)`, for both
//! schedulers, across worker counts.

use nws_sim::{tree, SimConfig, Simulation};
use nws_topology::presets;

#[test]
fn greedy_bound_holds_for_both_schedulers() {
    let topo = presets::paper_machine();
    let dag = tree(1024, 2_000);
    let work = dag.work() as f64;
    let span = dag.span() as f64;
    for p in [2usize, 8, 16, 32] {
        for (name, cfg) in [("classic", SimConfig::vanilla(p)), ("numa-ws", SimConfig::numa_ws(p))]
        {
            let r = Simulation::new(&topo, cfg, &dag).unwrap().run();
            // The engine adds ~11 cycles/spawn of work-path overhead and
            // steal-path costs on the span; generous constants keep the
            // test stable while still ruling out super-linear blowup.
            let bound = 1.5 * work / p as f64 + 500.0 * span;
            assert!(
                (r.makespan as f64) < bound,
                "{name} P={p}: T_P {} exceeds c1*T1/P + c2*Tinf = {bound}",
                r.makespan
            );
        }
    }
}

#[test]
fn steal_attempts_scale_with_p_times_span() {
    let topo = presets::paper_machine();
    // Fixed shape, growing work: attempts/(P*span) must not grow with size.
    let mut ratios = Vec::new();
    for leaves in [256usize, 1024, 4096] {
        let dag = tree(leaves, 1_000);
        let r = Simulation::new(&topo, SimConfig::numa_ws(16), &dag).unwrap().run();
        ratios.push(r.counters.steal_attempts as f64 / (16.0 * dag.span() as f64));
    }
    for r in &ratios {
        assert!(*r < 1.0, "steal attempts should stay well under P*Tinf: ratios {ratios:?}");
    }
}

#[test]
fn pushes_amortize_against_steals() {
    // §IV: only a constant number of pushes per successful steal.
    let topo = presets::paper_machine();
    let p = nws_apps::heat::Params { rows: 1024, cols: 1024, steps: 4, rows_base: 8 };
    let dag = nws_apps::heat::dag(p, 4);
    let r = Simulation::new(&topo, SimConfig::numa_ws(32), &dag).unwrap().run();
    assert!(r.counters.steals > 0);
    let per_steal = r.counters.push_attempts as f64 / r.counters.steals as f64;
    // threshold=4 and ≤2 events per steal gives a hard cap of ~10.
    assert!(
        per_steal < 10.0,
        "push attempts per successful steal must be constant-bounded: {per_steal:.2}"
    );
}

#[test]
fn single_socket_numa_ws_degenerates_to_classic() {
    // With one place there is nothing to push and no bias tiers: the two
    // schedulers should perform near-identically.
    let topo = presets::single_socket(8);
    let dag = tree(512, 2_000);
    let tc = Simulation::new(&topo, SimConfig::vanilla(8), &dag).unwrap().run();
    let tn = Simulation::new(&topo, SimConfig::numa_ws(8), &dag).unwrap().run();
    let ratio = tn.makespan as f64 / tc.makespan as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "one-socket NUMA-WS must match classic: ratio {ratio:.3}"
    );
    assert_eq!(tn.counters.push_deliveries, 0, "nothing to push on one socket");
}
