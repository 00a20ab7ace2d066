//! Builds the paper's Figure 1 machine in the simulator, prints its
//! topology and numactl-style distance matrix, and runs one benchmark DAG
//! under both schedulers to show the work-inflation difference.
//!
//! Run: `cargo run --release --example simulate_machine`

use nws_apps::heat;
use nws_sim::{SimConfig, Simulation};
use nws_topology::{presets, StealDistribution, WorkerMap};

fn main() {
    let topo = presets::paper_machine();
    println!("The paper's evaluation machine (Figure 1):");
    println!("{topo}");

    // The biased steal distribution a place-0 worker uses (§III-B).
    let map = WorkerMap::new(&topo, 32, topo.packed_places(32)).expect("32 workers fit");
    let dist = StealDistribution::biased(&topo, &map, 0);
    println!("victim probabilities for worker 0 (place 0):");
    for v in [4usize, 1, 2, 3] {
        println!("  worker {v:>2} at {}: {:.3}", map.place_of(v), dist.probability_of(v));
    }

    // One heat run per scheduler on the simulated machine.
    println!("\nheat ({} steps) on 32 simulated cores:", heat::Params::sim().steps);
    for (name, cfg) in [("classic", SimConfig::vanilla(32)), ("numa-ws", SimConfig::numa_ws(32))] {
        let dag = heat::dag(heat::Params::sim(), 4);
        let dag1 = heat::dag(heat::Params::sim(), 1);
        let t1 = Simulation::new(&topo, SimConfig::vanilla(1), &dag1).unwrap().run().makespan;
        let r = Simulation::new(&topo, cfg, &dag).unwrap().run();
        println!(
            "  {name:>8}: makespan {:>6.1} Mcycles, inflation {:.2}x, steals {} \
             ({} remote), pushes {}",
            r.makespan as f64 / 1e6,
            r.work_inflation(t1),
            r.counters.steals,
            r.counters.remote_steals,
            r.counters.push_deliveries,
        );
    }
}
