//! Simulator engine throughput: how fast the discrete-event engine chews
//! through scheduler events for each algorithm (keeps the figure harness
//! honest about its own cost).

use criterion::{criterion_group, criterion_main, Criterion};
use nws_sim::{DagBuilder, SimConfig, Simulation, Strand};
use nws_topology::{presets, Place};

fn tree_dag(leaves: usize) -> nws_sim::Dag {
    fn rec(b: &mut DagBuilder, n: usize) -> nws_sim::FrameId {
        if n == 1 {
            return b.leaf(Place::ANY, Strand::compute(2_000));
        }
        let l = rec(b, n / 2);
        let r = rec(b, n - n / 2);
        b.frame(Place::ANY).spawn(l).spawn(r).sync().finish()
    }
    let mut b = DagBuilder::new();
    let root = rec(&mut b, leaves);
    b.build(root)
}

fn bench_engines(c: &mut Criterion) {
    let topo = presets::paper_machine();
    let dag = tree_dag(4096);
    let mut g = c.benchmark_group("sim_tree4k_p32");
    g.bench_function("classic", |b| {
        b.iter(|| {
            let sim = Simulation::new(&topo, SimConfig::vanilla(32), &dag).unwrap();
            std::hint::black_box(sim.run().makespan)
        })
    });
    g.bench_function("numa_ws", |b| {
        b.iter(|| {
            let sim = Simulation::new(&topo, SimConfig::numa_ws(32), &dag).unwrap();
            std::hint::black_box(sim.run().makespan)
        })
    });
    g.bench_function("serial_elision", |b| {
        b.iter(|| {
            std::hint::black_box(Simulation::serial_elision(&topo, &SimConfig::vanilla(1), &dag))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_engines
}
criterion_main!(benches);
