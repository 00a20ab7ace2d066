//! End-to-end runtime throughput under stealing pressure: classic vs
//! NUMA-WS on a fine-grained tree across 2 places — measures the cost of
//! the coin flip + pushback machinery relative to plain stealing (the
//! paper's "does not adversely impact scheduling time").

use criterion::{criterion_group, criterion_main, Criterion};
use numa_ws::{join, Pool, SchedPolicy};

fn tree(d: u32) -> u64 {
    if d == 0 {
        // ~1 microsecond of leaf work.
        let mut acc = 1u64;
        for i in 0..300u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc | 1
    } else {
        let (a, b) = join(|| tree(d - 1), || tree(d - 1));
        a.wrapping_add(b)
    }
}

fn bench_modes(c: &mut Criterion) {
    let workers = 8.min(std::thread::available_parallelism().map_or(8, |n| n.get()));
    let mut g = c.benchmark_group(format!("steal_protocol_p{workers}"));
    for (name, policy) in [("classic", SchedPolicy::vanilla()), ("numa-ws", SchedPolicy::numa_ws())]
    {
        let pool =
            Pool::builder().workers(workers).places(2).policy(policy).stats(false).build().unwrap();
        g.bench_function(format!("tree12_{name}"), |b| {
            b.iter(|| pool.install(|| std::hint::black_box(tree(12))))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_modes
}
criterion_main!(benches);
