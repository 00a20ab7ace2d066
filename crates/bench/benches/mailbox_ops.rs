//! Microbenchmark: the cost of lazy-push traffic — hinted joins on a
//! two-place pool under NUMA-WS (mailbox hops on every cross-place steal)
//! vs Classic (hints ignored).

use criterion::{criterion_group, criterion_main, Criterion};
use numa_ws::{join_at, Place, Pool, SchedPolicy};

fn bench_hinted_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("mailbox_pressure");
    for (name, policy) in [("classic", SchedPolicy::vanilla()), ("numa-ws", SchedPolicy::numa_ws())]
    {
        let pool =
            Pool::builder().workers(4).places(2).policy(policy).stats(false).build().unwrap();
        g.bench_function(format!("hinted_join_{name}"), |b| {
            b.iter(|| {
                pool.install(|| {
                    fn tree(d: u32) -> u64 {
                        if d == 0 {
                            return 1;
                        }
                        // Always hint the far place: maximal pushing load.
                        let (a, b) = join_at(|| tree(d - 1), || tree(d - 1), Place(1));
                        a + b
                    }
                    std::hint::black_box(tree(8))
                })
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_hinted_join
}
criterion_main!(benches);
