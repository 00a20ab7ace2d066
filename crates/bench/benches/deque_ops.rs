//! Microbenchmark: the THE-protocol deque's owner path (uncontended
//! push/pop at the tail) and its thief path (one CAS per steal at the
//! head): the work-first principle at the data-structure level.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nws_deque::the_deque;

fn bench_push_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("deque_push_pop_1k");
    g.bench_function("the_protocol", |b| {
        let (w, _s) = the_deque::<u64>(2048);
        b.iter(|| {
            for i in 0..1024u64 {
                w.push(i).unwrap();
            }
            for _ in 0..1024 {
                std::hint::black_box(w.pop());
            }
        })
    });
    g.finish();
}

fn bench_steal(c: &mut Criterion) {
    let mut g = c.benchmark_group("deque_steal_1k");
    g.bench_function("the_protocol", |b| {
        b.iter_batched(
            || {
                // Each batch input owns its deque: iter_batched prepares
                // many inputs before draining any of them.
                let (w, s) = the_deque::<u64>(2048);
                for i in 0..1024u64 {
                    w.push(i).unwrap();
                }
                (w, s)
            },
            |(_w, s)| {
                while let Some(v) = s.steal() {
                    std::hint::black_box(v);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_push_pop, bench_steal
}
criterion_main!(benches);
