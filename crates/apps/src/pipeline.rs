//! `pipeline`: a service-style pipeline mix — batches flowing through a
//! chain of heterogeneous stages.
//!
//! Where the paper's benchmarks are single-kernel, a server runtime sees a
//! *mix*: many independent requests (batches), each a short serial chain of
//! stages with different costs and different preferred places (the stage's
//! tables live somewhere). Work stealing sees many medium-grain tasks with
//! conflicting affinities — a steady-state load rather than one big
//! fork-join tree. The per-(stage, batch) cost varies cyclically, so the
//! load is unbalanced by construction.
//!
//! The parallel version runs batches concurrently under one scope, one
//! task per batch.

use numa_ws::{scope, Place};

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Pipeline stages per batch.
    pub stages: usize,
    /// Independent batches (requests) in flight.
    pub batches: usize,
    /// Items per batch.
    pub items: usize,
    /// Input seed.
    pub seed: u64,
}

impl Params {
    /// Tiny configuration for tests.
    pub fn test() -> Self {
        Params { stages: 4, batches: 10, items: 257, seed: 11 }
    }
}

/// Cost multiplier of stage `s` on batch `b`: 1–3 passes, phased by batch
/// so no two batches cost the same stage-wise (the "mix").
pub fn passes(stage: usize, batch: usize) -> usize {
    1 + (stage + batch) % 3
}

/// One pass of stage `s` over a value (an invertible 64-bit mix, so stages
/// cannot be reordered or collapsed without changing the checksum).
#[inline]
fn stage_op(stage: usize, x: u64) -> u64 {
    let k = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stage as u64 + 1);
    (x ^ k).rotate_left(stage as u32 % 63 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Seeded initial batch data, laid out batch-major in one flat buffer.
pub fn initial_data(p: Params) -> Vec<u64> {
    (0..p.batches * p.items)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ p.seed)
        .collect()
}

/// Order-independent checksum of the processed buffer.
pub fn checksum(data: &[u64]) -> u64 {
    data.iter().fold(0u64, |a, &x| a.wrapping_add(x))
}

// ---------------------------------------------------------------------------
// Serial elision
// ---------------------------------------------------------------------------

/// Runs every batch through the stage chain serially.
pub fn run_serial(data: &mut [u64], p: Params) {
    assert_eq!(data.len(), p.batches * p.items, "data shape mismatch");
    for b in 0..p.batches {
        let batch = &mut data[b * p.items..(b + 1) * p.items];
        for s in 0..p.stages {
            for _ in 0..passes(s, b) {
                for x in batch.iter_mut() {
                    *x = stage_op(s, *x);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel version (real runtime)
// ---------------------------------------------------------------------------

/// Runs all batches concurrently (call inside
/// [`Pool::install`](numa_ws::Pool::install)): one scope task per batch.
pub fn run_parallel(data: &mut [u64], p: Params) {
    assert_eq!(data.len(), p.batches * p.items, "data shape mismatch");
    scope(|s| {
        for (b, batch) in data.chunks_mut(p.items).enumerate() {
            // The batch enters at its first stage's place; later stages run
            // wherever the batch task landed (a real pipeline would re-queue
            // per stage).
            s.spawn_at(Place(0), move |_| {
                for st in 0..p.stages {
                    for _ in 0..passes(st, b) {
                        for x in batch.iter_mut() {
                            *x = stage_op(st, *x);
                        }
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_ws::Pool;

    #[test]
    fn stages_do_not_commute() {
        // The op must make stage order observable, else the benchmark could
        // be collapsed.
        let x = 0xDEAD_BEEFu64;
        assert_ne!(stage_op(0, stage_op(1, x)), stage_op(1, stage_op(0, x)));
    }

    #[test]
    fn parallel_matches_serial() {
        let p = Params::test();
        for places in [1usize, 4] {
            let pool = Pool::builder().workers(4).places(places).build().unwrap();
            let mut a = initial_data(p);
            run_serial(&mut a, p);
            let mut b = initial_data(p);
            pool.install(|| run_parallel(&mut b, p));
            assert_eq!(a, b, "places={places}");
            assert_eq!(checksum(&a), checksum(&b));
        }
    }

    #[test]
    fn costs_are_heterogeneous() {
        let p = Params::test();
        let per_batch: Vec<usize> =
            (0..p.batches).map(|b| (0..p.stages).map(|s| passes(s, b)).sum()).collect();
        assert!(per_batch.iter().max() > per_batch.iter().min(), "the mix must be unbalanced");
    }
}
