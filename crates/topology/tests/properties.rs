//! Property tests for topologies, placements, and steal distributions over
//! randomly-shaped machines.

use nws_topology::{DistanceMatrix, Place, StealDistribution, Topology, WorkerMap};
use proptest::prelude::*;

fn machine() -> impl Strategy<Value = Topology> {
    (1usize..=8, 1usize..=8, 11u32..=60).prop_map(|(sockets, cores, remote)| {
        Topology::builder()
            .sockets(sockets)
            .cores_per_socket(cores)
            .distances(DistanceMatrix::uniform(sockets, remote))
            .build()
            .expect("valid")
    })
}

fn packed(topo: &Topology, workers: usize) -> WorkerMap {
    WorkerMap::new(topo, workers, topo.packed_places(workers)).unwrap()
}

proptest! {
    #[test]
    fn packed_placement_covers_all_workers(topo in machine(), frac in 1usize..=100) {
        let workers = (topo.num_cores() * frac / 100).max(1);
        let map = packed(&topo, workers);
        prop_assert_eq!(map.num_workers(), workers);
        // Every worker belongs to exactly one place and the place sets
        // partition the workers.
        let mut seen = vec![false; workers];
        for p in 0..map.num_places() {
            for &w in map.workers_of_place(Place(p)) {
                prop_assert!(!seen[w], "worker {} in two places", w);
                seen[w] = true;
                prop_assert_eq!(map.place_of(w), Place(p));
            }
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn packed_uses_minimum_sockets(topo in machine(), frac in 1usize..=100) {
        let workers = (topo.num_cores() * frac / 100).max(1);
        let map = packed(&topo, workers);
        prop_assert_eq!(map.num_places(), workers.div_ceil(topo.cores_per_socket()));
    }

    #[test]
    fn biased_distribution_is_proper(topo in machine(), frac in 1usize..=100) {
        let workers = (topo.num_cores() * frac / 100).max(2);
        if workers > topo.num_cores() {
            return Ok(()); // shrunken machines may not fit 2 workers
        }
        let map = packed(&topo, workers);
        for thief in [0, workers / 2, workers - 1] {
            let d = StealDistribution::biased(&topo, &map, thief);
            let total: f64 = (0..workers).map(|v| d.probability_of(v)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "probabilities sum to {total}");
            prop_assert_eq!(d.probability_of(thief), 0.0, "thief never picks itself");
            // Minimum victim probability ≥ 1/(cP) for c = max distance / 10;
            // `machine()`'s distances are uniform, so socket 0 to the last
            // socket is the largest.
            let last = Place(topo.num_sockets() - 1);
            let c = topo.distances().distance(Place(0), last) as f64 / 10.0;
            let floor = 1.0 / (c * workers as f64) / 2.0; // slack factor 2
            for v in 0..workers {
                if v != thief {
                    prop_assert!(d.probability_of(v) >= floor,
                        "victim {v} probability {} below 1/(2cP) {}", d.probability_of(v), floor);
                }
            }
        }
    }

    #[test]
    fn sampling_never_yields_thief(topo in machine(), seed in any::<u64>()) {
        let workers = topo.num_cores().max(2);
        if workers > topo.num_cores() {
            return Ok(());
        }
        let map = packed(&topo, workers);
        let d = StealDistribution::biased(&topo, &map, 0);
        let mut x = seed;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            prop_assert_ne!(d.sample(x), 0);
        }
    }

    #[test]
    fn ring_distances_symmetric_and_triangleish(n in 1usize..=12, per_hop in 1u32..30) {
        let m = DistanceMatrix::ring_with(n, |h| DistanceMatrix::LOCAL + per_hop * h);
        for i in 0..n {
            for j in 0..n {
                let a = m.distance(Place(i), Place(j));
                let b = m.distance(Place(j), Place(i));
                prop_assert_eq!(a, b);
                if i == j {
                    prop_assert_eq!(a, 10);
                } else {
                    prop_assert!(a > 10);
                }
            }
        }
    }
}
