//! Property tests for topologies, placements, and steal distributions over
//! randomly-shaped machines.

use nws_topology::{
    CoinFlip, DistanceMatrix, Place, Placement, SchedPolicy, SleepPolicy, StealBias,
    StealDistribution, Topology,
};
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

proptest! {
    #[test]
    fn packed_placement_covers_all_workers(topo in machine(), frac in 1usize..=100) {
        let workers = (topo.num_cores() * frac / 100).max(1);
        let map = Placement::Packed.assign(&topo, workers).unwrap();
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
        let map = Placement::Packed.assign(&topo, workers).unwrap();
        prop_assert_eq!(map.num_places(), workers.div_ceil(topo.cores_per_socket()));
    }

    #[test]
    fn biased_distribution_is_proper(topo in machine(), frac in 1usize..=100) {
        let workers = (topo.num_cores() * frac / 100).max(2);
        if workers > topo.num_cores() {
            return Ok(()); // shrunken machines may not fit 2 workers
        }
        let map = Placement::Packed.assign(&topo, workers).unwrap();
        for thief in [0, workers / 2, workers - 1] {
            let d = StealDistribution::biased(&topo, &map, thief);
            let total: f64 = (0..workers).map(|v| d.probability_of(v)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "probabilities sum to {total}");
            prop_assert_eq!(d.probability_of(thief), 0.0, "thief never picks itself");
            // Minimum victim probability ≥ 1/(cP) for c = max distance / 10.
            let c = topo.distances().tiers().last().copied().unwrap() as f64 / 10.0;
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
        let map = Placement::Packed.assign(&topo, workers).unwrap();
        let d = StealDistribution::biased(&topo, &map, 0);
        let mut x = seed;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            prop_assert_ne!(d.sample(x), 0);
        }
    }

    #[test]
    fn ring_distances_symmetric_and_triangleish(n in 1usize..=12, per_hop in 1u32..30) {
        let m = DistanceMatrix::ring(n, per_hop);
        for i in 0..n {
            for j in 0..n {
                let a = m.distance(nws_topology::SocketId(i), nws_topology::SocketId(j));
                let b = m.distance(nws_topology::SocketId(j), nws_topology::SocketId(i));
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

/// Any reachable `SchedPolicy` value: every bias, coin mode, and knob
/// range the builders accept.
fn any_policy() -> impl Strategy<Value = SchedPolicy> {
    (
        (
            prop_oneof![Just(StealBias::Uniform), Just(StealBias::InverseDistance)],
            prop_oneof![
                Just(CoinFlip::Fair),
                Just(CoinFlip::MailboxFirst),
                Just(CoinFlip::DequeOnly)
            ],
        ),
        (0usize..=64, 0u32..=128),
        (0u32..=1_000, 0u32..=1_000, 0u64..=100_000),
    )
        .prop_map(|((bias, coin), (mbox, push), (spin, yld, timeout))| {
            SchedPolicy::vanilla()
                .with_bias(bias)
                .with_coin_flip(coin)
                .with_mailbox_capacity(mbox)
                .with_push_threshold(push)
                .with_sleep(SleepPolicy {
                    spin_rounds: spin,
                    yield_rounds: yld,
                    sleep_timeout_us: timeout,
                })
        })
}

proptest! {
    /// The canonical text encoding is total: Display → FromStr round-trips
    /// every reachable policy, not just the shipped presets. This is what
    /// guarantees a sweep row's label can always be parsed back into the
    /// exact policy that produced it.
    #[test]
    fn sched_policy_encoding_roundtrips_everywhere(policy in any_policy()) {
        let text = policy.to_string();
        let parsed: SchedPolicy = text.parse().expect("canonical encoding parses");
        prop_assert_eq!(parsed, policy);
    }
}

#[test]
fn every_preset_roundtrips() {
    let mut presets: Vec<SchedPolicy> = vec![SchedPolicy::vanilla(), SchedPolicy::numa_ws()];
    presets.extend(SchedPolicy::ablation_grid().map(|(_, p)| p));
    for p in presets {
        let parsed: SchedPolicy = p.to_string().parse().unwrap();
        assert_eq!(parsed, p);
    }
}
