//! Victim-selection distributions for work stealing.
//!
//! Classic work stealing picks victims uniformly at random. NUMA-WS instead
//! biases the choice by inter-socket distance (paper §III-B): a thief
//! "preferentially selects victims from the local socket with the highest
//! probability, followed by victims from sockets that are one hop away with
//! medium probability, followed by victims from the socket that is two hops
//! away with the lowest probability".
//!
//! The weights here are inverse-distance in the numactl convention
//! (`weight ∝ 10 / distance`), so the paper's Figure 1 machine yields
//! relative weights `1 : 10/21 : 10/31` for local : one-hop : two-hop
//! victims. Any non-zero weight for the most remote socket keeps the
//! `≥ 1/(cP)` per-deque steal probability that the Section IV analysis
//! requires, so the `O(P·T∞)` steal bound is preserved (with `c` set by the
//! most remote tier).

use crate::{Topology, WorkerMap};

/// Fixed-point scale for integer weights (one unit of weight = `1/SCALE`).
const SCALE: u64 = 10_080; // divisible by 10, 21 and 31's rounding needs

/// A precomputed victim-selection distribution for one thief.
///
/// Sampling is done by passing a uniformly random `u64` to [`sample`]; the
/// distribution owns no RNG so it can be shared freely and drives both the
/// real runtime and the simulator.
///
/// [`sample`]: StealDistribution::sample
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealDistribution {
    /// Cumulative weights per victim index; the thief, the only victim
    /// with zero weight, contributes no increment.
    cumulative: Vec<u64>,
    /// The total weight, `cumulative[P - 1]`.
    total: u64,
    /// The Barrett magic for `% total`, `u64::MAX / total`.
    magic: u64,
    /// Guide table: `guide[b]` is the victim of `r = b << shift`. Since
    /// `1 << shift` is at most the smallest nonzero weight, a bucket holds
    /// at most one victim boundary.
    guide: Vec<u32>,
    shift: u32,
    thief: usize,
}

impl StealDistribution {
    /// Uniform distribution over every worker except the thief
    /// (the classic work-stealing victim choice).
    ///
    /// # Panics
    ///
    /// Panics if `workers < 2` or `thief >= workers` — a lone worker has no
    /// victims to steal from.
    pub fn uniform(workers: usize, thief: usize) -> Self {
        assert!(workers >= 2, "need at least two workers to steal");
        assert!(thief < workers, "thief index out of range");
        let weights: Vec<u64> = (0..workers).map(|v| if v == thief { 0 } else { SCALE }).collect();
        Self::from_weights(&weights, thief)
    }

    /// Distance-biased distribution for `thief` given the machine topology
    /// and the worker map of the current run.
    ///
    /// # Panics
    ///
    /// Panics if the map has fewer than two workers, `thief` is out of
    /// range, or a place is so distant (over `LOCAL · 10080`) that its
    /// workers would get no weight.
    pub fn biased(topo: &Topology, map: &WorkerMap, thief: usize) -> Self {
        assert!(map.num_workers() >= 2, "need at least two workers to steal");
        assert!(thief < map.num_workers(), "thief index out of range");
        let home = map.place_of(thief);
        let weights: Vec<u64> = (0..map.num_workers())
            .map(|v| {
                if v == thief {
                    0
                } else {
                    let d = topo.distances().distance(home, map.place_of(v)) as u64;
                    // weight ∝ LOCAL / distance, in fixed point.
                    SCALE * u64::from(crate::DistanceMatrix::LOCAL) / d
                }
            })
            .collect();
        Self::from_weights(&weights, thief)
    }

    fn from_weights(weights: &[u64], thief: usize) -> Self {
        assert!(
            weights.iter().enumerate().all(|(v, &w)| (w == 0) == (v == thief)),
            "every victim but the thief needs a positive weight"
        );
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0u64;
        for &w in weights {
            total += w;
            cumulative.push(total);
        }
        let min_weight =
            weights.iter().copied().filter(|&w| w > 0).min().expect("some victim has weight");
        let shift = min_weight.ilog2();
        let mut v = 0;
        let guide = (0..=(total - 1) >> shift)
            .map(|b| {
                while cumulative[v] <= b << shift {
                    v += 1;
                }
                u32::try_from(v).expect("victim index fits in u32")
            })
            .collect();
        let magic = u64::MAX / total;
        StealDistribution { cumulative, total, magic, guide, shift, thief }
    }

    /// Number of workers covered (including the thief, whose weight is 0).
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.cumulative.len()
    }

    /// The thief this distribution belongs to.
    #[inline]
    pub fn thief(&self) -> usize {
        self.thief
    }

    /// The raw weight assigned to a victim (0 for the thief itself).
    #[inline]
    pub fn weight_of(&self, victim: usize) -> u64 {
        self.cumulative[victim] - victim.checked_sub(1).map_or(0, |u| self.cumulative[u])
    }

    /// The probability of choosing `victim`, as a float (for tests/reports).
    pub fn probability_of(&self, victim: usize) -> f64 {
        self.weight_of(victim) as f64 / self.total as f64
    }

    /// Picks a victim from a uniformly random `u64`: the first victim whose
    /// cumulative weight exceeds `random % total`. Never returns the thief.
    ///
    /// `O(1)` with no data-dependent branch. The remainder is an exact
    /// Barrett reduction (two multiplies and one correction, no division).
    /// The guide bucket of `r` names the victim of the bucket's first
    /// value; `r` lies at most one boundary past it, and the victim after
    /// that boundary is the next index, or the one after if the next is
    /// the thief.
    #[inline]
    pub fn sample(&self, random: u64) -> usize {
        let r = remainder(random, self.magic, self.total);
        let v = self.guide[(r >> self.shift) as usize] as usize;
        self.skip_thief(v + usize::from(r >= self.cumulative[v]))
    }

    /// `v`, or the next index if `v` is the thief.
    #[inline]
    fn skip_thief(&self, v: usize) -> usize {
        v + usize::from(v == self.thief)
    }

    /// Folds `cost_of` into this distribution's guide table, so that
    /// [`ProbeCosts::cost`] returns `cost_of(self.sample(random))` for
    /// every `random` without naming the victim. Built once per run by a
    /// caller that only needs what a probe costs (the simulator's idle
    /// fast-forward); [`sample`](Self::sample) is untouched by it.
    pub fn probe_costs(&self, cost_of: impl Fn(usize) -> u64) -> ProbeCosts {
        let p = self.num_workers();
        let buckets = self
            .guide
            .iter()
            .map(|&v| {
                let v = v as usize;
                let below = cost_of(self.skip_thief(v));
                // Past the last victim's boundary lies only `total`, which
                // no remainder reaches.
                let next = self.skip_thief(v + 1);
                let above = if next < p { cost_of(next) } else { below };
                ProbeBucket { boundary: self.cumulative[v], below, above }
            })
            .collect();
        ProbeCosts { buckets, total: self.total, magic: self.magic, shift: self.shift }
    }
}

/// `random % total`, exactly, by a Barrett (Granlund–Montgomery)
/// reduction with `magic = u64::MAX / total`: two multiplies, one
/// correction, no division. Since `magic ≥ 2^64 / total − 1`, the quotient
/// estimate `q = ⌊random · magic / 2^64⌋` is `⌊random / total⌋` or one
/// less, so `random − q · total` lies in `[0, 2 · total)` and one
/// conditional subtraction finishes it.
#[inline]
fn remainder(random: u64, magic: u64, total: u64) -> u64 {
    let q = ((u128::from(random) * u128::from(magic)) >> 64) as u64;
    let r = random - q * total;
    if r >= total {
        r - total
    } else {
        r
    }
}

/// One guide bucket folded over a cost per victim: a remainder in the
/// bucket below `boundary` costs `below`, one at or past it `above`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProbeBucket {
    boundary: u64,
    below: u64,
    above: u64,
}

/// What a steal probe costs, per random input, for one thief: a
/// [`StealDistribution`]'s guide table with each bucket's one or two
/// victims replaced by their costs (see
/// [`StealDistribution::probe_costs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeCosts {
    buckets: Vec<ProbeBucket>,
    total: u64,
    magic: u64,
    shift: u32,
}

impl ProbeCosts {
    /// The cost of probing the victim [`StealDistribution::sample`] picks
    /// for `random`: one remainder, one bucket load and a select.
    #[inline]
    pub fn cost(&self, random: u64) -> u64 {
        let r = remainder(random, self.magic, self.total);
        let b = self.buckets[(r >> self.shift) as usize];
        if r >= b.boundary {
            b.above
        } else {
            b.below
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn paper_setup(workers: usize) -> (Topology, WorkerMap) {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, workers, topo.packed_places(workers)).unwrap();
        (topo, map)
    }

    #[test]
    fn uniform_never_picks_thief() {
        let d = StealDistribution::uniform(8, 3);
        for r in 0..1000u64 {
            assert_ne!(d.sample(r.wrapping_mul(0x9E3779B97F4A7C15)), 3);
        }
    }

    #[test]
    fn uniform_covers_all_victims() {
        let d = StealDistribution::uniform(4, 0);
        let mut seen = [false; 4];
        for r in 0..64u64 {
            seen[d.sample(r.wrapping_mul(0x2545F4914F6CDD1D))] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn biased_orders_tiers_correctly() {
        let (topo, map) = paper_setup(32);
        // Worker 0 is on socket 0; the ring is in index order 0-1-2-3-0, so
        // sockets 1 and 3 are one hop away and socket 2 is two hops away.
        let d = StealDistribution::biased(&topo, &map, 0);
        let local = map.workers_of_place(crate::Place(0))[1];
        let one_hop = map.workers_of_place(crate::Place(1))[0];
        let two_hop = map.workers_of_place(crate::Place(2))[0];
        assert!(d.weight_of(local) > d.weight_of(one_hop));
        assert!(d.weight_of(one_hop) > d.weight_of(two_hop));
        assert!(d.weight_of(two_hop) > 0, "most remote socket must stay reachable");
    }

    #[test]
    fn biased_single_socket_equals_uniform() {
        let (topo, map) = paper_setup(8); // all on socket 0
        let b = StealDistribution::biased(&topo, &map, 2);
        let u = StealDistribution::uniform(8, 2);
        for v in 0..8 {
            assert_eq!(
                b.probability_of(v),
                u.probability_of(v),
                "victim {v} should be equally likely"
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (topo, map) = paper_setup(32);
        for thief in [0, 7, 15, 31] {
            let d = StealDistribution::biased(&topo, &map, thief);
            let sum: f64 = (0..32).map(|v| d.probability_of(v)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "thief {thief}: sum={sum}");
        }
    }

    #[test]
    fn sampling_matches_weights_empirically() {
        let (topo, map) = paper_setup(32);
        let d = StealDistribution::biased(&topo, &map, 0);
        let mut counts = vec![0u64; 32];
        let mut x = 0x853C49E6748FEA9Bu64;
        let n = 200_000;
        for _ in 0..n {
            // splitmix64 stream
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            counts[d.sample(z ^ (z >> 31))] += 1;
        }
        for (v, &count) in counts.iter().enumerate() {
            let expected = d.probability_of(v);
            let got = count as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "victim {v}: expected {expected:.4}, got {got:.4}"
            );
        }
    }

    #[test]
    fn minimum_victim_probability_bounded_below() {
        // Section IV needs every deque stolen-from with probability ≥ 1/(cP).
        let (topo, map) = paper_setup(32);
        let d = StealDistribution::biased(&topo, &map, 0);
        let min_p =
            (0..32).filter(|&v| v != 0).map(|v| d.probability_of(v)).fold(f64::INFINITY, f64::min);
        // c works out to ~2.1 on the paper machine; assert a loose bound.
        assert!(min_p >= 1.0 / (4.0 * 32.0), "min victim probability {min_p} too small");
    }

    #[test]
    #[should_panic(expected = "at least two workers")]
    fn lone_worker_rejected() {
        StealDistribution::uniform(1, 0);
    }

    #[test]
    fn remainder_is_exact_on_every_total() {
        let mut totals: Vec<u64> = (1..=4096).collect();
        for k in 12..64 {
            totals.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        totals.extend([(1 << 32) - 1, (1 << 32) + 1, u64::MAX]);
        totals.dedup();
        let mut rng = crate::SplitMix64::new(0x8E11_A7E5);
        let draws: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        for &t in &totals {
            let magic = u64::MAX / t;
            let top = magic * t; // `k · t` for the largest `k`
            let edges =
                [0, t - 1, t, t.wrapping_add(1), top - 1, top, top.wrapping_add(1), u64::MAX];
            for &x in edges.iter().chain(&draws) {
                assert_eq!(remainder(x, magic, t), x % t, "total={t} x={x:#x}");
            }
        }
    }

    /// The `O(log P)` binary-search sampler `sample` replaced, kept as its
    /// oracle: the first victim whose cumulative weight exceeds
    /// `random % total`.
    fn binary_search_sample(d: &StealDistribution, random: u64) -> usize {
        let r = random % d.total;
        match d.cumulative.binary_search(&r) {
            Ok(i) => {
                let mut j = i + 1;
                while d.weight_of(j) == 0 {
                    j += 1;
                }
                j
            }
            Err(i) => i,
        }
    }

    /// The inputs every exactness test of `d` runs: the edges `0`,
    /// `u64::MAX`, every cumulative boundary ±1 and multiples of the total
    /// ±1, then 10^5 SplitMix64 draws.
    fn exactness_inputs(d: &StealDistribution) -> impl Iterator<Item = u64> {
        let total = d.total;
        let top = u64::MAX / total;
        let mut edges = vec![0, u64::MAX];
        for base in [0, total, 7 * total, (top - 1) * total, top * total] {
            for c in std::iter::once(0).chain(d.cumulative.iter().copied()) {
                if let Some(x) = base.checked_add(c) {
                    edges.extend([x.wrapping_sub(1), x, x.wrapping_add(1)]);
                }
            }
        }
        let mut rng = crate::SplitMix64::new(0x5A3D_0000 ^ d.thief as u64);
        edges.into_iter().chain((0..100_000).map(move |_| rng.next_u64()))
    }

    /// `sample` against the oracle on every exactness input.
    fn assert_matches_binary_search(d: &StealDistribution) {
        for random in exactness_inputs(d) {
            assert_eq!(
                d.sample(random),
                binary_search_sample(d, random),
                "P={} thief={} random={random:#x}",
                d.num_workers(),
                d.thief
            );
        }
    }

    #[test]
    fn uniform_sample_matches_binary_search() {
        for p in [2, 3, 5, 31, 32, 33, 64, 100] {
            for thief in 0..p {
                assert_matches_binary_search(&StealDistribution::uniform(p, thief));
            }
        }
    }

    #[test]
    fn biased_sample_matches_binary_search() {
        let (topo, map) = paper_setup(32);
        for thief in 0..32 {
            assert_matches_binary_search(&StealDistribution::biased(&topo, &map, thief));
        }
    }

    #[test]
    fn probe_costs_match_the_sampled_victims_cost() {
        // A distinct cost per victim, so a bucket that folds in the wrong
        // victim (say, the thief, by skipping no index) reads a wrong cost.
        let cost_of = |v: usize| 1_000 + 37 * v as u64;
        for p in [2, 8, 32] {
            let (topo, map) = paper_setup(p);
            for thief in 0..p {
                for d in [
                    StealDistribution::uniform(p, thief),
                    StealDistribution::biased(&topo, &map, thief),
                ] {
                    let costs = d.probe_costs(cost_of);
                    for random in exactness_inputs(&d) {
                        assert_eq!(
                            costs.cost(random),
                            cost_of(d.sample(random)),
                            "P={p} thief={thief} random={random:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn unreachable_socket_rejected() {
        let topo = crate::Topology::builder()
            .sockets(2)
            .cores_per_socket(1)
            .distances(crate::DistanceMatrix::uniform(2, 200_000))
            .build()
            .unwrap();
        let map = WorkerMap::new(&topo, 2, 2).unwrap();
        StealDistribution::biased(&topo, &map, 0);
    }

    #[test]
    fn two_workers_always_pick_the_other() {
        let d = StealDistribution::uniform(2, 1);
        for r in [0u64, 1, 17, u64::MAX] {
            assert_eq!(d.sample(r), 0);
        }
    }
}
