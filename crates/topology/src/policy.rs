//! The scheduling-policy layer: one description of every NUMA-WS protocol
//! knob, shared by the real runtime (`numa_ws`) and the discrete-event
//! simulator (`nws_sim`).
//!
//! The paper's evaluation is an ablation story — vanilla work stealing
//! vs. NUMA-WS with distance-biased victims, single-entry mailboxes, the
//! fair coin-flip steal protocol, and lazy pushback (§III–§V). Before this
//! module existed the policy logic lived twice and disagreed: the simulator
//! exposed coin-flip modes and mailbox capacities while the runtime
//! hard-coded a fair coin and capacity-1 mailboxes. [`SchedPolicy`] is now
//! the single source of truth: `PoolBuilder` consumes it at pool build,
//! `SimConfig` embeds it, and the ablation presets
//! ([`SchedPolicy::vanilla`], [`bias_only`](SchedPolicy::bias_only),
//! [`mailbox_only`](SchedPolicy::mailbox_only),
//! [`numa_ws`](SchedPolicy::numa_ws)) describe the same protocols on both
//! substrates.
//!
//! The paper's Figure 5 lives here once, as [`SchedPolicy::steal_target`]
//! (the steal decision), [`SchedPolicy::push_home`] and
//! [`SchedPolicy::pushback`] (lazy pushing): the runtime's steal loop and
//! the simulator's engine both call them. Determinism is part of the contract:
//! both substrates derive their per-worker random streams from
//! [`worker_rng_seed`] and a SplitMix64 generator ([`SplitMix64`], pinned to
//! the vendored `SmallRng` stream), so the same seed and the same policy
//! produce the identical `(victim, try_mailbox)` sequence in the runtime
//! and in the simulator.

use crate::{Place, StealDistribution, Topology, WorkerMap};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a thief chooses its victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StealBias {
    /// Uniform victim selection over all other workers — classic work
    /// stealing (paper Figure 2).
    Uniform,
    /// Inverse-distance weights in the numactl convention
    /// (`weight ∝ 10/distance`, paper §III-B): local victims most likely,
    /// the most remote socket still reachable, preserving the `≥ 1/(cP)`
    /// per-deque probability the §IV bounds need.
    InverseDistance,
}

/// How a NUMA-WS thief chooses between a victim's deque and its mailbox.
/// `Fair` is the paper's protocol; the others exist for the ablation that
/// §IV argues motivates the coin flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoinFlip {
    /// Flip a fair coin (the paper's protocol, required for the bounds:
    /// the critical node at a deque head is found with probability
    /// ≥ 1/(2cP) only if deques keep half the probability mass).
    Fair,
    /// Always inspect the mailbox first — breaks the §IV argument.
    MailboxFirst,
    /// Never inspect mailboxes when stealing (mailboxes drain only by
    /// their owners).
    DequeOnly,
}

/// What one deposit of a [`SchedPolicy::pushback`] episode did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deposit<J> {
    /// The job landed in the target's mailbox; the episode ends.
    Landed,
    /// The mailbox was full; the job comes back for the next attempt.
    Full(J),
    /// The deposit was abandoned (the runtime's fault path); the pusher
    /// keeps the job.
    Aborted(J),
}

/// A complete scheduling policy: victim selection, mailbox protocol,
/// mailbox capacity, and pushback threshold.
///
/// The four ablation presets span the paper's evaluation grid:
///
/// | preset | bias | mailboxes | coin flip |
/// |---|---|---|---|
/// | [`vanilla`](SchedPolicy::vanilla) | uniform | none | deque-only |
/// | [`bias_only`](SchedPolicy::bias_only) | inverse-distance | none | deque-only |
/// | [`mailbox_only`](SchedPolicy::mailbox_only) | uniform | capacity 1 | fair |
/// | [`numa_ws`](SchedPolicy::numa_ws) | inverse-distance | capacity 1 | fair |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SchedPolicy {
    /// Victim-selection bias.
    pub bias: StealBias,
    /// Thief mailbox/deque choice protocol.
    pub coin_flip: CoinFlip,
    /// Mailbox capacity per worker; the paper requires exactly 1, and 0
    /// disables mailboxes (and with them lazy pushback) entirely.
    /// Capacities above 1 are a simulator-only ablation (FIFO mailbox
    /// queues); the runtime's mailbox is a single slot and its
    /// `PoolBuilder::build` rejects them.
    pub mailbox_capacity: usize,
    /// PUSHBACK retry threshold (the paper's constant "pushing threshold").
    pub push_threshold: u32,
}

impl SchedPolicy {
    /// Classic work stealing as in Cilk Plus (paper Figure 2): uniform
    /// victims, no mailboxes, no work pushing. The evaluation baseline.
    pub fn vanilla() -> Self {
        SchedPolicy {
            bias: StealBias::Uniform,
            coin_flip: CoinFlip::DequeOnly,
            mailbox_capacity: 0,
            push_threshold: 4,
        }
    }

    /// The full NUMA-WS protocol (paper Figure 5): distance-biased
    /// victims, single-entry mailboxes, fair coin flip, lazy pushback.
    pub fn numa_ws() -> Self {
        SchedPolicy {
            bias: StealBias::InverseDistance,
            coin_flip: CoinFlip::Fair,
            mailbox_capacity: 1,
            push_threshold: 4,
        }
    }

    /// Another name for [`vanilla`](SchedPolicy::vanilla), kept for
    /// callers that label the classic baseline `vanilla-ws`.
    pub fn vanilla_ws() -> Self {
        SchedPolicy::vanilla()
    }

    /// Distance-biased victims only — no mailboxes, no pushback. The
    /// "does the bias alone help?" ablation cell.
    pub fn bias_only() -> Self {
        SchedPolicy { bias: StealBias::InverseDistance, ..SchedPolicy::vanilla() }
    }

    /// Mailboxes and lazy pushback with uniform victims. The "do
    /// mailboxes alone help?" ablation cell.
    pub fn mailbox_only() -> Self {
        SchedPolicy { bias: StealBias::Uniform, ..SchedPolicy::numa_ws() }
    }

    /// The four-cell ablation grid of the paper's evaluation, in
    /// baseline-to-full order, with display names.
    pub fn ablation_grid() -> [(&'static str, SchedPolicy); 4] {
        [
            ("vanilla", SchedPolicy::vanilla()),
            ("bias-only", SchedPolicy::bias_only()),
            ("mailbox-only", SchedPolicy::mailbox_only()),
            ("numa-ws", SchedPolicy::numa_ws()),
        ]
    }

    /// Does this policy use mailboxes (and therefore lazy pushback) at
    /// all?
    #[inline]
    pub fn uses_mailboxes(&self) -> bool {
        self.mailbox_capacity > 0
    }

    /// The victim-selection distribution this policy gives a thief, or
    /// `None` when `map` has fewer than two workers (a lone worker never
    /// steals). Both the runtime's steal loop and the simulator's engine
    /// build their distributions through this one method, so a policy
    /// provably selects victims identically on both substrates.
    pub fn victim_distribution(
        &self,
        topo: &Topology,
        map: &WorkerMap,
        thief: usize,
    ) -> Option<StealDistribution> {
        if map.num_workers() < 2 {
            return None;
        }
        Some(match self.bias {
            StealBias::Uniform => StealDistribution::uniform(map.num_workers(), thief),
            StealBias::InverseDistance => StealDistribution::biased(topo, map, thief),
        })
    }

    /// The steal decision of paper Figure 5 (BIASEDSTEALWITHPUSH, l.28):
    /// which victim to probe and whether to look in its mailbox before its
    /// deque. `dist` is the thief's [`victim_distribution`](Self::victim_distribution)
    /// and `next` its random stream. The victim is drawn first; the coin
    /// is drawn second, and only when [`draws_coin`](Self::draws_coin)
    /// says so. With vanilla knobs this is Figure 2's RANDOMSTEAL: one
    /// uniform draw, deque only.
    ///
    /// Both substrates decide through this one method — the runtime over
    /// its `SplitMix64` cell, the simulator over its `SmallRng` — so a
    /// seeded policy makes the same decisions on both.
    #[inline]
    pub fn steal_target(
        &self,
        dist: &StealDistribution,
        mut next: impl FnMut() -> u64,
    ) -> (usize, bool) {
        let victim = dist.sample(next());
        let try_mailbox = if self.draws_coin() {
            next() & 1 == 0
        } else {
            self.uses_mailboxes() && self.coin_flip == CoinFlip::MailboxFirst
        };
        (victim, try_mailbox)
    }

    /// Does a [`steal_target`](Self::steal_target) decision draw a second
    /// value, the coin, after the victim? Only a fair coin on a policy with
    /// mailboxes flips one. A caller that needs only the victim (the
    /// simulator's idle fast-forward, where every attempt fails) still
    /// advances its stream past the coin exactly when this says so.
    #[inline]
    pub fn draws_coin(&self) -> bool {
        self.uses_mailboxes() && self.coin_flip == CoinFlip::Fair
    }

    /// The lazy-pushing decision of paper Figure 5 (l.5-11, l.21-26): the
    /// place a full frame hinted `hint` goes back to when worker `thief`
    /// holds it, or `None` when the thief runs it. Only a policy with
    /// mailboxes pushes, and only a frame whose [`WorkerMap::home_of`] is
    /// not the thief's place, so a home's workers never include the thief.
    #[inline]
    pub fn push_home(&self, map: &WorkerMap, thief: usize, hint: Place) -> Option<Place> {
        map.home_of(hint).filter(|&home| self.uses_mailboxes() && home != map.place_of(thief))
    }

    /// One PUSHBACK episode (paper §III-B). Each attempt draws
    /// `next() % len` over `candidates` (the workers of the job's
    /// [`push_home`](Self::push_home)) and offers `job` to that worker's
    /// mailbox through `deposit`, the substrate's mechanism. Returns `None`
    /// at the first landed deposit and hands the job back after an aborted
    /// one or `push_threshold + 1` full ones; empty `candidates` draw
    /// nothing and keep the job.
    #[inline]
    pub fn pushback<J>(
        &self,
        candidates: &[usize],
        mut job: J,
        mut next: impl FnMut() -> u64,
        mut deposit: impl FnMut(usize, J) -> Deposit<J>,
    ) -> Option<J> {
        if candidates.is_empty() {
            return Some(job);
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            job = match deposit(candidates[(next() % candidates.len() as u64) as usize], job) {
                Deposit::Landed => return None,
                Deposit::Aborted(back) => return Some(back),
                Deposit::Full(back) => back,
            };
            if attempts > self.push_threshold {
                return Some(job);
            }
        }
    }
}

impl Default for SchedPolicy {
    /// The paper's protocol: [`SchedPolicy::numa_ws`].
    fn default() -> Self {
        SchedPolicy::numa_ws()
    }
}

/// The flat text form of a policy, e.g.
/// `bias=inverse-distance coin=fair mailbox=1 push=4`: `reproduce` prints
/// it as the legend of its policy grid.
impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bias = match self.bias {
            StealBias::Uniform => "uniform",
            StealBias::InverseDistance => "inverse-distance",
        };
        let coin = match self.coin_flip {
            CoinFlip::Fair => "fair",
            CoinFlip::MailboxFirst => "mailbox-first",
            CoinFlip::DequeOnly => "deque-only",
        };
        write!(
            f,
            "bias={bias} coin={coin} mailbox={} push={}",
            self.mailbox_capacity, self.push_threshold
        )
    }
}

/// Derives worker `index`'s RNG seed from a run seed. Both substrates use
/// this one derivation, so seeded victim selection is comparable between
/// the runtime and the simulator.
#[inline]
pub fn worker_rng_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// SplitMix64 (Steele, Lea, Flood 2014): the random stream behind victim
/// selection and coin flips on both substrates. Deliberately the same
/// stream the vendored `SmallRng` produces for the same seed (pinned by a
/// test below), so the simulator — which draws through `rand` — and the
/// runtime — which steps this struct directly — sample identical victim
/// sequences for the same seed and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Starts the stream at `seed` (use [`worker_rng_seed`] for a worker's
    /// stream).
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Advances `state` one step, returning `(next_state, output)`. The
    /// runtime's worker threads use this stateless form over a `Cell`
    /// so the steal path stays two loads and a store.
    #[inline]
    pub fn step(state: u64) -> (u64, u64) {
        let s = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (s, z ^ (z >> 31))
    }

    /// The next value of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let (state, out) = Self::step(self.0);
        self.0 = state;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn presets_match_the_paper() {
        let v = SchedPolicy::vanilla();
        assert_eq!(v.bias, StealBias::Uniform);
        assert_eq!(v.coin_flip, CoinFlip::DequeOnly);
        assert!(!v.uses_mailboxes());

        let n = SchedPolicy::numa_ws();
        assert_eq!(n.bias, StealBias::InverseDistance);
        assert_eq!(n.coin_flip, CoinFlip::Fair);
        assert_eq!(n.mailbox_capacity, 1, "paper §III-B: exactly one entry");
        assert!(n.push_threshold >= 1);
        assert_eq!(SchedPolicy::default(), n);
    }

    #[test]
    fn numa_mechanism_classification() {
        let b = SchedPolicy::bias_only();
        assert_eq!(b.bias, StealBias::InverseDistance);
        assert!(!b.uses_mailboxes());
        let m = SchedPolicy::mailbox_only();
        assert_eq!(m.bias, StealBias::Uniform);
        assert!(m.uses_mailboxes());
    }

    #[test]
    fn grid_cells_differ_pairwise() {
        let grid = SchedPolicy::ablation_grid();
        for (i, (_, a)) in grid.iter().enumerate() {
            for (_, b) in grid.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn vanilla_display_is_pinned() {
        assert_eq!(
            SchedPolicy::vanilla().to_string(),
            "bias=uniform coin=deque-only mailbox=0 push=4"
        );
    }

    #[test]
    fn vanilla_ws_is_vanilla() {
        assert_eq!(SchedPolicy::vanilla_ws(), SchedPolicy::vanilla());
    }

    #[test]
    fn steal_target_draws_the_coin_only_when_fair_with_mailboxes() {
        let dist = StealDistribution::uniform(32, 0);
        // `(try_mailbox, draws)` when every draw is 1: an odd coin picks
        // the deque.
        let decide = |policy: SchedPolicy| {
            let mut draws = 0;
            let (_, try_mailbox) = policy.steal_target(&dist, || {
                draws += 1;
                1
            });
            (try_mailbox, draws)
        };
        assert_eq!(decide(SchedPolicy::numa_ws()), (false, 2));
        assert_eq!(decide(SchedPolicy::vanilla()), (false, 1));
        let flip = |base: SchedPolicy, coin_flip| SchedPolicy { coin_flip, ..base };
        assert_eq!(decide(flip(SchedPolicy::vanilla(), CoinFlip::Fair)), (false, 1));
        assert_eq!(decide(flip(SchedPolicy::numa_ws(), CoinFlip::MailboxFirst)), (true, 1));
        assert_eq!(decide(flip(SchedPolicy::numa_ws(), CoinFlip::DequeOnly)), (false, 1));
    }

    /// Runs one episode over `candidates` with draws `0, 1, 2, ...`;
    /// `outcome(attempt)` says what the attempt's deposit does. Returns
    /// the episode's result, the draws made and the targets offered.
    fn episode(
        threshold: u32,
        candidates: &[usize],
        mut outcome: impl FnMut(u32) -> Deposit<()>,
    ) -> (Option<()>, u64, Vec<usize>) {
        let policy = SchedPolicy { push_threshold: threshold, ..SchedPolicy::numa_ws() };
        let (mut draws, mut targets) = (0u64, Vec::new());
        let kept = policy.pushback(
            candidates,
            (),
            || {
                draws += 1;
                draws - 1
            },
            |target, ()| {
                targets.push(target);
                outcome(targets.len() as u32)
            },
        );
        (kept, draws, targets)
    }

    #[test]
    fn pushback_draws_once_per_attempt_in_order() {
        let (kept, draws, targets) = episode(4, &[10, 20, 30], |_| Deposit::Full(()));
        assert_eq!(kept, Some(()), "exhausting the threshold keeps the job");
        assert_eq!(draws, 5);
        assert_eq!(targets, [10, 20, 30, 10, 20], "draw i picks candidates[i % len]");
    }

    #[test]
    fn pushback_ends_at_the_first_landed_deposit() {
        let (kept, draws, targets) =
            episode(4, &[10, 20, 30], |n| if n == 3 { Deposit::Landed } else { Deposit::Full(()) });
        assert_eq!(kept, None);
        assert_eq!((draws, targets), (3, vec![10, 20, 30]));
    }

    #[test]
    fn pushback_makes_threshold_plus_one_attempts() {
        for threshold in [0, 1, 4] {
            let (kept, draws, _) = episode(threshold, &[7], |_| Deposit::Full(()));
            assert_eq!(kept, Some(()));
            assert_eq!(draws, u64::from(threshold) + 1, "threshold {threshold}");
        }
    }

    #[test]
    fn aborted_deposit_ends_the_episode_as_a_failure() {
        let (kept, draws, targets) = episode(4, &[10, 20], |_| Deposit::Aborted(()));
        assert_eq!(kept, Some(()));
        assert_eq!((draws, targets), (1, vec![10]));
    }

    #[test]
    fn empty_candidates_draw_nothing() {
        let (kept, draws, targets) = episode(4, &[], |_| Deposit::Landed);
        assert_eq!(kept, Some(()));
        assert_eq!((draws, targets.len()), (0, 0));
    }

    #[test]
    fn push_home_sends_only_foreign_frames_under_mailboxes() {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, 8, 4).unwrap();
        let numa = SchedPolicy::numa_ws();
        // Worker 1 sits on place 1.
        assert_eq!(numa.push_home(&map, 1, Place(2)), Some(Place(2)));
        assert_eq!(numa.push_home(&map, 1, Place(6)), Some(Place(2)), "hints wrap");
        assert_eq!(numa.push_home(&map, 1, Place(5)), None, "home is the thief's place");
        assert_eq!(numa.push_home(&map, 1, Place::ANY), None, "ANY has no home");
        assert_eq!(SchedPolicy::bias_only().push_home(&map, 1, Place(2)), None, "no mailboxes");
        assert!(!map.workers_of_place(Place(2)).contains(&1));
    }

    #[test]
    fn victim_distribution_follows_bias() {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, 32, 4).unwrap();
        let uniform = SchedPolicy::vanilla().victim_distribution(&topo, &map, 0).unwrap();
        let biased = SchedPolicy::numa_ws().victim_distribution(&topo, &map, 0).unwrap();
        assert_eq!(uniform, StealDistribution::uniform(32, 0));
        assert_eq!(biased, StealDistribution::biased(&topo, &map, 0));
        assert_ne!(uniform, biased);
    }

    #[test]
    fn lone_worker_has_no_distribution() {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, 1, 1).unwrap();
        assert!(SchedPolicy::numa_ws().victim_distribution(&topo, &map, 0).is_none());
    }

    #[test]
    fn splitmix_stateless_and_stateful_agree() {
        let mut rng = SplitMix64::new(0x5EED);
        let mut state = 0x5EEDu64;
        for _ in 0..32 {
            let (next, out) = SplitMix64::step(state);
            state = next;
            assert_eq!(rng.next_u64(), out);
        }
    }

    #[test]
    fn worker_rng_seed_separates_workers() {
        let seeds: Vec<u64> = (0..32).map(|w| worker_rng_seed(0x5EED, w)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in seeds.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(seeds[0], 0x5EED, "worker 0 keeps the run seed");
    }
}
