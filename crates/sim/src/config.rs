//! Simulation configuration: what an experiment varies.
//!
//! The scheduling knobs themselves (victim bias, coin flip, mailbox
//! capacity, pushback threshold) live in the shared policy layer —
//! [`nws_topology::SchedPolicy`] — which the real runtime's `PoolBuilder`
//! consumes too, so `SimConfig::vanilla()`/`numa_ws()` and a real pool
//! built from the same preset provably describe the same protocols. This
//! module adds the worker count, the seed and the schedule log. The
//! simulated machine's costs, caches and latencies are not options: they
//! are constants of the one machine the paper measured (DESIGN.md §2 "One
//! simulated machine").

use nws_topology::SchedPolicy;

/// Full configuration of one simulation run. Workers are always packed,
/// the paper's Figure 9 setting: the fewest sockets that hold them
/// ([`Topology::packed_places`](nws_topology::Topology::packed_places)),
/// round-robin across those.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The scheduling policy: victim bias, coin flip, mailbox capacity,
    /// pushback threshold (shared with the runtime's `PoolBuilder`).
    pub policy: SchedPolicy,
    /// Number of workers (P).
    pub workers: usize,
    /// RNG seed (runs are deterministic given a seed).
    pub seed: u64,
    /// Record the run's full schedule (steal sequence and per-frame
    /// executors) into [`SimReport::schedule`](crate::SimReport) — the
    /// evidence the record/replay determinism tests compare. Off by
    /// default.
    pub log_schedule: bool,
}

impl SimConfig {
    /// Classic work stealing on `workers` packed workers — the Cilk Plus
    /// baseline ([`SchedPolicy::vanilla`]).
    pub fn vanilla(workers: usize) -> Self {
        Self::with_policy(SchedPolicy::vanilla(), workers)
    }

    /// NUMA-WS on `workers` packed workers with the paper's protocol
    /// ([`SchedPolicy::numa_ws`] — the same preset `PoolBuilder` defaults
    /// to).
    pub fn numa_ws(workers: usize) -> Self {
        Self::with_policy(SchedPolicy::numa_ws(), workers)
    }

    /// A simulation of `workers` packed workers under an arbitrary
    /// scheduling policy (ablation grid cells included).
    pub fn with_policy(policy: SchedPolicy, workers: usize) -> Self {
        SimConfig { policy, workers, seed: 0x5EED, log_schedule: false }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style schedule-logging toggle.
    pub fn with_log_schedule(mut self, on: bool) -> Self {
        self.log_schedule = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topology::{CoinFlip, StealBias};

    #[test]
    fn classic_has_no_numa_machinery() {
        let c = SimConfig::vanilla(32);
        assert_eq!(c.policy, SchedPolicy::vanilla());
        assert_eq!(c.policy.mailbox_capacity, 0);
        assert_eq!(c.policy.bias, StealBias::Uniform);
        assert_eq!(c.policy.coin_flip, CoinFlip::DequeOnly);
    }

    #[test]
    fn numa_ws_defaults_match_paper() {
        let c = SimConfig::numa_ws(32);
        assert_eq!(c.policy, SchedPolicy::numa_ws());
        assert_eq!(c.policy.mailbox_capacity, 1);
        assert_eq!(c.policy.bias, StealBias::InverseDistance);
        assert_eq!(c.policy.coin_flip, CoinFlip::Fair);
        assert!(c.policy.push_threshold >= 1);
    }

    #[test]
    fn builders_override() {
        let c = SimConfig::numa_ws(8).with_seed(42).with_log_schedule(true);
        assert_eq!(c.seed, 42);
        assert!(c.log_schedule);
        assert_eq!(c.workers, 8);
    }
}
