//! Simulation configuration: scheduling policy, costs, and ablation
//! knobs.
//!
//! The scheduling knobs themselves (victim bias, coin flip, mailbox
//! capacity, pushback threshold) live in the shared policy layer —
//! [`nws_topology::SchedPolicy`] — which the real runtime's `PoolBuilder`
//! consumes too, so `SimConfig::vanilla()`/`numa_ws()` and a real pool
//! built from the same preset provably describe the same protocols. This
//! module adds what only the simulator needs: the machine cost model and
//! the memory system parameters.

use crate::memory::{CacheConfig, ContentionModel, LatencyModel};
use nws_topology::{Placement, SchedPolicy};
use serde::{Deserialize, Serialize};

/// Scheduling operation costs in cycles. Work-path costs (spawn push, pop,
/// trivial sync) are small constants; steal-path costs are larger and, for
/// inter-socket operations, scale with the numactl distance — the model's
/// rendering of "incur overhead on the thief, not the worker".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedCosts {
    /// Deque push at a spawn (work path).
    pub spawn_push: u64,
    /// Deque pop at a spawned child's return (work path).
    pub pop: u64,
    /// A sync that was never stolen (work path, no-op check).
    pub sync_trivial: u64,
    /// Promoting a stolen frame to a full frame (steal path).
    pub promote: u64,
    /// A steal attempt's base cost (lock + probe), plus per-distance cost.
    pub steal_base: u64,
    /// Extra cycles per unit of numactl distance for a steal probe.
    pub steal_per_distance: u64,
    /// CHECKSYNC on a stolen frame (non-trivial sync).
    pub sync_nontrivial: u64,
    /// Suspending a frame at an unsuccessful sync.
    pub suspend: u64,
    /// CHECKPARENT when returning to a stolen parent.
    pub check_parent: u64,
    /// One mailbox push attempt (PUSHBACK step), plus per-distance cost.
    pub push_attempt: u64,
    /// Taking a frame out of a mailbox (own or a victim's).
    pub mailbox_take: u64,
}

impl Default for SchedCosts {
    fn default() -> Self {
        SchedCosts {
            spawn_push: 5,
            pop: 5,
            sync_trivial: 1,
            promote: 120,
            steal_base: 40,
            steal_per_distance: 3,
            sync_nontrivial: 60,
            suspend: 80,
            check_parent: 40,
            push_attempt: 60,
            mailbox_take: 30,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The scheduling policy: victim bias, coin flip, mailbox capacity,
    /// pushback threshold (shared with the runtime's `PoolBuilder`).
    pub policy: SchedPolicy,
    /// Number of workers (P).
    pub workers: usize,
    /// How workers map onto sockets.
    pub placement: Placement,
    /// RNG seed (runs are deterministic given a seed).
    pub seed: u64,
    /// Memory latencies.
    pub latency: LatencyModel,
    /// Cache capacities.
    pub caches: CacheConfig,
    /// Interconnect bandwidth contention model.
    pub contention: ContentionModel,
    /// Scheduling operation costs.
    pub costs: SchedCosts,
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
        SimConfig {
            policy,
            workers,
            placement: Placement::Packed,
            seed: 0x5EED,
            latency: LatencyModel::default(),
            caches: CacheConfig::default(),
            contention: ContentionModel::default(),
            costs: SchedCosts::default(),
            log_schedule: false,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style placement override.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
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
        let c =
            SimConfig::numa_ws(8).with_seed(42).with_placement(Placement::Spread { sockets: 4 });
        assert_eq!(c.seed, 42);
        assert_eq!(c.placement, Placement::Spread { sockets: 4 });
    }

    #[test]
    fn work_path_costs_smaller_than_steal_path() {
        let c = SchedCosts::default();
        assert!(c.spawn_push < c.promote);
        assert!(c.pop < c.steal_base);
        assert!(c.sync_trivial < c.sync_nontrivial);
    }
}
