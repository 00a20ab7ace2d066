//! # numa-ws — a NUMA-aware work-stealing task-parallel runtime
//!
//! A Rust implementation of the platform described in *"A NUMA-Aware
//! Provably-Efficient Task-Parallel Platform Based on the Work-First
//! Principle"* (Deters, Wu, Xu, Lee — IISWC 2018). The runtime extends
//! classic work stealing with the paper's three NUMA mechanisms while
//! keeping the work path as lean as Cilk's:
//!
//! - **Virtual places** (§III-A): workers are grouped per socket; spawns
//!   carry best-effort place hints ([`join_at`], [`join4_at`]) that wrap
//!   modulo the actual place count, keeping programs processor-oblivious.
//! - **Locality-biased steals** (§III-B): victims are drawn from a
//!   distance-weighted distribution instead of uniformly.
//! - **Lazy work pushing** (§III-B): a stolen job hinted for another
//!   socket is deposited into the single-entry mailbox of a random worker
//!   there, retrying up to a constant pushing threshold; thieves flip a
//!   coin between a victim's deque and its mailbox, preserving the classic
//!   `T1/P + O(T∞)` bound and `O(P·T∞)` steals.
//!
//! Worker deques implement the Cilk-5 THE protocol
//! ([`nws_deque`]), so the no-steal fast path performs no locking — the
//! work-first principle that gives the paper its `T1/TS ≈ 1` work
//! efficiency.
//!
//! Dynamic task sets — N children discovered at runtime, borrowing the
//! parent's environment — run in a structured [`scope`]: its body and
//! tasks call [`Scope::spawn`] / [`Scope::spawn_at`], which push
//! (optionally place-hinted) jobs onto the spawning worker's deque, and the
//! scope returns only when all of them have finished (see [`scope`]'s
//! documentation).
//!
//! Beyond the paper's single-root model, the pool is **service-shaped**:
//! external threads enter through per-place ingress queues
//! ([`Pool::install`], [`Pool::install_at`], and the fire-and-forget
//! [`Pool::spawn`] / [`Pool::spawn_at`]) that every worker of a place
//! drains, and idle workers sleep on a condition variable that ingress,
//! mailbox deposits, and deque pushes signal — many concurrent roots make
//! progress together, with no single-worker ingress bottleneck and no
//! busy-wait while the pool is idle. See DESIGN.md §4.
//!
//! The service posture extends to overload and failure: ingress queues can
//! be bounded ([`PoolBuilder::ingress_capacity`], [`Pool::try_spawn_at`],
//! [`OverflowPolicy`]), fire-and-forget job panics are caught and counted
//! ([`WorkerStatsSnapshot::job_panics`]), and a panic in *runtime*
//! code poisons the pool ([`PoisonedPool`]) — it drains and shuts down
//! instead of deadlocking its callers. A deterministic fault-injection tier
//! (`nws_sync::fault`, compiled in under `--cfg nws_fault`) exercises all
//! of this in CI. See DESIGN.md §9.
//!
//! ## What differs from the paper (and why)
//!
//! Cilk's continuation stealing requires compiler-managed cactus stacks;
//! in native Rust the stealable deque entry is the *other branch* of a
//! [`join`] and the continuation stays on the spawning worker's stack
//! (as in Rayon). The sync-side migration paths this removes are exercised
//! by the companion simulator crate (`nws-sim`), which runs the paper's
//! Figure 2/Figure 5 pseudocode verbatim. See `DESIGN.md` §2, "Child
//! stealing".
//!
//! ## Quickstart
//!
//! ```
//! use numa_ws::{join_at, Place, Pool, SchedPolicy};
//!
//! // Four workers over two virtual places.
//! let pool = Pool::builder()
//!     .workers(4)
//!     .places(2)
//!     .policy(SchedPolicy::numa_ws())
//!     .build()
//!     .expect("pool");
//!
//! fn sum(xs: &[u64]) -> u64 {
//!     if xs.len() <= 1024 {
//!         return xs.iter().sum();
//!     }
//!     let (lo, hi) = xs.split_at(xs.len() / 2);
//!     // Hint the stealable half toward place 1.
//!     let (a, b) = join_at(|| sum(lo), || sum(hi), Place(1));
//!     a + b
//! }
//!
//! let xs: Vec<u64> = (0..100_000).collect();
//! let total = pool.install(|| sum(&xs));
//! assert_eq!(total, 100_000 * 99_999 / 2);
//! ```

#![warn(missing_docs)]

mod config;
mod frames;
mod injector;
mod job;
mod join;
mod latch;
mod mailbox;
nws_sync::model_only! {
    #[cfg(test)]
    mod model_tests;
}
mod pool;
mod registry;
mod scope;
mod sleep;
mod stats;

pub use config::{BuildPoolError, OverflowPolicy, PoisonedPool};
pub use join::{join, join4, join4_at, join_at};
pub use pool::{Pool, PoolBuilder};
pub use scope::{scope, split_wanted, Scope};
pub use stats::{PoolStats, WorkerStatsSnapshot};

// Re-export the place type and the shared scheduling-policy layer: both
// are part of this crate's public API surface ([`PoolBuilder::policy`]
// consumes a [`SchedPolicy`]).
pub use nws_topology::{CoinFlip, Place, SchedPolicy, StealBias};

/// The synchronization facade the runtime is built on, re-exported so
/// downstream code (and the doc examples) can name one canonical path.
pub use nws_sync as sync;
