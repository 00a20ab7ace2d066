//! Umbrella crate for the NUMA-WS reproduction.
//!
//! This crate re-exports every member of the workspace so that examples and
//! integration tests can reach the whole system through a single dependency.
//!
//! The reproduction implements the platform described in *"A NUMA-Aware
//! Provably-Efficient Task-Parallel Platform Based on the Work-First
//! Principle"* (Deters, Wu, Xu, Lee — IISWC 2018):
//!
//! - [`runtime`] — the real threaded work-stealing runtime with virtual
//!   places, locality-biased steals, single-entry mailboxes and lazy work
//!   pushing ([`numa_ws`]).
//! - [`sim`] — a discrete-event NUMA machine simulator that executes the
//!   paper's Figure 2 (classic) and Figure 5 (NUMA-WS) scheduler pseudocode
//!   over task DAGs with a cache/DRAM placement model ([`nws_sim`]).
//! - [`topology`] — socket/core/place descriptions, distance matrices,
//!   and the shared scheduling-policy layer (`SchedPolicy`) that both the
//!   runtime and the simulator consume ([`nws_topology`]).
//! - [`layout`] — Z-Morton and blocked Z-Morton matrix layouts
//!   ([`nws_layout`]).
//! - [`apps`] — the seven paper benchmarks ([`nws_apps`]).
//! - [`deque`] — the Cilk-5 THE-protocol deque ([`nws_deque`]).
//! - [`trace`] — the compact DAG trace format behind the runtime's
//!   `PoolBuilder::record_trace` and the simulator's `trace_to_dag`
//!   replay ([`nws_trace`]).
//!
//! # Quickstart
//!
//! ```
//! use numa_ws_repro::runtime::{self, Pool, SchedPolicy};
//!
//! let pool = Pool::builder()
//!     .workers(4)
//!     .places(2)
//!     .policy(SchedPolicy::numa_ws())
//!     .build()
//!     .expect("pool construction");
//! let (a, b) = pool.install(|| runtime::join(|| 1 + 1, || 2 + 2));
//! assert_eq!((a, b), (2, 4));
//! ```

pub use numa_ws as runtime;
pub use nws_apps as apps;
pub use nws_deque as deque;
pub use nws_layout as layout;
pub use nws_sim as sim;
pub use nws_topology as topology;
pub use nws_trace as trace;
