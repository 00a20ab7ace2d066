//! Discrete-event NUMA machine simulator for the NUMA-WS reproduction.
//!
//! The paper's evaluation needs a four-socket NUMA server; this container
//! has none, so the evaluation substrate is simulated (see DESIGN.md §2).
//! The simulator executes task DAGs under the paper's scheduler — NUMA-WS
//! (Figure 5), which with vanilla [`SchedPolicy`] knobs is classic work
//! stealing (Figure 2) — over a machine
//! model with per-socket shared LLCs, per-worker private caches, page homes
//! set by allocation policy, and hop-scaled remote latencies. Work
//! inflation, the phenomenon the paper measures, emerges from placement:
//! the same strands cost more cycles when steals drag them away from their
//! data.
//!
//! # Example
//!
//! ```
//! use nws_sim::{DagBuilder, SimConfig, Simulation};
//! use nws_topology::{presets, Place};
//!
//! // A two-leaf computation, walked: each leaf frame closes inside the
//! // root, which spawns it there.
//! let mut b = DagBuilder::new();
//! b.frame(Place::ANY, |b| {
//!     b.frame(Place::ANY, |b| _ = b.compute(1_000));
//!     b.frame(Place::ANY, |b| _ = b.compute(1_000));
//!     b.sync();
//! });
//! let dag = b.build();
//!
//! let topo = presets::paper_machine();
//! let report = Simulation::new(&topo, SimConfig::numa_ws(2), &dag)
//!     .expect("config fits machine")
//!     .run();
//! assert!(report.makespan >= 1_000);
//! ```

#![warn(missing_docs)]

mod config;
mod dag;
mod engine;
mod memory;
#[cfg(test)]
mod recipe;
mod replay;
mod report;

pub use config::SimConfig;
pub use dag::{phased, tree, Dag, DagBuilder, FrameDef, FrameId, Step, Strand};
pub use engine::Simulation;
pub use memory::{
    PagePolicy, Region, RegionId, Touch, LINES_PER_PAGE, LINE_BYTES, PAGE_BYTES,
    STREAM_DISCOUNT_PCT,
};
// The scheduling-policy layer is shared with the real runtime; re-export
// it so simulator users keep one import path for the ablation knobs.
pub use nws_topology::{CoinFlip, SchedPolicy, StealBias};
pub use replay::{trace_to_dag, DEFAULT_NS_PER_CYCLE};
pub use report::{Counters, ScheduleLog, SimReport, WorkerTimes};
