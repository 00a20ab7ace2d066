//! NUMA topology model for the NUMA-WS platform.
//!
//! This crate describes the *machine* side of the paper: sockets with their
//! own last-level caches and memory banks, cores grouped per socket, a
//! numactl-style distance matrix between sockets, the assignment of worker
//! threads to **virtual places** (one per socket in use: place `i` is
//! socket `i`, so one index names both), and the locality-biased
//! victim-selection distribution that the NUMA-WS scheduler derives from
//! the distances between places (paper §III-B).
//!
//! The paper's evaluation machine (Figure 1: four sockets, eight cores each,
//! QPI ring) is available as [`presets::paper_machine`].
//!
//! # Example
//!
//! ```
//! use nws_topology::{presets, StealDistribution, WorkerMap};
//!
//! let topo = presets::paper_machine();
//! assert_eq!(topo.num_sockets(), 4);
//! assert_eq!(topo.num_cores(), 32);
//!
//! // Pack 24 workers onto the smallest number of sockets (3), as in Fig. 9;
//! // worker `w` sits at place `w % 3`.
//! let places = topo.packed_places(24);
//! assert_eq!(places, 3);
//! let map = WorkerMap::new(&topo, 24, places).unwrap();
//! assert_eq!(map.num_places(), 3);
//!
//! // Biased steal distribution for worker 0 at place 0: prefers local
//! // victims, then one-hop places, then the two-hop place.
//! let dist = StealDistribution::biased(&topo, &map, 0);
//! assert!(dist.weight_of(1) > dist.weight_of(23));
//! ```

#![warn(missing_docs)]

mod distance;
mod ids;
mod placement;
pub mod policy;
pub mod presets;
mod steal;
mod topology;

pub use distance::DistanceMatrix;
pub use ids::Place;
pub use placement::WorkerMap;
pub use policy::{worker_rng_seed, CoinFlip, Deposit, SchedPolicy, SplitMix64, StealBias};
pub use steal::{ProbeCosts, StealDistribution};
pub use topology::{Topology, TopologyBuilder, TopologyError};
