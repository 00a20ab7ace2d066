//! NUMA topology model for the NUMA-WS platform.
//!
//! This crate describes the *machine* side of the paper: sockets with their
//! own last-level caches and memory banks, cores grouped per socket, a
//! numactl-style distance matrix between sockets, the assignment of worker
//! threads to cores (and therefore to **virtual places**, one per socket in
//! use), and the locality-biased victim-selection distribution that the
//! NUMA-WS scheduler derives from the distances (paper §III-B).
//!
//! The paper's evaluation machine (Figure 1: four sockets, eight cores each,
//! QPI ring) is available as [`presets::paper_machine`].
//!
//! # Example
//!
//! ```
//! use nws_topology::{presets, Placement, StealDistribution};
//!
//! let topo = presets::paper_machine();
//! assert_eq!(topo.num_sockets(), 4);
//! assert_eq!(topo.num_cores(), 32);
//!
//! // Pack 24 workers onto the smallest number of sockets (3), as in Fig. 9.
//! let map = Placement::Packed.assign(&topo, 24).unwrap();
//! assert_eq!(map.num_places(), 3);
//!
//! // Biased steal distribution for a worker on socket 0: prefers local
//! // victims, then one-hop sockets, then the two-hop socket.
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
pub use ids::{CoreId, Place, SocketId};
pub use placement::{Placement, WorkerMap};
pub use policy::{worker_rng_seed, CoinFlip, Deposit, SchedPolicy, SplitMix64, StealBias};
pub use steal::{ProbeCosts, StealDistribution};
pub use topology::{Topology, TopologyBuilder, TopologyError};
