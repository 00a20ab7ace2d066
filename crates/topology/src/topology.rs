//! Machine descriptions: sockets, cores, and their distances.

use crate::DistanceMatrix;
use std::fmt;

/// Errors produced when constructing or using a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A topology must have at least one socket with at least one core.
    Empty,
    /// The distance matrix size does not match the socket count.
    DistanceMismatch {
        /// Sockets described by the topology.
        sockets: usize,
        /// Sockets described by the distance matrix.
        matrix: usize,
    },
    /// More workers were requested than the sockets in use have cores.
    TooManyWorkers {
        /// Requested worker count.
        requested: usize,
        /// Cores on the sockets in use.
        available: usize,
    },
    /// A placement asked for zero workers or zero places.
    ZeroRequested {
        /// What was asked for: `"workers"` or `"places"`.
        what: &'static str,
    },
    /// More places were requested than the machine has sockets.
    TooManyPlaces {
        /// Requested place count.
        requested: usize,
        /// Sockets available.
        available: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology must have at least one core"),
            TopologyError::DistanceMismatch { sockets, matrix } => {
                write!(f, "distance matrix describes {matrix} sockets but topology has {sockets}")
            }
            TopologyError::TooManyWorkers { requested, available } => {
                write!(
                    f,
                    "requested {requested} workers but the places in use have {available} cores"
                )
            }
            TopologyError::ZeroRequested { what } => {
                write!(f, "requested 0 {what}; a placement needs at least one")
            }
            TopologyError::TooManyPlaces { requested, available } => {
                write!(f, "requested {requested} places but machine has {available} sockets")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A description of a shared-memory NUMA machine: `sockets × cores_per_socket`
/// cores, one shared LLC and one DRAM bank per socket, and a numactl-style
/// [`DistanceMatrix`] between sockets.
///
/// Cores are numbered socket-major, matching the paper's Figure 1: cores
/// `0..8` on socket 0, `8..16` on socket 1, and so on.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    sockets: usize,
    cores_per_socket: usize,
    distances: DistanceMatrix,
}

impl Topology {
    /// Starts building a topology. See [`TopologyBuilder`].
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of sockets (NUMA nodes).
    #[inline]
    pub fn num_sockets(&self) -> usize {
        self.sockets
    }

    /// Number of cores per socket.
    #[inline]
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Total number of cores on the machine.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// The places `workers` packed workers use: the fewest sockets that
    /// hold them, the paper's Figure 9 setting ("threads are packed onto
    /// sockets tightly and the smallest number of sockets is used, i.e.,
    /// for 24 cores, 3 sockets are used"). Capped at the socket count, so
    /// [`WorkerMap::new`](crate::WorkerMap::new) reports a worker count
    /// that does not fit as too many workers.
    pub fn packed_places(&self, workers: usize) -> usize {
        workers.div_ceil(self.cores_per_socket).min(self.sockets)
    }

    /// The inter-socket distance matrix.
    #[inline]
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} sockets x {} cores = {} cores",
            self.sockets,
            self.cores_per_socket,
            self.num_cores()
        )?;
        for s in 0..self.sockets {
            let base = s * self.cores_per_socket;
            let cores: Vec<String> =
                (base..base + self.cores_per_socket).map(|c| c.to_string()).collect();
            writeln!(f, "  socket{s}: cores [{}]", cores.join(", "))?;
        }
        writeln!(f, "node distances:")?;
        write!(f, "{}", self.distances)
    }
}

/// Builder for [`Topology`]. All fields have sensible defaults for a
/// single-socket 8-core machine; override as needed.
///
/// # Example
///
/// ```
/// use nws_topology::{DistanceMatrix, Topology};
///
/// let topo = Topology::builder()
///     .sockets(2)
///     .cores_per_socket(4)
///     .distances(DistanceMatrix::uniform(2, 21))
///     .build()
///     .unwrap();
/// assert_eq!(topo.num_cores(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    sockets: usize,
    cores_per_socket: usize,
    distances: Option<DistanceMatrix>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder { sockets: 1, cores_per_socket: 8, distances: None }
    }
}

impl TopologyBuilder {
    /// Sets the number of sockets.
    pub fn sockets(&mut self, n: usize) -> &mut Self {
        self.sockets = n;
        self
    }

    /// Sets the number of cores per socket.
    pub fn cores_per_socket(&mut self, n: usize) -> &mut Self {
        self.cores_per_socket = n;
        self
    }

    /// Sets an explicit distance matrix. If unset, a uniform matrix with
    /// remote distance 21 is synthesized.
    pub fn distances(&mut self, d: DistanceMatrix) -> &mut Self {
        self.distances = Some(d);
        self
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] for zero sockets/cores and
    /// [`TopologyError::DistanceMismatch`] when the distance matrix does not
    /// match the socket count.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        if self.sockets == 0 || self.cores_per_socket == 0 {
            return Err(TopologyError::Empty);
        }
        let distances = match &self.distances {
            Some(d) => {
                if d.num_sockets() != self.sockets {
                    return Err(TopologyError::DistanceMismatch {
                        sockets: self.sockets,
                        matrix: d.num_sockets(),
                    });
                }
                d.clone()
            }
            None => DistanceMatrix::uniform(self.sockets, 21),
        };
        Ok(Topology { sockets: self.sockets, cores_per_socket: self.cores_per_socket, distances })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let t = Topology::builder().build().unwrap();
        assert_eq!(t.num_sockets(), 1);
        assert_eq!(t.num_cores(), 8);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Topology::builder().sockets(0).build().unwrap_err(), TopologyError::Empty);
        assert_eq!(
            Topology::builder().cores_per_socket(0).build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn distance_mismatch_rejected() {
        let err = Topology::builder()
            .sockets(3)
            .distances(DistanceMatrix::uniform(2, 21))
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::DistanceMismatch { sockets: 3, matrix: 2 });
        assert!(err.to_string().contains("distance matrix"));
    }

    #[test]
    fn display_mentions_all_sockets() {
        let t = Topology::builder().sockets(2).cores_per_socket(2).build().unwrap();
        let s = t.to_string();
        assert!(s.contains("socket0"));
        assert!(s.contains("socket1"));
        assert!(s.contains("node distances:"));
    }
}
