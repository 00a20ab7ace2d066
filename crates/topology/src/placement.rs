//! Assignment of worker threads to sockets and virtual places.

use crate::{Place, SocketId, Topology, TopologyError};
use serde::{Deserialize, Serialize};

/// Policy for mapping `P` workers onto the machine (paper §III-A: the user
/// decides how many cores and sockets an application runs on at startup;
/// the runtime then spreads workers evenly across the used sockets and fixes
/// worker-to-core affinity for the whole run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Use the smallest number of sockets that can hold the workers and
    /// spread workers evenly across them. This is the configuration used in
    /// the paper's Figure 9 ("threads are packed onto sockets tightly and
    /// the smallest number of sockets is used, i.e., for 24 cores, 3 sockets
    /// are used").
    Packed,
    /// Spread workers evenly across exactly this many sockets.
    Spread {
        /// Number of sockets to use.
        sockets: usize,
    },
}

/// The fixed worker → (socket, place) assignment for one run.
///
/// Virtual places are numbered densely `0..S` over the sockets in use, so
/// `Place(i)` is the group of workers on the `i`-th used socket. Workers
/// are not pinned (DESIGN.md §2), so the map keeps no core per worker;
/// [`Placement::assign`] still checks that every worker would have a core
/// of its own on its socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerMap {
    sockets: Vec<SocketId>,
    places: Vec<Place>,
    num_places: usize,
    workers_per_place: Vec<Vec<usize>>,
}

impl Placement {
    /// Computes the worker map for `workers` workers on `topo`.
    ///
    /// Worker 0 always goes to the first used socket (the paper pins the
    /// root computation to its first core, which makes the first spawned
    /// child implicitly run at place 0).
    ///
    /// # Errors
    ///
    /// - [`TopologyError::TooManyWorkers`] if the machine (or the requested
    ///   sockets) cannot hold `workers` workers;
    /// - [`TopologyError::TooManyPlaces`] if `Spread{sockets}` exceeds the
    ///   socket count;
    /// - [`TopologyError::ZeroRequested`] if `workers` or `Spread{sockets}`
    ///   is 0.
    pub fn assign(self, topo: &Topology, workers: usize) -> Result<WorkerMap, TopologyError> {
        if workers == 0 {
            return Err(TopologyError::ZeroRequested { what: "workers" });
        }
        if workers > topo.num_cores() {
            return Err(TopologyError::TooManyWorkers {
                requested: workers,
                available: topo.num_cores(),
            });
        }
        let sockets_used = match self {
            Placement::Packed => workers.div_ceil(topo.cores_per_socket()),
            Placement::Spread { sockets } => {
                if sockets > topo.num_sockets() {
                    return Err(TopologyError::TooManyPlaces {
                        requested: sockets,
                        available: topo.num_sockets(),
                    });
                }
                if sockets == 0 {
                    return Err(TopologyError::ZeroRequested { what: "places" });
                }
                if workers > sockets * topo.cores_per_socket() {
                    return Err(TopologyError::TooManyWorkers {
                        requested: workers,
                        available: sockets * topo.cores_per_socket(),
                    });
                }
                sockets
            }
        };

        // Spread evenly: round-robin over the used sockets. The checks above
        // leave every socket at most `cores_per_socket` workers.
        let mut sockets = Vec::with_capacity(workers);
        let mut places = Vec::with_capacity(workers);
        let mut workers_per_place = vec![Vec::new(); sockets_used];
        for w in 0..workers {
            let s = w % sockets_used;
            sockets.push(SocketId(s));
            places.push(Place(s));
            workers_per_place[s].push(w);
        }
        Ok(WorkerMap { sockets, places, num_places: sockets_used, workers_per_place })
    }
}

impl WorkerMap {
    /// Number of workers in the map.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.sockets.len()
    }

    /// Number of virtual places (sockets in use).
    #[inline]
    pub fn num_places(&self) -> usize {
        self.num_places
    }

    /// The socket a worker runs on.
    #[inline]
    pub fn socket_of(&self, worker: usize) -> SocketId {
        self.sockets[worker]
    }

    /// The virtual place a worker belongs to.
    #[inline]
    pub fn place_of(&self, worker: usize) -> Place {
        self.places[worker]
    }

    /// The place a locality hint names on this map, or `None` for
    /// [`Place::ANY`]. Hints beyond the place count wrap, so code written
    /// for four places runs unchanged on two (paper §III-A).
    #[inline]
    pub fn home_of(&self, hint: Place) -> Option<Place> {
        hint.index().map(|p| Place(p % self.num_places))
    }

    /// The workers belonging to a place.
    ///
    /// # Panics
    ///
    /// Panics if `place` is [`Place::ANY`] or out of range.
    pub fn workers_of_place(&self, place: Place) -> &[usize] {
        let idx = place.index().expect("ANY has no worker set");
        &self.workers_per_place[idx]
    }

    /// The socket backing a place (identity mapping over used sockets).
    ///
    /// # Panics
    ///
    /// Panics if `place` is [`Place::ANY`] or out of range.
    pub fn socket_of_place(&self, place: Place) -> SocketId {
        let idx = place.index().expect("ANY has no socket");
        assert!(idx < self.num_places, "place out of range");
        SocketId(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, CoreId};

    #[test]
    fn packed_uses_minimum_sockets() {
        let topo = presets::paper_machine();
        for (workers, expect_sockets) in [(1, 1), (8, 1), (9, 2), (16, 2), (24, 3), (32, 4)] {
            let map = Placement::Packed.assign(&topo, workers).unwrap();
            assert_eq!(map.num_places(), expect_sockets, "workers={workers}");
        }
    }

    #[test]
    fn spread_uses_requested_sockets() {
        let topo = presets::paper_machine();
        let map = Placement::Spread { sockets: 4 }.assign(&topo, 8).unwrap();
        assert_eq!(map.num_places(), 4);
        // Round-robin: two workers per socket.
        for p in 0..4 {
            assert_eq!(map.workers_of_place(Place(p)).len(), 2);
        }
    }

    #[test]
    fn worker_zero_on_first_core() {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, 32).unwrap();
        assert_eq!(map.socket_of(0), topo.socket_of(CoreId(0)));
        assert_eq!(map.workers_of_place(Place(0))[0], 0);
        assert_eq!(map.place_of(0), Place(0));
    }

    #[test]
    fn even_spread_across_places() {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, 24).unwrap();
        for p in 0..3 {
            assert_eq!(map.workers_of_place(Place(p)).len(), 8);
        }
    }

    #[test]
    fn uneven_worker_count_differs_by_at_most_one() {
        let topo = presets::paper_machine();
        let map = Placement::Spread { sockets: 4 }.assign(&topo, 10).unwrap();
        let sizes: Vec<usize> = (0..4).map(|p| map.workers_of_place(Place(p)).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn cores_unique_and_on_claimed_socket() {
        // Every worker fits on a core of its own on the socket it claims:
        // no socket holds more workers than cores, and a worker's socket is
        // its place's socket.
        let topo = presets::paper_machine();
        for workers in [1, 9, 24, 32] {
            let map = Placement::Packed.assign(&topo, workers).unwrap();
            assert_eq!(map.num_workers(), workers);
            for p in 0..map.num_places() {
                let on_place = map.workers_of_place(Place(p));
                assert!(on_place.len() <= topo.cores_per_socket(), "workers={workers}");
                for &w in on_place {
                    assert_eq!(map.socket_of(w), map.socket_of_place(Place(p)));
                }
            }
        }
    }

    #[test]
    fn too_many_workers_rejected() {
        let topo = presets::paper_machine();
        assert!(matches!(
            Placement::Packed.assign(&topo, 33),
            Err(TopologyError::TooManyWorkers { .. })
        ));
        assert!(matches!(
            Placement::Spread { sockets: 1 }.assign(&topo, 9),
            Err(TopologyError::TooManyWorkers { .. })
        ));
    }

    #[test]
    fn too_many_places_rejected() {
        let topo = presets::paper_machine();
        assert!(matches!(
            Placement::Spread { sockets: 5 }.assign(&topo, 8),
            Err(TopologyError::TooManyPlaces { .. })
        ));
    }

    #[test]
    fn zero_workers_rejected() {
        let topo = presets::paper_machine();
        let err = Placement::Packed.assign(&topo, 0).unwrap_err();
        assert_eq!(err, TopologyError::ZeroRequested { what: "workers" });
        assert_eq!(err.to_string(), "requested 0 workers; a placement needs at least one");
        let err = Placement::Spread { sockets: 0 }.assign(&topo, 4).unwrap_err();
        assert_eq!(err, TopologyError::ZeroRequested { what: "places" });
        assert_eq!(err.to_string(), "requested 0 places; a placement needs at least one");
    }

    #[test]
    fn place_socket_identity() {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, 24).unwrap();
        for p in 0..3 {
            assert_eq!(map.socket_of_place(Place(p)), SocketId(p));
        }
    }

    #[test]
    fn hints_wrap_to_their_home() {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, 16).unwrap();
        assert_eq!(map.home_of(Place::ANY), None);
        assert_eq!(map.home_of(Place(1)), Some(Place(1)));
        assert_eq!(map.home_of(Place(3)), Some(Place(1)), "four-place code on two places");
    }

    #[test]
    #[should_panic(expected = "ANY")]
    fn any_place_has_no_workers() {
        let topo = presets::paper_machine();
        let map = Placement::Packed.assign(&topo, 8).unwrap();
        map.workers_of_place(Place::ANY);
    }
}
