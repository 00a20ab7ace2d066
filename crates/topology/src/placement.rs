//! Assignment of worker threads to virtual places.

use crate::{Place, Topology, TopologyError};
use serde::{Deserialize, Serialize};

/// The fixed worker → place assignment for one run (paper §III-A: the user
/// decides at startup how many cores and sockets an application runs on;
/// the runtime spreads the workers evenly across those sockets).
///
/// Place `i` is the `i`-th socket of the [`Topology`]. Workers are not
/// pinned (DESIGN.md §2), so the map keeps no core per worker;
/// [`WorkerMap::new`] still checks that every worker would have a core of
/// its own on its socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerMap {
    places: Vec<Place>,
    workers_per_place: Vec<Vec<usize>>,
}

impl WorkerMap {
    /// Round-robins `workers` workers over the first `places` sockets of
    /// `topo`, so worker `w` sits at place `w % places`. Worker 0 is at
    /// place 0 (the paper pins the root computation to the first core,
    /// which makes the first spawned child implicitly run at place 0).
    /// [`Topology::packed_places`] gives Figure 9's place count.
    ///
    /// # Errors
    ///
    /// - [`TopologyError::ZeroRequested`] if `workers` or `places` is 0;
    /// - [`TopologyError::TooManyPlaces`] if `places` exceeds the socket
    ///   count;
    /// - [`TopologyError::TooManyWorkers`] if the `places` sockets have
    ///   fewer cores than `workers`.
    pub fn new(topo: &Topology, workers: usize, places: usize) -> Result<Self, TopologyError> {
        if workers == 0 {
            return Err(TopologyError::ZeroRequested { what: "workers" });
        }
        if places == 0 {
            return Err(TopologyError::ZeroRequested { what: "places" });
        }
        if places > topo.num_sockets() {
            return Err(TopologyError::TooManyPlaces {
                requested: places,
                available: topo.num_sockets(),
            });
        }
        let available = places * topo.cores_per_socket();
        if workers > available {
            return Err(TopologyError::TooManyWorkers { requested: workers, available });
        }
        let mut workers_per_place = vec![Vec::new(); places];
        for w in 0..workers {
            workers_per_place[w % places].push(w);
        }
        Ok(WorkerMap {
            places: (0..workers).map(|w| Place(w % places)).collect(),
            workers_per_place,
        })
    }

    /// Number of workers in the map.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.places.len()
    }

    /// Number of virtual places (sockets in use).
    #[inline]
    pub fn num_places(&self) -> usize {
        self.workers_per_place.len()
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
        hint.index().map(|p| Place(p % self.num_places()))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn packed(topo: &Topology, workers: usize) -> WorkerMap {
        WorkerMap::new(topo, workers, topo.packed_places(workers)).unwrap()
    }

    #[test]
    fn packed_uses_minimum_sockets() {
        // Figure 9: "for 24 cores, 3 sockets are used".
        let topo = presets::paper_machine();
        for (workers, places) in [(1, 1), (8, 1), (9, 2), (16, 2), (24, 3), (32, 4)] {
            assert_eq!(topo.packed_places(workers), places, "workers={workers}");
            let map = packed(&topo, workers);
            assert_eq!(map.num_places(), places, "workers={workers}");
            for w in 0..workers {
                assert_eq!(map.place_of(w), Place(w % places), "workers={workers}");
            }
        }
    }

    #[test]
    fn spread_uses_requested_sockets() {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, 8, 4).unwrap();
        assert_eq!(map.num_places(), 4);
        // Round-robin: two workers per socket.
        for p in 0..4 {
            assert_eq!(map.workers_of_place(Place(p)).len(), 2);
        }
    }

    #[test]
    fn worker_zero_on_first_core() {
        let topo = presets::paper_machine();
        let map = packed(&topo, 32);
        assert_eq!(map.workers_of_place(Place(0))[0], 0);
        assert_eq!(map.place_of(0), Place(0));
    }

    #[test]
    fn even_spread_across_places() {
        let topo = presets::paper_machine();
        let map = packed(&topo, 24);
        for p in 0..3 {
            assert_eq!(map.workers_of_place(Place(p)).len(), 8);
        }
    }

    #[test]
    fn uneven_worker_count_differs_by_at_most_one() {
        let topo = presets::paper_machine();
        let map = WorkerMap::new(&topo, 10, 4).unwrap();
        let sizes: Vec<usize> = (0..4).map(|p| map.workers_of_place(Place(p)).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn cores_unique_and_on_claimed_socket() {
        // Every worker fits on a core of its own on the socket it claims:
        // no place holds more workers than its socket has cores, and a
        // worker is listed under its own place.
        let topo = presets::paper_machine();
        for workers in [1, 9, 24, 32] {
            let map = packed(&topo, workers);
            assert_eq!(map.num_workers(), workers);
            for p in 0..map.num_places() {
                let on_place = map.workers_of_place(Place(p));
                assert!(on_place.len() <= topo.cores_per_socket(), "workers={workers}");
                for &w in on_place {
                    assert_eq!(map.place_of(w), Place(p));
                }
            }
        }
    }

    #[test]
    fn too_many_workers_rejected() {
        let topo = presets::paper_machine();
        assert_eq!(
            WorkerMap::new(&topo, 33, topo.packed_places(33)).unwrap_err(),
            TopologyError::TooManyWorkers { requested: 33, available: 32 }
        );
        assert_eq!(
            WorkerMap::new(&topo, 9, 1).unwrap_err(),
            TopologyError::TooManyWorkers { requested: 9, available: 8 }
        );
    }

    #[test]
    fn too_many_places_rejected() {
        let topo = presets::paper_machine();
        assert!(matches!(
            WorkerMap::new(&topo, 8, 5),
            Err(TopologyError::TooManyPlaces { requested: 5, available: 4 })
        ));
    }

    #[test]
    fn zero_workers_rejected() {
        let topo = presets::paper_machine();
        let err = WorkerMap::new(&topo, 0, 1).unwrap_err();
        assert_eq!(err, TopologyError::ZeroRequested { what: "workers" });
        assert_eq!(err.to_string(), "requested 0 workers; a placement needs at least one");
        let err = WorkerMap::new(&topo, 4, 0).unwrap_err();
        assert_eq!(err, TopologyError::ZeroRequested { what: "places" });
        assert_eq!(err.to_string(), "requested 0 places; a placement needs at least one");
    }

    #[test]
    fn hints_wrap_to_their_home() {
        let topo = presets::paper_machine();
        let map = packed(&topo, 16);
        assert_eq!(map.home_of(Place::ANY), None);
        assert_eq!(map.home_of(Place(1)), Some(Place(1)));
        assert_eq!(map.home_of(Place(3)), Some(Place(1)), "four-place code on two places");
    }

    #[test]
    #[should_panic(expected = "ANY")]
    fn any_place_has_no_workers() {
        let topo = presets::paper_machine();
        let map = packed(&topo, 8);
        map.workers_of_place(Place::ANY);
    }
}
