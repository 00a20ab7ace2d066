//! Ready-made machine descriptions, including the paper's evaluation box.

use crate::{DistanceMatrix, Topology};

/// The paper's evaluation machine (Figure 1 / §V): four sockets of eight
/// 2.2 GHz cores (Intel Xeon E5-4620), QPI links forming a ring so each
/// socket has two one-hop neighbours (distance 21) and one two-hop socket
/// (distance 31).
pub fn paper_machine() -> Topology {
    Topology::builder()
        .sockets(4)
        .cores_per_socket(8)
        .distances(DistanceMatrix::ring_with(4, |h| match h {
            0 => 10,
            1 => 21,
            _ => 31,
        }))
        .build()
        .expect("paper machine is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Place;

    #[test]
    fn paper_machine_matches_figure_1() {
        let t = paper_machine();
        assert_eq!(t.num_sockets(), 4);
        assert_eq!(t.cores_per_socket(), 8);
        assert_eq!(t.num_cores(), 32);
        let d = t.distances();
        for (a, b, dist) in [(0, 0, 10), (0, 1, 21), (0, 2, 31), (0, 3, 21), (1, 3, 31)] {
            assert_eq!(d.distance(Place(a), Place(b)), dist, "sockets {a} and {b}");
        }
    }

    #[test]
    fn single_socket_has_one_tier() {
        let t = Topology::builder().sockets(1).cores_per_socket(24).build().unwrap();
        assert_eq!(t.num_cores(), 24);
        assert_eq!(t.distances().num_sockets(), 1);
        assert_eq!(t.distances().distance(Place(0), Place(0)), DistanceMatrix::LOCAL);
    }
}
