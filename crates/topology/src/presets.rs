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

/// A single-socket machine with `cores` cores — the degenerate case where
/// NUMA-WS must behave exactly like classic work stealing.
pub fn single_socket(cores: usize) -> Topology {
    Topology::builder()
        .sockets(1)
        .cores_per_socket(cores)
        .build()
        .expect("single socket is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_figure_1() {
        let t = paper_machine();
        assert_eq!(t.num_sockets(), 4);
        assert_eq!(t.cores_per_socket(), 8);
        assert_eq!(t.num_cores(), 32);
        assert_eq!(t.distances().tiers(), vec![10, 21, 31]);
    }

    #[test]
    fn single_socket_has_one_tier() {
        let t = single_socket(24);
        assert_eq!(t.num_cores(), 24);
        assert_eq!(t.distances().tiers(), vec![10]);
    }
}
