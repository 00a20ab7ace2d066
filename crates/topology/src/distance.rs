//! numactl-style inter-socket distance matrices.

use crate::Place;
use std::fmt;

/// A symmetric matrix of relative memory-access distances between sockets,
/// in the convention used by `numactl --hardware`: the local distance is 10
/// and remote distances grow with hop count (e.g. 21 for one QPI hop, 31 for
/// two).
///
/// The NUMA-WS runtime "configures the steal probability distribution
/// according to the distances between virtual places, where the distances
/// are determined by the output from numactl" (paper §III-B); this type is
/// that input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n x n` distances.
    d: Vec<u32>,
}

impl DistanceMatrix {
    /// The conventional numactl distance from a socket to itself.
    pub const LOCAL: u32 = 10;

    /// Builds a distance matrix from row-major entries.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != n * n`, if any diagonal entry differs from
    /// [`Self::LOCAL`], if any other entry is below it, or if the matrix is
    /// not symmetric — malformed distances would silently corrupt the
    /// steal distribution (a remote distance of 0 divides by zero there,
    /// and one below `LOCAL` makes a remote victim likelier than a local
    /// one).
    fn from_rows(n: usize, d: Vec<u32>) -> Self {
        assert_eq!(d.len(), n * n, "distance matrix must be n*n");
        for i in 0..n {
            assert_eq!(
                d[i * n + i],
                Self::LOCAL,
                "diagonal distance must be {} (numactl convention)",
                Self::LOCAL
            );
            for j in 0..n {
                assert!(
                    d[i * n + j] >= Self::LOCAL,
                    "remote distance {} is below the local distance {}",
                    d[i * n + j],
                    Self::LOCAL
                );
                assert_eq!(d[i * n + j], d[j * n + i], "distance matrix must be symmetric");
            }
        }
        DistanceMatrix { n, d }
    }

    /// A matrix for `n` sockets that are all equidistant (`remote` between
    /// any two distinct sockets). This models fully-connected machines.
    ///
    /// # Panics
    ///
    /// Panics if `remote` is below [`Self::LOCAL`].
    pub fn uniform(n: usize, remote: u32) -> Self {
        let mut d = vec![remote; n * n];
        for i in 0..n {
            d[i * n + i] = Self::LOCAL;
        }
        Self::from_rows(n, d)
    }

    /// A matrix for `n` sockets on a ring (each socket has two one-hop
    /// neighbours), where the distance for `h` hops along the shorter arc
    /// is `f(h)`. The paper's Figure 1 machine maps one hop to 21 and two
    /// to 31.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0, if `f(0)` differs from [`Self::LOCAL`], or if
    /// any other `f(h)` is below it.
    pub fn ring_with(n: usize, f: impl Fn(u32) -> u32) -> Self {
        assert!(n > 0, "ring needs at least one socket");
        let mut d = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                let fwd = (j + n - i) % n;
                let hops = fwd.min(n - fwd) as u32;
                d[i * n + j] = f(hops);
            }
        }
        Self::from_rows(n, d)
    }

    /// Number of sockets described.
    #[inline]
    pub fn num_sockets(&self) -> usize {
        self.n
    }

    /// Distance between the sockets of two places.
    ///
    /// # Panics
    ///
    /// Panics if either place is out of range (or [`Place::ANY`]).
    #[inline]
    pub fn distance(&self, a: Place, b: Place) -> u32 {
        assert!(a.0 < self.n && b.0 < self.n, "place out of range");
        self.d[a.0 * self.n + b.0]
    }
}

impl fmt::Display for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node ")?;
        for j in 0..self.n {
            write!(f, "{j:>4}")?;
        }
        writeln!(f)?;
        for i in 0..self.n {
            write!(f, "{i:>3}: ")?;
            for j in 0..self.n {
                write!(f, "{:>4}", self.d[i * self.n + j])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> DistanceMatrix {
        // Figure 1 machine: QPI ring 0-1-3-2-0.
        DistanceMatrix::ring_with(4, |h| match h {
            0 => 10,
            1 => 21,
            _ => 31,
        })
    }

    #[test]
    fn ring_four_sockets_matches_paper_shape() {
        let m = paper_matrix();
        // On the ring 0-1-3-2-0 (socket order around the ring), each socket
        // has two one-hop neighbours and one two-hop socket.
        for i in 0..4 {
            let s = Place(i);
            assert_eq!(m.distance(s, s), 10);
            let mut counts = [0usize; 2];
            for j in 0..4 {
                if i == j {
                    continue;
                }
                match m.distance(s, Place(j)) {
                    21 => counts[0] += 1,
                    31 => counts[1] += 1,
                    other => panic!("unexpected distance {other}"),
                }
            }
            assert_eq!(counts, [2, 1]);
        }
    }

    #[test]
    fn uniform_matrix() {
        let m = DistanceMatrix::uniform(3, 20);
        assert_eq!(m.distance(Place(0), Place(0)), 10);
        assert_eq!(m.distance(Place(0), Place(2)), 20);
        assert_eq!(m.distance(Place(2), Place(1)), 20);
    }

    #[test]
    fn single_socket_matrix() {
        let m = DistanceMatrix::uniform(1, 20);
        assert_eq!(m.num_sockets(), 1);
        assert_eq!(m.distance(Place(0), Place(0)), 10);
    }

    #[test]
    fn tiers_sorted_and_deduped() {
        // Socket 0's distances to the sockets zero, one and two hops away:
        // one tier per hop count, rising.
        let m = paper_matrix();
        let tiers = [0, 1, 2].map(|j| m.distance(Place(0), Place(j)));
        assert_eq!(tiers, [10, 21, 31]);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_rows_asserts_symmetry() {
        DistanceMatrix::from_rows(2, vec![10, 21, 22, 10]);
    }

    #[test]
    #[should_panic(expected = "below the local distance")]
    fn uniform_rejects_remote_below_local() {
        DistanceMatrix::uniform(2, 0);
    }

    #[test]
    #[should_panic(expected = "below the local distance")]
    fn ring_with_rejects_remote_below_local() {
        DistanceMatrix::ring_with(3, |h| if h == 0 { DistanceMatrix::LOCAL } else { 5 });
    }

    #[test]
    #[should_panic(expected = "place out of range")]
    fn distance_bounds_checked() {
        let m = DistanceMatrix::uniform(2, 20);
        m.distance(Place(0), Place(2));
    }
}
